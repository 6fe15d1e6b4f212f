//! The `experiments` command line rejects what it would otherwise
//! silently ignore, before any figure runs.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

/// Exit 2, nothing on stdout, and a stderr line that names the offence.
fn assert_rejected(args: &[&str], names: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran a figure before failing"
    );
    assert!(stderr.contains(names), "{args:?}: {stderr}");
}

#[test]
fn unknown_flag_is_rejected_not_dropped() {
    assert_rejected(&["fig3-1", "--ful"], "--ful");
}

#[test]
fn flag_no_named_figure_honours_is_rejected() {
    assert_rejected(&["fig3-1", "--resume", "x"], "--resume");
    assert_rejected(&["fig3-1", "--trace-events", "x"], "--trace-events");
    assert_rejected(&["fig3-3", "--reconcile-json", "x"], "--reconcile-json");
}

#[test]
fn unknown_figure_is_rejected_before_the_figures_ahead_of_it_run() {
    assert_rejected(&["fig3-1", "nosuch"], "nosuch");
}

#[test]
fn resume_of_a_file_that_is_no_checkpoint_is_rejected_not_run_fresh() {
    assert_rejected(&["mega-grid", "--resume", "/nonexistent"], "--resume");
    let path = std::env::temp_dir().join(format!("cli-zeros-{}.ckpt", std::process::id()));
    std::fs::write(&path, [0u8; 100]).expect("the temp file is written");
    let zeros = path.to_str().expect("utf-8 temp path");
    assert_rejected(&["mega-grid", "--resume", zeros], "bad magic");
    std::fs::remove_file(&path).ok();
}

#[test]
fn honoured_flag_runs_and_leaves_stdout_as_the_plain_run() {
    let path = std::env::temp_dir().join(format!("cli-trace-{}.jsonl", std::process::id()));
    let traced = experiments(&[
        "hostile",
        "--seed",
        "0",
        "--trace-events",
        path.to_str().expect("utf-8 temp path"),
    ]);
    let events = std::fs::read_to_string(&path).expect("the trace was written");
    std::fs::remove_file(&path).ok();
    assert_eq!(traced.status.code(), Some(0));
    assert!(
        events.lines().count() > 0,
        "the traced trial emitted events"
    );
    let plain = experiments(&["hostile", "--seed", "0"]);
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(traced.stdout, plain.stdout);
    // A flag only one of the named figures honours is accepted.
    let mixed = experiments(&["fig3-1", "fig3-3", "--shards", "2", "--seed", "0"]);
    assert_eq!(mixed.status.code(), Some(0));
}

#[test]
fn a_path_with_a_quote_in_it_stays_json_on_stderr() {
    let path = std::env::temp_dir().join(format!("cli-a\"b-{}.json", std::process::id()));
    let path = path.to_str().expect("utf-8 temp path");
    let out = experiments(&["fig3-1", "--metrics-out", path]);
    std::fs::remove_file(path).ok();
    std::fs::remove_file(format!("{path}.prom")).ok();
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.contains("\"event\":\"metrics_written\""))
        .expect("a metrics_written line");
    assert!(line.contains("a\\\"b"), "{line}");
}
