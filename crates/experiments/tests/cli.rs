//! The `experiments` command line rejects what it would otherwise
//! silently ignore, before any figure runs.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

/// Exit 2, nothing on stdout, and a stderr line that names the offence;
/// returns what stderr said.
fn assert_rejected(args: &[&str], names: &str) -> String {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran a figure before failing"
    );
    assert!(stderr.contains(names), "{args:?}: {stderr}");
    stderr
}

#[test]
fn unknown_flag_is_rejected_not_dropped() {
    assert_rejected(&["fig3-1", "--ful"], "--ful");
    assert_rejected(&["mega-grid", "--shards", "2"], "unknown flag '--shards'");
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
fn a_number_that_is_not_one_is_rejected_before_an_output_path_is_touched() {
    let dir = std::env::temp_dir().join(format!("cli-nan-{}", std::process::id()));
    std::fs::create_dir(&dir).expect("the temp directory is made");
    let metrics = dir.join("m.json");
    let metrics = metrics.to_str().expect("utf-8 temp path");
    assert_rejected(
        &["fig4-4", "--threads", "abc", "--metrics-out", metrics],
        "--threads",
    );
    let left_behind = std::fs::read_dir(&dir).map_or(0, Iterator::count);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(left_behind, 0, "a rejected command line creates nothing");
    for flag in ["--threads", "--seed", "--checkpoint-every"] {
        assert_rejected(&["mega-grid", flag, "-1"], flag);
    }
}

#[test]
fn a_flag_is_not_another_flags_value() {
    let stderr = assert_rejected(&["fig3-3", "--trace-events", "--full"], "--trace-events");
    assert!(stderr.contains("requires a value"), "{stderr}");
}

#[test]
fn a_flag_given_twice_is_rejected_not_read_once() {
    assert_rejected(&["fig4-9", "--threads", "1", "--threads", "x"], "twice");
    assert_rejected(&["fig3-1", "--full", "--full"], "twice");
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
fn resume_of_a_checkpoint_whose_body_is_refused_fails_instead_of_running_fresh() {
    let dir = std::env::temp_dir().join(format!("cli-refused-{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let args = ["mega-grid", "--seed", "0", "--threads", "1"];
    let every = ["--checkpoint-every", "50", "--checkpoint-dir", dir_arg];
    let written = experiments(&[&args[..], &every].concat());
    assert_eq!(written.status.code(), Some(0));
    let path = dir.join("mega-grid-64-fault-free-round-000050.ckpt");
    let mut bytes = std::fs::read(&path).expect("the round-50 checkpoint was written");
    // The first body word, `next_message_id`: more ids than records.
    bytes[28..36].fill(0xFF);
    std::fs::write(&path, bytes).expect("the checkpoint is rewritten");
    let path = path.to_str().expect("utf-8 temp path");
    let refused = experiments(&[&args[..], &["--resume", path]].concat());
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(1), "{stderr}");
    assert!(refused.stdout.is_empty(), "no mega-grid table");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with(&format!("--resume {path}: ")) && stderr.contains("records"),
        "{stderr}"
    );
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
    // A flag without a value takes none: what follows it is still read.
    let valueless_first = experiments(&["--progress", "fig3-1", "--seed", "0"]);
    assert_eq!(valueless_first.status.code(), Some(0));
    // A flag only one of the named figures honours is accepted.
    let trace = std::env::temp_dir().join(format!("cli-mixed-{}.jsonl", std::process::id()));
    let trace = trace.to_str().expect("utf-8 temp path");
    let mixed = experiments(&["fig3-1", "fig3-3", "--trace-events", trace, "--seed", "0"]);
    std::fs::remove_file(trace).ok();
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

/// Runs `check` with a path nothing can be created at, for any user: it
/// lies under a regular file.
fn with_unwritable_path(tag: &str, check: impl FnOnce(&str)) {
    let file = std::env::temp_dir().join(format!("cli-{tag}-{}", std::process::id()));
    std::fs::write(&file, b"").expect("the temp file is written");
    check(file.join("d/x.json").to_str().expect("utf-8 temp path"));
    std::fs::remove_file(&file).ok();
}

/// Like [`assert_rejected`], and the rejection is one line, not a panic.
fn assert_rejected_without_a_panic(args: &[&str], names: &str) {
    let stderr = assert_rejected(args, names);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

#[test]
fn trace_events_path_that_cannot_be_created_is_rejected_not_a_panic() {
    with_unwritable_path("trace", |path| {
        assert_rejected_without_a_panic(&["fig3-3", "--trace-events", path], "--trace-events");
    });
}

#[test]
fn reconcile_json_path_that_cannot_be_created_is_rejected_not_a_panic() {
    with_unwritable_path("reconcile", |path| {
        assert_rejected_without_a_panic(&["hostile", "--reconcile-json", path], "--reconcile-json");
    });
}

#[test]
fn metrics_out_path_that_cannot_be_created_is_rejected_before_the_figures_run() {
    with_unwritable_path("metrics", |path| {
        assert_rejected_without_a_panic(&["fig4-9", "--metrics-out", path], "--metrics-out");
    });
}

#[test]
fn checkpoint_dir_that_cannot_be_made_is_rejected_not_reported_per_checkpoint() {
    with_unwritable_path("ckpt-dir", |path| {
        let args = [
            "mega-grid",
            "--checkpoint-every",
            "50",
            "--checkpoint-dir",
            path,
        ];
        assert_rejected_without_a_panic(&args, "--checkpoint-dir");
    });
}

#[test]
fn a_checkpoint_dir_that_is_absent_but_creatable_is_made_and_written_to() {
    let root = std::env::temp_dir().join(format!("cli-made-{}", std::process::id()));
    let dir = root.join("ckpt");
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    // Rejected for another reason: the paths are looked at last, so
    // nothing was created.
    assert_rejected(
        &["mega-grid", "nosuch", "--checkpoint-dir", dir_arg],
        "nosuch",
    );
    assert!(!root.exists(), "a rejected command line creates nothing");
    let out = experiments(&[
        "mega-grid",
        "--checkpoint-every",
        "50",
        "--checkpoint-dir",
        dir_arg,
    ]);
    let written = std::fs::read_dir(&dir).map_or(0, Iterator::count);
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(0));
    assert!(written > 0, "checkpoints landed in the directory it made");
}
