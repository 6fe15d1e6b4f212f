//! Mutation check: prove `rng-draw-site` detects real drift, not just
//! its fixture. The test reads the *live* engine source, smuggles a draw
//! into a worker closure in memory, and asserts the lint report turns
//! red — alongside an unmutated control proving the green baseline is
//! real. Checkpoint and event coverage have no mutation test: a missed
//! field or variant is a build error (DESIGN.md §10), not a finding.

use std::fs;
use std::path::{Path, PathBuf};

use noc_lint::lint_files;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// Reads the given workspace-relative files into `lint_files` inputs.
fn read_set(rel_paths: &[&str]) -> Vec<(String, String)> {
    let root = workspace_root();
    rel_paths
        .iter()
        .map(|rel| {
            let source =
                fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
            (rel.to_string(), source)
        })
        .collect()
}

fn unallowed_of<'r>(report: &'r noc_lint::Report, rule: &str) -> Vec<&'r noc_lint::Finding> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule && !f.allowed)
        .collect()
}

fn assert_control_clean(inputs: &[(String, String)]) {
    let control = lint_files(inputs);
    assert_eq!(
        control.unallowed(),
        0,
        "unmutated control set must lint clean, got {:?}",
        control
            .findings
            .iter()
            .filter(|f| !f.allowed)
            .map(|f| (f.rule, f.file.as_str(), f.line))
            .collect::<Vec<_>>()
    );
}

#[test]
fn workspace_dogfood_is_clean() {
    let report = noc_lint::lint_root(&workspace_root()).expect("workspace lints");
    assert_eq!(
        report.unallowed(),
        0,
        "the workspace must dogfood clean: {:?}",
        report
            .findings
            .iter()
            .filter(|f| !f.allowed)
            .map(|f| (f.rule, f.file.as_str(), f.line))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        report.suppression_debt(),
        0,
        "no stale allows in the workspace"
    );
}

#[test]
fn drawing_inside_a_worker_closure_turns_red() {
    let mut inputs = read_set(&["crates/core/src/engine.rs", "crates/core/src/checkpoint.rs"]);
    // The engine alone is a sanctioned draw site, so the control is
    // clean even though it draws on the main thread.
    assert_control_clean(&inputs);
    inputs[0].1.push_str(
        "\npub fn mutation_probe_fan_out(work: Vec<u64>, tape: TapeCursor) -> Vec<u64> {\n    \
         run_shards(work, move |frame| frame ^ tape.next_u64())\n}\n",
    );
    let report = lint_files(&inputs);
    let hits = unallowed_of(&report, "rng-draw-site");
    assert_eq!(
        hits.len(),
        1,
        "a draw inside the fan-out closure must be flagged even in engine.rs"
    );
    assert!(
        hits[0].message.contains("run_shards"),
        "finding names the fan-out callee: {}",
        hits[0].message
    );
}
