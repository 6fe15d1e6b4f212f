//! Golden ui-test corpus: every rule is exercised against a fixture
//! mini-tree (`tests/corpus/<rule>/crates/…`) whose paths mimic the real
//! workspace so path-scoped rules fire. The full JSON report for each
//! tree is pinned byte-for-byte in `expected.json` — regenerate with
//! `cargo run -p noc-lint -- --root crates/lint/tests/corpus/<rule>
//! --format json` after an intentional rule change, and hand-verify the
//! diff before committing.

use std::fs;
use std::path::{Path, PathBuf};

use noc_lint::{lint_root, render_json, RULES};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// The fixture directory name for a kebab-case rule.
fn fixture_name(rule: &str) -> String {
    rule.replace('-', "_")
}

#[test]
fn every_rule_has_a_nonempty_explain_entry() {
    let mut seen = std::collections::BTreeSet::new();
    for rule in RULES {
        assert!(
            !rule.invariant.trim().is_empty(),
            "rule `{}` has an empty --explain invariant",
            rule.name
        );
        assert_eq!(
            rule.name,
            rule.name.to_ascii_lowercase(),
            "rule `{}` is not kebab-case",
            rule.name
        );
        assert!(
            !rule.name.contains('_') && !rule.name.contains(' '),
            "rule `{}` is not kebab-case",
            rule.name
        );
        assert!(seen.insert(rule.name), "rule `{}` listed twice", rule.name);
    }
}

#[test]
fn every_rule_has_a_corpus_fixture() {
    for rule in RULES {
        let dir = corpus_dir().join(fixture_name(rule.name));
        assert!(
            dir.is_dir(),
            "rule `{}` has no fixture tree at {}",
            rule.name,
            dir.display()
        );
    }
}

#[test]
fn corpus_json_matches_expected_byte_for_byte() {
    for rule in RULES {
        let dir = corpus_dir().join(fixture_name(rule.name));
        let report = lint_root(&dir).expect("fixture tree lints");
        let got = render_json(&report);
        let expected_path = dir.join("expected.json");
        let expected = fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("{}: {e}", expected_path.display()));
        assert_eq!(
            got,
            expected,
            "JSON drift for rule `{}`; if the change is intentional, \
             regenerate {} and hand-verify the diff",
            rule.name,
            expected_path.display()
        );
    }
}

#[test]
fn each_fixture_has_true_positive_and_allowlisted_negative() {
    for rule in RULES {
        let dir = corpus_dir().join(fixture_name(rule.name));
        let report = lint_root(&dir).expect("fixture tree lints");
        let of_rule: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == rule.name)
            .collect();
        assert!(
            of_rule.iter().any(|f| !f.allowed),
            "rule `{}` fixture lacks an unallowed true positive",
            rule.name
        );
        let allowed: Vec<_> = of_rule.iter().filter(|f| f.allowed).collect();
        assert!(
            !allowed.is_empty(),
            "rule `{}` fixture lacks an allowlisted negative",
            rule.name
        );
        for f in allowed {
            let reason = f.reason.as_deref().unwrap_or("");
            assert!(
                !reason.trim().is_empty(),
                "rule `{}` allowlisted finding carries no reason",
                rule.name
            );
        }
        // Fixtures must not trip rules they do not target (a noisy
        // fixture would hide scoping regressions).
        assert_eq!(
            report.findings.len(),
            of_rule.len(),
            "rule `{}` fixture trips foreign rules: {:?}",
            rule.name,
            report
                .findings
                .iter()
                .map(|f| (f.rule, f.file.as_str(), f.line))
                .collect::<Vec<_>>()
        );
    }
}
