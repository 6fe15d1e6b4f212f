//! Workspace walking, test-code filtering, the rule pipeline,
//! suppression accounting, and rendering.
//!
//! The pipeline runs in phases over the scanned set:
//!
//! 1. lex + test-strip + annotation-parse every file and run the rules
//!    over it ([`crate::rules`]);
//! 2. suppression: allows cover matching findings, then every allow
//!    that covered *nothing* becomes a `suppression-debt` finding
//!    (itself coverable only by an `allow(suppression-debt, …)`);
//! 3. the full suppression inventory — rule, file, line, reason, used —
//!    is kept on the [`Report`] and shipped in the JSON artifact so CI
//!    can trend the debt.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::annotations::{self, Allow, BadAnnotation};
use crate::lexer::{self, Token};
use crate::rules::{self, Finding};

/// Directory names never descended into: generated output, third-party
/// stand-ins, test code (exempt from the shipped-code invariants), and
/// the lint corpus (which contains violations on purpose).
const SKIP_DIRS: &[&str] = &[
    "target", "vendor", "tests", "benches", "corpus", ".git", ".github",
];

/// One allow annotation in the inventory, with whether it earned its
/// keep this run.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub rule: String,
    pub file: String,
    pub line: usize,
    pub reason: String,
    /// True when the allow covered at least one finding.
    pub used: bool,
}

/// The outcome of linting a tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, allowed and not, sorted by (file, line, column,
    /// rule) so output is deterministic for any traversal order.
    pub findings: Vec<Finding>,
    /// Every allow annotation seen, sorted by (file, line, rule).
    pub suppressions: Vec<Suppression>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not covered by a reasoned allow — the gate condition.
    pub fn unallowed(&self) -> usize {
        self.findings.iter().filter(|f| !f.allowed).count()
    }

    /// Findings suppressed by a reasoned allow.
    pub fn allowed(&self) -> usize {
        self.findings.iter().filter(|f| f.allowed).count()
    }

    /// Allows that covered nothing — the trending number for CI.
    pub fn suppression_debt(&self) -> usize {
        self.suppressions.iter().filter(|s| !s.used).count()
    }
}

/// Lints every `.rs` file under `root`.
///
/// # Errors
///
/// Returns an error string when `root` does not exist or a file cannot
/// be read.
pub fn lint_root(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    collect_rust_files(root, &mut files).map_err(|e| format!("walking {}: {e}", root.display()))?;
    files.sort();
    let mut inputs = Vec::with_capacity(files.len());
    for file in &files {
        let source = fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        inputs.push((relative_path(root, file), source));
    }
    Ok(lint_files(&inputs))
}

/// Lints one file's source text under its workspace-relative path.
/// Exposed for unit tests and callers with in-memory sources.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    lint_files(&[(rel_path.to_string(), source.to_string())]).findings
}

/// Lints a set of (workspace-relative path, source) pairs — the core
/// entry point for the walker, the corpus harness, and the mutation
/// test that injects drift into a scratch copy.
pub fn lint_files(inputs: &[(String, String)]) -> Report {
    // Phase 1: the rules, file by file.
    let mut findings = Vec::new();
    let mut notes: Vec<(Vec<Allow>, Vec<BadAnnotation>)> = Vec::with_capacity(inputs.len());
    for (rel_path, source) in inputs {
        let lexed = lexer::lex(source);
        let filtered = strip_test_items(&lexed.tokens);
        findings.extend(rules::check_file(rel_path, &filtered, &lexed.tokens));
        notes.push(annotations::parse(&lexed.comments));
    }

    // Phase 2: suppression accounting.
    let index: BTreeMap<&str, usize> = inputs
        .iter()
        .enumerate()
        .map(|(i, (rel_path, _))| (rel_path.as_str(), i))
        .collect();
    let mut used: Vec<Vec<bool>> = notes.iter().map(|(a, _)| vec![false; a.len()]).collect();
    for f in &mut findings {
        let Some(&fi) = index.get(f.file.as_str()) else {
            continue;
        };
        if let Some(ai) = notes[fi].0.iter().position(|a| a.covers(f.rule, f.line)) {
            f.allowed = true;
            f.reason = Some(notes[fi].0[ai].reason.clone());
            used[fi][ai] = true;
        }
    }
    // Allows that covered nothing become findings; an adjacent
    // allow(suppression-debt, …) can cover those (e.g. a platform-
    // gated violation), but an unused allow(suppression-debt) is
    // itself debt and cannot be suppressed further — no regress.
    let mut debt: Vec<Finding> = Vec::new();
    for (fi, (allows, _)) in notes.iter().enumerate() {
        for (ai, a) in allows.iter().enumerate() {
            if used[fi][ai] || a.rule == "suppression-debt" {
                continue;
            }
            let known = rules::RULES.iter().any(|r| r.name == a.rule) || a.rule == "bad-annotation";
            let message = if known {
                format!(
                    "allow({}) suppresses no finding; the code it guarded was fixed or \
                     moved — delete the stale annotation or re-anchor it",
                    a.rule
                )
            } else {
                format!(
                    "allow({}) names a rule the registry does not know; fix the rule name",
                    a.rule
                )
            };
            debt.push(Finding {
                rule: "suppression-debt",
                file: inputs[fi].0.clone(),
                line: a.line,
                column: 1,
                message,
                allowed: false,
                reason: None,
            });
        }
    }
    for f in &mut debt {
        let fi = index[f.file.as_str()];
        if let Some(ai) = notes[fi]
            .0
            .iter()
            .position(|a| a.rule == "suppression-debt" && a.covers("suppression-debt", f.line))
        {
            f.allowed = true;
            f.reason = Some(notes[fi].0[ai].reason.clone());
            used[fi][ai] = true;
        }
    }
    findings.append(&mut debt);
    for (fi, (allows, _)) in notes.iter().enumerate() {
        for (ai, a) in allows.iter().enumerate() {
            if !used[fi][ai] && a.rule == "suppression-debt" {
                findings.push(Finding {
                    rule: "suppression-debt",
                    file: inputs[fi].0.clone(),
                    line: a.line,
                    column: 1,
                    message: "allow(suppression-debt) suppresses no stale allow; delete it"
                        .to_string(),
                    allowed: false,
                    reason: None,
                });
            }
        }
    }

    // Malformed annotations are findings themselves and cannot be
    // annotated away.
    for (fi, (_, bad)) in notes.iter().enumerate() {
        for b in bad {
            findings.push(Finding {
                rule: "bad-annotation",
                file: inputs[fi].0.clone(),
                line: b.line,
                column: 1,
                message: b.message.clone(),
                allowed: false,
                reason: None,
            });
        }
    }

    // Phase 3: the inventory.
    let mut suppressions: Vec<Suppression> = Vec::new();
    for (fi, (allows, _)) in notes.iter().enumerate() {
        for (ai, a) in allows.iter().enumerate() {
            suppressions.push(Suppression {
                rule: a.rule.clone(),
                file: inputs[fi].0.clone(),
                line: a.line,
                reason: a.reason.clone(),
                used: used[fi][ai],
            });
        }
    }
    suppressions.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.column, a.rule).cmp(&(&b.file, b.line, b.column, b.rule))
    });
    Report {
        findings,
        suppressions,
        files_scanned: inputs.len(),
    }
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Removes items gated behind a test attribute (`#[test]`, `#[cfg(test)]`
/// and `#[cfg(all(test, …))]`) from the token stream: test code is exempt
/// from the shipped-code invariants.
///
/// An attribute mentioning `not` (as in `#[cfg(not(test))]`) is treated
/// as non-test, so the guarded code stays linted.
fn strip_test_items(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).is_some_and(|t| t.text == "[") {
            let close = matching_bracket(tokens, i + 1);
            let body = &tokens[i + 2..close.min(tokens.len())];
            let is_test =
                body.iter().any(|t| t.text == "test") && !body.iter().any(|t| t.text == "not");
            if is_test {
                i = skip_attributes_and_item(tokens, close + 1);
                continue;
            }
            out.extend_from_slice(&tokens[i..=close.min(tokens.len() - 1)]);
            i = close + 1;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Skips any further attributes, then one item (to its closing `}` or a
/// top-level `;`), returning the index just past it.
fn skip_attributes_and_item(tokens: &[Token], mut i: usize) -> usize {
    while i < tokens.len()
        && tokens[i].text == "#"
        && tokens.get(i + 1).is_some_and(|t| t.text == "[")
    {
        i = matching_bracket(tokens, i + 1) + 1;
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            ";" if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Renders the unallowed findings and a summary for terminals.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in report.findings.iter().filter(|f| !f.allowed) {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}\n",
            f.file, f.line, f.column, f.rule, f.message
        ));
    }
    out.push_str(&format!(
        "noc-lint: {} files scanned, {} findings ({} allowed, {} unallowed), \
         {} suppressions ({} stale)\n",
        report.files_scanned,
        report.findings.len(),
        report.allowed(),
        report.unallowed(),
        report.suppressions.len(),
        report.suppression_debt(),
    ));
    out
}

/// Renders the full report (allowed findings included, with reasons,
/// plus the suppression inventory) as JSON with a stable field order —
/// the CI artifact format.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"rule\": {}, ", json_str(f.rule)));
        out.push_str(&format!("\"file\": {}, ", json_str(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"column\": {}, ", f.column));
        out.push_str(&format!("\"message\": {}, ", json_str(&f.message)));
        out.push_str(&format!("\"allowed\": {}, ", f.allowed));
        match &f.reason {
            Some(r) => out.push_str(&format!("\"reason\": {}", json_str(r))),
            None => out.push_str("\"reason\": null"),
        }
        out.push('}');
        if i + 1 < report.findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"suppressions\": [\n");
    for (i, s) in report.suppressions.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"rule\": {}, ", json_str(&s.rule)));
        out.push_str(&format!("\"file\": {}, ", json_str(&s.file)));
        out.push_str(&format!("\"line\": {}, ", s.line));
        out.push_str(&format!("\"reason\": {}, ", json_str(&s.reason)));
        out.push_str(&format!("\"used\": {}", s.used));
        out.push('}');
        if i + 1 < report.suppressions.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"total\": {},\n", report.findings.len()));
    out.push_str(&format!("  \"allowed\": {},\n", report.allowed()));
    out.push_str(&format!("  \"unallowed\": {},\n", report.unallowed()));
    out.push_str(&format!(
        "  \"suppression_debt\": {}\n",
        report.suppression_debt()
    ));
    out.push_str("}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_in_test_modules_are_skipped() {
        let src = "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    use super::*;\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        let findings = lint_source("crates/core/src/engine.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_not_test_code_stays_linted() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }\n";
        let findings = lint_source("crates/core/src/engine.rs", src);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn trailing_allow_suppresses_with_reason() {
        let src = "fn f() { x.unwrap(); } // noc-lint: allow(hot-path-panic, reason = \"startup only\")\n";
        let findings = lint_source("crates/core/src/engine.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].allowed);
        assert_eq!(findings[0].reason.as_deref(), Some("startup only"));
    }

    #[test]
    fn own_line_allow_covers_next_line() {
        let src = "// noc-lint: allow(hot-path-panic, reason = \"boot\")\nfn f() { x.unwrap(); }\n";
        let findings = lint_source("crates/core/src/engine.rs", src);
        assert!(findings[0].allowed);
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "fn f() { x.unwrap(); } // noc-lint: allow(hot-path-panic)\n";
        let findings = lint_source("crates/core/src/engine.rs", src);
        let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"hot-path-panic"));
        assert!(rules.contains(&"bad-annotation"));
        assert!(findings.iter().all(|f| !f.allowed));
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress_and_is_debt() {
        let src =
            "fn f() { x.unwrap(); } // noc-lint: allow(ambient-rng, reason = \"wrong rule\")\n";
        let findings = lint_source("crates/core/src/engine.rs", src);
        let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
        // The violation stays unallowed AND the useless allow is debt
        // (debt sorts first: same line, column 1).
        assert_eq!(rules, ["suppression-debt", "hot-path-panic"]);
        assert!(findings.iter().all(|f| !f.allowed));
    }

    #[test]
    fn stale_allow_is_suppression_debt() {
        let src = "// noc-lint: allow(hot-path-panic, reason = \"outlived the panic\")\nfn quiet() -> u64 { 7 }\n";
        let findings = lint_source("crates/core/src/engine.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "suppression-debt");
        assert!(!findings[0].allowed);
        assert!(findings[0].message.contains("hot-path-panic"));
    }

    #[test]
    fn misspelled_rule_name_is_called_out() {
        let src = "// noc-lint: allow(hot-path-panics, reason = \"typo\")\nfn f() {}\n";
        let findings = lint_source("crates/core/src/engine.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("registry does not know"));
    }

    #[test]
    fn debt_finding_is_coverable_by_suppression_debt_allow() {
        let src = "// noc-lint: allow(suppression-debt, reason = \"guards a windows-only panic compiled out here\")\n// noc-lint: allow(hot-path-panic, reason = \"windows-only path\")\nfn quiet() -> u64 { 7 }\n";
        let findings = lint_source("crates/core/src/engine.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "suppression-debt");
        assert!(findings[0].allowed, "{findings:?}");
    }

    #[test]
    fn unused_suppression_debt_allow_is_itself_debt() {
        let src = "// noc-lint: allow(suppression-debt, reason = \"nothing here\")\nfn f() {}\n";
        let findings = lint_source("crates/core/src/engine.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].allowed);
        assert!(findings[0].message.contains("suppresses no stale allow"));
    }

    #[test]
    fn suppression_inventory_reports_used_flags() {
        let inputs = vec![(
            "crates/core/src/engine.rs".to_string(),
            "fn f() { x.unwrap(); } // noc-lint: allow(hot-path-panic, reason = \"boot\")\n// noc-lint: allow(map-iteration-order, reason = \"stale\")\nfn g() {}\n"
                .to_string(),
        )];
        let report = lint_files(&inputs);
        assert_eq!(report.suppressions.len(), 2);
        assert!(report.suppressions[0].used);
        assert!(!report.suppressions[1].used);
        assert_eq!(report.suppression_debt(), 1);
    }

    #[test]
    fn json_escapes_and_counts() {
        let report = Report {
            findings: lint_source(
                "crates/core/src/engine.rs",
                "fn f() { x.expect(\"why\"); }\n",
            ),
            files_scanned: 1,
            ..Default::default()
        };
        let json = render_json(&report);
        assert!(json.contains("\"rule\": \"hot-path-panic\""));
        assert!(json.contains("\"unallowed\": 1"));
        assert!(json.contains("\"files_scanned\": 1"));
        assert!(json.contains("\"suppressions\": ["));
        assert!(json.contains("\"suppression_debt\": 0"));
    }
}
