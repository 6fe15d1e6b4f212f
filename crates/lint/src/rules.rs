//! The repo-specific invariant rules.
//!
//! Every rule encodes one determinism or hot-path invariant of the
//! simulator (see DESIGN.md §10). Rules are per-file and lexical: they
//! match significant-token patterns produced by [`crate::lexer`]
//! (`rng-draw-site` also asks [`crate::items`] where closure bodies
//! lie), scoped by workspace-relative path, with findings suppressible
//! only through the reasoned [`crate::annotations`] grammar.

use crate::items;
use crate::lexer::{Token, TokenKind};

/// One reported (or suppressed) rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (kebab-case, stable across releases).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub column: usize,
    /// Human explanation of the violation.
    pub message: String,
    /// True when a reasoned allow annotation covers this finding.
    pub allowed: bool,
    /// The annotation's reason, when allowed.
    pub reason: Option<String>,
}

/// Static description of a rule, used by `--explain` output and docs.
pub struct RuleInfo {
    pub name: &'static str,
    pub invariant: &'static str,
}

/// Every rule the engine knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "ambient-rng",
        invariant: "all randomness flows from the run seed: no thread_rng/from_entropy/OsRng \
                    and no ad-hoc seed arithmetic outside stochastic_noc::seed",
    },
    RuleInfo {
        name: "nondeterministic-time",
        invariant: "only noc-obs (crates/obs) may read wall-clock time (Instant::now/\
                    SystemTime::now); everything else times spans through noc_obs::Stopwatch, \
                    and simulation results use rounds as the only clock",
    },
    RuleInfo {
        name: "map-iteration-order",
        invariant: "crates that feed reports never declare HashMap/HashSet: iteration order \
                    would vary run-to-run; use BTreeMap/BTreeSet or annotate a never-iterated use",
    },
    RuleInfo {
        name: "hot-path-panic",
        invariant: "per-round engine paths (engine.rs, shard.rs, arrivals.rs, wire.rs, \
                    checkpoint.rs, send_buffer.rs, injector.rs) carry no unwrap/expect/panic!",
    },
    RuleInfo {
        name: "stdout-in-lib",
        invariant: "library crates never print to stdout/stderr; observability goes through \
                    the event sink",
    },
    RuleInfo {
        name: "unsafe-audit",
        invariant: "every crate root carries #![forbid(unsafe_code)] and no file uses unsafe",
    },
    RuleInfo {
        name: "rng-draw-site",
        invariant: "RNG draws (gen/gen_range/gen_bool/next_u64/seed_from_u64/…) happen only \
                    in the sanctioned modules (seed.rs, engine.rs tape construction, \
                    reference.rs oracle, injector.rs, rng.rs) and never inside a closure \
                    passed to the shard fan-out — workers replay pre-drawn tapes",
    },
    RuleInfo {
        name: "suppression-debt",
        invariant: "every noc-lint allow annotation suppresses at least one live finding; \
                    stale allows (fixed code, drifted anchor line, misspelled rule name) \
                    are findings themselves, and the full suppression inventory ships in \
                    the JSON artifact so CI can trend the debt",
    },
];

/// Crates whose output feeds figure tables and golden reports. The
/// faults crate qualifies since adversarial scenarios (partition cuts,
/// Byzantine tile sets) iterate their collections into seed-stream
/// derivation and digests.
const REPORT_CRATES: &[&str] = &[
    "crates/core/",
    "crates/apps/",
    "crates/experiments/",
    "crates/faults/",
];

/// Library crates that must stay silent on stdout/stderr.
const LIB_CRATES: &[&str] = &[
    "crates/core/",
    "crates/fabric/",
    "crates/faults/",
    "crates/crc/",
    "crates/energy/",
    "crates/bus/",
    "crates/dsp/",
    "crates/apps/",
    "crates/diversity/",
    "crates/obs/",
];

/// Files forming the per-round hot path.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/arrivals.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/frontier.rs",
    "crates/core/src/send_buffer.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/wire.rs",
    "crates/faults/src/injector.rs",
];

/// Identifiers that consult ambient entropy.
const AMBIENT_RNG_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "ThreadRng"];

/// Arithmetic operators that make a seed expression "ad-hoc".
const SEED_OPS: &[&str] = &["+", "-", "*", "^", "%"];

/// Macros that write to stdout/stderr.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

/// Identifiers that draw from (or construct) an RNG stream.
const DRAW_CALLS: &[&str] = &[
    "next_u64",
    "next_u32",
    "next_f64",
    "gen",
    "gen_range",
    "gen_bool",
    "fill_bytes",
    "seed_from_u64",
    "from_seed",
    "from_state",
];

/// The sanctioned draw sites: seed derivation, the engine's main-thread
/// tape construction (and checkpoint restore), the reference oracle
/// that mirrors the engine's draw order, the fault injector, and the
/// Gaussian sampler it owns.
const DRAW_ALLOWED_FILES: &[&str] = &[
    "crates/core/src/seed.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/reference.rs",
    "crates/faults/src/injector.rs",
    "crates/faults/src/rng.rs",
];

/// Path prefixes the rng-draw-site rule applies to. Scoping by real
/// workspace prefixes keeps fixture trees for *other* rules from
/// cross-firing this one.
const DRAW_SCOPED_PREFIXES: &[&str] = &[
    "crates/core/",
    "crates/faults/",
    "crates/fabric/",
    "crates/crc/",
    "crates/energy/",
    "crates/bus/",
    "crates/dsp/",
    "crates/apps/",
    "crates/diversity/",
    "crates/obs/",
    "crates/experiments/",
    "src/",
    "examples/",
];

/// Callees whose closure arguments are worker fan-out bodies and must
/// stay RNG-free everywhere — allowlisted files included.
const FAN_OUT_CALLEES: &[&str] = &["run_shards", "spawn"];

/// Runs every applicable rule over one file's significant tokens.
///
/// `tokens` must already have `#[cfg(test)]`/`#[test]` items filtered
/// out; `all_tokens` is the unfiltered stream (crate-root attributes
/// live outside test items, but the unsafe-audit presence check wants
/// the full file).
pub fn check_file(rel_path: &str, tokens: &[Token], all_tokens: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    ambient_rng(rel_path, tokens, &mut findings);
    nondeterministic_time(rel_path, tokens, &mut findings);
    map_iteration_order(rel_path, tokens, &mut findings);
    hot_path_panic(rel_path, tokens, &mut findings);
    stdout_in_lib(rel_path, tokens, &mut findings);
    unsafe_audit(rel_path, tokens, all_tokens, &mut findings);
    rng_draw_site(rel_path, tokens, &mut findings);
    findings
}

fn finding(
    rule: &'static str,
    rel_path: &str,
    tok_line: usize,
    col: usize,
    message: String,
) -> Finding {
    Finding {
        rule,
        file: rel_path.to_string(),
        line: tok_line,
        column: col,
        message,
        allowed: false,
        reason: None,
    }
}

fn is_ident(tok: &Token, text: &str) -> bool {
    tok.kind == TokenKind::Ident && tok.text == text
}

fn ambient_rng(rel_path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    // The seed module is the one sanctioned home of seed arithmetic.
    if rel_path == "crates/core/src/seed.rs" {
        return;
    }
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if AMBIENT_RNG_IDENTS.contains(&tok.text.as_str()) {
            findings.push(finding(
                "ambient-rng",
                rel_path,
                tok.line,
                tok.column,
                format!(
                    "`{}` consults ambient entropy; derive every stream from the run seed \
                     via stochastic_noc::seed",
                    tok.text
                ),
            ));
            continue;
        }
        // `rand::random` free function.
        if is_ident(tok, "rand")
            && tokens.get(i + 1).is_some_and(|t| t.text == "::")
            && tokens.get(i + 2).is_some_and(|t| is_ident(t, "random"))
        {
            findings.push(finding(
                "ambient-rng",
                rel_path,
                tok.line,
                tok.column,
                "`rand::random` consults ambient entropy; derive every stream from the run seed"
                    .to_string(),
            ));
            continue;
        }
        // Ad-hoc seed arithmetic: `<seed ident> <op> [=] <number|ident>`.
        if tok.text.to_ascii_lowercase().contains("seed") {
            let Some(op) = tokens.get(i + 1) else {
                continue;
            };
            if op.kind != TokenKind::Punct || !SEED_OPS.contains(&op.text.as_str()) {
                continue;
            }
            let mut j = i + 2;
            if tokens.get(j).is_some_and(|t| t.text == "=") {
                j += 1; // compound assignment: `seed += k`
            }
            if tokens
                .get(j)
                .is_some_and(|t| matches!(t.kind, TokenKind::Number | TokenKind::Ident))
            {
                findings.push(finding(
                    "ambient-rng",
                    rel_path,
                    op.line,
                    op.column,
                    format!(
                        "ad-hoc seed arithmetic `{} {} …` correlates trial streams; use \
                         stochastic_noc::seed::derive_trial_seed / derive_labeled_seed",
                        tok.text, op.text
                    ),
                ));
            }
        }
    }
}

fn nondeterministic_time(rel_path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    // noc-obs wraps the one sanctioned clock read (`Stopwatch::start`);
    // every other crate — the linter included — times
    // wall-clock spans through that API.
    if rel_path.starts_with("crates/obs/") {
        return;
    }
    for (i, tok) in tokens.iter().enumerate() {
        let clock = (tok.kind == TokenKind::Ident
            && (tok.text == "Instant" || tok.text == "SystemTime"))
            && tokens.get(i + 1).is_some_and(|t| t.text == "::")
            && tokens.get(i + 2).is_some_and(|t| is_ident(t, "now"));
        if clock {
            findings.push(finding(
                "nondeterministic-time",
                rel_path,
                tok.line,
                tok.column,
                format!(
                    "`{}::now()` reads the wall clock directly; time spans through \
                     noc_obs::Stopwatch (simulation results use the round counter)",
                    tok.text
                ),
            ));
        }
    }
}

fn map_iteration_order(rel_path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !REPORT_CRATES.iter().any(|c| rel_path.starts_with(c)) {
        return;
    }
    let mut in_use = false;
    for tok in tokens {
        if is_ident(tok, "use") {
            in_use = true;
        } else if tok.text == ";" {
            in_use = false;
        }
        // Import lines are moot without a use site, so only declarations
        // and expressions are flagged.
        if in_use {
            continue;
        }
        if tok.kind == TokenKind::Ident && (tok.text == "HashMap" || tok.text == "HashSet") {
            findings.push(finding(
                "map-iteration-order",
                rel_path,
                tok.line,
                tok.column,
                format!(
                    "`{}` iteration order is nondeterministic and this crate feeds reports; \
                     use BTree{} or annotate a provably never-iterated use",
                    tok.text,
                    if tok.text == "HashMap" { "Map" } else { "Set" },
                ),
            ));
        }
    }
}

fn hot_path_panic(rel_path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !HOT_PATH_FILES.contains(&rel_path) {
        return;
    }
    for tok in tokens {
        if tok.kind == TokenKind::Ident
            && matches!(tok.text.as_str(), "unwrap" | "expect" | "panic")
        {
            findings.push(finding(
                "hot-path-panic",
                rel_path,
                tok.line,
                tok.column,
                format!(
                    "`{}` in a per-round path can abort a trial mid-sweep; return a Result, \
                     make the state unrepresentable, or annotate a build-time-only site",
                    tok.text
                ),
            ));
        }
    }
}

fn stdout_in_lib(rel_path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !LIB_CRATES.iter().any(|c| rel_path.starts_with(c)) {
        return;
    }
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind == TokenKind::Ident
            && PRINT_MACROS.contains(&tok.text.as_str())
            && tokens.get(i + 1).is_some_and(|t| t.text == "!")
        {
            findings.push(finding(
                "stdout-in-lib",
                rel_path,
                tok.line,
                tok.column,
                format!(
                    "`{}!` writes to the process streams from a library crate; emit a \
                     SimEvent through the event sink instead",
                    tok.text
                ),
            ));
        }
    }
}

/// Is this workspace-relative path a crate root (lib, main, or bin)?
fn is_crate_root(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    matches!(
        parts.as_slice(),
        ["src", "lib.rs" | "main.rs"]
            | ["src", "bin", _]
            | ["crates", _, "src", "lib.rs" | "main.rs"]
            | ["crates", _, "src", "bin", _]
    )
}

/// Does the token stream contain `forbid ( … unsafe_code … )`?
fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    for (i, tok) in tokens.iter().enumerate() {
        if !is_ident(tok, "forbid") {
            continue;
        }
        if tokens.get(i + 1).is_none_or(|t| t.text != "(") {
            continue;
        }
        for t in &tokens[i + 2..] {
            if t.text == ")" {
                break;
            }
            if is_ident(t, "unsafe_code") {
                return true;
            }
        }
    }
    false
}

fn unsafe_audit(
    rel_path: &str,
    tokens: &[Token],
    all_tokens: &[Token],
    findings: &mut Vec<Finding>,
) {
    for tok in tokens {
        if is_ident(tok, "unsafe") {
            findings.push(finding(
                "unsafe-audit",
                rel_path,
                tok.line,
                tok.column,
                "`unsafe` has no place in the simulator workspace".to_string(),
            ));
        }
    }
    if is_crate_root(rel_path) && !has_forbid_unsafe(all_tokens) {
        findings.push(finding(
            "unsafe-audit",
            rel_path,
            1,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, tok) in tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" => depth += 1,
            ")" => {
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

/// rng-draw-site: draw calls only in the allowlisted modules, and never
/// inside a closure passed to the shard/thread fan-out.
fn rng_draw_site(rel_path: &str, toks: &[Token], findings: &mut Vec<Finding>) {
    if !DRAW_SCOPED_PREFIXES.iter().any(|p| rel_path.starts_with(p)) {
        return;
    }
    let closures = items::closures(toks);
    // Closure bodies handed to a fan-out callee, with the callee name.
    let mut worker_bodies: Vec<(usize, usize, &str)> = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident || !FAN_OUT_CALLEES.contains(&tok.text.as_str()) {
            continue;
        }
        if toks.get(i + 1).is_none_or(|t| t.text != "(") {
            continue;
        }
        let close = matching_paren(toks, i + 1);
        for c in &closures {
            if c.body.0 > i && c.body.1 <= close {
                worker_bodies.push((c.body.0, c.body.1, tok.text.as_str()));
            }
        }
    }
    let allowed_file = DRAW_ALLOWED_FILES.contains(&rel_path);
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident || !DRAW_CALLS.contains(&tok.text.as_str()) {
            continue;
        }
        // A draw is a *call* reached through `.` or `::` — method
        // or constructor — never a bare definition or field.
        let callish = toks
            .get(i + 1)
            .is_some_and(|t| t.text == "(" || t.text == "::");
        let reached = i
            .checked_sub(1)
            .is_some_and(|p| toks[p].text == "." || toks[p].text == "::");
        if !callish || !reached {
            continue;
        }
        if let Some((_, _, callee)) = worker_bodies.iter().find(|(a, b, _)| i >= *a && i <= *b) {
            findings.push(finding(
                "rng-draw-site",
                rel_path,
                tok.line,
                tok.column,
                format!(
                    "RNG draw `{}` inside a closure passed to `{}`: shard workers \
                     replay pre-drawn tapes and must stay RNG-free, or reports stop \
                     being byte-identical across shard counts",
                    tok.text, callee
                ),
            ));
        } else if !allowed_file {
            findings.push(finding(
                "rng-draw-site",
                rel_path,
                tok.line,
                tok.column,
                format!(
                    "RNG draw `{}` outside the sanctioned draw sites (seed.rs, \
                     engine.rs tape construction, reference.rs oracle, injector.rs, \
                     rng.rs); derive the stream via stochastic_noc::seed and draw it \
                     at a sanctioned site, or annotate a self-contained generator",
                    tok.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rel_path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        check_file(rel_path, &lexed.tokens, &lexed.tokens)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn thread_rng_is_flagged_anywhere() {
        let f = run("crates/faults/src/rng.rs", "let r = rand::thread_rng();");
        assert_eq!(rules_of(&f), ["ambient-rng"]);
    }

    #[test]
    fn seed_arithmetic_is_flagged_outside_seed_module() {
        let f = run(
            "crates/core/src/tuning.rs",
            "let s = base_seed * 1_000_003 + trial;",
        );
        assert!(rules_of(&f).contains(&"ambient-rng"));
        let ok = run("crates/core/src/seed.rs", "let s = base_seed * 7;");
        assert!(ok.is_empty(), "seed module is exempt: {ok:?}");
    }

    #[test]
    fn seed_in_strings_and_comments_is_ignored() {
        let f = run(
            "crates/core/src/x.rs",
            "// seed * 1_000_003 was the bug\nlet s = \"seed + 1\";",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn instant_now_flagged_everywhere_except_obs() {
        let src = "let t = Instant::now();";
        assert_eq!(
            rules_of(&run("crates/experiments/src/runner.rs", src)),
            ["nondeterministic-time"]
        );
        // The linter itself must also go through noc_obs::Stopwatch
        // (crate-root audit still applies, so compare rule-by-rule).
        assert!(rules_of(&run("crates/lint/src/main.rs", src)).contains(&"nondeterministic-time"));
        // noc-obs wraps the sanctioned clock read.
        assert!(run("crates/obs/src/time.rs", src).is_empty());
        // Going through the Stopwatch API is clean anywhere.
        let wrapped = "let t = noc_obs::Stopwatch::start();";
        assert!(run("crates/experiments/src/runner.rs", wrapped).is_empty());
    }

    #[test]
    fn hashmap_flagged_only_in_report_crates_and_not_in_use_lines() {
        let decl = "struct S { m: HashMap<u32, u32> }";
        assert_eq!(
            rules_of(&run("crates/core/src/metrics.rs", decl)),
            ["map-iteration-order"]
        );
        assert!(run("crates/fabric/src/node.rs", decl).is_empty());
        let import = "use std::collections::HashMap;\n";
        assert!(run("crates/core/src/metrics.rs", import).is_empty());
    }

    #[test]
    fn hot_path_panics_flagged_only_in_hot_files() {
        let src = "let v = x.unwrap(); y.expect(\"msg\"); panic!(\"boom\");";
        assert_eq!(
            rules_of(&run("crates/core/src/engine.rs", src)),
            ["hot-path-panic", "hot-path-panic", "hot-path-panic"]
        );
        assert!(run("crates/core/src/metrics.rs", src).is_empty());
        // The checkpoint codec sits on the resume path and is held to
        // the same no-panic bar.
        assert_eq!(
            rules_of(&run("crates/core/src/checkpoint.rs", "let v = x.unwrap();")),
            ["hot-path-panic"]
        );
        // unwrap_or_else is a different identifier, never flagged.
        let soft = "let v = x.unwrap_or_else(Vec::new).unwrap_or(0);";
        assert!(run("crates/core/src/engine.rs", soft).is_empty());
    }

    #[test]
    fn println_flagged_in_lib_crates_only() {
        let src = "println!(\"x\"); eprintln!(\"y\");";
        assert_eq!(
            rules_of(&run("crates/fabric/src/port.rs", src)),
            ["stdout-in-lib", "stdout-in-lib"]
        );
        assert!(!rules_of(&run("crates/experiments/src/main.rs", src)).contains(&"stdout-in-lib"));
    }

    #[test]
    fn crate_roots_require_forbid_unsafe() {
        assert_eq!(
            rules_of(&run("crates/core/src/lib.rs", "pub mod engine;")),
            ["unsafe-audit"]
        );
        assert!(run(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod engine;"
        )
        .is_empty());
        // Non-root files carry no attribute obligation.
        assert!(run("crates/core/src/engine.rs", "pub fn f() {}").is_empty());
    }

    #[test]
    fn unsafe_keyword_is_flagged_everywhere() {
        let f = run(
            "crates/dsp/src/x.rs",
            "unsafe { core::hint::unreachable_unchecked() }",
        );
        assert_eq!(rules_of(&f), ["unsafe-audit"]);
    }

    #[test]
    fn draw_outside_allowlist_is_flagged() {
        let f = run(
            "crates/experiments/src/traffic.rs",
            "fn t(seed: u64) -> u64 { let mut r = StdRng::seed_from_u64(seed); r.next_u64() }\n",
        );
        assert_eq!(rules_of(&f), ["rng-draw-site", "rng-draw-site"]);
    }

    #[test]
    fn draw_in_allowlisted_file_is_clean() {
        let f = run(
            "crates/core/src/engine.rs",
            "fn tape(seed: u64) -> u64 { let mut r = StdRng::seed_from_u64(seed); r.next_u64() }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn draw_inside_fan_out_closure_is_flagged_even_in_engine() {
        let f = run(
            "crates/core/src/engine.rs",
            "fn fan(w: Vec<u64>) { run_shards(w, move |x| { rng.next_u64() }); }\n",
        );
        assert_eq!(rules_of(&f), ["rng-draw-site"]);
        assert!(f[0].message.contains("run_shards"));
    }

    #[test]
    fn draw_definitions_and_bare_idents_are_not_calls() {
        let f = run(
            "crates/experiments/src/traffic.rs",
            "fn next_u64() -> u64 { 7 }\nfn f(gen_range: u64) -> u64 { gen_range }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn fixture_paths_outside_scope_are_exempt() {
        let f = run("crates/sim/src/x.rs", "fn t() -> u64 { rng.next_u64() }\n");
        assert!(f.is_empty());
    }
}
