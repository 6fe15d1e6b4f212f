//! Structural (item-model) rules: cross-file contracts the lexical
//! tier cannot see.
//!
//! Where the lexical rules match token patterns inside one file, these
//! rules consume the [`crate::items`] model of the *whole scanned set*
//! and enforce three contracts the simulator's validity rests on:
//!
//! * **checkpoint-coverage** — every named field of the engine state
//!   structs is referenced by checkpoint serialization code, so a new
//!   field cannot silently escape `Checkpoint` round-trips;
//! * **rng-draw-site** — RNG draws happen only in the sanctioned
//!   modules, and never inside a closure handed to the shard fan-out
//!   (workers replay pre-drawn tapes, the core of PR 6's determinism
//!   proof);
//! * **event-coverage** — every `SimEvent` variant is reconciled by
//!   `CounterSink` and serialized by `JsonlSink`, so observability
//!   never under-counts a decision point.
//!
//! Each rule is *anchored*: it stays silent unless the scanned set
//! contains its anchor item (a tracked struct, the event enum), so
//! linting an unrelated tree reports nothing.

use std::collections::BTreeSet;

use crate::items::{EnumItem, StructItem};
use crate::lexer::{Token, TokenKind};
use crate::rules::Finding;

/// One file's worth of structural-analysis input: the workspace-relative
/// path, the test-stripped token stream, and its item model.
#[derive(Debug)]
pub struct SourceUnit {
    pub rel_path: String,
    pub tokens: Vec<Token>,
    pub items: crate::items::ItemModel,
}

/// State structs whose every named field must be checkpoint-covered,
/// keyed by the exact workspace-relative path that declares them.
const TRACKED_STRUCTS: &[(&str, &str)] = &[
    ("crates/core/src/engine.rs", "Simulation"),
    ("crates/core/src/send_buffer.rs", "SendBuffer"),
    ("crates/fabric/src/clock.rs", "ClockDomain"),
    ("crates/faults/src/adversary.rs", "AdversarialScenario"),
    ("crates/faults/src/injector.rs", "FaultInjector"),
];

/// Fns whose bodies count as checkpoint serialization sites, wherever
/// they live. `restore_from` is deliberately absent: rebuilding derived
/// state on restore does not make the field serialized, and flagging it
/// is the point of the rule.
const CAPTURE_FNS: &[&str] = &["checkpoint", "config_digest_value", "snapshot"];

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

/// The event enum and its two mandatory consumers.
const EVENT_ENUM: &str = "SimEvent";
const EVENT_CONSUMERS: &[(&str, &str)] = &[
    ("CounterSink", "reconciled into counters by"),
    ("JsonlSink", "serialized to JSONL by"),
];

/// Runs every structural rule over the scanned set.
pub fn check_workspace(files: &[SourceUnit]) -> Vec<Finding> {
    let mut findings = Vec::new();
    checkpoint_coverage(files, &mut findings);
    rng_draw_site(files, &mut findings);
    event_coverage(files, &mut findings);
    findings
}

fn finding(
    rule: &'static str,
    rel_path: &str,
    line: usize,
    column: usize,
    message: String,
) -> Finding {
    Finding {
        rule,
        file: rel_path.to_string(),
        line,
        column,
        message,
        allowed: false,
        reason: None,
    }
}

fn idents_of(tokens: &[Token]) -> impl Iterator<Item = &str> {
    tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

/// checkpoint-coverage: every named field of a tracked state struct
/// must appear (as an identifier) in checkpoint serialization code —
/// `checkpoint.rs` itself or the body of a capture fn — or carry a
/// reasoned allow explaining why it is derived/rebuildable state.
fn checkpoint_coverage(files: &[SourceUnit], findings: &mut Vec<Finding>) {
    let tracked: Vec<(&SourceUnit, &StructItem)> = files
        .iter()
        .flat_map(|u| u.items.structs.iter().map(move |s| (u, s)))
        .filter(|(u, s)| {
            TRACKED_STRUCTS
                .iter()
                .any(|(path, name)| u.rel_path == *path && s.name == *name)
        })
        .collect();
    if tracked.is_empty() {
        return;
    }
    let mut corpus: BTreeSet<&str> = BTreeSet::new();
    for u in files {
        if u.rel_path.ends_with("checkpoint.rs") {
            corpus.extend(idents_of(&u.tokens));
        }
        for f in &u.items.fns {
            if !CAPTURE_FNS.contains(&f.name.as_str()) {
                continue;
            }
            if let Some((a, b)) = f.body {
                corpus.extend(idents_of(&u.tokens[a..=b.min(u.tokens.len() - 1)]));
            }
        }
    }
    for (u, s) in tracked {
        for field in &s.fields {
            if !corpus.contains(field.name.as_str()) {
                findings.push(finding(
                    "checkpoint-coverage",
                    &u.rel_path,
                    field.line,
                    field.column,
                    format!(
                        "field `{}` of `{}` is not referenced by any checkpoint \
                         serialization site (checkpoint.rs or a checkpoint()/\
                         config_digest_value()/snapshot() body); a resumed run will \
                         silently diverge — serialize it or annotate derived state",
                        field.name, s.name
                    ),
                ));
            }
        }
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
fn rng_draw_site(files: &[SourceUnit], findings: &mut Vec<Finding>) {
    for u in files {
        if !DRAW_SCOPED_PREFIXES
            .iter()
            .any(|p| u.rel_path.starts_with(p))
        {
            continue;
        }
        let toks = &u.tokens;
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
            for c in &u.items.closures {
                if c.body.0 > i && c.body.1 <= close {
                    worker_bodies.push((c.body.0, c.body.1, tok.text.as_str()));
                }
            }
        }
        let allowed_file = DRAW_ALLOWED_FILES.contains(&u.rel_path.as_str());
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
            if let Some((_, _, callee)) = worker_bodies.iter().find(|(a, b, _)| i >= *a && i <= *b)
            {
                findings.push(finding(
                    "rng-draw-site",
                    &u.rel_path,
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
                    &u.rel_path,
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
}

/// event-coverage: every variant of the event enum must be matched
/// (as `SimEvent::Variant`) inside each mandatory consumer's
/// `impl EventSink for <Consumer>` block.
fn event_coverage(files: &[SourceUnit], findings: &mut Vec<Finding>) {
    let defs: Vec<(&SourceUnit, &EnumItem)> = files
        .iter()
        .flat_map(|u| u.items.enums.iter().map(move |e| (u, e)))
        .filter(|(_, e)| e.name == EVENT_ENUM)
        .collect();
    if defs.is_empty() {
        return;
    }
    for (consumer, verb) in EVENT_CONSUMERS {
        let mut handled: BTreeSet<&str> = BTreeSet::new();
        for u in files {
            for im in &u.items.impls {
                let is_sink_impl = im.header.iter().any(|h| h == "EventSink")
                    && im.header.iter().any(|h| h == consumer);
                if !is_sink_impl {
                    continue;
                }
                let (a, b) = im.body;
                let toks = &u.tokens;
                for j in a..=b.min(toks.len().saturating_sub(1)) {
                    if toks[j].kind == TokenKind::Ident
                        && toks[j].text == EVENT_ENUM
                        && toks.get(j + 1).is_some_and(|t| t.text == "::")
                    {
                        if let Some(v) = toks.get(j + 2).filter(|t| t.kind == TokenKind::Ident) {
                            handled.insert(v.text.as_str());
                        }
                    }
                }
            }
        }
        for (u, e) in &defs {
            for v in &e.variants {
                if !handled.contains(v.name.as_str()) {
                    findings.push(finding(
                        "event-coverage",
                        &u.rel_path,
                        v.line,
                        v.column,
                        format!(
                            "`SimEvent::{}` is not {} `{}`; every event variant must \
                             reconcile into both consumers or carry an allow naming it \
                             diagnostic-only",
                            v.name, verb, consumer
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::lexer::lex;

    fn unit(rel_path: &str, src: &str) -> SourceUnit {
        let tokens = lex(src).tokens;
        let items = items::extract(&tokens);
        SourceUnit {
            rel_path: rel_path.to_string(),
            tokens,
            items,
        }
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn uncheckpointed_field_is_flagged() {
        let engine = unit(
            "crates/core/src/engine.rs",
            "pub struct Simulation { round: u64, scratch: Vec<u64> }\n\
             impl Simulation { fn checkpoint(&self) -> u64 { self.round } }\n",
        );
        let findings = check_workspace(&[engine]);
        assert_eq!(rules_of(&findings), ["checkpoint-coverage"]);
        assert!(findings[0].message.contains("`scratch`"));
    }

    #[test]
    fn checkpoint_rs_idents_count_as_coverage() {
        let engine = unit(
            "crates/core/src/engine.rs",
            "pub struct Simulation { round: u64 }\n",
        );
        let ckpt = unit(
            "crates/core/src/checkpoint.rs",
            "pub struct Checkpoint { pub round: u64 }\n",
        );
        assert!(check_workspace(&[engine, ckpt]).is_empty());
    }

    #[test]
    fn untracked_structs_are_ignored_and_rule_is_anchored() {
        let other = unit(
            "crates/core/src/metrics.rs",
            "pub struct Simulation { uncovered: u64 }\npub struct Other { x: u64 }\n",
        );
        // `Simulation` outside engine.rs is not the tracked struct, and
        // with no tracked struct in the set the rule stays silent.
        assert!(check_workspace(&[other]).is_empty());
    }

    #[test]
    fn draw_outside_allowlist_is_flagged() {
        let f = unit(
            "crates/experiments/src/traffic.rs",
            "fn t(seed: u64) -> u64 { let mut r = StdRng::seed_from_u64(seed); r.next_u64() }\n",
        );
        let findings = check_workspace(&[f]);
        assert_eq!(rules_of(&findings), ["rng-draw-site", "rng-draw-site"]);
    }

    #[test]
    fn draw_in_allowlisted_file_is_clean() {
        let f = unit(
            "crates/core/src/engine.rs",
            "fn tape(seed: u64) -> u64 { let mut r = StdRng::seed_from_u64(seed); r.next_u64() }\n",
        );
        assert!(check_workspace(&[f]).is_empty());
    }

    #[test]
    fn draw_inside_fan_out_closure_is_flagged_even_in_engine() {
        let f = unit(
            "crates/core/src/engine.rs",
            "fn fan(w: Vec<u64>) { run_shards(w, move |x| { rng.next_u64() }); }\n",
        );
        let findings = check_workspace(&[f]);
        assert_eq!(rules_of(&findings), ["rng-draw-site"]);
        assert!(findings[0].message.contains("run_shards"));
    }

    #[test]
    fn draw_definitions_and_bare_idents_are_not_calls() {
        let f = unit(
            "crates/experiments/src/traffic.rs",
            "fn next_u64() -> u64 { 7 }\nfn f(gen_range: u64) -> u64 { gen_range }\n",
        );
        assert!(check_workspace(&[f]).is_empty());
    }

    #[test]
    fn fixture_paths_outside_scope_are_exempt() {
        let f = unit("crates/sim/src/x.rs", "fn t() -> u64 { rng.next_u64() }\n");
        assert!(check_workspace(&[f]).is_empty());
    }

    #[test]
    fn unhandled_event_variant_is_flagged_per_consumer() {
        let src = "pub enum SimEvent { A { r: u64 }, B { r: u64 } }\n\
                   pub struct CounterSink;\n\
                   impl EventSink for CounterSink {\n\
                       fn emit(&mut self, e: SimEvent) { if let SimEvent::A { .. } = e {} }\n\
                   }\n\
                   pub struct JsonlSink;\n\
                   impl EventSink for JsonlSink {\n\
                       fn emit(&mut self, e: SimEvent) { match e { SimEvent::A { .. } => {}, SimEvent::B { .. } => {} } }\n\
                   }\n";
        let findings = check_workspace(&[unit("crates/core/src/events.rs", src)]);
        assert_eq!(rules_of(&findings), ["event-coverage"]);
        assert!(findings[0].message.contains("CounterSink"));
        assert!(findings[0].message.contains("`SimEvent::B`"));
    }

    #[test]
    fn fully_reconciled_enum_is_clean() {
        let src = "pub enum SimEvent { A }\n\
                   impl EventSink for CounterSink { fn f(&self) { let _ = SimEvent::A; } }\n\
                   impl EventSink for JsonlSink { fn f(&self) { let _ = SimEvent::A; } }\n";
        assert!(check_workspace(&[unit("crates/core/src/events.rs", src)]).is_empty());
    }
}
