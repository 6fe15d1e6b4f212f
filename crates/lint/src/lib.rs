//! `noc-lint` — an offline static-analysis pass enforcing the
//! simulator's determinism and hot-path invariants.
//!
//! The whole value of this reproduction rests on byte-identical seeded
//! determinism: golden-report digests, the `ReferenceSimulation` oracle,
//! and `--threads`-independent merges all assume no code path ever
//! consults ambient entropy, wall-clock time, or unordered-map iteration
//! order. The tests enforce those invariants *after the fact*; this
//! linter enforces them *statically*, before a nondeterministic
//! construct can ship.
//!
//! The pass is dependency-free (no syn, no proc-macro machinery) and
//! has one tier: a hand-rolled comment/string/raw-string-aware Rust
//! lexer ([`lexer`]) feeds a rule engine ([`rules`]) of per-file
//! token-pattern invariants; [`items`] finds closure bodies for the one
//! rule (`rng-draw-site`) that asks where a draw sits. Findings are
//! suppressible only through the reasoned
//! `// noc-lint: allow(<rule>, reason = "…")` grammar ([`annotations`]),
//! and every allow is accounted for: one that covers nothing becomes a
//! `suppression-debt` finding, and the full inventory ships in the JSON
//! artifact.
//!
//! What is *not* here: "every engine field is in the checkpoint" and
//! "every `SimEvent` reaches both sinks" are exhaustiveness properties,
//! and rustc proves them — rest-free patterns in the capture fns,
//! wildcard-free matches in the sinks. See DESIGN.md §10 for the rule
//! catalogue and the table of what the compiler checks instead.
//!
//! Run it over the workspace with:
//!
//! ```text
//! cargo run -p noc-lint            # human-readable findings
//! cargo run -p noc-lint -- --format json
//! ```
//!
//! Exit codes are stable: `0` — no unannotated findings; `1` — at least
//! one unannotated finding; `2` — usage or I/O error.

#![forbid(unsafe_code)]

pub mod annotations;
pub mod driver;
pub mod items;
pub mod lexer;
pub mod rules;

pub use driver::{
    lint_files, lint_root, lint_source, render_json, render_text, Report, Suppression,
};
pub use rules::{Finding, RuleInfo, RULES};
