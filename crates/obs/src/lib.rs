//! `noc-obs` — the **wall-clock plane** of the workspace's two-plane
//! observability contract (DESIGN.md §13).
//!
//! The simulation proper lives entirely on the *deterministic plane*:
//! `SimEvent` streams, `SimulationReport`s, and the golden digests
//! derived from them are pure functions of `(topology, config, fault
//! model, adversary, seed)` and are byte-identical on every machine,
//! thread count, and shard count. Wall-clock time must never leak into
//! that plane — a report that mentioned seconds would make digests
//! machine-dependent and kill the replay/caching story.
//!
//! Everything that *does* read the clock lives here instead:
//!
//! * [`Metrics`] — a registry of named, labelled [`Counter`]s,
//!   [`Gauge`]s, and log-bucketed [`Histogram`]s, snapshot-able to
//!   hand-rolled JSON ([`MetricsSnapshot::to_json`]) and Prometheus
//!   text exposition ([`MetricsSnapshot::to_prometheus`]);
//! * [`Stopwatch`] — the one sanctioned wrapper around
//!   `std::time::Instant`. `clippy.toml` disallows `Instant` and
//!   `SystemTime` everywhere outside `time.rs`, so the two-plane split
//!   is enforced statically, not by convention.
//!
//! Handles returned by the registry are cheap `Arc`-backed clones whose
//! record paths are single atomic operations — safe to call from scoped
//! worker threads without locks. The registry lock is only taken at
//! registration and snapshot time.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod registry;
mod snapshot;
mod time;

pub use registry::{Counter, Gauge, Histogram, Metrics, HISTOGRAM_BUCKETS};
pub use snapshot::{
    escape as json_escape, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot,
};
pub use time::Stopwatch;
