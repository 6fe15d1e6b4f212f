//! Engine-side handles into the wall-clock observability plane.
//!
//! [`EngineObs`] bundles the `noc-obs` instruments the round loop
//! records into: one `engine_phase_seconds{phase=...}` histogram per
//! engine phase and an `engine_rounds_total` counter. It is installed
//! through [`crate::SimulationBuilder::obs`] and lives in
//! `Option<EngineObs>` inside the engine, so the default path pays one
//! `Option` test per phase per round and nothing else.
//!
//! Two-plane contract (DESIGN.md §13): nothing recorded here can feed
//! back into the simulation. The handles are write-only from the
//! engine's perspective — no branch, draw, or report field ever reads
//! them — so reports, event streams, and golden digests are
//! byte-identical with or without an `EngineObs` installed.

use noc_obs::{Counter, Histogram, Metrics, Stopwatch};

/// The engine phases timed on the wall-clock plane.
///
/// Every round, at every shard count, records one `Round` span and
/// inside it one `Receive`, one `Age`, one `Forward` and one
/// `Quiescence` span. With more than one shard, receive breaks down
/// further: `Tape` is the serial main-thread pre-pass that draws the
/// overflow verdicts onto the replay tape, `ShardFanout` the
/// scoped-worker execution of the phase across shards, `Merge` the
/// main-thread replay of worker results in tile order. Age and forward
/// are one main-thread walk each at every shard count and have no
/// breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// Serial overflow-draw pre-pass of a receive phase on more than
    /// one shard (recorded only when probabilistic overflow is on).
    Tape,
    /// Fan-out of a receive phase across scoped shard workers.
    ShardFanout,
    /// Deterministic main-thread merge of the receive workers' outputs.
    Merge,
    /// End-of-round quiescence detection and termination bookkeeping.
    Quiescence,
    /// One whole round.
    Round,
    /// The receive phase (tape, fan-out and merge included).
    Receive,
    /// The age phase: one serial walk on the calling thread.
    Age,
    /// The forward phase: one serial walk on the calling thread.
    Forward,
}

impl EnginePhase {
    fn label(self) -> &'static str {
        match self {
            EnginePhase::Tape => "tape",
            EnginePhase::ShardFanout => "shard_fanout",
            EnginePhase::Merge => "merge",
            EnginePhase::Quiescence => "quiescence",
            EnginePhase::Round => "round",
            EnginePhase::Receive => "receive",
            EnginePhase::Age => "age",
            EnginePhase::Forward => "forward",
        }
    }
}

/// Wall-clock instruments for one engine. Cloning shares the underlying
/// registry slots, so one `EngineObs` can be handed to many builds and
/// the spans accumulate.
#[derive(Clone)]
pub struct EngineObs {
    tape: Histogram,
    shard_fanout: Histogram,
    merge: Histogram,
    quiescence: Histogram,
    round: Histogram,
    receive: Histogram,
    age: Histogram,
    forward: Histogram,
    rounds: Counter,
}

impl EngineObs {
    /// Registers (or re-attaches to) the engine instruments in
    /// `metrics`.
    pub fn new(metrics: &Metrics) -> Self {
        let phase =
            |p: EnginePhase| metrics.histogram("engine_phase_seconds", &[("phase", p.label())]);
        EngineObs {
            tape: phase(EnginePhase::Tape),
            shard_fanout: phase(EnginePhase::ShardFanout),
            merge: phase(EnginePhase::Merge),
            quiescence: phase(EnginePhase::Quiescence),
            round: phase(EnginePhase::Round),
            receive: phase(EnginePhase::Receive),
            age: phase(EnginePhase::Age),
            forward: phase(EnginePhase::Forward),
            rounds: metrics.counter("engine_rounds_total", &[]),
        }
    }

    /// Records one completed span against a phase histogram.
    pub(crate) fn record(&self, phase: EnginePhase, span: Stopwatch) {
        let hist = match phase {
            EnginePhase::Tape => &self.tape,
            EnginePhase::ShardFanout => &self.shard_fanout,
            EnginePhase::Merge => &self.merge,
            EnginePhase::Quiescence => &self.quiescence,
            EnginePhase::Round => &self.round,
            EnginePhase::Receive => &self.receive,
            EnginePhase::Age => &self.age,
            EnginePhase::Forward => &self.forward,
        };
        hist.observe(&span);
    }

    /// Counts one executed round.
    pub(crate) fn count_round(&self) {
        self.rounds.inc();
    }
}

/// Starts a span iff the wall-clock plane is installed. The `None` path
/// is a single branch — the cost the default build pays per phase.
#[inline]
pub(crate) fn span_start(obs: &Option<EngineObs>) -> Option<Stopwatch> {
    obs.as_ref().map(|_| Stopwatch::start())
}

/// Ends a span started by [`span_start`].
#[inline]
pub(crate) fn span_end(obs: &Option<EngineObs>, phase: EnginePhase, span: Option<Stopwatch>) {
    if let (Some(obs), Some(span)) = (obs.as_ref(), span) {
        obs.record(phase, span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_the_right_phase() {
        let metrics = Metrics::new();
        let obs = Some(EngineObs::new(&metrics));
        let span = span_start(&obs);
        assert!(span.is_some());
        span_end(&obs, EnginePhase::Merge, span);
        if let Some(o) = &obs {
            o.count_round();
        }
        let snap = metrics.snapshot();
        let merge = snap
            .histograms
            .iter()
            .find(|h| h.labels == vec![("phase".to_string(), "merge".to_string())])
            .expect("merge histogram registered");
        assert_eq!(merge.count, 1);
        let tape = snap
            .histograms
            .iter()
            .find(|h| h.labels == vec![("phase".to_string(), "tape".to_string())])
            .expect("tape histogram registered");
        assert_eq!(tape.count, 0, "no tape span was recorded");
        assert_eq!(metrics.counter_value("engine_rounds_total"), Some(1));
    }

    #[test]
    fn disabled_plane_starts_no_spans() {
        let obs: Option<EngineObs> = None;
        assert!(span_start(&obs).is_none());
        // And ending a never-started span is a no-op.
        span_end(&obs, EnginePhase::Round, None);
    }
}
