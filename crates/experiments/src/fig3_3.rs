//! **Figure 3-3** — the producer–consumer example on a 4×4 grid: round
//! by round, which tiles have become aware of the message and when the
//! consumer receives it.
//!
//! Given a trace path (`--trace-events PATH`), trial 0 of this figure
//! streams its full event log there as JSON Lines.

use std::fs::File;
use std::io::BufWriter;

use noc_fabric::{Grid2d, NodeId};
use stochastic_noc::events::{EventSink, JsonlSink};
use stochastic_noc::{Simulation, SimulationBuilder, StochasticConfig};

use crate::{Scale, TrialRunner};

/// Trace of one producer–consumer gossip spread.
#[derive(Debug, Clone)]
pub struct ProducerConsumerTrace {
    /// Informed tile count after each round (index = round).
    pub informed_per_round: Vec<usize>,
    /// Round at which the consumer first received the message, if any.
    pub delivery_round: Option<u64>,
    /// Total packet transmissions over the whole spread.
    pub packets_sent: u64,
}

fn builder(seed: u64) -> SimulationBuilder {
    let mut builder = SimulationBuilder::new(Grid2d::new(4, 4))
        .config(
            StochasticConfig::new(0.5, 12)
                .expect("valid")
                .with_max_rounds(40),
        )
        .seed(seed);
    if let Some(obs) = crate::runner::engine_obs() {
        builder = builder.obs(obs);
    }
    builder
}

/// Drives one trial to completion; generic over the installed sink so
/// the traced trial and the plain trials execute the identical schedule.
fn run_one<S: EventSink>(mut sim: Simulation<S>) -> (ProducerConsumerTrace, S) {
    let id = sim.inject(NodeId(5), NodeId(11), b"figure 3-3".to_vec());
    let mut informed = vec![sim.informed_count(id)];
    while !sim.is_complete() && sim.round() < 40 {
        sim.step();
        informed.push(sim.informed_count(id));
    }
    let report = sim.run(); // already done: only finalizes the report
    let trace = ProducerConsumerTrace {
        informed_per_round: informed,
        delivery_round: report.latency(id),
        packets_sent: report.packets_sent,
    };
    (trace, sim.into_sink())
}

/// Runs the producer (tile 6, 0-based 5) → consumer (tile 12, 0-based
/// 11) example at `p = 0.5` on a 4×4 grid; with a `trace` path, trial 0
/// also streams its events there.
pub fn run(scale: Scale, trace: Option<&str>) -> Vec<ProducerConsumerTrace> {
    TrialRunner::for_figure("fig3-3", scale.repetitions()).run_indexed(|index, seed| {
        if let (Some(path), 0) = (trace, index) {
            let file = File::create(path)
                .unwrap_or_else(|e| crate::runner::output_failed("--trace-events", path, &e));
            let sim = builder(seed).build_with_sink(JsonlSink::new(BufWriter::new(file)));
            let (trace, sink) = run_one(sim);
            let events = sink.events_written();
            let _ = sink.into_inner(); // flushes
            eprintln!("[trace] fig3-3 trial 0: {events} events -> {path}");
            trace
        } else {
            run_one(builder(seed).build()).0
        }
    })
}

/// Prints the per-round awareness trace of each run.
pub fn print(traces: &[ProducerConsumerTrace]) {
    crate::stats::print_table_header(
        "Figure 3-3: producer (tile 6) -> consumer (tile 12), 4x4 grid, p=0.5",
        &[
            "run",
            "delivery round",
            "packets",
            "informed tiles per round",
        ],
    );
    for (i, t) in traces.iter().enumerate() {
        let spread: Vec<String> = t.informed_per_round.iter().map(|c| c.to_string()).collect();
        println!(
            "{}\t{}\t{}\t{}",
            i,
            t.delivery_round.map_or("-".to_string(), |r| r.to_string()),
            t.packets_sent,
            spread.join(",")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumer_is_reached_before_full_broadcast_usually() {
        let traces = run(Scale::Quick, None);
        let delivered = traces.iter().filter(|t| t.delivery_round.is_some()).count();
        assert!(delivered >= traces.len() - 1, "p=0.5 delivers reliably");
    }

    #[test]
    fn awareness_is_monotone() {
        for t in run(Scale::Quick, None) {
            assert!(t.informed_per_round.windows(2).all(|w| w[1] >= w[0]));
            assert_eq!(t.informed_per_round[0], 1, "only the producer at start");
        }
    }

    #[test]
    fn traced_trial_matches_untraced_output() {
        // The JSONL sink observes; it must not perturb the figure data.
        let dir = std::env::temp_dir().join("fig3_3_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let traced = run(Scale::Quick, path.to_str());
        let plain = run(Scale::Quick, None);

        assert_eq!(traced.len(), plain.len());
        for (a, b) in traced.iter().zip(&plain) {
            assert_eq!(a.informed_per_round, b.informed_per_round);
            assert_eq!(a.delivery_round, b.delivery_round);
            assert_eq!(a.packets_sent, b.packets_sent);
        }

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty(), "trace file has events");
        let rounds: Vec<u64> = text
            .lines()
            .map(|l| {
                assert!(l.starts_with("{\"event\":\"") && l.ends_with('}'), "{l}");
                let key = "\"round\":";
                let at = l.find(key).expect("every event carries a round") + key.len();
                l[at..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(rounds.windows(2).all(|w| w[0] <= w[1]), "round-monotone");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tracing_and_metrics_compose() {
        use std::sync::Arc;

        // `--trace-events` and `--metrics-out` together: the traced
        // trial still streams JSONL, the engines still record spans, and
        // the figure data stays byte-identical to the unobserved run.
        let _guard = crate::runner::GLOBAL_STATE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let plain = run(Scale::Quick, None);

        let dir = std::env::temp_dir().join("fig3_3_compose_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let registry = Arc::new(noc_obs::Metrics::new());
        crate::runner::install_metrics(Some(Arc::clone(&registry)));
        let observed = run(Scale::Quick, path.to_str());
        crate::runner::install_metrics(None);

        assert_eq!(observed.len(), plain.len());
        for (a, b) in observed.iter().zip(&plain) {
            assert_eq!(a.informed_per_round, b.informed_per_round);
            assert_eq!(a.delivery_round, b.delivery_round);
            assert_eq!(a.packets_sent, b.packets_sent);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty(), "trace stream written alongside metrics");
        std::fs::remove_file(&path).ok();

        let snap = registry.snapshot();
        let round_phase = snap
            .histograms
            .iter()
            .find(|h| {
                h.name == "engine_phase_seconds"
                    && h.labels == vec![("phase".to_string(), "round".to_string())]
            })
            .expect("sequential engines record whole-round spans");
        assert!(round_phase.count > 0);
        let trial = snap
            .histograms
            .iter()
            .find(|h| {
                h.name == "runner_trial_seconds"
                    && h.labels == vec![("figure".to_string(), "fig3-3".to_string())]
            })
            .expect("runner recorded trial wall time");
        assert!(trial.count > 0);
    }
}
