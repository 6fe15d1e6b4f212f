//! **Mega-grid** — shard-engine demonstration at scales far beyond the
//! paper's 4×4 fabric.
//!
//! Floods a 64×64 (and, at `--full`, a 128×128) grid with a burst of
//! corner-to-corner broadcasts, fault-free and under the baseline fault
//! model, exercising the intra-trial sharded round loop and the
//! active-frontier worklist. The table reports only deterministic
//! quantities (rounds, packets, deliveries, quiescent rounds), so its
//! bytes are identical for every `--shards` and `--threads` value;
//! wall-clock observability goes to the runner summary on stderr and,
//! under `--metrics-out`, to per-phase engine span histograms.

use noc_fabric::{MessageId, NodeId, Topology};
use noc_faults::FaultModel;
use stochastic_noc::{
    CheckpointError, Simulation, SimulationBuilder, SimulationReport, StochasticConfig,
};

use crate::{runner, Scale, TrialRunner};

/// One mega-grid configuration's aggregate outcome.
#[derive(Debug, Clone)]
pub struct MegaGridRow {
    /// Grid side (the fabric is `side × side`).
    pub side: usize,
    /// "fault-free" or "faulty".
    pub regime: &'static str,
    /// Broadcasts injected.
    pub messages: usize,
    /// Rounds the engine executed.
    pub rounds: u64,
    /// Messages that reached their destination.
    pub delivered: usize,
    /// Total frames pushed onto links.
    pub packets_sent: u64,
    /// Rounds that ended with empty buffers but frames still in flight.
    pub quiescent_rounds: u64,
}

/// The baseline fault regime used by the faulty rows.
fn faulty_model() -> FaultModel {
    FaultModel::builder()
        .p_upset(0.05)
        .p_overflow(0.02)
        .sigma_synch(0.1)
        .build()
        .expect("valid model")
}

fn make_builder(side: usize, regime: &'static str, seed: u64) -> SimulationBuilder {
    // Enough TTL to cross the grid diagonal with margin, capped at u8.
    let ttl = u8::try_from((2 * (side - 1) + side / 2).min(250)).expect("capped");
    let model = match regime {
        "faulty" => faulty_model(),
        _ => FaultModel::none(),
    };
    let mut builder = SimulationBuilder::new(Topology::grid(side, side))
        .config(
            StochasticConfig::new(0.75, ttl)
                .expect("valid config")
                .with_max_rounds(4 * side as u64)
                .with_termination(true),
        )
        .fault_model(model)
        .shards(runner::default_shards())
        .seed(seed);
    if let Some(obs) = runner::engine_obs() {
        builder = builder.obs(obs);
    }
    builder
}

/// Restores the simulation for this configuration from the `--resume`
/// checkpoint when its configuration digest matches; `None` means
/// "start fresh": no resume requested, or a checkpoint belonging to one
/// of the *other* mega-grid configurations — that one will pick it up,
/// and this one's table row is deterministic either way. A checkpoint
/// whose digest matches but whose body `resume` refuses ends the run.
fn try_resume(side: usize, regime: &'static str, seed: u64) -> Option<Simulation> {
    let checkpoint = runner::resume_checkpoint()?;
    let sim = match make_builder(side, regime, seed).resume(&checkpoint) {
        Ok(sim) => sim,
        Err(CheckpointError::ConfigMismatch) => return None,
        Err(err) => runner::resume_refused(&err),
    };
    eprintln!(
        "{{\"event\":\"resumed\",\"figure\":\"mega-grid-{side}-{regime}\",\"round\":{}}}",
        sim.round(),
    );
    Some(sim)
}

/// Steps `sim` to completion, writing a checkpoint into
/// `--checkpoint-dir` every `every` rounds.
fn run_with_checkpoints(mut sim: Simulation, label: &str, every: u64) -> SimulationReport {
    let dir = runner::checkpoint_dir().unwrap_or_else(|| ".".to_string());
    let max_rounds = sim.config().max_rounds;
    while !sim.is_complete() && sim.round() < max_rounds {
        sim.step();
        if every > 0 && sim.round() % every == 0 {
            let path = format!("{dir}/{label}-round-{:06}.ckpt", sim.round());
            match sim.checkpoint().save(&path) {
                Ok(()) => eprintln!(
                    "{{\"event\":\"checkpoint\",\"figure\":\"{label}\",\"round\":{},\"path\":\"{}\"}}",
                    sim.round(),
                    noc_obs::json_escape(&path),
                ),
                Err(err) => runner::output_failed("--checkpoint-dir", &path, &err),
            }
        }
    }
    // The loop above is `Simulation::run`'s own termination condition,
    // so this only finalizes and clones the report.
    sim.run()
}

fn run_one(side: usize, regime: &'static str, messages: usize, seed: u64) -> MegaGridRow {
    let n = side * side;
    let (sim, ids) = match try_resume(side, regime, seed) {
        // Injections happened before the checkpoint was taken, so the
        // restored report already tracks them; ids are deterministic
        // (sequential from 0 in injection order).
        Some(sim) => {
            let ids: Vec<_> = (0..messages).map(|i| MessageId(i as u64)).collect();
            (sim, ids)
        }
        None => {
            let mut sim = make_builder(side, regime, seed).build();
            // Broadcast burst: sources striped across the fabric, each
            // targeting the diagonally opposite tile, so traffic crosses
            // every shard boundary in both directions.
            let ids: Vec<_> = (0..messages)
                .map(|i| {
                    let src = (i * n) / messages;
                    sim.inject(NodeId(src), NodeId(n - 1 - src), vec![0x5A; 8])
                })
                .collect();
            (sim, ids)
        }
    };
    let report = match runner::checkpoint_every() {
        Some(every) => {
            let label = format!("mega-grid-{side}-{regime}");
            run_with_checkpoints(sim, &label, every)
        }
        None => sim.run_to_report(),
    };
    MegaGridRow {
        side,
        regime,
        messages,
        rounds: report.rounds_executed,
        delivered: ids.iter().filter(|&&id| report.delivered(id)).count(),
        packets_sent: report.packets_sent,
        quiescent_rounds: report.quiescent_rounds,
    }
}

/// Runs the mega-grid scenarios for the given scale.
pub fn run(scale: Scale) -> Vec<MegaGridRow> {
    let configs: Vec<(usize, &'static str, usize)> = match scale {
        Scale::Quick => vec![(64, "fault-free", 8), (64, "faulty", 8)],
        Scale::Full => vec![
            (64, "fault-free", 32),
            (64, "faulty", 32),
            (128, "fault-free", 32),
            (128, "faulty", 32),
        ],
    };
    configs
        .into_iter()
        .map(|(side, regime, messages)| {
            let label = format!("mega-grid/{side}/{regime}");
            let seed = TrialRunner::for_figure(&label, 1).trial_seed(0);
            let rows = TrialRunner::for_figure(&label, 1)
                .run(move |_| run_one(side, regime, messages, seed));
            rows.into_iter().next().expect("one trial per config")
        })
        .collect()
}

/// Prints the mega-grid table.
pub fn print(rows: &[MegaGridRow]) {
    crate::stats::print_table_header(
        "Mega-grid: sharded round engine at 64x64 and beyond",
        &[
            "grid",
            "regime",
            "messages",
            "delivered",
            "rounds",
            "packets sent",
            "quiescent rounds",
        ],
    );
    for r in rows {
        println!(
            "{}x{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.side,
            r.side,
            r.regime,
            r.messages,
            r.delivered,
            r.rounds,
            r.packets_sent,
            r.quiescent_rounds,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_floods_the_64_grid() {
        let rows = run(Scale::Quick);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.side, 64);
            assert!(row.packets_sent > 0, "{} moved no traffic", row.regime);
            assert!(
                row.delivered > 0,
                "{} delivered nothing out of {}",
                row.regime,
                row.messages
            );
        }
    }

    #[test]
    fn sharded_run_records_engine_phase_spans() {
        use std::sync::Arc;

        // A two-shard run with the wall-clock plane installed must time
        // the fan-out's sub-spans and the forward walk — and produce the
        // same deterministic row as an uninstrumented run.
        let _guard = runner::GLOBAL_STATE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let baseline = run_one(32, "faulty", 4, 7);
        let registry = Arc::new(noc_obs::Metrics::new());
        runner::install_metrics(Some(Arc::clone(&registry)));
        runner::set_default_shards(2);
        let observed = run_one(32, "faulty", 4, 7);
        runner::set_default_shards(1);
        runner::install_metrics(None);

        assert_eq!(observed.rounds, baseline.rounds);
        assert_eq!(observed.packets_sent, baseline.packets_sent);
        assert_eq!(observed.delivered, baseline.delivered);

        let snap = registry.snapshot();
        let span = |phase: &str| {
            snap.histograms
                .iter()
                .find(|h| {
                    h.name == "engine_phase_seconds"
                        && h.labels == vec![("phase".to_string(), phase.to_string())]
                })
                .unwrap_or_else(|| panic!("{phase} histogram registered"))
        };
        for phase in ["tape", "shard_fanout", "merge", "quiescence", "forward"] {
            assert!(span(phase).count > 0, "{phase} phase recorded spans");
            assert!(span(phase).sum_nanos > 0, "{phase} spans took nonzero time");
        }
        // `>=` rather than `==`: other concurrently-running figure tests
        // may record into the installed registry while it is live.
        assert!(
            span("forward").count >= baseline.rounds,
            "every two-shard round timed its forward walk: {} vs {}",
            span("forward").count,
            baseline.rounds
        );
        let rounds = registry.counter_value("engine_rounds_total");
        assert!(
            rounds.unwrap_or(0) >= baseline.rounds,
            "every round counted: {rounds:?} vs {}",
            baseline.rounds
        );
    }

    #[test]
    fn checkpointed_run_resumes_to_the_identical_row() {
        let _guard = runner::GLOBAL_STATE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let baseline = run_one(32, "faulty", 4, 7);
        let dir = std::env::temp_dir().join(format!("mega-grid-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create checkpoint dir");

        // A run with checkpointing on produces the same row...
        runner::set_checkpoint_every(5);
        runner::set_checkpoint_dir(Some(dir.to_string_lossy().into_owned()));
        let checkpointed = run_one(32, "faulty", 4, 7);
        runner::set_checkpoint_every(0);
        runner::set_checkpoint_dir(None);
        assert_eq!(format!("{checkpointed:?}"), format!("{baseline:?}"));

        // ...and resuming from a mid-run checkpoint reaches it too.
        let ckpt = dir.join("mega-grid-32-faulty-round-000005.ckpt");
        assert!(ckpt.exists(), "round-5 checkpoint written");
        runner::set_resume_path(Some(ckpt.to_string_lossy().into_owned()))
            .expect("the checkpoint loads");
        let resumed = run_one(32, "faulty", 4, 7);
        // A non-matching configuration ignores the checkpoint and runs
        // fresh instead of panicking or corrupting its row.
        let other = run_one(32, "fault-free", 4, 7);
        runner::set_resume_path(None).expect("clearing cannot fail");
        let other_baseline = run_one(32, "fault-free", 4, 7);
        assert_eq!(format!("{resumed:?}"), format!("{baseline:?}"));
        assert_eq!(format!("{other:?}"), format!("{other_baseline:?}"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_are_shard_count_independent() {
        let _guard = runner::GLOBAL_STATE_TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let baseline = run_one(32, "faulty", 4, 99);
        for shards in [2usize, 8] {
            runner::set_default_shards(shards);
            let sharded = run_one(32, "faulty", 4, 99);
            runner::set_default_shards(1);
            assert_eq!(sharded.rounds, baseline.rounds, "shards={shards}");
            assert_eq!(sharded.delivered, baseline.delivered, "shards={shards}");
            assert_eq!(
                sharded.packets_sent, baseline.packets_sent,
                "shards={shards}"
            );
            assert_eq!(
                sharded.quiescent_rounds, baseline.quiescent_rounds,
                "shards={shards}"
            );
        }
    }
}
