//! **Mega-grid** — the round engine at scales far beyond the paper's
//! 4×4 fabric.
//!
//! Floods a 64×64 (and, at `--full`, a 128×128) grid with a burst of
//! corner-to-corner broadcasts, fault-free and under the baseline fault
//! model, exercising the active-frontier worklist. The table reports
//! only deterministic quantities (rounds, packets, deliveries, quiescent
//! rounds), so its bytes are identical for every `--threads` value and
//! with or without checkpoints; wall-clock observability goes to the
//! runner summary on stderr and, under `--metrics-out`, to per-phase
//! engine span histograms.

use noc_fabric::{MessageId, NodeId, Topology};
use noc_faults::FaultModel;
use stochastic_noc::{
    Checkpoint, CheckpointError, Simulation, SimulationBuilder, SimulationReport, StochasticConfig,
};

use crate::{runner, Scale, TrialRunner};

/// What `--checkpoint-every`, `--checkpoint-dir` and `--resume` ask of a
/// mega-grid run. The default writes no checkpoint and resumes nothing.
#[derive(Default)]
pub struct Checkpoints {
    /// Writes a checkpoint every this many rounds; 0 writes none.
    pub every: u64,
    /// The directory checkpoints are written to; `None` is the current
    /// directory.
    pub dir: Option<String>,
    /// The checkpoint to resume from, with the path it was loaded from.
    pub resume: Option<(String, Checkpoint)>,
}

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
/// whose digest matches but whose body `resume` refuses ends the process
/// with one stderr line, `--resume PATH: reason`, and exit status 1:
/// running the configuration from round 0 instead would hide the refusal.
fn try_resume(
    side: usize,
    regime: &'static str,
    seed: u64,
    resume: Option<&(String, Checkpoint)>,
) -> Option<Simulation> {
    let (path, checkpoint) = resume?;
    let sim = match make_builder(side, regime, seed).resume(checkpoint) {
        Ok(sim) => sim,
        Err(CheckpointError::ConfigMismatch) => return None,
        Err(err) => {
            eprintln!("--resume {path}: {err}");
            std::process::exit(1)
        }
    };
    eprintln!(
        "{{\"event\":\"resumed\",\"figure\":\"mega-grid-{side}-{regime}\",\"round\":{}}}",
        sim.round(),
    );
    Some(sim)
}

/// Steps `sim` to completion, writing a checkpoint into `dir` every
/// `every` rounds.
fn run_with_checkpoints(
    mut sim: Simulation,
    label: &str,
    every: u64,
    dir: &str,
) -> SimulationReport {
    let max_rounds = sim.config().max_rounds;
    while !sim.is_complete() && sim.round() < max_rounds {
        sim.step();
        if sim.round() % every == 0 {
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

fn run_one(
    side: usize,
    regime: &'static str,
    messages: usize,
    seed: u64,
    checkpoints: &Checkpoints,
) -> MegaGridRow {
    let n = side * side;
    let (sim, ids) = match try_resume(side, regime, seed, checkpoints.resume.as_ref()) {
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
            // the grid in both directions.
            let ids: Vec<_> = (0..messages)
                .map(|i| {
                    let src = (i * n) / messages;
                    sim.inject(NodeId(src), NodeId(n - 1 - src), vec![0x5A; 8])
                })
                .collect();
            (sim, ids)
        }
    };
    let report = match checkpoints.every {
        0 => sim.run_to_report(),
        every => {
            let label = format!("mega-grid-{side}-{regime}");
            let dir = checkpoints.dir.as_deref().unwrap_or(".");
            run_with_checkpoints(sim, &label, every, dir)
        }
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

/// Runs the mega-grid scenarios for the given scale, checkpointing and
/// resuming as `checkpoints` asks.
pub fn run(scale: Scale, checkpoints: &Checkpoints) -> Vec<MegaGridRow> {
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
                .run(move |_| run_one(side, regime, messages, seed, checkpoints));
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
        let rows = run(Scale::Quick, &Checkpoints::default());
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
    fn checkpointed_run_resumes_to_the_identical_row() {
        let plain = Checkpoints::default();
        let baseline = run_one(32, "faulty", 4, 7, &plain);
        let dir = std::env::temp_dir().join(format!("mega-grid-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create checkpoint dir");

        // A run with checkpointing on produces the same row...
        let writing = Checkpoints {
            every: 5,
            dir: Some(dir.to_string_lossy().into_owned()),
            resume: None,
        };
        let checkpointed = run_one(32, "faulty", 4, 7, &writing);
        assert_eq!(format!("{checkpointed:?}"), format!("{baseline:?}"));

        // ...and resuming from a mid-run checkpoint reaches it too.
        let ckpt = dir.join("mega-grid-32-faulty-round-000005.ckpt");
        assert!(ckpt.exists(), "round-5 checkpoint written");
        let checkpoint = Checkpoint::load(&ckpt).expect("the checkpoint loads");
        let resuming = Checkpoints {
            resume: Some((ckpt.to_string_lossy().into_owned(), checkpoint)),
            ..Checkpoints::default()
        };
        let resumed = run_one(32, "faulty", 4, 7, &resuming);
        // A non-matching configuration ignores the checkpoint and runs
        // fresh instead of panicking or corrupting its row.
        let other = run_one(32, "fault-free", 4, 7, &resuming);
        let other_baseline = run_one(32, "fault-free", 4, 7, &plain);
        assert_eq!(format!("{resumed:?}"), format!("{baseline:?}"));
        assert_eq!(format!("{other:?}"), format!("{other_baseline:?}"));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
