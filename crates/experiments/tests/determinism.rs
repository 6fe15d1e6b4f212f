//! Reproducibility guarantees: identical `(inputs, seed)` pairs must
//! produce bit-identical results across every layer of the stack.

use noc_apps::mp3::{Mp3App, Mp3Params};
use noc_diversity::{compare_architectures, ComparisonParams};
use noc_experiments::{fig3_3, fig4_9, runner, Scale, TrialRunner};
use noc_fabric::{Grid2d, NodeId};
use noc_faults::FaultModel;
use stochastic_noc::{seed, SimulationBuilder, StochasticConfig};

fn full_model() -> FaultModel {
    FaultModel::builder()
        .p_tiles(0.05)
        .p_links(0.05)
        .p_upset(0.3)
        .p_overflow(0.2)
        .sigma_synch(0.25)
        .build()
        .unwrap()
}

#[test]
fn engine_runs_are_bit_reproducible() {
    let run = |seed: u64| {
        let mut sim = SimulationBuilder::new(Grid2d::new(5, 5))
            .config(StochasticConfig::new(0.5, 16).unwrap().with_max_rounds(80))
            .fault_model(full_model())
            .seed(seed)
            .build();
        let a = sim.inject(NodeId(0), NodeId(24), b"one".to_vec());
        let b = sim.inject(NodeId(12), NodeId(3), b"two".to_vec());
        let report = sim.run();
        (
            report.packets_sent,
            report.bits_sent,
            report.upsets_detected,
            report.upsets_undetected,
            report.overflow_drops,
            report.crash_drops,
            report.clock_slips,
            report.latency(a),
            report.latency(b),
        )
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds must diverge");
}

#[test]
fn application_outcomes_are_reproducible() {
    let run = || {
        let outcome = Mp3App::new(Mp3Params {
            frames: 8,
            fault_model: full_model(),
            config: StochasticConfig::new(0.7, 20).unwrap().with_max_rounds(400),
            seed: 11,
            ..Mp3Params::default()
        })
        .run();
        (
            outcome.frames_delivered,
            outcome.output_bits,
            outcome.arrival_rounds.clone(),
            outcome.report.packets_sent,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn architecture_comparison_is_reproducible() {
    let run = || {
        compare_architectures(&ComparisonParams::quick())
            .into_iter()
            .map(|r| (r.latency_rounds, r.transmissions))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn figure_rows_are_identical_for_any_thread_count() {
    // The same guarantee the `experiments` binary gives for
    // `--threads N`: figure rows (including every f64, compared via the
    // exact Debug rendering) must not depend on the worker count.
    let snapshot = |threads: usize| {
        runner::set_default_threads(threads);
        let rows = format!(
            "{:?}|{:?}",
            fig3_3::run(Scale::Quick, None),
            fig4_9::run(Scale::Quick)
        );
        let _ = runner::take_reports();
        rows
    };
    let baseline = snapshot(1);
    for threads in [2usize, 8] {
        assert_eq!(snapshot(threads), baseline, "threads={threads}");
    }
    runner::set_default_threads(0);
}

#[test]
fn trial_runner_matches_hand_rolled_serial_loop() {
    // The parallel runner must be a drop-in replacement for
    // `for i in 0..n { f(derive_trial_seed(base, i)) }`.
    let serial: Vec<u64> = (0..40)
        .map(|i| {
            let s = seed::derive_trial_seed(123, i);
            s.rotate_left((i % 63) as u32) ^ i
        })
        .collect();
    let parallel = TrialRunner::new(123, 40)
        .threads(8)
        .run_indexed(|i, s| s.rotate_left((i % 63) as u32) ^ i as u64);
    assert_eq!(parallel, serial);
}
