//! Integration tests over the full application workloads.

use noc_apps::fft2d::{Fft2dApp, Fft2dParams};
use noc_apps::master_slave::{MasterSlaveApp, MasterSlaveParams};
use noc_apps::mp3::{Mp3App, Mp3Params};
use noc_faults::FaultModel;
use stochastic_noc::StochasticConfig;

#[test]
fn pi_survives_upsets_and_stays_numerically_exact() {
    // Upsets can delay but never corrupt the result: corrupted packets
    // are CRC-dropped, so the pi estimate is bit-exact when complete.
    let clean = MasterSlaveApp::new(MasterSlaveParams {
        terms: 50_000,
        ..MasterSlaveParams::default()
    })
    .run();
    let noisy = MasterSlaveApp::new(MasterSlaveParams {
        terms: 50_000,
        fault_model: FaultModel::builder().p_upset(0.25).build().unwrap(),
        config: StochasticConfig::new(0.75, 20)
            .unwrap()
            .with_max_rounds(400),
        seed: 3,
        ..MasterSlaveParams::default()
    })
    .run();
    assert!(clean.completed && noisy.completed);
    assert_eq!(
        clean.pi_estimate.unwrap().to_bits(),
        noisy.pi_estimate.unwrap().to_bits(),
        "faults must never alter delivered data"
    );
}

#[test]
fn fft_matches_oracle_even_under_packet_loss() {
    let params = Fft2dParams {
        fault_model: FaultModel::builder().p_overflow(0.2).build().unwrap(),
        config: StochasticConfig::new(0.75, 20)
            .unwrap()
            .with_max_rounds(300),
        seed: 5,
        ..Fft2dParams::default()
    };
    let input = Fft2dApp::new(params.clone()).test_image();
    let outcome = Fft2dApp::new(params).run();
    assert!(outcome.completed, "20% overflow should be survivable");
    let err = outcome.max_error_against_oracle(&input, 16, 16).unwrap();
    assert!(err < 1e-9, "numerical error {err}");
}

#[test]
fn mp3_graceful_degradation_curve() {
    // The paper's claim: graceful degradation in delivered frames as the
    // overflow level rises, with a cliff only at extreme levels.
    let delivered_at = |p_overflow: f64| {
        let params = Mp3Params {
            frames: 10,
            fault_model: FaultModel::builder()
                .p_overflow(p_overflow)
                .build()
                .unwrap(),
            config: StochasticConfig::new(0.6, 20).unwrap().with_max_rounds(400),
            seed: 1,
            ..Mp3Params::default()
        };
        Mp3App::new(params).run().frames_delivered
    };
    let clean = delivered_at(0.0);
    let moderate = delivered_at(0.5);
    let extreme = delivered_at(0.97);
    assert_eq!(clean, 10);
    assert!(moderate >= 8, "50% overflow delivered {moderate}");
    assert!(extreme < moderate, "97% overflow must hurt ({extreme})");
}

#[test]
fn flooding_versus_gossip_tradeoff_holds_across_apps() {
    // The headline design knob: flooding buys latency with energy.
    let ms = |p: f64| {
        MasterSlaveApp::new(MasterSlaveParams {
            config: StochasticConfig::new(p, 16).unwrap().with_max_rounds(200),
            terms: 10_000,
            seed: 2,
            ..MasterSlaveParams::default()
        })
        .run()
    };
    let flood = ms(1.0);
    let half = ms(0.5);
    assert!(flood.completed && half.completed);
    assert!(flood.completion_round.unwrap() <= half.completion_round.unwrap());
    assert!(flood.report.total_energy().joules() > half.report.total_energy().joules());
}
