//! Golden-report determinism regression tests for adversarial scenarios.
//!
//! Same contract as `golden_report.rs`, but over the hostile scenario
//! grammar: `(topology, config, fault model, adversarial scenario,
//! seed)` → byte-identical `SimulationReport`, including the five
//! adversarial counters. These digests pin the paper's ch. 5 hostile
//! column inputs; a drift here means partitions, permanent failures,
//! chaos jitter or Byzantine traffic changed observable behaviour.

use noc_fabric::{NodeId, Topology};
use noc_faults::{AdversarialScenario, ByzantineMode, ErrorModel, FaultModel};
use stochastic_noc::events::{CounterSink, EventSink};
use stochastic_noc::{Simulation, SimulationBuilder, SimulationReport};

mod fates;

/// Serializes every observable field — including the adversarial
/// counters absent from the pre-adversary digest format — into a
/// stable string.
fn digest(report: &SimulationReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "rounds={} completed={} packets={} bits={} upd={} upu={} ovf={} crash={} slips={} ttlx={}\n",
        report.rounds_executed,
        report.completed,
        report.packets_sent,
        report.bits_sent.bits(),
        report.upsets_detected,
        report.upsets_undetected,
        report.overflow_drops,
        report.crash_drops,
        report.clock_slips,
        report.ttl_expirations,
    ));
    out.push_str(&format!(
        "part={} byzf={} byzr={} adel={} areo={}\n",
        report.partition_drops,
        report.byzantine_forges,
        report.byzantine_replays,
        report.adversarial_delays,
        report.adversarial_reorders,
    ));
    let mut records: Vec<_> = report.records().collect();
    records.sort_by_key(|r| r.id);
    for r in records {
        out.push_str(&format!(
            "{}:{}->{} inj={} del={:?} bits={}\n",
            r.id,
            r.source,
            r.destination,
            r.injected_round,
            r.delivered_round,
            r.frame_bits.bits(),
        ));
    }
    out
}

fn check(name: &str, sim: &mut Simulation, expected: &str) {
    let report = sim.run();
    let actual = digest(&report);
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "golden digest drifted for adversarial workload `{name}`:\n--- actual ---\n{actual}"
    );
}

/// A moderately faulty gossip base all hostile scenarios build on.
fn grid6_base() -> SimulationBuilder {
    let model = FaultModel::builder()
        .p_upset(0.05)
        .sigma_synch(0.2)
        .error_model(ErrorModel::RandomErrorVector)
        .build()
        .unwrap();
    SimulationBuilder::new(Topology::grid(6, 6))
        .forward_probability(0.6)
        .ttl(15)
        .max_rounds(60)
        .fault_model(model)
        .seed(13)
}

fn inject_pair<S: EventSink>(sim: &mut Simulation<S>) {
    sim.inject(NodeId(0), NodeId(35), b"hostile column".to_vec());
    sim.inject(NodeId(30), NodeId(5), b"cross".to_vec());
}

/// Every hostile scenario in this file with its pinned digest, freshly
/// built — drives the per-scenario tests and the obs-plane invariance
/// suite below from one definition.
fn adversarial_workloads() -> Vec<(&'static str, AdversarialScenario, &'static str)> {
    vec![
        (
            "partition_with_heal",
            // Cut the four links around the grid centre for rounds 3..9.
            AdversarialScenario::builder()
                .cut_links([24, 25, 26, 27], 3, Some(9))
                .build()
                .unwrap(),
            GOLDEN_PARTITION_HEAL,
        ),
        (
            "permanent_death",
            AdversarialScenario::builder()
                .kill_tile(14, 2)
                .kill_tile(21, 6)
                .kill_link(40, 0)
                .build()
                .unwrap(),
            GOLDEN_PERMANENT_DEATH,
        ),
        (
            "chaos_jitter",
            AdversarialScenario::builder()
                .delay_probability(0.15)
                .reorder_probability(0.2)
                .build()
                .unwrap(),
            GOLDEN_CHAOS_JITTER,
        ),
        (
            "byzantine_forge",
            AdversarialScenario::builder()
                .byzantine_tile(7)
                .byzantine_tile(28)
                .byzantine_mode(ByzantineMode::Forge)
                .byzantine_activation(0.5)
                .build()
                .unwrap(),
            GOLDEN_BYZANTINE_FORGE,
        ),
        (
            "byzantine_replay",
            AdversarialScenario::builder()
                .byzantine_tile(7)
                .byzantine_tile(28)
                .byzantine_mode(ByzantineMode::Replay)
                .byzantine_activation(0.5)
                .byzantine_until(Some(20))
                .build()
                .unwrap(),
            GOLDEN_BYZANTINE_REPLAY,
        ),
        (
            "combined_hostile",
            AdversarialScenario::builder()
                .cut_links([10, 11], 2, Some(7))
                .kill_tile(20, 4)
                .delay_probability(0.1)
                .reorder_probability(0.1)
                .byzantine_tile(13)
                .byzantine_mode(ByzantineMode::Forge)
                .byzantine_activation(0.4)
                .build()
                .unwrap(),
            GOLDEN_COMBINED_HOSTILE,
        ),
    ]
}

/// Builds and checks the named scenario through the default path.
fn check_scenario(name: &'static str) {
    let (_, adversary, golden) = adversarial_workloads()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .expect("known scenario");
    let mut sim = grid6_base().adversary(adversary).build();
    inject_pair(&mut sim);
    check(name, &mut sim, golden);
}

#[test]
fn golden_partition_with_heal() {
    check_scenario("partition_with_heal");
}

#[test]
fn golden_permanent_death() {
    check_scenario("permanent_death");
}

#[test]
fn golden_chaos_jitter() {
    check_scenario("chaos_jitter");
}

#[test]
fn golden_byzantine_forge() {
    check_scenario("byzantine_forge");
}

#[test]
fn golden_byzantine_replay() {
    check_scenario("byzantine_replay");
}

#[test]
fn golden_combined_hostile() {
    check_scenario("combined_hostile");
}

/// The two-plane contract over the hostile grammar: every adversarial
/// digest stays byte-identical with the wall-clock plane installed and
/// a CounterSink attached — sequentially and through the sharded loop.
#[test]
fn adversarial_digests_are_identical_with_obs_plane_enabled() {
    for shards in [1usize, 4] {
        let metrics = noc_obs::Metrics::new();
        let obs = stochastic_noc::EngineObs::new(&metrics);
        for (name, adversary, golden) in adversarial_workloads() {
            let mut sim = grid6_base()
                .adversary(adversary)
                .shards(shards)
                .obs(obs.clone())
                .build_with_sink(CounterSink::new());
            inject_pair(&mut sim);
            let report = sim.run();
            assert_eq!(
                digest(&report).trim(),
                golden.trim(),
                "digest for `{name}` drifted with obs plane enabled (shards={shards})"
            );
            sim.into_sink()
                .reconcile(&report)
                .expect("obs-enabled hostile workload reconciles");
        }
        assert!(
            metrics.counter_value("engine_rounds_total").unwrap_or(0) > 0,
            "rounds were counted (shards={shards})"
        );
    }
}

/// A recording sink sees every frame's fate, duplicates included, on
/// every hostile scenario.
#[test]
fn adversarial_frame_fates_balance_under_a_counter_sink() {
    for (name, adversary, _) in adversarial_workloads() {
        let mut sim = grid6_base()
            .adversary(adversary)
            .build_with_sink(CounterSink::new());
        inject_pair(&mut sim);
        let report = sim.run();
        fates::assert_frame_fates_balance(name, &sim, &report);
    }
}

/// Hostile runs must still reconcile event attributions with report
/// globals, and the adversarial counters must actually fire — a golden
/// digest full of zeros would pin nothing.
#[test]
fn golden_combined_reconciles_and_exercises_counters() {
    let adversary = AdversarialScenario::builder()
        .cut_links([10, 11], 2, Some(7))
        .kill_tile(20, 4)
        .delay_probability(0.1)
        .reorder_probability(0.1)
        .byzantine_tile(13)
        .byzantine_mode(ByzantineMode::Forge)
        .byzantine_activation(0.4)
        .build()
        .unwrap();
    let mut sim = grid6_base()
        .adversary(adversary)
        .build_with_sink(CounterSink::new());
    inject_pair(&mut sim);
    let report = sim.run();
    assert!(report.partition_drops > 0, "partition cut never dropped");
    assert!(report.byzantine_forges > 0, "Byzantine tile never forged");
    assert!(report.adversarial_delays > 0, "chaos never delayed");
    assert!(report.adversarial_reorders > 0, "chaos never reordered");
    sim.into_sink()
        .reconcile(&report)
        .expect("hostile workload reconciles");
}

/// The benign scenario consumes zero adversarial draws: building with
/// an explicit `AdversarialScenario::benign()` must reproduce the
/// plain build bit-for-bit.
#[test]
fn benign_scenario_is_a_no_op() {
    let mut plain = grid6_base().build();
    inject_pair(&mut plain);
    let mut benign = grid6_base()
        .adversary(AdversarialScenario::benign())
        .build();
    inject_pair(&mut benign);
    assert_eq!(digest(&plain.run()), digest(&benign.run()));
}

const GOLDEN_PARTITION_HEAL: &str = "\
rounds=16 completed=true packets=1217 bits=258040 upd=56 upu=0 ovf=0 crash=0 slips=49 ttlx=72
part=26 byzf=0 byzr=0 adel=0 areo=0
m0:n0->n35 inj=0 del=Some(11) bits=248
m1:n30->n5 inj=0 del=Some(11) bits=176";

const GOLDEN_PERMANENT_DEATH: &str = "\
rounds=17 completed=true packets=1109 bits=233920 upd=46 upu=0 ovf=0 crash=94 slips=43 ttlx=69
part=0 byzf=0 byzr=0 adel=0 areo=0
m0:n0->n35 inj=0 del=Some(14) bits=248
m1:n30->n5 inj=0 del=Some(10) bits=176";

const GOLDEN_CHAOS_JITTER: &str = "\
rounds=19 completed=true packets=1202 bits=254392 upd=54 upu=0 ovf=0 crash=0 slips=41 ttlx=72
part=0 byzf=0 byzr=0 adel=185 areo=259
m0:n0->n35 inj=0 del=Some(11) bits=248
m1:n30->n5 inj=0 del=Some(12) bits=176";

const GOLDEN_BYZANTINE_FORGE: &str = "\
rounds=17 completed=true packets=1226 bits=262288 upd=55 upu=0 ovf=0 crash=0 slips=48 ttlx=72
part=0 byzf=10 byzr=0 adel=0 areo=0
m0:n0->n35 inj=0 del=Some(12) bits=248
m1:n30->n5 inj=0 del=Some(13) bits=176";

const GOLDEN_BYZANTINE_REPLAY: &str = "\
rounds=17 completed=true packets=1247 bits=266128 upd=55 upu=0 ovf=0 crash=0 slips=31 ttlx=72
part=0 byzf=0 byzr=7 adel=0 areo=0
m0:n0->n35 inj=0 del=Some(10) bits=248
m1:n30->n5 inj=0 del=Some(11) bits=176";

const GOLDEN_COMBINED_HOSTILE: &str = "\
rounds=18 completed=true packets=1148 bits=243160 upd=52 upu=0 ovf=0 crash=51 slips=31 ttlx=70
part=4 byzf=8 byzr=0 adel=113 areo=128
m0:n0->n35 inj=0 del=Some(14) bits=248
m1:n30->n5 inj=0 del=Some(16) bits=176";
