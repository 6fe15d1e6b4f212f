//! Shard-count independence: the sharded round engine must be a pure
//! performance knob.
//!
//! For any topology, fault model, crash schedule, adversarial scenario,
//! and seed, running the same trial at `--shards 1`, 2, 3, 7, or 8 must
//! produce a byte-identical event stream and an identical report — the
//! shard count may change which thread executes a tile, never what the
//! tile does or in which order the merged results are observed. The
//! single-shard engine is in turn checked against the naive
//! [`ReferenceSimulation`], closing the chain
//! `reference == shards(1) == shards(k)`.
//!
//! Also regression-covers the frontier-derived [`RoundStats`] (against
//! full-grid buffer recounts under faults) and `RoundQuiescent`
//! accounting for in-flight chaos-delayed frames.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own streams")]

mod common;

use common::{
    adversary_strategy, build_adversary, build_schedule, crash_strategy, fault_model_strategy,
    observe, topology_strategy, Observables,
};
use noc_fabric::{NodeId, Topology};
use noc_faults::{AdversarialScenario, CrashSchedule, FaultModel};
use proptest::prelude::*;
use stochastic_noc::reference::ReferenceSimulation;
use stochastic_noc::{CounterSink, JsonlSink, SimulationBuilder, StochasticConfig};

/// Shard counts exercised against the single-shard baseline: even and
/// odd, dividing and non-dividing, and more shards than some topologies
/// have tiles (the builder clamps).
const SHARD_COUNTS: [usize; 4] = [2, 3, 7, 8];

/// One full trial at a given shard count, capturing the report, the
/// serialized event stream, and the quiescent-round tally.
#[allow(
    clippy::too_many_arguments,
    reason = "one trial is its whole configuration, spelt out at each call"
)]
fn run_trial(
    topology: &Topology,
    config: StochasticConfig,
    model: FaultModel,
    schedule: &CrashSchedule,
    adversary: &AdversarialScenario,
    seed: u64,
    shards: usize,
    injections: &[(usize, usize, Vec<u8>)],
) -> (Observables, u64, String) {
    let n = topology.node_count();
    let mut sim = SimulationBuilder::new(topology.clone())
        .config(config)
        .fault_model(model)
        .crash_schedule(schedule.clone())
        .adversary(adversary.clone())
        .seed(seed)
        .shards(shards)
        .build_with_sink(JsonlSink::new(Vec::new()));
    for (src, dst, payload) in injections {
        sim.inject(NodeId(src % n), NodeId(dst % n), payload.clone());
    }
    let report = sim.run();
    let quiescent = report.quiescent_rounds;
    let events = String::from_utf8(sim.into_sink().into_inner()).expect("JSONL is UTF-8");
    (observe(&report), quiescent, events)
}

/// Points at the first line where two event streams diverge, so a
/// failure names the offending event instead of dumping both streams.
fn first_divergence(baseline: &str, other: &str) -> Option<(usize, String, String)> {
    let mut a = baseline.lines();
    let mut b = other.lines();
    let mut line = 0;
    loop {
        line += 1;
        match (a.next(), b.next()) {
            (None, None) => return None,
            (x, y) if x == y => {}
            (x, y) => {
                return Some((
                    line,
                    x.unwrap_or("<stream ended>").to_string(),
                    y.unwrap_or("<stream ended>").to_string(),
                ))
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The core shard-count-independence property: identical reports,
    /// identical quiescent-round tallies, and byte-identical event
    /// streams at every shard count, with the single-shard run itself
    /// matching the naive reference.
    #[test]
    fn reports_and_event_streams_are_shard_count_independent(
        topology in topology_strategy(),
        p in 0.25f64..=1.0,
        ttl in 4u8..16,
        model in fault_model_strategy(),
        (tile_kills, link_kills) in crash_strategy(),
        raw in adversary_strategy(),
        seed in any::<u64>(),
        injections in proptest::collection::vec(
            (0usize..64, 0usize..64, proptest::collection::vec(any::<u8>(), 0..24)),
            1..4,
        ),
    ) {
        let n = topology.node_count();
        let m = topology.link_count();
        let schedule = build_schedule(&tile_kills, &link_kills, n, m);
        let adversary = build_adversary(&raw, n, m);
        let config = StochasticConfig::new(p, ttl)
            .expect("valid config")
            .with_max_rounds(50);

        let (base_obs, base_quiescent, base_events) = run_trial(
            &topology, config, model, &schedule, &adversary, seed, 1, &injections,
        );

        // The single-shard engine still matches the naive reference.
        let mut reference = ReferenceSimulation::new_with_adversary(
            topology.clone(),
            config,
            model,
            schedule.clone(),
            adversary.clone(),
            seed,
        );
        for (src, dst, payload) in &injections {
            reference.inject(NodeId(src % n), NodeId(dst % n), payload.clone());
        }
        let naive = observe(&reference.run());
        prop_assert_eq!(&base_obs, &naive, "shards=1 diverged from the reference");

        for shards in SHARD_COUNTS {
            let (obs, quiescent, events) = run_trial(
                &topology, config, model, &schedule, &adversary, seed, shards, &injections,
            );
            prop_assert_eq!(&obs, &base_obs, "report diverged at shards={}", shards);
            prop_assert_eq!(
                quiescent, base_quiescent,
                "quiescent-round tally diverged at shards={}", shards
            );
            if let Some((line, want, got)) = first_divergence(&base_events, &events) {
                prop_assert!(
                    false,
                    "event stream diverged at shards={} line {}:\n  shards=1: {}\n  shards={}: {}",
                    shards, line, want, shards, got
                );
            }
        }
    }
}

/// Fault-free flooding draws nothing in the forward phase (every
/// forwarding probability is 1, no upset, no skew): an input class the
/// proptest above, with `p` and every fault rate drawn from continuous
/// ranges, does not generate. The one forward walk must serve it like
/// any other.
#[test]
fn fault_free_flooding_is_shard_count_independent() {
    let topology = Topology::grid(8, 8);
    let config = StochasticConfig::flooding(12).with_max_rounds(40);
    let (model, schedule, adversary) = (
        FaultModel::none(),
        CrashSchedule::new(),
        AdversarialScenario::benign(),
    );
    let injections = vec![
        (0, 63, vec![0x5A; 8]),
        (27, 36, vec![0xA5; 3]),
        (63, 0, Vec::new()),
    ];
    let run = |shards: usize| {
        run_trial(
            &topology,
            config,
            model,
            &schedule,
            &adversary,
            7,
            shards,
            &injections,
        )
    };

    let (base_obs, base_quiescent, base_events) = run(1);
    assert!(base_obs.packets_sent > 0 && !base_events.is_empty());
    let mut reference =
        ReferenceSimulation::new(topology.clone(), config, model, schedule.clone(), 7);
    for (src, dst, payload) in &injections {
        reference.inject(NodeId(*src), NodeId(*dst), payload.clone());
    }
    assert_eq!(base_obs, observe(&reference.run()), "shards=1 vs reference");
    for shards in [2, 3, 8] {
        let (obs, quiescent, events) = run(shards);
        assert_eq!(obs, base_obs, "report diverged at shards={shards}");
        assert_eq!(quiescent, base_quiescent, "shards={shards}");
        if let Some((line, want, got)) = first_divergence(&base_events, &events) {
            panic!(
                "event stream diverged at shards={shards} line {line}:\n  \
                 shards=1: {want}\n  shards={shards}: {got}"
            );
        }
    }
}

/// A faulty, adversarial 6×6 scenario reused by the deterministic
/// regression tests below.
fn faulty_scenario() -> (Topology, StochasticConfig, FaultModel, CrashSchedule) {
    let topology = Topology::grid(6, 6);
    let config = StochasticConfig::new(0.6, 9)
        .expect("valid config")
        .with_max_rounds(40);
    let model = FaultModel::builder()
        .p_upset(0.15)
        .p_overflow(0.1)
        .sigma_synch(0.25)
        .p_tiles(0.05)
        .p_links(0.05)
        .build()
        .expect("valid model");
    let mut schedule = CrashSchedule::new();
    schedule.kill_tile(7, 3);
    schedule.kill_link(11, 5);
    (topology, config, model, schedule)
}

/// `run_with_history` must agree with a plain `run` under faults, and
/// every round's frontier-derived `live_messages` must equal a full-grid
/// recount of the send buffers — the regression net for deriving
/// [`RoundStats`] from frontier bookkeeping instead of O(n) scans.
#[test]
fn history_stats_match_full_grid_recount_under_faults() {
    let (topology, config, model, schedule) = faulty_scenario();
    let n = topology.node_count();
    let build = |shards: usize| {
        let mut sim = SimulationBuilder::new(topology.clone())
            .config(config)
            .fault_model(model)
            .crash_schedule(schedule.clone())
            .seed(20030308)
            .shards(shards)
            .build();
        sim.inject(NodeId(0), NodeId(35), vec![0xAB; 12]);
        sim.inject(NodeId(17), NodeId(3), vec![0xCD; 5]);
        sim
    };

    for shards in [1, 4] {
        let plain = observe(&build(shards).run());
        let (report, history) = build(shards).run_with_history();
        assert_eq!(
            observe(&report),
            plain,
            "run_with_history report diverged from run() at shards={shards}"
        );
        assert_eq!(history.len() as u64, report.rounds_executed);
        let total: u64 = history.iter().map(|s| s.transmissions).sum();
        assert_eq!(total, report.packets_sent);
        let delivered: u64 = history.iter().map(|s| s.deliveries).sum();
        assert_eq!(
            delivered,
            observe(&report)
                .records
                .iter()
                .filter(|r| r.4.is_some())
                .count() as u64
        );

        // Step an identical sim manually and recount every buffer after
        // each round: the frontier-derived live_messages must be exact.
        let mut sim = build(shards);
        for stats in &history {
            let stepped = sim.step();
            assert_eq!(
                stepped, *stats,
                "per-round stats diverged at shards={shards}"
            );
            let recount: usize = (0..n).map(|t| sim.buffer_len(NodeId(t))).sum();
            assert_eq!(
                stepped.live_messages, recount as u64,
                "frontier live_messages drifted from buffer recount at shards={shards}, \
                 round {}",
                stepped.round
            );
        }
    }
}

/// The wall-clock observability plane must be invisible to the
/// deterministic plane: running the faulty regression scenario with a
/// [`noc_obs::Metrics`] registry and [`stochastic_noc::EngineObs`]
/// installed must reproduce the uninstrumented JSONL event stream and
/// report byte-for-byte, at one shard and at several — while the
/// registry itself proves every round recorded its phase spans, and
/// that only a sharded run records the fan-out's.
#[test]
fn event_streams_are_byte_identical_with_obs_plane_enabled() {
    let (topology, config, model, schedule) = faulty_scenario();
    let adversary = AdversarialScenario::builder()
        .delay_probability(0.1)
        .reorder_probability(0.1)
        .build()
        .expect("valid scenario");
    let injections: Vec<(usize, usize, Vec<u8>)> = vec![
        (0, 35, vec![0xAB; 12]),
        (17, 3, vec![0xCD; 5]),
        (35, 0, vec![0xEF; 3]),
    ];
    let seed = 20260806;

    let run = |shards: usize, obs: Option<stochastic_noc::EngineObs>| {
        let n = topology.node_count();
        let mut builder = SimulationBuilder::new(topology.clone())
            .config(config)
            .fault_model(model)
            .crash_schedule(schedule.clone())
            .adversary(adversary.clone())
            .seed(seed)
            .shards(shards);
        if let Some(obs) = obs {
            builder = builder.obs(obs);
        }
        let mut sim = builder.build_with_sink(JsonlSink::new(Vec::new()));
        for (src, dst, payload) in &injections {
            sim.inject(NodeId(src % n), NodeId(dst % n), payload.clone());
        }
        let report = sim.run();
        let events = String::from_utf8(sim.into_sink().into_inner()).expect("JSONL is UTF-8");
        (observe(&report), events)
    };

    let (plain_report, plain_events) = run(1, None);
    for shards in [1usize, 2, 4] {
        let metrics = noc_obs::Metrics::new();
        let obs = stochastic_noc::EngineObs::new(&metrics);
        let (report, events) = run(shards, Some(obs));
        assert_eq!(
            report, plain_report,
            "report diverged with obs plane enabled at shards={shards}"
        );
        if let Some((line, want, got)) = first_divergence(&plain_events, &events) {
            panic!(
                "obs-enabled event stream diverged at shards={shards} line {line}:\n  \
                 plain: {want}\n  obs:   {got}"
            );
        }
        let rounds = metrics.counter_value("engine_rounds_total").unwrap_or(0);
        assert!(
            rounds > 0,
            "obs plane recorded no rounds at shards={shards}"
        );
        // One loop at every shard count: each round times its receive,
        // age and forward phases once, whoever executes them.
        let snap = metrics.snapshot();
        for phase in ["round", "receive", "age", "forward"] {
            let spans = snap
                .histograms
                .iter()
                .find(|h| {
                    h.name == "engine_phase_seconds"
                        && h.labels == vec![("phase".to_string(), phase.to_string())]
                })
                .map_or(0, |h| h.count);
            assert_eq!(spans, rounds, "{phase} spans per round at shards={shards}");
        }
        // The fan-out's sub-spans: with probabilistic overflow on, every
        // sharded round draws its receive tape, fans out and merges; one
        // shard runs none of them.
        for phase in ["tape", "shard_fanout", "merge"] {
            let (count, nanos) = snap
                .histograms
                .iter()
                .find(|h| {
                    h.name == "engine_phase_seconds"
                        && h.labels == vec![("phase".to_string(), phase.to_string())]
                })
                .map_or((0, 0), |h| (h.count, h.sum_nanos));
            if shards > 1 {
                assert!(count > 0, "no {phase} spans at shards={shards}");
                assert!(nanos > 0, "{phase} spans took no time at shards={shards}");
            } else {
                assert_eq!(count, 0, "{phase} spans at one shard");
            }
        }
    }
}

/// With every transmission chaos-delayed, the buffers drain before the
/// frames land: those rounds are quiescent-but-not-complete, and the
/// engine must neither terminate early nor miss the `RoundQuiescent`
/// events. The `CounterSink` tally must reconcile with the report.
#[test]
fn quiescent_rounds_account_for_inflight_delayed_frames() {
    let adversary = AdversarialScenario::builder()
        .delay_probability(1.0)
        .build()
        .expect("valid scenario");
    for shards in [1, 3] {
        let mut sim = SimulationBuilder::new(Topology::grid(3, 3))
            .config(StochasticConfig::flooding(2).with_max_rounds(20))
            .adversary(adversary.clone())
            .seed(42)
            .shards(shards)
            .build_with_sink(CounterSink::new());
        sim.inject(NodeId(0), NodeId(8), vec![1, 2, 3]);
        let report = sim.run();
        assert!(
            report.quiescent_rounds > 0,
            "delay-everything run never went quiescent at shards={shards}"
        );
        assert!(
            report.rounds_executed > 1,
            "engine terminated while delayed frames were in flight at shards={shards}"
        );
        assert!(report.completed, "run should drain and complete");
        let sink = sim.into_sink();
        assert_eq!(sink.quiescent_rounds(), report.quiescent_rounds);
        sink.reconcile(&report).expect("counters reconcile");
    }
}
