//! Property test: the zero-copy engine is observably identical to the
//! naive reference implementation.
//!
//! [`stochastic_noc::reference::ReferenceSimulation`] preserves the
//! pre-optimization data flow (per-round allocations, full decode, one
//! encode per tile, byte-cloned fan-out). The optimized engine replaces
//! all of that with 8-byte frame handles, one wire entry per (message,
//! TTL) per round whose bytes are built only when an upset or a
//! checkpoint reads them, persistent arenas, and a sharded round loop —
//! none of which may change
//! a single observable: every counter, the delivered set, and every
//! latency must match across random topologies, fault models, crash
//! schedules, seeds, shard counts, and with the spread terminated on
//! delivery or not (the engine purges terminated spreads from the
//! buffers it ages, the reference from every buffer).

#![allow(clippy::disallowed_methods, reason = "test code seeds its own streams")]

mod common;

use common::{
    adversary_strategy, build_adversary, build_schedule, crash_strategy, fault_model_strategy,
    observe, topology_strategy,
};
use noc_crc::CrcParams;
use noc_fabric::{LinkId, NodeId, Topology, WireCodec};
use noc_faults::{AdversarialScenario, CrashSchedule, ErrorModel, FaultModel};
use proptest::prelude::*;
use stochastic_noc::reference::ReferenceSimulation;
use stochastic_noc::{JsonlSink, SimEvent, SimulationBuilder, StochasticConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimized_engine_matches_naive_reference(
        topology in topology_strategy(),
        p in 0.25f64..=1.0,
        ttl in 4u8..16,
        model in fault_model_strategy(),
        (tile_kills, link_kills) in crash_strategy(),
        seed in any::<u64>(),
        shards in prop_oneof![Just(1usize), Just(2), Just(3), Just(7), Just(8)],
        terminate in any::<bool>(),
        injections in proptest::collection::vec(
            (0usize..64, 0usize..64, proptest::collection::vec(any::<u8>(), 0..24)),
            1..4,
        ),
    ) {
        let n = topology.node_count();
        let m = topology.link_count();
        let schedule = build_schedule(&tile_kills, &link_kills, n, m);
        let config = StochasticConfig::new(p, ttl)
            .expect("valid config")
            .with_max_rounds(50)
            .with_termination(terminate);

        // The engine at the drawn shard count and at one shard, each
        // writing its JSONL event stream.
        let engine = |shards| {
            let mut sim = SimulationBuilder::new(topology.clone())
                .config(config)
                .fault_model(model)
                .crash_schedule(schedule.clone())
                .seed(seed)
                .shards(shards)
                .build_with_sink(JsonlSink::new(Vec::new()));
            let ids: Vec<_> = injections
                .iter()
                .map(|(src, dst, payload)| sim.inject(NodeId(src % n), NodeId(dst % n), payload.clone()))
                .collect();
            let report = observe(&sim.run());
            (ids, report, sim.into_sink().into_inner())
        };
        let mut reference =
            ReferenceSimulation::new(topology.clone(), config, model, schedule.clone(), seed);
        let ids: Vec<_> = injections
            .iter()
            .map(|(src, dst, payload)| reference.inject(NodeId(src % n), NodeId(dst % n), payload.clone()))
            .collect();
        let naive = observe(&reference.run());

        let (fast_ids, fast, events) = engine(shards);
        prop_assert_eq!(fast_ids, ids, "message ids must be assigned identically");
        prop_assert_eq!(fast, naive);
        let (_, _, one_shard_events) = engine(1);
        prop_assert!(events == one_shard_events, "event streams differ at shards={}", shards);
    }

    #[test]
    fn optimized_engine_matches_reference_under_adversary(
        topology in topology_strategy(),
        p in 0.25f64..=1.0,
        ttl in 4u8..16,
        model in fault_model_strategy(),
        raw in adversary_strategy(),
        seed in any::<u64>(),
        shards in prop_oneof![Just(1usize), Just(2), Just(3), Just(7), Just(8)],
        terminate in any::<bool>(),
        injections in proptest::collection::vec(
            (0usize..64, 0usize..64, proptest::collection::vec(any::<u8>(), 1..24)),
            1..4,
        ),
    ) {
        let n = topology.node_count();
        let m = topology.link_count();
        let adversary = build_adversary(&raw, n, m);
        let config = StochasticConfig::new(p, ttl)
            .expect("valid config")
            .with_max_rounds(50)
            .with_termination(terminate);

        let mut optimized = SimulationBuilder::new(topology.clone())
            .config(config)
            .fault_model(model)
            .adversary(adversary.clone())
            .seed(seed)
            .shards(shards)
            .build();
        let mut reference = ReferenceSimulation::new_with_adversary(
            topology,
            config,
            model,
            CrashSchedule::new(),
            adversary,
            seed,
        );

        for (src, dst, payload) in &injections {
            let src = NodeId(src % n);
            let dst = NodeId(dst % n);
            let a = optimized.inject(src, dst, payload.clone());
            let b = reference.inject(src, dst, payload.clone());
            prop_assert_eq!(a, b, "message ids must be assigned identically");
        }

        let fast = observe(&optimized.run());
        let naive = observe(&reference.run());
        prop_assert_eq!(fast, naive);
    }
}

/// The engine dedups against its per-message audience, the reference
/// against each tile's own `SendBuffer` seen-set. Twenty messages on a
/// 6×6 grid under upsets and overflow, injected two a round while earlier
/// ones still circulate, make every tile see more than four ids, several
/// in flight at once; the two relations must agree tile by tile after
/// every round, at every shard count.
#[test]
fn the_audience_agrees_with_the_reference_seen_sets_tile_by_tile() {
    let topology = Topology::grid(6, 6);
    let n = topology.node_count();
    let model = FaultModel::builder()
        .p_upset(0.1)
        .p_overflow(0.05)
        .build()
        .expect("valid");
    let config = StochasticConfig::new(0.75, 10)
        .expect("valid config")
        .with_max_rounds(40);
    for shards in [1, 2, 3] {
        let mut optimized = SimulationBuilder::new(topology.clone())
            .config(config)
            .fault_model(model)
            .seed(26)
            .shards(shards)
            .build();
        let mut reference =
            ReferenceSimulation::new(topology.clone(), config, model, CrashSchedule::new(), 26);
        let mut ids = Vec::new();
        while reference.round() < config.max_rounds && !reference.is_complete() {
            if ids.len() < 20 {
                for k in 0..2 {
                    let (src, dst) = (
                        NodeId((7 * ids.len() + k) % n),
                        NodeId((11 * ids.len()) % n),
                    );
                    let id = optimized.inject(src, dst, vec![ids.len() as u8; 6]);
                    assert_eq!(reference.inject(src, dst, vec![ids.len() as u8; 6]), id);
                    ids.push(id);
                }
            }
            optimized.step();
            reference.step();
            for &id in &ids {
                let mut informed = 0;
                for tile in (0..n).map(NodeId) {
                    let heard = reference.node_informed(tile, id);
                    assert_eq!(
                        optimized.node_informed(tile, id),
                        heard,
                        "shards {shards}, round {}, {tile}, {id:?}",
                        reference.round()
                    );
                    informed += usize::from(heard);
                }
                assert_eq!(optimized.informed_count(id), informed, "{id:?}");
            }
        }
        for tile in (0..n).map(NodeId) {
            let heard = ids.iter().filter(|&&id| reference.node_informed(tile, id));
            assert!(heard.count() > 4, "{tile} heard too few ids");
        }
        assert_eq!(observe(&optimized.run()), observe(&reference.run()));
    }
}

/// The forward walk decides once per round whether any link crash or
/// partition cut is in effect and skips both schedule scans when none
/// is. The strategies above already draw link crashes at rounds 0–9 and
/// cuts that heal; this run pins one schedule that crosses every edge of
/// that flag — nothing in effect (rounds 0–1), a cut alone (2), cut and
/// crash (3–4), the crash alone once the cut heals (5 on) — and must
/// lose frames to both.
#[test]
fn link_schedules_coming_into_effect_mid_run_match_the_reference() {
    let topology = Topology::grid(4, 4);
    let hub: Vec<LinkId> = topology.out(NodeId(5)).map(|(link, _)| link).collect();
    let (cut, crashed) = ([hub[0].index(), hub[1].index()], hub[2].index());
    let adversary = AdversarialScenario::builder()
        .cut_links(cut, 2, Some(5))
        .build()
        .expect("valid scenario");
    let mut schedule = CrashSchedule::new();
    schedule.kill_link(crashed, 3);
    let model = FaultModel::builder().p_upset(0.1).build().expect("valid");
    let config = StochasticConfig::new(0.75, 12)
        .expect("valid config")
        .with_max_rounds(50);
    let mut reference = ReferenceSimulation::new_with_adversary(
        topology.clone(),
        config,
        model,
        schedule.clone(),
        adversary.clone(),
        11,
    );
    reference.inject(NodeId(5), NodeId(15), vec![7; 6]);
    let naive = observe(&reference.run());
    assert!(
        naive.partition_drops > 0 && naive.crash_drops > 0,
        "{naive:?}"
    );
    for shards in [1, 2, 3] {
        let mut optimized = SimulationBuilder::new(topology.clone())
            .config(config)
            .fault_model(model)
            .crash_schedule(schedule.clone())
            .adversary(adversary.clone())
            .seed(11)
            .shards(shards)
            .build();
        optimized.inject(NodeId(5), NodeId(15), vec![7; 6]);
        assert_eq!(observe(&optimized.run()), naive, "shards {shards}");
    }
}

/// A copy whose TTL an undetected upset zeroed is seen and counted as
/// expired, never buffered: the engine's receive refuses it and emits its
/// `TtlExpiry` there, the reference's `SendBuffer` refuses it. A one-bit
/// parity check lets every even-weight upset through, so short 5×5 floods
/// take that branch; engine (one and two shards) and reference must agree.
#[test]
fn a_copy_that_arrives_expired_is_refused_by_engine_and_reference_alike() {
    let parity = WireCodec::new(CrcParams {
        name: "parity",
        width: 1,
        poly: 1,
        init: 0,
        reflect_in: false,
        reflect_out: false,
        xor_out: 0,
    });
    let model = FaultModel::builder()
        .p_upset(0.3)
        .error_model(ErrorModel::RandomBitError)
        .build()
        .expect("valid");
    let config = StochasticConfig::flooding(10).with_max_rounds(12);
    let injections = [(0, 12), (7, 24), (14, 5)];
    let mut arrived_expired = 0;
    for seed in 0..4 {
        let engine = |shards| {
            let mut sim = SimulationBuilder::new(Topology::grid(5, 5))
                .config(config)
                .fault_model(model)
                .wire_codec(parity.clone())
                .seed(seed)
                .shards(shards)
                .build_with_sink(Vec::new());
            for &(src, dst) in &injections {
                sim.inject(NodeId(src), NodeId(dst), vec![src as u8; 4]);
            }
            (observe(&sim.run()), sim.into_sink())
        };
        let (report, events) = engine(1);
        let mut reference = ReferenceSimulation::new(
            Topology::grid(5, 5),
            config,
            model,
            CrashSchedule::new(),
            seed,
        )
        .with_wire_codec(parity.clone());
        for &(src, dst) in &injections {
            reference.inject(NodeId(src), NodeId(dst), vec![src as u8; 4]);
        }
        assert_eq!(report, observe(&reference.run()), "seed {seed}");
        let (sharded_report, sharded_events) = engine(2);
        assert_eq!(sharded_report, report, "seed {seed}");
        assert_eq!(sharded_events, events, "seed {seed}");
        arrived_expired += expired_on_arrival(&events);
    }
    assert!(arrived_expired > 0, "no copy arrived expired");
}

/// How many `TtlExpiry` events of a one-shard run came from receive. A
/// round receives on every tile before it ages any, so an expiry
/// followed, in its round, by a frame's receive verdict was emitted by
/// receive.
fn expired_on_arrival(events: &[SimEvent]) -> usize {
    let mut count = 0;
    let mut received_after = None;
    for event in events.iter().rev() {
        match *event {
            SimEvent::CrcReject { round, .. }
            | SimEvent::UndetectedUpset { round, .. }
            | SimEvent::DuplicateDrop { round, .. }
            | SimEvent::Delivery { round, .. } => received_after = Some(round),
            SimEvent::TtlExpiry { round, .. } if received_after == Some(round) => count += 1,
            _ => {}
        }
    }
    count
}
