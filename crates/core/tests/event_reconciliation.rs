//! Property test: attributed events reconcile exactly with report totals.
//!
//! The engine emits one [`stochastic_noc::SimEvent`] at every decision
//! point, attributed to a tile or link. Summing those attributions back
//! up must land exactly on the global counters of the
//! [`stochastic_noc::SimulationReport`] from the same run — for every
//! counter, over random topologies, fault models, crash schedules and
//! seeds. A second bound ties the event stream to the *injection* side:
//! every CRC verdict (reject or undetected acceptance) traces back to
//! one fired upset in the [`noc_faults::FaultInjector`]'s tally.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own streams")]

use noc_fabric::{NodeId, Topology};
use noc_faults::{
    AdversarialScenario, ByzantineMode, CrashSchedule, ErrorModel, FaultModel, OverflowMode,
};
use proptest::prelude::*;
use stochastic_noc::events::CounterSink;
use stochastic_noc::{SimEvent, SimulationBuilder, StochasticConfig};

fn topology_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2usize..6, 2usize..6).prop_map(|(w, h)| Topology::grid(w, h)),
        (3usize..6, 3usize..6).prop_map(|(w, h)| Topology::torus(w, h)),
        (4usize..12).prop_map(Topology::fully_connected),
    ]
}

fn error_model_strategy() -> impl Strategy<Value = ErrorModel> {
    prop_oneof![
        Just(ErrorModel::RandomErrorVector),
        Just(ErrorModel::RandomBitError),
    ]
}

fn overflow_mode_strategy() -> impl Strategy<Value = OverflowMode> {
    prop_oneof![
        Just(OverflowMode::Probabilistic),
        (2usize..6).prop_map(|capacity| OverflowMode::Structural { capacity }),
    ]
}

fn fault_model_strategy() -> impl Strategy<Value = FaultModel> {
    (
        0.0f64..0.35,
        0.0f64..0.25,
        0.0f64..0.4,
        0.0f64..0.15,
        0.0f64..0.15,
        error_model_strategy(),
        overflow_mode_strategy(),
    )
        .prop_map(
            |(p_upset, p_overflow, sigma, p_tiles, p_links, error_model, overflow_mode)| {
                FaultModel::builder()
                    .p_upset(p_upset)
                    .p_overflow(p_overflow)
                    .sigma_synch(sigma)
                    .p_tiles(p_tiles)
                    .p_links(p_links)
                    .error_model(error_model)
                    .overflow_mode(overflow_mode)
                    .build()
                    .expect("strategy generates valid models")
            },
        )
}

type KillEvents = Vec<(usize, u64)>;

fn crash_strategy() -> impl Strategy<Value = (KillEvents, KillEvents)> {
    (
        proptest::collection::vec((0usize..64, 0u64..10), 0..3),
        proptest::collection::vec((0usize..128, 0u64..10), 0..3),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counter_sink_reconciles_with_report_globals(
        topology in topology_strategy(),
        p in 0.25f64..=1.0,
        ttl in 4u8..16,
        model in fault_model_strategy(),
        (tile_kills, link_kills) in crash_strategy(),
        seed in any::<u64>(),
        injections in proptest::collection::vec(
            (0usize..64, 0usize..64, proptest::collection::vec(any::<u8>(), 0..24)),
            1..4,
        ),
    ) {
        let n = topology.node_count();
        let m = topology.link_count();
        let mut schedule = CrashSchedule::new();
        for (tile, round) in tile_kills {
            schedule.kill_tile(tile % n, round);
        }
        for (link, round) in link_kills {
            schedule.kill_link(link % m, round);
        }
        let config = StochasticConfig::new(p, ttl)
            .expect("valid config")
            .with_max_rounds(50);

        let mut sim = SimulationBuilder::new(topology)
            .config(config)
            .fault_model(model)
            .crash_schedule(schedule)
            .seed(seed)
            .build_with_sink(CounterSink::new());
        for (src, dst, payload) in &injections {
            sim.inject(NodeId(src % n), NodeId(dst % n), payload.clone());
        }
        let report = sim.run();
        let tally = sim.injection_tally();
        let counters = sim.into_sink();

        // The headline identity: per-location event sums == report globals.
        if let Err(mismatch) = counters.reconcile(&report) {
            prop_assert!(false, "reconciliation failed: {mismatch}");
        }

        // Injection-side bound: every CRC verdict needed a fired upset;
        // an upset can also die earlier (crash drop, overflow drop), so
        // the verdicts never exceed the injections.
        let verdicts = counters.totals().crc_rejects + counters.totals().undetected_upsets;
        prop_assert!(
            verdicts <= tally.upsets,
            "CRC verdicts {verdicts} exceed fired upsets {}",
            tally.upsets
        );

        // Probabilistic overflow drops come one per fired Bernoulli hit.
        if matches!(model.overflow_mode, OverflowMode::Probabilistic) {
            prop_assert_eq!(counters.totals().overflow_drops, tally.overflow_drops);
        }
    }

    #[test]
    fn counter_sink_reconciles_under_adversary(
        topology in topology_strategy(),
        p in 0.25f64..=1.0,
        ttl in 4u8..16,
        model in fault_model_strategy(),
        cut_links in proptest::collection::vec(0usize..128, 0..4),
        cut_from in 0u64..8,
        (heal_some, heal_delta) in (any::<bool>(), 1u64..12),
        (dead_tile, dead_round) in (0usize..64, 0u64..10),
        (delay_p, reorder_p) in (0.0f64..0.3, 0.0f64..0.3),
        (byz_tile, byz_forge, byz_activation) in (0usize..64, any::<bool>(), 1u64..64),
        seed in any::<u64>(),
        injections in proptest::collection::vec(
            (0usize..64, 0usize..64, proptest::collection::vec(any::<u8>(), 1..24)),
            1..4,
        ),
    ) {
        let n = topology.node_count();
        let m = topology.link_count();
        let mut builder = AdversarialScenario::builder()
            .kill_tile(dead_tile % n, dead_round)
            .delay_probability(delay_p)
            .reorder_probability(reorder_p)
            .byzantine_tile(byz_tile % n)
            .byzantine_mode(if byz_forge {
                ByzantineMode::Forge
            } else {
                ByzantineMode::Replay
            })
            .byzantine_activation(byz_activation as f64 / 64.0);
        if !cut_links.is_empty() {
            let links: Vec<usize> = cut_links.iter().map(|&l| l % m).collect();
            builder = builder.cut_links(
                links,
                cut_from,
                heal_some.then(|| cut_from + heal_delta),
            );
        }
        let adversary = builder.build().expect("valid scenario");
        let config = StochasticConfig::new(p, ttl)
            .expect("valid config")
            .with_max_rounds(50);

        let mut sim = SimulationBuilder::new(topology)
            .config(config)
            .fault_model(model)
            .adversary(adversary)
            .seed(seed)
            .build_with_sink(CounterSink::new());
        for (src, dst, payload) in &injections {
            sim.inject(NodeId(src % n), NodeId(dst % n), payload.clone());
        }
        let report = sim.run();
        let counters = sim.into_sink();
        if let Err(mismatch) = counters.reconcile(&report) {
            prop_assert!(false, "adversarial reconciliation failed: {mismatch}");
        }
    }

    #[test]
    fn event_rounds_are_monotone(
        p in 0.25f64..=1.0,
        ttl in 4u8..12,
        seed in any::<u64>(),
    ) {
        let config = StochasticConfig::new(p, ttl)
            .expect("valid config")
            .with_max_rounds(40);
        let mut sim = SimulationBuilder::square_grid(4)
            .config(config)
            .fault_model(
                FaultModel::builder()
                    .p_upset(0.1)
                    .sigma_synch(0.3)
                    .build()
                    .unwrap(),
            )
            .seed(seed)
            .build_with_sink(Vec::<SimEvent>::new());
        sim.inject(NodeId(0), NodeId(15), vec![7]);
        sim.run();
        let events = sim.into_sink();
        prop_assert!(!events.is_empty(), "a live run emits events");
        prop_assert!(
            events.windows(2).all(|w| w[0].round() <= w[1].round()),
            "emission order is round-monotone"
        );
    }
}
