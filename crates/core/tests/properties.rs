//! Cross-crate property-based tests on protocol invariants.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own streams")]

use noc_fabric::{Grid2d, NodeId, Topology};
use noc_faults::FaultModel;
use proptest::prelude::*;
use stochastic_noc::{SimulationBuilder, StochasticConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Flooding on a fault-free grid always delivers in exactly the
    /// Manhattan distance, for any source/destination pair.
    #[test]
    fn flooding_latency_equals_manhattan_distance(
        src in 0usize..16,
        dst in 0usize..16,
        seed in 0u64..1000,
    ) {
        prop_assume!(src != dst);
        let grid = Grid2d::new(4, 4);
        let distance = grid.manhattan_distance(NodeId(src), NodeId(dst)) as u64;
        let mut sim = SimulationBuilder::new(grid)
            .config(StochasticConfig::flooding(12).with_max_rounds(40))
            .seed(seed)
            .build();
        let id = sim.inject(NodeId(src), NodeId(dst), vec![1, 2, 3]);
        let report = sim.run();
        prop_assert_eq!(report.latency(id), Some(distance));
    }

    /// Packet conservation: transmissions equal detected upsets +
    /// undetected-or-clean receptions + losses, i.e. nothing is created
    /// or destroyed unaccounted. We check the weaker invariant that every
    /// loss counter is bounded by the transmission count.
    #[test]
    fn loss_counters_never_exceed_transmissions(
        p in 0.1f64..1.0,
        p_upset in 0.0f64..0.9,
        p_overflow in 0.0f64..0.9,
        seed in 0u64..500,
    ) {
        let model = FaultModel::builder()
            .p_upset(p_upset)
            .p_overflow(p_overflow)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(Grid2d::new(4, 4))
            .config(StochasticConfig::new(p, 10).unwrap().with_max_rounds(40))
            .fault_model(model)
            .seed(seed)
            .build();
        sim.inject(NodeId(0), NodeId(15), vec![9; 16]);
        let report = sim.run();
        prop_assert!(report.upsets_detected <= report.packets_sent);
        prop_assert!(report.overflow_drops <= report.packets_sent);
        prop_assert!(report.crash_drops <= report.packets_sent);
        // Bits are an exact multiple of the constant frame size.
        let frame_bits = 8 * (15 + 16 + 2) as u64;
        prop_assert_eq!(report.bits_sent.bits(), report.packets_sent * frame_bits);
    }

    /// Delivery is monotone in p on average: higher forwarding
    /// probability can only improve the chance that a fixed message
    /// arrives (checked statistically over a seed batch).
    #[test]
    fn delivery_rate_is_monotone_in_p(base_seed in 0u64..100) {
        let rate = |p: f64| {
            let mut ok = 0;
            for i in 0..8u64 {
                let mut sim = SimulationBuilder::new(Grid2d::new(4, 4))
                    .config(StochasticConfig::new(p, 8).unwrap().with_max_rounds(30))
                    .seed(base_seed * 1000 + i)
                    .build();
                let id = sim.inject(NodeId(0), NodeId(15), vec![1]);
                if sim.run().delivered(id) {
                    ok += 1;
                }
            }
            ok
        };
        let low = rate(0.15);
        let high = rate(0.9);
        prop_assert!(high >= low, "p=0.9 delivered {high} vs p=0.15 {low}");
    }

    /// The TTL bounds total traffic: a single broadcast can transmit at
    /// most ttl * links packets under flooding (each live message crosses
    /// each link at most once per round, and lives at most ttl rounds).
    #[test]
    fn ttl_bounds_flooding_traffic(ttl in 1u8..20, seed in 0u64..100) {
        let topology = Topology::grid(4, 4);
        let links = topology.link_count() as u64;
        let mut sim = SimulationBuilder::new(topology)
            .config(StochasticConfig::flooding(ttl).with_max_rounds(60))
            .seed(seed)
            .build();
        sim.inject(NodeId(5), NodeId(11), vec![7]);
        let report = sim.run();
        prop_assert!(
            report.packets_sent <= ttl as u64 * links,
            "{} packets > ttl {} x links {}",
            report.packets_sent, ttl, links
        );
    }
}
