//! Property test: a partition that heals before traffic arrives is
//! unobservable.
//!
//! The partition check is RNG-free — a pure schedule lookup per
//! attempted transmission — so cutting links the flood front cannot
//! reach before the heal round must leave the entire report
//! byte-identical to the unpartitioned run: same counters, same
//! delivery rounds, same per-message records. Gossip moves at most one
//! hop per round (delays, slips and reordering only push arrivals
//! later), so a link whose source tile sits `d` hops from the injection
//! point carries no traffic before round `d`; healing at round `h <= d`
//! makes the cut invisible.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own streams")]

use std::collections::VecDeque;

use noc_fabric::{NodeId, Topology};
use noc_faults::{AdversarialScenario, ErrorModel, FaultModel};
use proptest::prelude::*;
use stochastic_noc::{SimulationBuilder, SimulationReport, StochasticConfig};

/// BFS hop distances from `source` over directed links.
fn hop_distance(topology: &Topology, source: NodeId) -> Vec<Option<u64>> {
    let mut dist = vec![None; topology.node_count()];
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::from([source]);
    while let Some(node) = queue.pop_front() {
        let d = dist[node.index()].expect("queued nodes have distances");
        for (_, to) in topology.out(node) {
            if dist[to.index()].is_none() {
                dist[to.index()] = Some(d + 1);
                queue.push_back(to);
            }
        }
    }
    dist
}

/// Full observable digest, adversarial counters included.
fn digest(report: &SimulationReport) -> String {
    let mut out = format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
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
        report.partition_drops,
        report.byzantine_forges,
        report.byzantine_replays,
        report.adversarial_delays,
        report.adversarial_reorders,
    );
    for r in report.records() {
        out.push_str(&format!(
            "{}:{}->{} {} {:?} {}\n",
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

fn topology_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (3usize..6, 3usize..6).prop_map(|(w, h)| Topology::grid(w, h)),
        (3usize..6, 3usize..6).prop_map(|(w, h)| Topology::torus(w, h)),
        (5usize..12).prop_map(Topology::fully_connected),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn healed_before_arrival_partition_is_unobservable(
        topology in topology_strategy(),
        p in 0.3f64..=1.0,
        ttl in 4u8..14,
        p_upset in 0.0f64..0.2,
        sigma in 0.0f64..0.3,
        source_raw in 0usize..64,
        link_picks in proptest::collection::vec(0usize..128, 1..4),
        seed in any::<u64>(),
    ) {
        let n = topology.node_count();
        let source = NodeId(source_raw % n);
        let dist = hop_distance(&topology, source);

        // Candidate cuts: links whose source tile is at least one hop
        // out, so the flood cannot touch them at round 0. Unreachable
        // tiles never forward at all; treat them as infinitely far.
        let candidates: Vec<(usize, u64)> = (0..topology.link_count())
            .filter_map(|l| {
                let from = topology.link(noc_fabric::LinkId(l)).from;
                match dist[from.index()] {
                    Some(0) => None,
                    Some(d) => Some((l, d)),
                    None => Some((l, u64::MAX)),
                }
            })
            .collect();
        prop_assume!(!candidates.is_empty());

        let mut links = Vec::new();
        let mut heal = u64::MAX;
        for pick in &link_picks {
            let (link, d) = candidates[pick % candidates.len()];
            links.push(link);
            heal = heal.min(d);
        }
        // Cut from round 0, heal no later than the nearest cut link's
        // hop distance: traffic first reaches that link at round
        // `heal` at the earliest, when the cut is already gone.
        let adversary = AdversarialScenario::builder()
            .cut_links(links, 0, Some(heal.min(1_000)))
            .build()
            .expect("valid scenario");

        let model = FaultModel::builder()
            .p_upset(p_upset)
            .sigma_synch(sigma)
            .error_model(ErrorModel::RandomErrorVector)
            .build()
            .expect("valid model");
        let config = StochasticConfig::new(p, ttl)
            .expect("valid config")
            .with_max_rounds(40);
        let destination = NodeId((source_raw + 1) % n);

        let mut partitioned = SimulationBuilder::new(topology.clone())
            .config(config)
            .fault_model(model)
            .adversary(adversary)
            .seed(seed)
            .build();
        partitioned.inject(source, destination, b"heal race".to_vec());

        let mut open = SimulationBuilder::new(topology)
            .config(config)
            .fault_model(model)
            .seed(seed)
            .build();
        open.inject(source, destination, b"heal race".to_vec());

        let hostile = partitioned.run();
        prop_assert_eq!(
            hostile.partition_drops, 0,
            "a healed-before-arrival cut must never drop"
        );
        prop_assert_eq!(digest(&hostile), digest(&open.run()));
    }
}
