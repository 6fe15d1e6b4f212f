//! Wire-format limits are enforced where input enters the engine —
//! `SimulationBuilder::build*`, `Simulation::inject` and an IP core's
//! outbox — not rounds later by an assert inside the frame encoder.

use noc_fabric::{IpContext, IpCore, NodeId, Topology, MAX_NODES, MAX_PAYLOAD_BYTES};
use stochastic_noc::{SimulationBuilder, StochasticConfig};

#[test]
fn the_largest_payload_and_topology_are_accepted() {
    let side = 256;
    assert_eq!(side * side, MAX_NODES);
    let mut sim = SimulationBuilder::new(Topology::grid(side, side))
        .config(StochasticConfig::flooding(2).with_max_rounds(4))
        .build();
    let last = NodeId(MAX_NODES - 1);
    let id = sim.inject(last, NodeId(MAX_NODES - 2), vec![7; MAX_PAYLOAD_BYTES]);
    sim.inject(last, last, vec![7; MAX_PAYLOAD_BYTES]);
    assert!(sim.run().delivered(id));
}

#[test]
#[should_panic(expected = "exceeds the wire format's 65535-byte limit")]
fn oversized_payload_is_rejected_at_inject() {
    let mut sim = SimulationBuilder::square_grid(2).build();
    sim.inject(NodeId(0), NodeId(3), vec![0; MAX_PAYLOAD_BYTES + 1]);
}

#[test]
#[should_panic(expected = "exceeds the wire format's 65535-byte limit")]
fn oversized_loopback_payload_is_rejected_at_inject() {
    let mut sim = SimulationBuilder::square_grid(2).build();
    sim.inject(NodeId(1), NodeId(1), vec![0; MAX_PAYLOAD_BYTES + 1]);
}

#[test]
#[should_panic(expected = "exceeds the wire format's 65535-byte limit")]
fn oversized_payload_from_an_ip_core_is_rejected_as_it_leaves_the_outbox() {
    struct Shouter;
    impl IpCore for Shouter {
        fn on_round(&mut self, ctx: &mut IpContext) {
            ctx.send(NodeId(3), vec![0; MAX_PAYLOAD_BYTES + 1]);
        }
    }
    let mut sim = SimulationBuilder::square_grid(2)
        .with_ip(NodeId(0), Box::new(Shouter))
        .build();
    sim.step();
}

#[test]
#[should_panic(expected = "the wire format addresses at most 65536")]
fn topology_beyond_the_node_field_is_rejected_at_build() {
    let _ = SimulationBuilder::new(Topology::grid(257, 256)).build();
}
