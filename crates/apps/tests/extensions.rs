//! Integration tests for the extension features: tracing, tuning, the
//! reliable layer, torus fabrics and heterogeneous forwarding.

use noc_apps::reliable::reliable_pair;
use noc_fabric::{Grid2d, NodeId, Topology};
use noc_faults::FaultModel;
use stochastic_noc::tuning;
use stochastic_noc::{SimulationBuilder, SpreadTrace, StochasticConfig};

#[test]
fn trace_tuning_and_engine_agree_on_flooding_latency() {
    // Three independent views of the same quantity: the flooding latency
    // between diameter-separated corners equals the Manhattan distance.
    let grid = Grid2d::new(4, 4);
    let (src, dst) = tuning::worst_case_pair(grid.topology());
    assert_eq!(grid.manhattan_distance(src, dst), 6);

    let point = tuning::evaluate(grid.topology(), src, dst, 1.0, 10, 5, 1);
    assert_eq!(point.mean_latency, Some(6.0));

    let mut sim = SimulationBuilder::new(grid)
        .config(StochasticConfig::flooding(10).with_max_rounds(40))
        .seed(1)
        .build();
    let id = sim.inject(src, dst, vec![1]);
    let trace = SpreadTrace::record(&mut sim, id, 40);
    assert_eq!(trace.delivery_round(), Some(6));
}

#[test]
fn reliable_transfer_works_over_a_torus() {
    let torus = Topology::torus(4, 4);
    let model = FaultModel::builder().p_upset(0.3).build().unwrap();
    let (sender, receiver, status, inbox) = reliable_pair(
        NodeId(0),
        NodeId(10),
        vec![b"wrapped".to_vec(), b"around".to_vec()],
        8,
    );
    let mut sim = SimulationBuilder::new(torus)
        .config(StochasticConfig::new(0.6, 10).unwrap().with_max_rounds(400))
        .fault_model(model)
        .with_ip(NodeId(0), sender)
        .with_ip(NodeId(10), receiver)
        .seed(4)
        .build();
    sim.run();
    assert_eq!(status.borrow().acked.len(), 2);
    assert_eq!(inbox.borrow()[0].as_deref(), Some(b"wrapped".as_slice()));
}

#[test]
fn torus_delivers_faster_than_grid_for_corner_pairs() {
    let latency = |topology: Topology| {
        let mut sum = 0u64;
        for seed in 0..5 {
            let n = topology.node_count();
            let mut sim = SimulationBuilder::new(topology.clone())
                .config(StochasticConfig::flooding(16).with_max_rounds(60))
                .seed(seed)
                .build();
            let id = sim.inject(NodeId(0), NodeId(n - 1), vec![1]);
            sum += sim.run().latency(id).expect("flooding delivers");
        }
        sum
    };
    let grid = latency(Topology::grid(6, 6));
    let torus = latency(Topology::torus(6, 6));
    assert!(torus < grid, "torus {torus} vs grid {grid}");
}

#[test]
fn heterogeneous_forwarding_shapes_the_spread() {
    // A "diversity" fabric: the left half gossips sparsely (p = 0.2),
    // the right half floods. The spread should cover the right half of
    // an 8-wide grid much sooner.
    let grid = Grid2d::new(8, 2);
    let mut builder = SimulationBuilder::new(grid.clone())
        .config(StochasticConfig::new(0.2, 20).unwrap().with_max_rounds(60))
        .seed(6);
    for x in 4..8 {
        for y in 0..2 {
            builder = builder.forward_probability_at(grid.node_at(x, y), 1.0);
        }
    }
    let mut sim = builder.build();
    // Source sits on the boundary of the flooding region.
    let id = sim.inject(grid.node_at(4, 0), grid.node_at(0, 1), vec![1]);
    // The farthest right-half tile (7,1) is 4 hops away; one extra step
    // because a hop-d tile is informed during round d.
    for _ in 0..5 {
        sim.step();
    }
    let informed_right = (4..8)
        .flat_map(|x| (0..2).map(move |y| (x, y)))
        .filter(|&(x, y)| sim.node_informed(grid.node_at(x, y), id))
        .count();
    let informed_left = (0..4)
        .flat_map(|x| (0..2).map(move |y| (x, y)))
        .filter(|&(x, y)| sim.node_informed(grid.node_at(x, y), id))
        .count();
    assert_eq!(informed_right, 8, "the flooding half saturates in 5 rounds");
    assert!(informed_left < 8, "the sparse half lags");
}

#[test]
fn port_directions_match_engine_neighbourhoods() {
    // Sanity across crates: the fabric's four out-links of a centre tile
    // are exactly who the engine delivers to in one flooding hop.
    let grid = Grid2d::new(3, 3);
    let center = grid.node_at(1, 1);
    let mut sim = SimulationBuilder::new(grid.clone())
        .config(StochasticConfig::flooding(4).with_max_rounds(10))
        .seed(7)
        .build();
    let id = sim.inject(center, grid.node_at(0, 0), vec![1]);
    sim.step();
    sim.step();
    let links = grid.topology().out_links(center);
    assert_eq!(links.len(), 4, "center tile has all four ports");
    for &link in links {
        let neighbour = grid.topology().link(link).to;
        assert!(
            sim.node_informed(neighbour, id),
            "neighbour {neighbour} missed the first hop"
        );
    }
}
