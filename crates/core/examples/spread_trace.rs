//! Visualize a gossip spread round by round as ASCII grids — the
//! programmatic version of the paper's Stateflow animation (Figure 4-1).
//!
//! ```text
//! cargo run -p stochastic-noc --example spread_trace
//! ```

use noc_fabric::{Grid2d, NodeId};
use stochastic_noc::{SimulationBuilder, SpreadTrace, StochasticConfig};

fn main() {
    let grid = Grid2d::new(4, 4);
    let mut sim = SimulationBuilder::new(grid.clone())
        .config(
            StochasticConfig::new(0.5, 12)
                .expect("valid config")
                .with_max_rounds(30),
        )
        .seed(2003)
        .build();
    let producer = NodeId(5);
    let consumer = NodeId(11);
    let id = sim.inject(producer, consumer, b"trace me".to_vec());

    let trace = SpreadTrace::record(&mut sim, id, 30);

    println!("gossip spread {producer} -> {consumer} at p = 0.5 (# informed, D destination):");
    for (i, snap) in trace.snapshots().iter().enumerate().take(8) {
        if i == 0 {
            println!("initial state — informed {}:", snap.informed_count);
        } else {
            println!(
                "after round {} — informed {}, {} transmissions:",
                snap.round, snap.informed_count, snap.transmissions
            );
        }
        println!("{}", trace.render_grid(&grid, i, consumer));
    }
    println!("informed curve : {:?}", trace.informed_curve());
    println!("delivered at   : round {:?}", trace.delivery_round());
}
