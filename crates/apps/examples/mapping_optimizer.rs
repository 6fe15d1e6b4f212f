//! Communication-aware IP placement (§4.1.3's mapping observation):
//! optimize the MP3 pipeline's stage placement and compare the
//! traffic-weighted hop cost against random placements.
//!
//! ```text
//! cargo run --release -p noc-apps --example mapping_optimizer
//! ```

use noc_apps::mapping::{optimize_mapping, random_mapping, TrafficGraph};
use noc_fabric::Grid2d;

fn main() {
    // The MP3 pipeline's traffic graph (Figure 4-7), weighted by message
    // size: frames are heavy (acquisition fans out to psycho + mdct),
    // coefficients medium, weights/granules light.
    // Roles: 0 acquisition, 1 psycho, 2 mdct, 3 encoder, 4 reservoir, 5 output.
    let mut graph = TrafficGraph::new(6);
    graph
        .add_flow(0, 1, 8.0) // frames to the psychoacoustic model
        .add_flow(0, 2, 8.0) // frames to the MDCT
        .add_flow(1, 3, 2.0) // band weights
        .add_flow(2, 3, 8.0) // coefficients
        .add_flow(3, 4, 1.0) // granules
        .add_flow(4, 5, 1.0); // final bitstream

    let grid = Grid2d::new(4, 4);
    println!("MP3 pipeline placement on a 4x4 NoC (traffic-weighted hop cost):");
    for seed in 0..3 {
        let r = random_mapping(&graph, &grid, seed);
        println!("random placement #{seed}: cost {:.0}", r.cost);
    }
    let tuned = optimize_mapping(&graph, &grid, 8, 1);
    println!(
        "optimized placement : cost {:.0} ({} swap proposals evaluated)",
        tuned.cost, tuned.iterations
    );
    println!();
    println!("stage tiles (acq, psy, mdct, enc, res, out):");
    for (role, tile) in tuned.assignment.iter().enumerate() {
        let (x, y) = grid.coordinates(*tile);
        println!("  role {role}: {tile} at ({x},{y})");
    }
    println!();
    println!("lower hop cost -> lower flooding latency and smaller TTL/energy");
    println!("provisioning for the same delivery probability (see DESIGN.md).");
}
