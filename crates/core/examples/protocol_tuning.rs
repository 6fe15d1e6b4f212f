//! Tune the paper's two design knobs — forwarding probability `p` and
//! TTL — for a target delivery reliability on the worst-case node pair,
//! minimizing traffic (the Equation 3 energy proxy).
//!
//! ```text
//! cargo run --release -p stochastic-noc --example protocol_tuning
//! ```

use noc_fabric::Topology;
use stochastic_noc::tuning::{evaluate, recommend, worst_case_pair};

fn main() {
    let grid = Topology::grid(4, 4);
    let (source, destination) = worst_case_pair(&grid);
    println!("worst-case pair on 4x4 grid: {source} -> {destination}");
    println!();
    println!("p\tttl\tdelivery\tlatency [rounds]\tpackets");
    for &p in &[0.25, 0.5, 0.75, 1.0] {
        for &ttl in &[6u8, 10, 14] {
            let point = evaluate(&grid, source, destination, p, ttl, 40, 1);
            println!(
                "{:.2}\t{}\t{:.2}\t{}\t{:.0}",
                point.p,
                point.ttl,
                point.delivery_probability,
                point
                    .mean_latency
                    .map_or("-".to_string(), |l| format!("{l:.1}")),
                point.mean_packets
            );
        }
    }
    println!();
    for target in [0.9, 0.99] {
        match recommend(&grid, target, &[0.25, 0.5, 0.75, 1.0], &[6, 10, 14], 40, 1) {
            Some(choice) => println!(
                "target {target:.2}: use p = {:.2}, ttl = {} ({:.0} packets/message, {:.0}% delivery)",
                choice.p,
                choice.ttl,
                choice.mean_packets,
                choice.delivery_probability * 100.0
            ),
            None => println!("target {target:.2}: no candidate on the grid reaches it"),
        }
    }
}
