//! Producer–consumer under fire: watch the gossip spread round by round
//! while data upsets scramble packets and a dead tile blocks part of the
//! grid.
//!
//! ```text
//! cargo run -p stochastic-noc --example producer_consumer
//! ```

use noc_fabric::{Grid2d, NodeId};
use noc_faults::{CrashSchedule, FaultModel};
use stochastic_noc::{SimulationBuilder, StochasticConfig};

fn main() {
    let model = FaultModel::builder()
        .p_upset(0.3)
        .p_overflow(0.1)
        .build()
        .expect("valid fault model");
    let mut schedule = CrashSchedule::new();
    schedule.kill_tile(6, 0); // tile 7 (1-based) is dead on arrival

    let mut sim = SimulationBuilder::new(Grid2d::new(4, 4))
        .config(
            StochasticConfig::new(0.5, 16)
                .expect("valid config")
                .with_max_rounds(60),
        )
        .fault_model(model)
        .crash_schedule(schedule)
        .seed(7)
        .build();

    let producer = NodeId(5);
    let consumer = NodeId(11);
    let message = sim.inject(producer, consumer, b"resilient payload".to_vec());

    println!("gossip spread with 30% upsets, 10% overflow, one dead tile:");
    println!("round | informed tiles | transmissions this round");
    while !sim.is_complete() && sim.round() < 60 {
        let stats = sim.step();
        println!(
            "{:>5} | {:>14} | {:>6}",
            stats.round,
            sim.informed_count(message),
            stats.transmissions
        );
        if sim.report().delivered(message) && stats.round > 0 {
            // Keep printing a couple of rounds after delivery, then stop.
            if sim.report().latency(message).unwrap_or(0) + 3 <= stats.round {
                break;
            }
        }
    }

    let report = sim.report();
    println!();
    println!("delivered        : {}", report.delivered(message));
    println!("latency          : {:?} rounds", report.latency(message));
    println!("upsets detected  : {}", report.upsets_detected);
    println!("upsets undetected: {}", report.upsets_undetected);
    println!("overflow drops   : {}", report.overflow_drops);
    println!("crash drops      : {}", report.crash_drops);
}
