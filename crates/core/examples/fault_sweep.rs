//! Sweep the whole fault-parameter space of Chapter 2 against a single
//! broadcast and print the delivery ratio per grid point — a miniature
//! of the paper's exhaustive exploration.
//!
//! ```text
//! cargo run --release -p stochastic-noc --example fault_sweep
//! ```

use noc_fabric::{Grid2d, NodeId};
use noc_faults::FaultModel;
use stochastic_noc::{SimulationBuilder, StochasticConfig};

fn main() {
    let axis = || (0..5u8).map(|i| 0.2 * f64::from(i));
    let seeds = 5;

    println!("delivery ratio of one broadcast (4x4 grid, p=0.5, ttl=16)");
    println!("p_upset\tp_overflow\tdelivered\tavg latency [rounds]");
    for model in axis().flat_map(|upset| {
        axis().map(move |overflow| {
            FaultModel::builder()
                .p_upset(upset)
                .p_overflow(overflow)
                .build()
                .expect("probabilities in range")
        })
    }) {
        let mut delivered = 0u32;
        let mut latency_sum = 0u64;
        for seed in 0..seeds {
            let mut sim = SimulationBuilder::new(Grid2d::new(4, 4))
                .config(
                    StochasticConfig::new(0.5, 16)
                        .expect("valid config")
                        .with_max_rounds(100),
                )
                .fault_model(model)
                .seed(seed)
                .build();
            let id = sim.inject(NodeId(0), NodeId(15), b"sweep".to_vec());
            let report = sim.run();
            if let Some(latency) = report.latency(id) {
                delivered += 1;
                latency_sum += latency;
            }
        }
        let latency = if delivered > 0 {
            format!("{:.1}", latency_sum as f64 / delivered as f64)
        } else {
            "-".to_string()
        };
        println!(
            "{:.2}\t{:.2}\t{}/{}\t{}",
            model.p_upset, model.p_overflow, delivered, seeds, latency
        );
    }
}
