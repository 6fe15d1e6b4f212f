//! **Ablations** — quantifying the design choices DESIGN.md calls out:
//!
//! 1. *Spread termination* (§3.2.2's early-termination remark): traffic
//!    and delivery with/without the delivered-message purge.
//! 2. *Overflow semantics*: the probabilistic drop model versus the
//!    structural drop-oldest finite buffer of §4.2.
//! 3. *CRC width*: goodput and undetected-corruption leakage under
//!    upsets for CRC-8 versus CRC-16 protection.
//! 4. *Topology*: grid versus torus latency/traffic at equal tile count.

use noc_crc::CrcParams;
use noc_fabric::{Grid2d, NodeId, Topology, WireCodec};
use noc_faults::{FaultModel, OverflowMode};
use stochastic_noc::{SimulationBuilder, StochasticConfig};

use crate::stats::mean;
use crate::{Scale, TrialRunner};

/// One ablation row: a labelled variant with its measured behaviour.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which ablation group the row belongs to.
    pub group: &'static str,
    /// The variant within the group.
    pub variant: String,
    /// Delivery ratio of the probe broadcasts.
    pub delivery_ratio: f64,
    /// Mean latency in rounds over delivered probes.
    pub latency_rounds: Option<f64>,
    /// Mean packets transmitted per run.
    pub packets: f64,
    /// Undetected corrupted deliveries per run (CRC ablation only).
    pub undetected: f64,
}

fn probe(
    builder: impl Fn(u64) -> SimulationBuilder + Sync,
    reps: u64,
    group: &'static str,
    variant: String,
) -> AblationRow {
    let label = format!("ablations/{group}/{variant}");
    let outcomes = TrialRunner::for_figure(&label, reps).run(|seed| {
        let mut sim = builder(seed).build();
        let n = sim.node_count();
        let id = sim.inject(NodeId(0), NodeId(n - 1), vec![0x5A; 16]);
        let report = sim.run_to_report();
        (
            report.latency(id),
            report.packets_sent as f64,
            report.upsets_undetected as f64,
        )
    });
    let mut delivered = 0u64;
    let mut latencies = Vec::new();
    let mut packets = Vec::new();
    let mut undetected = Vec::new();
    for (latency, sent, upsets) in outcomes {
        if let Some(l) = latency {
            delivered += 1;
            latencies.push(l as f64);
        }
        packets.push(sent);
        undetected.push(upsets);
    }
    AblationRow {
        group,
        variant,
        delivery_ratio: delivered as f64 / reps as f64,
        latency_rounds: mean(&latencies),
        packets: mean(&packets).unwrap_or(0.0),
        undetected: mean(&undetected).unwrap_or(0.0),
    }
}

/// Runs all four ablation groups.
pub fn run(scale: Scale) -> Vec<AblationRow> {
    let reps = match scale {
        Scale::Quick => 5,
        Scale::Full => 20,
    };
    let mut rows = Vec::new();

    // 1. Spread termination.
    for terminate in [false, true] {
        rows.push(probe(
            move |seed| {
                SimulationBuilder::new(Grid2d::new(4, 4))
                    .config(
                        StochasticConfig::new(0.5, 16)
                            .expect("valid")
                            .with_max_rounds(60)
                            .with_termination(terminate),
                    )
                    .seed(seed)
            },
            reps,
            "spread termination",
            if terminate { "terminated" } else { "plain ttl" }.to_string(),
        ));
    }

    // 2. Overflow semantics at equal pressure.
    let probabilistic = FaultModel::builder()
        .p_overflow(0.3)
        .build()
        .expect("valid");
    rows.push(probe(
        move |seed| {
            SimulationBuilder::new(Grid2d::new(4, 4))
                .config(StochasticConfig::flooding(12).with_max_rounds(60))
                .fault_model(probabilistic)
                .seed(seed)
        },
        reps,
        "overflow semantics",
        "probabilistic p=0.3".to_string(),
    ));
    let structural = FaultModel::builder()
        .overflow_mode(OverflowMode::Structural { capacity: 2 })
        .build()
        .expect("valid");
    rows.push(probe(
        move |seed| {
            SimulationBuilder::new(Grid2d::new(4, 4))
                .config(StochasticConfig::flooding(12).with_max_rounds(60))
                .fault_model(structural)
                .seed(seed)
        },
        reps,
        "overflow semantics",
        "structural capacity=2".to_string(),
    ));

    // 3. CRC width under heavy upsets.
    for (label, params) in [
        ("crc-8", CrcParams::CRC8_ATM),
        ("crc-16", CrcParams::CRC16_CCITT),
    ] {
        let upsets = FaultModel::builder().p_upset(0.5).build().expect("valid");
        rows.push(probe(
            move |seed| {
                SimulationBuilder::new(Grid2d::new(4, 4))
                    .config(StochasticConfig::flooding(16).with_max_rounds(80))
                    .fault_model(upsets)
                    .wire_codec(WireCodec::new(params))
                    .seed(seed)
            },
            reps,
            "crc width",
            label.to_string(),
        ));
    }

    // 4. Grid vs torus at 36 tiles.
    rows.push(probe(
        |seed| {
            SimulationBuilder::new(Topology::grid(6, 6))
                .config(
                    StochasticConfig::new(0.5, 20)
                        .expect("valid")
                        .with_max_rounds(60),
                )
                .seed(seed)
        },
        reps,
        "topology",
        "grid 6x6".to_string(),
    ));
    rows.push(probe(
        |seed| {
            SimulationBuilder::new(Topology::torus(6, 6))
                .config(
                    StochasticConfig::new(0.5, 20)
                        .expect("valid")
                        .with_max_rounds(60),
                )
                .seed(seed)
        },
        reps,
        "topology",
        "torus 6x6".to_string(),
    ));

    rows
}

/// Prints the ablation table.
pub fn print(rows: &[AblationRow]) {
    crate::stats::print_table_header(
        "Ablations: design-choice impact on one diameter-spanning broadcast",
        &[
            "group",
            "variant",
            "delivery",
            "latency [rounds]",
            "packets",
            "undetected",
        ],
    );
    for r in rows {
        println!(
            "{}\t{}\t{:.2}\t{}\t{:.0}\t{:.2}",
            r.group,
            r.variant,
            r.delivery_ratio,
            r.latency_rounds
                .map_or("-".to_string(), |l| format!("{l:.1}")),
            r.packets,
            r.undetected
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(rows: &'a [AblationRow], group: &str, variant: &str) -> &'a AblationRow {
        rows.iter()
            .find(|r| r.group == group && r.variant.contains(variant))
            .expect("row present")
    }

    #[test]
    fn termination_cuts_traffic_not_delivery() {
        let rows = run(Scale::Quick);
        let plain = row(&rows, "spread termination", "plain");
        let term = row(&rows, "spread termination", "terminated");
        assert_eq!(plain.delivery_ratio, term.delivery_ratio);
        assert!(
            term.packets < plain.packets / 2.0,
            "terminated {} vs plain {}",
            term.packets,
            plain.packets
        );
    }

    #[test]
    fn both_overflow_modes_lose_packets_but_deliver() {
        let rows = run(Scale::Quick);
        for variant in ["probabilistic", "structural"] {
            let r = row(&rows, "overflow semantics", variant);
            assert!(r.delivery_ratio >= 0.8, "{variant}: {}", r.delivery_ratio);
        }
    }

    #[test]
    fn wider_crc_leaks_no_more_than_narrow() {
        let rows = run(Scale::Quick);
        let narrow = row(&rows, "crc width", "crc-8");
        let wide = row(&rows, "crc width", "crc-16");
        assert!(wide.undetected <= narrow.undetected + 1e-9);
        assert_eq!(wide.delivery_ratio, 1.0, "flooding defeats 50% upsets");
    }

    #[test]
    fn torus_beats_grid_on_latency() {
        let rows = run(Scale::Quick);
        let grid = row(&rows, "topology", "grid").latency_rounds.unwrap();
        let torus = row(&rows, "topology", "torus").latency_rounds.unwrap();
        assert!(
            torus < grid,
            "torus {torus} should beat grid {grid} (diameter 6 vs 10)"
        );
    }
}
