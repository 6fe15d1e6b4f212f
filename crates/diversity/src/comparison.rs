//! The Figure 5-3 architecture comparison: identical beamforming traffic
//! replayed over the three fabrics.

use noc_apps::beamforming::{run_with_builder, BeamformingParams};
use noc_faults::{AdversarialScenario, FaultModel};
use stochastic_noc::{SimulationBuilder, StochasticConfig};

use crate::architecture::{Architecture, ArchitectureKind};

/// Parameters of an architecture comparison run.
#[derive(Debug, Clone)]
pub struct ComparisonParams {
    /// Quadrant side `s` (each fabric hosts four `s × s` quadrants).
    pub quadrant_side: usize,
    /// Sensors per quadrant (placed at the quadrant corners).
    pub sensors_per_quadrant: usize,
    /// Blocks each sensor streams.
    pub blocks: u32,
    /// Protocol configuration (shared by all fabrics).
    pub config: StochasticConfig,
    /// Fault model (shared by all fabrics).
    pub fault_model: FaultModel,
    /// Bus service rate for the bus-connected fabric (messages per
    /// gossip round).
    pub bus_rate: usize,
    /// Adversarial scenario applied to every fabric (benign by default).
    pub adversary: AdversarialScenario,
    /// RNG seed.
    pub seed: u64,
}

impl ComparisonParams {
    /// The full-size comparison: 4×4 quadrants, 3 sensors each.
    pub fn paper_scale() -> Self {
        Self {
            quadrant_side: 4,
            sensors_per_quadrant: 3,
            blocks: 6,
            config: StochasticConfig::new(0.5, 24)
                .expect("valid config")
                .with_max_rounds(2_000),
            fault_model: FaultModel::none(),
            bus_rate: 8,
            adversary: AdversarialScenario::benign(),
            seed: 0,
        }
    }

    /// A reduced configuration for fast tests.
    pub fn quick() -> Self {
        Self {
            quadrant_side: 3,
            sensors_per_quadrant: 2,
            blocks: 3,
            config: StochasticConfig::new(0.6, 20)
                .expect("valid config")
                .with_max_rounds(1_000),
            fault_model: FaultModel::none(),
            bus_rate: 1,
            adversary: AdversarialScenario::benign(),
            seed: 0,
        }
    }

    /// The hostile variant of a configuration: chaos jitter on every
    /// link plus a Byzantine forger near the centre of quadrant 0 and a
    /// transient partition of the lowest-indexed links. Link and tile
    /// indices outside a fabric's range simply never match, so the same
    /// scenario applies to all three architectures.
    pub fn hostile(self) -> Self {
        let adversary = AdversarialScenario::builder()
            .cut_links(0..4, 5, Some(15))
            .delay_probability(0.05)
            .reorder_probability(0.05)
            .byzantine_tile(self.quadrant_side + 1)
            .byzantine_activation(0.25)
            .build()
            .expect("hostile template is a valid scenario");
        Self { adversary, ..self }
    }
}

/// Result of running the workload on one fabric.
#[derive(Debug, Clone)]
pub struct ArchitectureResult {
    /// Which fabric.
    pub kind: ArchitectureKind,
    /// Did the beamformer assemble every block within the budget?
    pub completed: bool,
    /// Rounds until the beamformer finished (budget if it did not).
    pub latency_rounds: u64,
    /// Total message transmissions over links (the Figure 5-3 bar).
    pub transmissions: u64,
    /// Total communication energy in joules.
    pub energy_joules: f64,
}

/// Runs the identical beamforming workload on the flat, hierarchical and
/// bus-connected fabrics and reports the Figure 5-3 metrics for each.
///
/// Sensor placement is logical — the same `(quadrant, x, y)` positions on
/// every fabric — with the beamformer at quadrant 0's gateway.
///
/// # Panics
///
/// Panics if `sensors_per_quadrant` is 0 or exceeds the quadrant corner
/// count (4), or if a placement collides with the beamformer tile.
pub fn compare_architectures(params: &ComparisonParams) -> Vec<ArchitectureResult> {
    assert!(
        (1..=4).contains(&params.sensors_per_quadrant),
        "sensors per quadrant must be 1..=4 (corner placements)"
    );
    let architectures = [
        Architecture::flat(params.quadrant_side),
        Architecture::hierarchical(params.quadrant_side),
        Architecture::bus_connected_with_rate(params.quadrant_side, params.bus_rate),
    ];
    architectures
        .iter()
        .map(|arch| run_one(arch, params))
        .collect()
}

fn run_one(arch: &Architecture, params: &ComparisonParams) -> ArchitectureResult {
    let s = params.quadrant_side;
    let corners = [(0, 0), (s - 1, 0), (0, s - 1), (s - 1, s - 1)];
    let mut sensors = Vec::new();
    for q in 0..4 {
        for &(x, y) in corners.iter().take(params.sensors_per_quadrant) {
            sensors.push(arch.tile(q, x, y));
        }
    }
    let beamformer = arch.gateway(0);
    assert!(
        !sensors.contains(&beamformer),
        "beamformer tile collides with a sensor"
    );

    let mut builder =
        SimulationBuilder::new(arch.topology().clone()).adversary(params.adversary.clone());
    if let Some((node, limit)) = arch.bridge_egress_limit() {
        // The shared bus serializes (egress limit) but every transaction
        // it does carry is a reliable broadcast to all listeners (p = 1).
        builder = builder
            .egress_limit(node, limit)
            .forward_probability_at(node, 1.0);
    }
    let bf_params = BeamformingParams {
        blocks: params.blocks,
        block_interval: 2,
        delays: (0..sensors.len()).map(|s| s % 4).collect(),
        config: params.config,
        fault_model: params.fault_model,
        seed: params.seed,
    };
    let outcome = run_with_builder(builder, &sensors, beamformer, bf_params);
    ArchitectureResult {
        kind: arch.kind(),
        completed: outcome.completed,
        latency_rounds: outcome.completion_round.unwrap_or(params.config.max_rounds),
        transmissions: outcome.report.packets_sent,
        energy_joules: outcome.report.total_energy().joules(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_kind(results: &[ArchitectureResult], kind: ArchitectureKind) -> &ArchitectureResult {
        results
            .iter()
            .find(|r| r.kind == kind)
            .expect("all three fabrics present")
    }

    #[test]
    fn all_three_fabrics_run_the_workload() {
        let results = compare_architectures(&ComparisonParams::quick());
        assert_eq!(results.len(), 3);
        // No wildcard: a kind added to `ArchitectureKind` fails to compile
        // here until Figure 5-3 builds it (or it is deleted).
        let slot = |kind| match kind {
            ArchitectureKind::Flat => 0,
            ArchitectureKind::Hierarchical => 1,
            ArchitectureKind::BusConnected => 2,
        };
        let mut seen = [false; 3];
        for r in &results {
            assert!(r.transmissions > 0, "{:?} moved no traffic", r.kind);
            assert!(r.energy_joules > 0.0);
            assert!(!seen[slot(r.kind)], "{:?} compared twice", r.kind);
            seen[slot(r.kind)] = true;
        }
        assert!(seen.iter().all(|&s| s), "a fabric kind was never compared");
    }

    #[test]
    fn flat_and_hierarchical_complete() {
        let results = compare_architectures(&ComparisonParams::quick());
        assert!(by_kind(&results, ArchitectureKind::Flat).completed);
        assert!(by_kind(&results, ArchitectureKind::Hierarchical).completed);
    }

    #[test]
    fn figure_5_3_shape_holds() {
        // Paper: hierarchical NoC has the lowest number of message
        // transmissions; the flat NoC has slightly better latency; the
        // bus-connected hybrid is less efficient than both.
        let mut flat_lat = 0.0;
        let mut hier_lat = 0.0;
        let mut bus_lat = 0.0;
        let mut flat_tx = 0.0;
        let mut hier_tx = 0.0;
        let seeds = 3;
        for seed in 0..seeds {
            let params = ComparisonParams {
                seed,
                ..ComparisonParams::quick()
            };
            let results = compare_architectures(&params);
            flat_lat += by_kind(&results, ArchitectureKind::Flat).latency_rounds as f64;
            hier_lat += by_kind(&results, ArchitectureKind::Hierarchical).latency_rounds as f64;
            bus_lat += by_kind(&results, ArchitectureKind::BusConnected).latency_rounds as f64;
            flat_tx += by_kind(&results, ArchitectureKind::Flat).transmissions as f64;
            hier_tx += by_kind(&results, ArchitectureKind::Hierarchical).transmissions as f64;
        }
        assert!(
            hier_tx < flat_tx,
            "hierarchical should transmit less: {hier_tx} vs {flat_tx}"
        );
        assert!(
            flat_lat <= hier_lat,
            "flat should not be slower: {flat_lat} vs {hier_lat}"
        );
        assert!(
            bus_lat >= hier_lat,
            "bus serialization cannot beat the router: {bus_lat} vs {hier_lat}"
        );
    }

    #[test]
    fn hostile_template_runs_all_fabrics() {
        let results = compare_architectures(&ComparisonParams::quick().hostile());
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.transmissions > 0, "{:?} moved no traffic", r.kind);
        }
    }

    #[test]
    fn hostile_is_deterministic() {
        let params = ComparisonParams::quick().hostile();
        let a = compare_architectures(&params);
        let b = compare_architectures(&params);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.latency_rounds, y.latency_rounds);
            assert_eq!(x.transmissions, y.transmissions);
        }
    }

    #[test]
    #[should_panic(expected = "sensors per quadrant")]
    fn sensor_count_validated() {
        let params = ComparisonParams {
            sensors_per_quadrant: 9,
            ..ComparisonParams::quick()
        };
        let _ = compare_architectures(&params);
    }
}
