//! Cross-crate integration tests: full scenarios that exercise the
//! protocol engine, fault model, CRC layer, applications and energy
//! accounting together.

use noc_energy::TechnologyLibrary;
use noc_fabric::{Grid2d, NodeId, Topology};
use noc_faults::{ErrorModel, FaultModel};
use stochastic_noc::{SimulationBuilder, StochasticConfig};

#[test]
fn paper_running_example_end_to_end() {
    // Figure 3-3 with every subsystem engaged: CRC-protected packets,
    // energy accounting at the 0.25um NoC point, deterministic seeding.
    let mut sim = SimulationBuilder::new(Grid2d::new(4, 4))
        .config(StochasticConfig::new(0.5, 12).unwrap().with_max_rounds(60))
        .technology(TechnologyLibrary::NOC_LINK_0_25UM)
        .seed(42)
        .build();
    let id = sim.inject(NodeId(5), NodeId(11), b"producer->consumer".to_vec());
    let report = sim.run();

    assert!(report.delivered(id));
    let latency = report.latency(id).unwrap();
    assert!((3..=12).contains(&latency), "latency {latency}");
    // Energy equals bits * E_bit exactly:
    let expect = report.bits_sent.bits() as f64 * 2.4e-10;
    assert!((report.total_energy().joules() - expect).abs() < 1e-12);
}

#[test]
fn all_fault_classes_together_are_survivable() {
    // Chapter 2's whole model at moderate levels simultaneously.
    let model = FaultModel::builder()
        .p_tiles(0.05)
        .p_links(0.05)
        .p_upset(0.2)
        .p_overflow(0.15)
        .sigma_synch(0.2)
        .error_model(ErrorModel::RandomErrorVector)
        .build()
        .unwrap();
    let mut delivered = 0;
    let runs = 10;
    for seed in 0..runs {
        let mut sim = SimulationBuilder::new(Grid2d::new(4, 4))
            .config(
                StochasticConfig::new(0.75, 20)
                    .unwrap()
                    .with_max_rounds(120),
            )
            .fault_model(model)
            .seed(seed)
            .build();
        let id = sim.inject(NodeId(5), NodeId(11), b"storm".to_vec());
        if sim.run().delivered(id) {
            delivered += 1;
        }
    }
    assert!(
        delivered >= 7,
        "combined moderate faults delivered only {delivered}/{runs}"
    );
}

#[test]
fn broadcast_reaches_every_tile_of_a_bigger_grid() {
    let mut sim = SimulationBuilder::new(Grid2d::new(6, 6))
        .config(StochasticConfig::new(0.6, 24).unwrap().with_max_rounds(80))
        .seed(1)
        .build();
    let id = sim.inject(NodeId(0), NodeId(35), b"wide".to_vec());
    while !sim.is_complete() && sim.round() < 80 {
        sim.step();
        if sim.informed_count(id) == 36 {
            break;
        }
    }
    assert_eq!(sim.informed_count(id), 36, "gossip fills the 6x6 grid");
}

#[test]
fn fully_connected_topology_matches_epidemic_theory_loosely() {
    // On a fully connected fabric at p chosen so each holder infects ~1
    // peer per round, the engine's spread should land in the same ballpark
    // as the Pittel S_n estimate used in Figure 3-1.
    let n = 32;
    let p = 1.0 / (n as f64 - 1.0);
    let mut sim = SimulationBuilder::new(Topology::fully_connected(n))
        .config(StochasticConfig::new(p, 40).unwrap().with_max_rounds(200))
        .seed(9)
        .build();
    let id = sim.inject(NodeId(0), NodeId(n - 1), b"theory".to_vec());
    let mut reached_all_at = None;
    for round in 0..120 {
        sim.step();
        if sim.informed_count(id) == n {
            reached_all_at = Some(round);
            break;
        }
    }
    let s_n = stochastic_noc::spread::rounds_to_inform_all(n);
    let got = reached_all_at.expect("everyone informed") as f64;
    assert!(
        got < s_n * 4.0,
        "engine spread took {got} rounds, theory {s_n:.1}"
    );
}

#[test]
fn spread_termination_saves_energy_without_hurting_delivery() {
    let run = |terminate: bool| {
        let mut delivered = 0;
        let mut packets = 0u64;
        for seed in 0..5 {
            let mut sim = SimulationBuilder::new(Grid2d::new(4, 4))
                .config(
                    StochasticConfig::new(0.5, 16)
                        .unwrap()
                        .with_max_rounds(80)
                        .with_termination(terminate),
                )
                .seed(seed)
                .build();
            let id = sim.inject(NodeId(5), NodeId(11), b"ttl".to_vec());
            let report = sim.run();
            if report.delivered(id) {
                delivered += 1;
            }
            packets += report.packets_sent;
        }
        (delivered, packets)
    };
    let (d_plain, p_plain) = run(false);
    let (d_term, p_term) = run(true);
    assert_eq!(d_plain, d_term, "termination must not change delivery");
    assert!(
        p_term < p_plain / 2,
        "termination should cut traffic sharply: {p_term} vs {p_plain}"
    );
}
