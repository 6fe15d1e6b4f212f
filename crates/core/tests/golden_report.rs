//! Golden-report determinism regression tests.
//!
//! The digests below were captured from the engine *before* the zero-copy
//! hot-path optimization (shared `Arc` frames, per-round CRC memoization,
//! reusable round arenas). The optimized engine must reproduce every
//! figure-table input byte-for-byte: same `(topology, config, fault
//! model, seed)` → identical `SimulationReport`, including per-message
//! delivery rounds. A mismatch here means the optimization changed
//! observable behaviour, not just speed.

use noc_fabric::{NodeId, Topology};
use noc_faults::{CrashSchedule, ErrorModel, FaultModel, OverflowMode};
use stochastic_noc::events::{CounterSink, JsonlSink};
use stochastic_noc::{Simulation, SimulationBuilder, SimulationReport, StochasticConfig};

/// Serializes every observable field of a report into a stable string.
fn digest(report: &SimulationReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "rounds={} completed={} packets={} bits={} upd={} upu={} ovf={} crash={} slips={} ttlx={}\n",
        report.rounds_executed,
        report.completed,
        report.packets_sent,
        report.bits_sent.bits(),
        report.upsets_detected,
        report.upsets_undetected,
        report.overflow_drops,
        report.crash_drops,
        report.clock_slips,
        report.ttl_expirations,
    ));
    let mut records: Vec<_> = report.records().collect();
    records.sort_by_key(|r| r.id);
    for r in records {
        out.push_str(&format!(
            "{}:{}->{} inj={} del={:?} bits={}\n",
            r.id,
            r.source,
            r.destination,
            r.injected_round,
            r.delivered_round,
            r.frame_bits.bits(),
        ));
    }
    out
}

fn check(name: &str, sim: &mut Simulation, expected: &str) {
    let report = sim.run();
    let actual = digest(&report);
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "golden digest drifted for workload `{name}`:\n--- actual ---\n{actual}"
    );
}

/// One golden workload: how to build it, what to inject, and the
/// pinned digest. The table drives the per-workload tests and the
/// obs-plane invariance suites below from a single definition.
struct GoldenWorkload {
    name: &'static str,
    builder: SimulationBuilder,
    injections: Vec<(usize, usize, &'static [u8])>,
    golden: &'static str,
}

/// Every golden workload in this file, freshly built.
fn golden_workloads() -> Vec<GoldenWorkload> {
    let grid16_model = FaultModel::builder()
        .p_upset(0.1)
        .p_tiles(0.05)
        .p_links(0.05)
        .error_model(ErrorModel::RandomBitError)
        .build()
        .unwrap();
    let torus_model = FaultModel::builder()
        .sigma_synch(0.2)
        .overflow_mode(OverflowMode::Structural { capacity: 4 })
        .build()
        .unwrap();
    let mut crash = CrashSchedule::new();
    crash.kill_tile(7, 0).kill_tile(14, 5).kill_link(3, 8);
    let crash_model = FaultModel::builder().p_upset(0.05).build().unwrap();
    vec![
        GoldenWorkload {
            name: "grid4_flooding_fault_free",
            builder: SimulationBuilder::new(Topology::grid(4, 4))
                .config(StochasticConfig::flooding(12).with_max_rounds(40))
                .seed(1),
            injections: vec![(5, 11, b"figure 3-3")],
            golden: GOLDEN_GRID4_FLOODING,
        },
        GoldenWorkload {
            name: "grid8_gossip_under_faults",
            builder: grid8_gossip_builder(),
            injections: vec![(0, 63, b"corner to corner"), (9, 54, b"x")],
            golden: GOLDEN_GRID8_GOSSIP,
        },
        GoldenWorkload {
            name: "grid16_flooding_with_defects",
            builder: SimulationBuilder::new(Topology::grid(16, 16))
                .config(StochasticConfig::flooding(24).with_max_rounds(60))
                .fault_model(grid16_model)
                .seed(7),
            injections: vec![(0, 255, b"big grid")],
            golden: GOLDEN_GRID16_FLOOD,
        },
        GoldenWorkload {
            name: "torus_structural_overflow",
            builder: SimulationBuilder::new(Topology::torus(6, 6))
                .forward_probability(0.35)
                .ttl(18)
                .max_rounds(80)
                .fault_model(torus_model)
                .seed(9),
            injections: vec![(0, 21, b"a"), (17, 4, b"bb"), (30, 8, b"ccc")],
            golden: GOLDEN_TORUS_STRUCTURAL,
        },
        GoldenWorkload {
            name: "fully_connected_with_termination",
            builder: SimulationBuilder::new(Topology::fully_connected(16))
                .config(
                    StochasticConfig::flooding(6)
                        .with_max_rounds(30)
                        .with_termination(true),
                )
                .seed(11),
            injections: vec![(2, 13, b"bus-like")],
            golden: GOLDEN_FULL16_TERMINATION,
        },
        GoldenWorkload {
            name: "grid6_with_crash_schedule",
            builder: SimulationBuilder::new(Topology::grid(6, 6))
                .forward_probability(0.6)
                .ttl(15)
                .max_rounds(60)
                .fault_model(crash_model)
                .crash_schedule(crash)
                .seed(5),
            injections: vec![(1, 34, b"survivor"), (35, 0, b"reverse")],
            golden: GOLDEN_GRID6_CRASH,
        },
    ]
}

/// Builds and checks the named table workload through the default path.
fn check_workload(name: &'static str) {
    let workload = golden_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .expect("known workload");
    let mut sim = workload.builder.build();
    for (src, dst, payload) in &workload.injections {
        sim.inject(NodeId(*src), NodeId(*dst), payload.to_vec());
    }
    check(name, &mut sim, workload.golden);
}

#[test]
fn golden_grid4_flooding_fault_free() {
    check_workload("grid4_flooding_fault_free");
}

/// The richest golden workload (upsets, overflow, slips, expirations),
/// reused by the sink-invariance tests below.
fn grid8_gossip_builder() -> SimulationBuilder {
    let model = FaultModel::builder()
        .p_upset(0.2)
        .p_overflow(0.1)
        .sigma_synch(0.3)
        .error_model(ErrorModel::RandomErrorVector)
        .build()
        .unwrap();
    SimulationBuilder::new(Topology::grid(8, 8))
        .forward_probability(0.5)
        .ttl(20)
        .max_rounds(100)
        .fault_model(model)
        .seed(42)
}

#[test]
fn golden_grid8_gossip_under_faults() {
    check_workload("grid8_gossip_under_faults");
}

/// Sinks observe, they never influence: installing any sink must leave
/// the report digest byte-identical to the default (NullSink) build.
#[test]
fn golden_digest_is_identical_with_jsonl_sink_installed() {
    let mut sim = grid8_gossip_builder().build_with_sink(JsonlSink::new(Vec::new()));
    sim.inject(NodeId(0), NodeId(63), b"corner to corner".to_vec());
    sim.inject(NodeId(9), NodeId(54), b"x".to_vec());
    let report = sim.run();
    assert_eq!(digest(&report).trim(), GOLDEN_GRID8_GOSSIP.trim());
    let sink = sim.into_sink();
    assert!(sink.events_written() > 0, "a faulty run emits events");
    let text = String::from_utf8(sink.into_inner()).unwrap();
    assert_eq!(text.lines().count() as u64, digest_event_count(&text));
}

/// Every JSONL line is one object; returns the line count as a sanity
/// proxy (full JSON validation lives in the CI bench-smoke job).
fn digest_event_count(text: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with("{\"event\":\"") && l.ends_with('}'))
        .count() as u64
}

#[test]
fn golden_digest_is_identical_with_counter_sink_installed() {
    let mut sim = grid8_gossip_builder().build_with_sink(CounterSink::new());
    sim.inject(NodeId(0), NodeId(63), b"corner to corner".to_vec());
    sim.inject(NodeId(9), NodeId(54), b"x".to_vec());
    let report = sim.run();
    assert_eq!(digest(&report).trim(), GOLDEN_GRID8_GOSSIP.trim());
    sim.into_sink()
        .reconcile(&report)
        .expect("golden workload reconciles");
}

#[test]
fn golden_grid16_flooding_with_defects() {
    check_workload("grid16_flooding_with_defects");
}

#[test]
fn golden_torus_structural_overflow() {
    check_workload("torus_structural_overflow");
}

#[test]
fn golden_fully_connected_with_termination() {
    check_workload("fully_connected_with_termination");
}

#[test]
fn golden_grid6_with_crash_schedule() {
    check_workload("grid6_with_crash_schedule");
}

/// Runs every table workload with the wall-clock plane installed (and a
/// CounterSink), at the given shard count, asserting each digest stays
/// byte-identical. Returns the registry for span assertions.
fn run_suite_with_obs(shards: usize) -> noc_obs::Metrics {
    let metrics = noc_obs::Metrics::new();
    let obs = stochastic_noc::EngineObs::new(&metrics);
    for workload in golden_workloads() {
        let mut sim = workload
            .builder
            .shards(shards)
            .obs(obs.clone())
            .build_with_sink(CounterSink::new());
        for (src, dst, payload) in &workload.injections {
            sim.inject(NodeId(*src), NodeId(*dst), payload.to_vec());
        }
        let report = sim.run();
        assert_eq!(
            digest(&report).trim(),
            workload.golden.trim(),
            "digest for `{}` drifted with obs plane enabled (shards={shards})",
            workload.name
        );
        sim.into_sink()
            .reconcile(&report)
            .expect("obs-enabled workload reconciles");
    }
    metrics
}

/// The two-plane contract, deterministic side: installing the wall-clock
/// plane must leave every golden digest byte-identical.
#[test]
fn golden_digests_are_identical_with_obs_plane_enabled() {
    let metrics = run_suite_with_obs(1);
    let snap = metrics.snapshot();
    let spans = |phase: &str| {
        snap.histograms
            .iter()
            .find(|h| {
                h.name == "engine_phase_seconds"
                    && h.labels == vec![("phase".to_string(), phase.to_string())]
            })
            .unwrap_or_else(|| panic!("{phase} histogram registered"))
            .count
    };
    assert!(spans("round") > 0, "the obs plane actually recorded spans");
    for phase in ["receive", "age", "forward"] {
        assert_eq!(
            spans(phase),
            spans("round"),
            "every sequential round times its {phase} phase"
        );
    }
    assert!(
        metrics.counter_value("engine_rounds_total").unwrap_or(0) > 0,
        "rounds were counted"
    );
}

/// Same contract through the sharded round loop: spans for every
/// sharded phase, digests still pinned.
#[test]
fn golden_digests_are_identical_with_obs_plane_enabled_and_sharded() {
    let metrics = run_suite_with_obs(4);
    let snap = metrics.snapshot();
    for phase in ["tape", "shard_fanout", "merge", "quiescence"] {
        let hist = snap
            .histograms
            .iter()
            .find(|h| {
                h.name == "engine_phase_seconds"
                    && h.labels == vec![("phase".to_string(), phase.to_string())]
            })
            .unwrap_or_else(|| panic!("{phase} histogram registered"));
        assert!(hist.count > 0, "{phase} phase recorded spans");
    }
}

const GOLDEN_GRID4_FLOODING: &str = "\
rounds=12 completed=true packets=440 bits=95040 upd=0 upu=0 ovf=0 crash=0 slips=0 ttlx=16
m0:n5->n11 inj=0 del=Some(3) bits=216";

const GOLDEN_GRID8_GOSSIP: &str = "\
rounds=23 completed=true packets=1622 bits=291048 upd=282 upu=0 ovf=151 crash=0 slips=160 ttlx=113
m0:n0->n63 inj=0 del=None bits=264
m1:n9->n54 inj=0 del=Some(17) bits=144";

const GOLDEN_GRID16_FLOOD: &str = "\
rounds=24 completed=true packets=7238 bits=1447600 upd=643 upu=0 ovf=0 crash=665 slips=0 ttlx=215
m0:n0->n255 inj=0 del=None bits=200";

const GOLDEN_TORUS_STRUCTURAL: &str = "\
rounds=19 completed=true packets=1842 bits=280064 upd=0 upu=0 ovf=312 crash=0 slips=64 ttlx=108
m0:n0->n21 inj=0 del=Some(6) bits=144
m1:n17->n4 inj=0 del=Some(9) bits=152
m2:n30->n8 inj=0 del=Some(6) bits=160";

const GOLDEN_FULL16_TERMINATION: &str = "\
rounds=2 completed=true packets=15 bits=3000 upd=0 upu=0 ovf=0 crash=0 slips=0 ttlx=0
m0:n2->n13 inj=0 del=Some(1) bits=200";

const GOLDEN_GRID6_CRASH: &str = "\
rounds=15 completed=true packets=937 bits=182952 upd=44 upu=0 ovf=0 crash=74 slips=0 ttlx=68
m0:n1->n34 inj=0 del=Some(14) bits=200
m1:n35->n0 inj=0 del=Some(13) bits=192";
