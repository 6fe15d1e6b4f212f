//! Checkpoint/resume determinism: resuming from a checkpoint must be
//! provably indistinguishable from never having stopped.
//!
//! For each of the twelve golden/adversarial workloads, one that sets
//! every per-tile knob and one whose weak CRC misses upsets, the suite
//! checkpoints at *every* round boundary of a straight-through run,
//! resumes each checkpoint at shard counts 1, 2 and 8, and byte-compares
//! the final report digest (and, per checkpoint round, the concatenated
//! JSONL event stream) against the uninterrupted run. A property test
//! sweeps random checkpoint rounds × shard counts on top.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own streams")]

use noc_crc::CrcParams;
use noc_fabric::{NodeId, NullIp, Topology, WireCodec};
use noc_faults::{
    AdversarialScenario, ByzantineMode, CrashSchedule, ErrorModel, FaultModel, OverflowMode,
};
use proptest::prelude::*;
use stochastic_noc::events::JsonlSink;
use stochastic_noc::seed::derive_trial_seed;
use stochastic_noc::{
    Checkpoint, CheckpointError, CounterSink, Simulation, SimulationBuilder, SimulationReport,
    StochasticConfig,
};

/// Serializes every observable report field — the golden digest format
/// plus the adversarial and quiescence counters — into a stable string.
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
    out.push_str(&format!(
        "part={} byzf={} byzr={} adel={} areo={} quies={}\n",
        report.partition_drops,
        report.byzantine_forges,
        report.byzantine_replays,
        report.adversarial_delays,
        report.adversarial_reorders,
        report.quiescent_rounds,
    ));
    for r in report.records() {
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

type BuilderFn = Box<dyn Fn() -> SimulationBuilder>;

struct Workload {
    name: &'static str,
    builder: BuilderFn,
    injections: Vec<(usize, usize, &'static [u8])>,
}

/// The six golden workloads of `golden_report.rs`, as fresh-builder
/// factories (a `SimulationBuilder` is consumed by `build`, and every
/// resume needs an identically configured builder of its own).
fn golden_workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "grid4_flooding_fault_free",
            builder: Box::new(|| {
                SimulationBuilder::new(Topology::grid(4, 4))
                    .config(StochasticConfig::flooding(12).with_max_rounds(40))
                    .seed(1)
            }),
            injections: vec![(5, 11, b"figure 3-3")],
        },
        Workload {
            name: "grid8_gossip_under_faults",
            builder: Box::new(|| {
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
            }),
            injections: vec![(0, 63, b"corner to corner"), (9, 54, b"x")],
        },
        Workload {
            name: "grid16_flooding_with_defects",
            builder: Box::new(|| {
                let model = FaultModel::builder()
                    .p_upset(0.1)
                    .p_tiles(0.05)
                    .p_links(0.05)
                    .error_model(ErrorModel::RandomBitError)
                    .build()
                    .unwrap();
                SimulationBuilder::new(Topology::grid(16, 16))
                    .config(StochasticConfig::flooding(24).with_max_rounds(60))
                    .fault_model(model)
                    .seed(7)
            }),
            injections: vec![(0, 255, b"big grid")],
        },
        Workload {
            name: "torus_structural_overflow",
            builder: Box::new(|| {
                let model = FaultModel::builder()
                    .sigma_synch(0.2)
                    .overflow_mode(OverflowMode::Structural { capacity: 4 })
                    .build()
                    .unwrap();
                SimulationBuilder::new(Topology::torus(6, 6))
                    .forward_probability(0.35)
                    .ttl(18)
                    .max_rounds(80)
                    .fault_model(model)
                    .seed(9)
            }),
            injections: vec![(0, 21, b"a"), (17, 4, b"bb"), (30, 8, b"ccc")],
        },
        Workload {
            name: "fully_connected_with_termination",
            builder: Box::new(|| {
                SimulationBuilder::new(Topology::fully_connected(16))
                    .config(
                        StochasticConfig::flooding(6)
                            .with_max_rounds(30)
                            .with_termination(true),
                    )
                    .seed(11)
            }),
            injections: vec![(2, 13, b"bus-like")],
        },
        Workload {
            name: "grid6_with_crash_schedule",
            builder: Box::new(|| {
                let mut crash = CrashSchedule::new();
                crash.kill_tile(7, 0).kill_tile(14, 5).kill_link(3, 8);
                let model = FaultModel::builder().p_upset(0.05).build().unwrap();
                SimulationBuilder::new(Topology::grid(6, 6))
                    .forward_probability(0.6)
                    .ttl(15)
                    .max_rounds(60)
                    .fault_model(model)
                    .crash_schedule(crash)
                    .seed(5)
            }),
            injections: vec![(1, 34, b"survivor"), (35, 0, b"reverse")],
        },
    ]
}

/// The moderately faulty gossip base the hostile scenarios build on
/// (mirrors `golden_adversarial.rs`).
fn grid6_base() -> SimulationBuilder {
    let model = FaultModel::builder()
        .p_upset(0.05)
        .sigma_synch(0.2)
        .error_model(ErrorModel::RandomErrorVector)
        .build()
        .unwrap();
    SimulationBuilder::new(Topology::grid(6, 6))
        .forward_probability(0.6)
        .ttl(15)
        .max_rounds(60)
        .fault_model(model)
        .seed(13)
}

/// The six adversarial workloads of `golden_adversarial.rs`.
fn adversarial_workloads() -> Vec<Workload> {
    fn scenario(name: &str) -> AdversarialScenario {
        match name {
            "partition_with_heal" => AdversarialScenario::builder()
                .cut_links([24, 25, 26, 27], 3, Some(9))
                .build()
                .unwrap(),
            "permanent_death" => AdversarialScenario::builder()
                .kill_tile(14, 2)
                .kill_tile(21, 6)
                .kill_link(40, 0)
                .build()
                .unwrap(),
            "chaos_jitter" => AdversarialScenario::builder()
                .delay_probability(0.15)
                .reorder_probability(0.2)
                .build()
                .unwrap(),
            "byzantine_forge" => AdversarialScenario::builder()
                .byzantine_tile(7)
                .byzantine_tile(28)
                .byzantine_mode(ByzantineMode::Forge)
                .byzantine_activation(0.5)
                .build()
                .unwrap(),
            "byzantine_replay" => AdversarialScenario::builder()
                .byzantine_tile(7)
                .byzantine_tile(28)
                .byzantine_mode(ByzantineMode::Replay)
                .byzantine_activation(0.5)
                .byzantine_until(Some(20))
                .build()
                .unwrap(),
            "combined_hostile" => AdversarialScenario::builder()
                .cut_links([10, 11], 2, Some(7))
                .kill_tile(20, 4)
                .delay_probability(0.1)
                .reorder_probability(0.1)
                .byzantine_tile(13)
                .byzantine_mode(ByzantineMode::Forge)
                .byzantine_activation(0.4)
                .build()
                .unwrap(),
            other => panic!("unknown scenario {other}"),
        }
    }
    [
        "partition_with_heal",
        "permanent_death",
        "chaos_jitter",
        "byzantine_forge",
        "byzantine_replay",
        "combined_hostile",
    ]
    .into_iter()
    .map(|name| Workload {
        name,
        builder: Box::new(move || grid6_base().adversary(scenario(name))),
        injections: vec![(0, 35, b"hostile column"), (30, 5, b"cross")],
    })
    .collect()
}

/// A bus bridge (Chapter 5: egress limit 1, forwarding probability 1) on the
/// hostile scenarios' base, and an IP mapped where two messages are
/// delivered: the one workload whose config digest hashes set knob
/// tables, and whose checkpoints carry a moving egress cursor.
fn knob_workload() -> Workload {
    Workload {
        name: "grid6_bridge_tile_and_mapped_ip",
        builder: Box::new(|| {
            grid6_base()
                .egress_limit(NodeId(14), 1)
                .forward_probability_at(NodeId(14), 1.0)
                .with_ip(NodeId(35), Box::new(NullIp))
        }),
        injections: vec![
            (14, 3, b"from the bridge"),
            (8, 35, b"to the ip"),
            (20, 0, b"across"),
            (0, 35, b"corner"),
        ],
    }
}

/// CRC-8/ATM under heavy single- and few-bit upsets: the tag misses an
/// upset now and then, so the run's checkpoints capture caught copies
/// (rebuilt from their draws) beside missed ones (kept as bytes), and
/// corrupt messages the CRC let through travel on.
fn weak_crc_workload() -> Workload {
    Workload {
        name: "grid8_weak_crc_heavy_upsets",
        builder: Box::new(|| {
            let model = FaultModel::builder()
                .p_upset(0.7)
                .error_model(ErrorModel::RandomBitError)
                .build()
                .unwrap();
            SimulationBuilder::new(Topology::grid(8, 8))
                .config(StochasticConfig::flooding(16).with_max_rounds(30))
                .fault_model(model)
                .wire_codec(WireCodec::new(CrcParams::CRC8_ATM))
                .seed(34)
        }),
        injections: vec![
            (0, 63, b"a weak tag on a long frame"),
            (27, 36, b"short"),
            (56, 7, b"corner to corner, again"),
        ],
    }
}

/// All fourteen workloads.
fn workloads() -> Vec<Workload> {
    let mut all = golden_workloads();
    all.extend(adversarial_workloads());
    all.push(knob_workload());
    all.push(weak_crc_workload());
    all
}

fn inject_all(sim: &mut Simulation<impl stochastic_noc::EventSink>, w: &Workload) {
    for &(src, dst, payload) in &w.injections {
        sim.inject(NodeId(src), NodeId(dst), payload.to_vec());
    }
}

/// Runs the workload straight through (sequentially), checkpointing at
/// every round boundary — including round 0 (post-injection) and the
/// final round. Returns the checkpoints and the final report digest.
fn checkpoints_and_digest(w: &Workload) -> (Vec<Checkpoint>, String) {
    let mut sim = (w.builder)().build();
    inject_all(&mut sim, w);
    let mut checkpoints = vec![sim.checkpoint()];
    while !sim.is_complete() && sim.round() < sim.config().max_rounds {
        sim.step();
        checkpoints.push(sim.checkpoint());
    }
    (checkpoints, digest(&sim.run()))
}

/// Checkpoints `w` at every round boundary of a straight-through run and
/// resumes each checkpoint at shard counts 1/2/8: the resumed run's
/// report digest must be byte-identical to the uninterrupted run's, and
/// the checkpoint itself must survive serialization and re-capture at
/// each shard count bit-exactly.
fn assert_every_round_resumes_byte_identically(w: &Workload) {
    let (checkpoints, want) = checkpoints_and_digest(w);
    for (round, ck) in checkpoints.iter().enumerate() {
        let bytes = ck.to_bytes();
        let decoded = Checkpoint::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{}: decode at round {round}: {e}", w.name));
        assert_eq!(decoded, *ck, "{}: decode at round {round}", w.name);
        assert_eq!(decoded.round(), round as u64, "{}", w.name);
        for shards in [1usize, 2, 8] {
            let mut resumed = (w.builder)()
                .shards(shards)
                .resume(&decoded)
                .unwrap_or_else(|e| panic!("{}: resume at round {round}: {e}", w.name));
            // Restore fidelity: re-capturing immediately, at any shard
            // count, must reproduce the serialized checkpoint bit-exactly.
            assert!(
                resumed.checkpoint().to_bytes() == bytes,
                "{}: re-capture at round {round}, shards {shards} drifted",
                w.name
            );
            assert_eq!(
                digest(&resumed.run()),
                want,
                "{}: resume at round {round} shards {shards} diverged",
                w.name
            );
        }
    }
}

/// The weak-CRC workload lets corrupt messages through: its checkpoints
/// carry upsets the CRC missed, not only caught ones.
#[test]
fn the_weak_crc_workload_sees_undetected_upsets() {
    let w = weak_crc_workload();
    let mut sim = (w.builder)().build();
    inject_all(&mut sim, &w);
    let report = sim.run();
    assert!(report.upsets_undetected >= 1, "{report:?}");
    assert!(report.upsets_detected > 100 * report.upsets_undetected);
}

/// The tentpole guarantee, over all fourteen workloads.
#[test]
fn every_checkpoint_round_resumes_byte_identically() {
    for w in workloads() {
        assert_every_round_resumes_byte_identically(&w);
    }
}

/// Every frame delayed by chaos under clock skew and upsets: the
/// `later` arena is never empty mid-run and holds scrambled frames, so
/// each checkpoint carries frames two rounds from arrival. Captured at
/// shard counts 1/2/8 (the serialized bytes must not depend on it) and
/// resumed at each.
#[test]
fn delay_everything_checkpoints_at_every_round_and_shard_count() {
    let w = Workload {
        name: "delay_everything",
        builder: Box::new(|| {
            let model = FaultModel::builder()
                .p_upset(0.3)
                .sigma_synch(0.3)
                .error_model(ErrorModel::RandomBitError)
                .build()
                .unwrap();
            let chaos = AdversarialScenario::builder()
                .delay_probability(1.0)
                .reorder_probability(0.25)
                .build()
                .unwrap();
            SimulationBuilder::new(Topology::grid(5, 5))
                .forward_probability(0.7)
                .ttl(10)
                .max_rounds(60)
                .fault_model(model)
                .adversary(chaos)
                .seed(17)
        }),
        injections: vec![(0, 24, b"parked"), (12, 3, b"in later")],
    };
    assert_every_round_resumes_byte_identically(&w);
    let (sequential, _) = checkpoints_and_digest(&w);
    assert!(
        sequential.len() > 10,
        "the workload must run mid-run rounds"
    );
    for shards in [2usize, 8] {
        let mut sim = (w.builder)().shards(shards).build();
        inject_all(&mut sim, &w);
        for (round, want) in sequential.iter().enumerate() {
            assert_eq!(
                sim.checkpoint().to_bytes(),
                want.to_bytes(),
                "capture at round {round} on {shards} shards differs from sequential"
            );
            sim.step();
        }
    }
}

/// FNV-1a, as `Checkpoint::config_digest` uses it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `(workload, round, serialized length, FNV-1a)` of
/// `Checkpoint::to_bytes()` at a mid-run round boundary, computed when
/// format v2 replaced v1 (each body and clean wire entry written once,
/// each copy and frame its number). The round-trip tests above prove the
/// format self-consistent; these prove format v2, its arena order, its
/// numbering and the config digest did not drift.
const PINNED_CHECKPOINT_BYTES: [(&str, u64, usize, u64); 14] = [
    ("grid4_flooding_fault_free", 4, 1543, 0x6865_881D_9238_E280),
    ("grid8_gossip_under_faults", 4, 3412, 0xD248_CC6F_E6DF_3BC6),
    (
        "grid16_flooding_with_defects",
        4,
        11411,
        0xEEB4_19C1_09C7_2708,
    ),
    ("torus_structural_overflow", 4, 2701, 0x3B49_8287_69BA_5267),
    // Terminates on delivery at round 1; later rounds carry no frames.
    (
        "fully_connected_with_termination",
        1,
        1407,
        0x0DF8_C458_B53E_90C7,
    ),
    ("grid6_with_crash_schedule", 4, 2286, 0x2EC7_7668_18FF_6800),
    ("partition_with_heal", 4, 2402, 0x9A1D_D6A7_BD3A_6FFB),
    ("permanent_death", 4, 2398, 0xFADC_54B8_DE3D_944F),
    ("chaos_jitter", 4, 6232, 0xD2CE_8208_857D_A313),
    ("byzantine_forge", 4, 2605, 0xC12F_5531_0C13_A637),
    ("byzantine_replay", 4, 2610, 0x8B3D_5D87_B84E_9BA1),
    ("combined_hostile", 4, 6332, 0x68E3_30FB_3E3A_DC18),
    (
        "grid6_bridge_tile_and_mapped_ip",
        4,
        3340,
        0xA29C_A5E2_D835_1BDB,
    ),
    (
        "grid8_weak_crc_heavy_upsets",
        4,
        5809,
        0xC6BA_312A_D156_887B,
    ),
];

#[test]
fn checkpoint_bytes_match_the_pinned_v2_digests() {
    let all = workloads();
    assert_eq!(all.len(), PINNED_CHECKPOINT_BYTES.len());
    for (w, &(name, round, len, want)) in all.iter().zip(&PINNED_CHECKPOINT_BYTES) {
        assert_eq!(w.name, name);
        for shards in [1usize, 2, 8] {
            let mut sim = (w.builder)().shards(shards).build();
            inject_all(&mut sim, w);
            while sim.round() < round {
                sim.step();
            }
            let bytes = sim.checkpoint().to_bytes();
            assert_eq!(
                (bytes.len(), fnv1a(&bytes)),
                (len, want),
                "{name}: v2 checkpoint bytes drifted at round {round}, shards {shards}"
            );
        }
    }
}

/// `from_bytes` and `resume` are an input boundary: whatever one flipped
/// byte does to a mid-run checkpoint of each workload, they return `Ok`
/// or `Err` and never panic. A mutant that decodes and matches is
/// trusted state by contract, so it is resumed and dropped, not run.
#[test]
fn single_byte_mutations_decode_and_resume_without_panicking() {
    for (index, w) in workloads().iter().enumerate() {
        let (checkpoints, _) = checkpoints_and_digest(w);
        let bytes = checkpoints[checkpoints.len() / 2].to_bytes();
        let base = derive_trial_seed(0xC4EC, index as u64);
        let (mut refused, mut resumed) = (0, 0);
        for trial in 0..2_000 {
            let draw = derive_trial_seed(base, trial);
            let mut mutated = bytes.clone();
            let at = (draw >> 8) as usize % mutated.len();
            // Never the identity: the low byte is remapped off zero.
            mutated[at] ^= (draw as u8).max(1);
            match Checkpoint::from_bytes(&mutated).and_then(|ck| (w.builder)().resume(&ck)) {
                Ok(_) => resumed += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(
            refused > 0 && resumed > 0,
            "{}: {refused} refused, {resumed} resumed — both outcomes must be exercised",
            w.name
        );
    }
}

/// What the mutation fuzz cannot see, because it only asks for no panic:
/// §3.2.3's "only one copy is kept" holds because every live id's
/// audience holds the tile that buffers it — the tile's seen list is its
/// bit in each window. On a 1×2 flood one message is in flight; turning a
/// zero byte of a round-1 checkpoint into 7 either leaves that true or is
/// refused. Unchecked, a window filed under another id, or a body with
/// another id, resumed, and within six rounds a tile buffered a second
/// copy of the message beside the one it held.
#[test]
fn a_seen_list_that_disowns_a_live_message_is_refused() {
    let make = || {
        SimulationBuilder::new(Topology::grid(1, 2))
            .config(StochasticConfig::flooding(8))
            .seed(3)
    };
    let mut sim = make().build();
    sim.inject(NodeId(0), NodeId(1), b"x".to_vec());
    sim.step();
    let bytes = sim.checkpoint().to_bytes();
    let mut disowned = 0;
    for at in (0..bytes.len()).filter(|&at| bytes[at] == 0) {
        let mut mutated = bytes.clone();
        mutated[at] = 7;
        match Checkpoint::from_bytes(&mutated).and_then(|ck| make().resume(&ck)) {
            Ok(mut resumed) => {
                for _ in 0..8 {
                    resumed.step();
                    for tile in [NodeId(0), NodeId(1)] {
                        assert!(
                            resumed.buffer_len(tile) <= 1,
                            "byte {at}: {tile} buffers two copies of the only message"
                        );
                    }
                }
            }
            Err(CheckpointError::Mismatch(why)) if why.contains("never seen") => disowned += 1,
            Err(_) => {}
        }
    }
    // Tile 0 alone has heard of the message by round 1: eight bytes of
    // its window's id, eight of its body's.
    assert_eq!(disowned, 16);
}

/// The event-stream half of the guarantee: the JSONL bytes emitted
/// before the checkpoint plus the bytes emitted by the resumed run are
/// exactly the straight-through run's bytes, at every checkpoint round.
#[test]
fn jsonl_event_streams_concatenate_byte_identically() {
    for w in workloads() {
        let mut sim = (w.builder)().build_with_sink(JsonlSink::new(Vec::new()));
        inject_all(&mut sim, &w);
        sim.run();
        let straight = sim.into_sink().into_inner();
        let (checkpoints, _) = checkpoints_and_digest(&w);
        for round in 0..checkpoints.len() as u64 {
            let mut prefix_sim = (w.builder)().build_with_sink(JsonlSink::new(Vec::new()));
            inject_all(&mut prefix_sim, &w);
            while prefix_sim.round() < round {
                prefix_sim.step();
            }
            let ck = prefix_sim.checkpoint();
            let mut stream = prefix_sim.into_sink().into_inner();
            let mut resumed = (w.builder)()
                .resume_with_sink(&ck, JsonlSink::new(Vec::new()))
                .unwrap();
            resumed.run();
            stream.extend_from_slice(&resumed.into_sink().into_inner());
            assert_eq!(
                stream, straight,
                "{}: JSONL stream split at round {round} is not byte-identical",
                w.name
            );
        }
    }
}

/// Under a sink that records nothing, the forward walk files a frame it
/// has proved a duplicate at its receiver as a *known* duplicate, which
/// receive never reads; capture puts each back at its place in its
/// receiver's queue. A fault-free flood (the engine's sink-equivalence
/// workload, where such frames are filed) captured that way at every
/// round resumes under a recording sink into exactly the events a
/// recording run emits from that round — every `DuplicateDrop` in arrival
/// order — and a `CounterSink` run captures the same bytes.
#[test]
fn known_duplicates_resume_at_their_places_in_the_event_stream() {
    let make = || {
        SimulationBuilder::new(Topology::grid(6, 6))
            .config(
                StochasticConfig::flooding(10)
                    .with_max_rounds(30)
                    .with_termination(true),
            )
            .seed(1)
    };
    fn inject(sim: &mut Simulation<impl stochastic_noc::EventSink>) {
        sim.inject(NodeId(0), NodeId(35), b"sink equivalence".to_vec());
        sim.inject(NodeId(30), NodeId(5), b"sink equivalence".to_vec());
    }
    let mut recording = make().build_with_sink(JsonlSink::new(Vec::new()));
    inject(&mut recording);
    recording.run();
    let straight = recording.into_sink().into_inner();
    let mut null = make().build();
    let mut counter = make().build_with_sink(CounterSink::new());
    inject(&mut null);
    inject(&mut counter);
    let mut duplicates = 0;
    loop {
        let ck = null.checkpoint();
        assert!(
            counter.checkpoint() == ck,
            "a CounterSink capture at round {} differs",
            ck.round()
        );
        let mut prefix = make().build_with_sink(JsonlSink::new(Vec::new()));
        inject(&mut prefix);
        while prefix.round() < ck.round() {
            prefix.step();
        }
        let mut stream = prefix.into_sink().into_inner();
        let mut resumed = make()
            .resume_with_sink(&ck, JsonlSink::new(Vec::new()))
            .unwrap();
        resumed.run();
        let resumed = resumed.into_sink().into_inner();
        duplicates += String::from_utf8_lossy(&resumed)
            .matches("\"event\":\"duplicate_drop\"")
            .count();
        stream.extend_from_slice(&resumed);
        assert!(
            stream == straight,
            "resumed at round {}: the event stream differs",
            ck.round()
        );
        if null.is_complete() || null.round() >= null.config().max_rounds {
            break;
        }
        null.step();
        counter.step();
    }
    assert!(duplicates > 0, "no resumed run dropped a duplicate");
}

/// `run_until_idle` must agree with `run()` on every workload: all
/// fourteen quiesce within their round budget, so ignoring the budget
/// changes nothing — same digest, same round count.
#[test]
fn run_until_idle_agrees_with_run_on_every_workload() {
    for w in workloads() {
        let mut budgeted = (w.builder)().build();
        inject_all(&mut budgeted, &w);
        let budgeted = budgeted.run();
        let mut idle = (w.builder)().build();
        inject_all(&mut idle, &w);
        let idle = idle.run_until_idle();
        assert_eq!(
            digest(&idle),
            digest(&budgeted),
            "{}: run_until_idle diverged from run()",
            w.name
        );
        assert_eq!(idle.rounds_executed, budgeted.rounds_executed, "{}", w.name);
        assert_eq!(
            idle.quiescent_rounds, budgeted.quiescent_rounds,
            "{}",
            w.name
        );
        assert!(
            idle.completed,
            "{}: run_until_idle must reach quiescence",
            w.name
        );
    }
}

/// `run_until_idle` after a mid-run resume also matches the straight
/// run — the quiescence condition is restored, not recomputed wrongly.
#[test]
fn run_until_idle_after_resume_matches() {
    let w = &workloads()[1]; // grid8_gossip_under_faults: the richest
    let (checkpoints, want) = checkpoints_and_digest(w);
    let mid = &checkpoints[checkpoints.len() / 2];
    let mut resumed = (w.builder)().resume(mid).unwrap();
    assert_eq!(digest(&resumed.run_until_idle()), want);
}

/// Save/load file round-trip: a checkpoint written to disk resumes
/// identically to the in-memory one.
#[test]
fn checkpoint_file_round_trip_resumes_identically() {
    let w = &workloads()[3]; // torus_structural_overflow
    let (checkpoints, want) = checkpoints_and_digest(w);
    let ck = &checkpoints[checkpoints.len() / 2];
    let path = std::env::temp_dir().join(format!(
        "noc-checkpoint-roundtrip-{}.ckpt",
        std::process::id()
    ));
    ck.save(&path).unwrap();
    let loaded = Checkpoint::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(&loaded, ck);
    let mut resumed = (w.builder)().resume(&loaded).unwrap();
    assert_eq!(digest(&resumed.run()), want);
}

/// Resume refuses a builder whose configuration differs from the one
/// the checkpoint was taken under.
#[test]
fn resume_rejects_mismatched_configuration() {
    let w = &workloads()[5]; // grid6_with_crash_schedule
    let (checkpoints, _) = checkpoints_and_digest(w);
    let ck = &checkpoints[1];
    let wrong_seed = (w.builder)().seed(999).resume(ck);
    assert_eq!(
        wrong_seed.err(),
        Some(CheckpointError::ConfigMismatch),
        "a different seed must be rejected"
    );
    let wrong_topology = SimulationBuilder::new(Topology::grid(5, 5))
        .forward_probability(0.6)
        .seed(5)
        .resume(ck);
    assert_eq!(
        wrong_topology.err(),
        Some(CheckpointError::ConfigMismatch),
        "a different topology must be rejected"
    );
}

/// Resuming a checkpoint taken at one shard count under another is
/// explicitly supported: the capture-side shard count is invisible.
#[test]
fn checkpoints_taken_sharded_resume_sequentially_and_back() {
    let w = &workloads()[1]; // grid8_gossip_under_faults
    let (_, want) = checkpoints_and_digest(w);
    let mut sharded = (w.builder)().shards(4).build();
    inject_all(&mut sharded, w);
    for _ in 0..6 {
        sharded.step();
    }
    let ck = sharded.checkpoint();
    let mut sequential = (w.builder)().shards(1).resume(&ck).unwrap();
    assert_eq!(
        digest(&sequential.run()),
        want,
        "sharded capture → sequential resume"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random checkpoint rounds × shard counts on a randomized faulty
    /// grid: resumption is byte-identical wherever you cut.
    #[test]
    fn random_checkpoint_rounds_resume_identically(
        seed in 0u64..1_000,
        p in 0.3f64..0.9,
        ttl in 6u8..14,
        checkpoint_round in 0u64..20,
        shards in 1usize..9,
    ) {
        let model = FaultModel::builder()
            .p_upset(0.1)
            .sigma_synch(0.15)
            .build()
            .unwrap();
        let make = || {
            SimulationBuilder::new(Topology::grid(4, 4))
                .forward_probability(p)
                .ttl(ttl)
                .max_rounds(30)
                .fault_model(model)
                .seed(seed)
        };
        let inject = |sim: &mut Simulation| {
            sim.inject(NodeId(0), NodeId(15), b"prop".to_vec());
            sim.inject(NodeId(12), NodeId(3), b"q".to_vec());
        };
        let mut straight = make().build();
        inject(&mut straight);
        let want = digest(&straight.run());

        let mut sim = make().build();
        inject(&mut sim);
        while sim.round() < checkpoint_round
            && !sim.is_complete()
            && sim.round() < sim.config().max_rounds
        {
            sim.step();
        }
        let ck = Checkpoint::from_bytes(&sim.checkpoint().to_bytes()).unwrap();
        let mut resumed = make().shards(shards).resume(&ck).unwrap();
        prop_assert_eq!(digest(&resumed.run()), want);
    }
}
