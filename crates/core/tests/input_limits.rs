//! Limits are enforced where input enters the engine —
//! `SimulationBuilder::build*`, `SimulationBuilder::resume`,
//! `Simulation::inject` and an IP core's outbox — not rounds later by an
//! assert inside the frame encoder or a panic inside a Bernoulli draw —
//! and a value that is let in costs bounded time.

use noc_fabric::{IpContext, IpCore, MessageId, NodeId, Topology, MAX_NODES, MAX_PAYLOAD_BYTES};
use noc_faults::{AdversarialScenario, ByzantineMode, FaultModel};
use stochastic_noc::{Checkpoint, CheckpointError, SimulationBuilder, StochasticConfig};

#[test]
fn the_largest_payload_and_topology_are_accepted() {
    let side = 256;
    assert_eq!(side * side, MAX_NODES);
    let mut sim = SimulationBuilder::new(Topology::grid(side, side))
        .config(StochasticConfig::flooding(2).with_max_rounds(4))
        .build();
    let last = NodeId(MAX_NODES - 1);
    let id = sim.inject(last, NodeId(MAX_NODES - 2), vec![7; MAX_PAYLOAD_BYTES]);
    sim.inject(last, last, vec![7; MAX_PAYLOAD_BYTES]);
    assert!(sim.run().delivered(id));
}

#[test]
#[should_panic(expected = "exceeds the wire format's 65535-byte limit")]
fn oversized_payload_is_rejected_at_inject() {
    let mut sim = SimulationBuilder::square_grid(2).build();
    sim.inject(NodeId(0), NodeId(3), vec![0; MAX_PAYLOAD_BYTES + 1]);
}

#[test]
#[should_panic(expected = "exceeds the wire format's 65535-byte limit")]
fn oversized_loopback_payload_is_rejected_at_inject() {
    let mut sim = SimulationBuilder::square_grid(2).build();
    sim.inject(NodeId(1), NodeId(1), vec![0; MAX_PAYLOAD_BYTES + 1]);
}

#[test]
#[should_panic(expected = "exceeds the wire format's 65535-byte limit")]
fn oversized_payload_from_an_ip_core_is_rejected_as_it_leaves_the_outbox() {
    struct Shouter;
    impl IpCore for Shouter {
        fn on_round(&mut self, ctx: &mut IpContext) {
            ctx.send(NodeId(3), vec![0; MAX_PAYLOAD_BYTES + 1]);
        }
    }
    let mut sim = SimulationBuilder::square_grid(2)
        .with_ip(NodeId(0), Box::new(Shouter))
        .build();
    sim.step();
}

/// Fault-free, this frame is never built: the encoder's assert would
/// never run, so `inject` is what refuses the index.
#[test]
#[should_panic(expected = "n65536 outside topology")]
fn destination_beyond_the_node_field_is_rejected_at_inject() {
    let mut sim = SimulationBuilder::square_grid(2).build();
    sim.inject(NodeId(0), NodeId(MAX_NODES), vec![1]);
}

/// Index 20 fits the wire format's node field but names no tile of a
/// 4×4 grid: a message to it would flood until its TTL ran out.
#[test]
#[should_panic(expected = "n20 outside topology")]
fn destination_outside_the_topology_is_rejected_at_inject() {
    let mut sim = SimulationBuilder::square_grid(4).build();
    sim.inject(NodeId(0), NodeId(20), vec![1]);
}

/// Not an index-out-of-bounds in the liveness lookup.
#[test]
#[should_panic(expected = "n20 outside topology")]
fn source_outside_the_topology_is_rejected_at_inject() {
    let mut sim = SimulationBuilder::square_grid(4).build();
    sim.inject(NodeId(20), NodeId(0), vec![1]);
}

#[test]
#[should_panic(expected = "n65536 outside topology")]
fn destination_beyond_the_node_field_from_an_ip_core_is_rejected_as_it_leaves_the_outbox() {
    struct Misaddresser;
    impl IpCore for Misaddresser {
        fn on_round(&mut self, ctx: &mut IpContext) {
            ctx.send(NodeId(MAX_NODES), vec![1]);
        }
    }
    let mut sim = SimulationBuilder::square_grid(2)
        .config(StochasticConfig::flooding(2).with_max_rounds(4))
        .with_ip(NodeId(0), Box::new(Misaddresser))
        .build();
    sim.run();
}

#[test]
#[should_panic(expected = "the wire format addresses at most 65536")]
fn topology_beyond_the_node_field_is_rejected_at_build() {
    let _ = SimulationBuilder::new(Topology::grid(257, 256)).build();
}

/// A hand-built model bypasses `FaultModelBuilder::build`; every field
/// is `pub`.
fn hand_built(edit: impl FnOnce(&mut FaultModel)) -> FaultModel {
    let mut model = FaultModel::none();
    edit(&mut model);
    model
}

#[test]
#[should_panic(expected = "invalid fault model: p_upset = NaN")]
fn nan_probability_in_a_hand_built_model_is_rejected_at_build() {
    let _ = SimulationBuilder::square_grid(2)
        .fault_model(hand_built(|m| m.p_upset = f64::NAN))
        .build();
}

#[test]
#[should_panic(expected = "invalid fault model: sigma_synch = inf")]
fn infinite_sigma_in_a_hand_built_model_is_rejected_at_build() {
    let _ = SimulationBuilder::square_grid(2)
        .fault_model(hand_built(|m| m.sigma_synch = f64::INFINITY))
        .build();
}

/// A finite σ of 1e300 rounds is let in. Every tile's every round then
/// slips more boundaries than a counter holds; stepping takes the time
/// it takes at σ = 0.1, and the slip counts saturate.
#[test]
fn astronomic_sigma_steps_in_bounded_time_with_saturated_slip_counts() {
    let run = |shards: usize| {
        let mut sim = SimulationBuilder::square_grid(2)
            .config(StochasticConfig::flooding(8).with_max_rounds(16))
            .fault_model(hand_built(|m| m.sigma_synch = 1e300))
            .shards(shards)
            .seed(5)
            .build();
        let id = sim.inject(NodeId(0), NodeId(3), vec![1, 2, 3]);
        let report = sim.run();
        assert!(report.delivered(id), "slips delay frames, they drop none");
        assert_eq!(report.clock_slips, u64::MAX);
        report
    };
    assert_eq!(format!("{:?}", run(1)), format!("{:?}", run(2)));
}

/// A 2×2 simulation under clock skew, stepped until the skew sampler
/// holds a Box–Muller spare, as checkpoint bytes — with the offsets of
/// the spare and of tile 0's accumulated skew (laid out as in format v1).
fn skewed_checkpoint() -> (impl Fn() -> SimulationBuilder, Vec<u8>, usize, usize) {
    let builder = || {
        SimulationBuilder::square_grid(2)
            .config(StochasticConfig::flooding(8).with_max_rounds(32))
            .fault_model(FaultModel::builder().sigma_synch(0.2).build().unwrap())
            .seed(5)
    };
    let mut sim = builder().build();
    sim.inject(NodeId(0), NodeId(3), vec![1, 2, 3]);
    // magic, version, digest, round, next id, started, completed, rng.
    let spare_tag = 8 + 4 + 8 + 8 + 8 + 1 + 1 + 32;
    let bytes = loop {
        sim.step();
        let bytes = sim.checkpoint().to_bytes();
        if bytes[spare_tag] == 1 {
            break bytes;
        }
    };
    let (n, m) = (4, 8);
    // spare, three tallies, three empty adversary lists, the two
    // liveness vectors, the clock count.
    let skew = spare_tag + 9 + 24 + 24 + (8 + n) + (8 + m) + 8;
    let read = |at: usize| f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    assert!(read(spare_tag + 1).is_finite(), "spare offset drifted");
    assert!(
        read(skew) != 0.0 && read(skew).abs() <= 0.5,
        "skew offset drifted: {}",
        read(skew)
    );
    (builder, bytes, spare_tag + 1, skew)
}

fn resume_with(
    builder: &impl Fn() -> SimulationBuilder,
    bytes: &[u8],
    at: usize,
    value: f64,
) -> Result<(), CheckpointError> {
    let mut bytes = bytes.to_vec();
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let checkpoint = Checkpoint::from_bytes(&bytes).expect("still well-formed");
    builder().resume(&checkpoint).map(|mut sim| {
        sim.run();
    })
}

#[test]
fn a_checkpoint_whose_clock_skew_is_outside_the_range_advance_keeps_is_rejected() {
    let (builder, bytes, _, skew) = skewed_checkpoint();
    assert_eq!(resume_with(&builder, &bytes, skew, 0.25), Ok(()));
    assert_eq!(resume_with(&builder, &bytes, skew, 0.5), Ok(()));
    for hostile in [1e300, -1e300, f64::INFINITY, f64::NAN, -0.5, 0.75] {
        assert_eq!(
            resume_with(&builder, &bytes, skew, hostile),
            Err(CheckpointError::Mismatch("clock skew outside (-0.5, 0.5]")),
            "skew {hostile}"
        );
    }
}

#[test]
fn a_checkpoint_whose_gaussian_spare_is_not_finite_is_rejected() {
    let (builder, bytes, spare, _) = skewed_checkpoint();
    assert_eq!(resume_with(&builder, &bytes, spare, -1.5), Ok(()));
    for hostile in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        assert_eq!(
            resume_with(&builder, &bytes, spare, hostile),
            Err(CheckpointError::Mismatch("non-finite Gaussian spare")),
            "spare {hostile}"
        );
    }
}

/// A 4×4 flood of one message after two rounds, as checkpoint bytes, with
/// how many tiles have heard of it.
fn flood_checkpoint() -> (impl Fn() -> SimulationBuilder, Vec<u8>, u64) {
    let builder = || {
        SimulationBuilder::square_grid(4)
            .config(StochasticConfig::flooding(8))
            .seed(5)
    };
    let mut sim = builder().build();
    let id = sim.inject(NodeId(0), NodeId(15), vec![1, 2, 3]);
    sim.step();
    sim.step();
    let informed = sim.informed_count(id) as u64;
    assert!(informed > 1);
    (builder, sim.checkpoint().to_bytes(), informed)
}

fn resume_patched(
    builder: &impl Fn() -> SimulationBuilder,
    bytes: &[u8],
    at: usize,
    value: u64,
) -> Result<(), CheckpointError> {
    let mut bytes = bytes.to_vec();
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let checkpoint = Checkpoint::from_bytes(&bytes).expect("still well-formed");
    builder().resume(&checkpoint).map(drop)
}

/// The offset of the audience section's window count in a checkpoint of
/// an `n`-tile, `m`-link simulation with no adversary: header, next id,
/// two flags, the fault stream, no spare, three tallies, three empty
/// adversary lists, the two liveness vectors, the clocks and the egress
/// cursors.
fn windows_at(n: usize, m: usize) -> usize {
    28 + 8 + 2 + 32 + 1 + 24 + 24 + (8 + n) + (8 + m) + (8 + 16 * n) + (8 + n)
}

/// A message's informed count is its window's population, read back
/// whole. A window no engine holds — one that names a tile past the
/// fabric, or is wider than its tiles — is refused, and so is one filed
/// under another id, which leaves the message's copies unseen.
#[test]
fn an_audience_window_no_engine_holds_is_refused() {
    let (builder, bytes, informed) = flood_checkpoint();
    let windows = windows_at(16, 48);
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    assert_eq!(word(windows), 1, "one window");
    // Its id, first word and word count, then the 4×4 fabric's one word.
    let (id, first, tiles) = (windows + 8, windows + 16, windows + 28);
    assert_eq!(
        (word(id), word(first + 4)),
        (0, 1),
        "window offsets drifted"
    );
    assert_eq!(u64::from(word(tiles).count_ones()), informed);
    let resumed = builder()
        .resume(&Checkpoint::from_bytes(&bytes).unwrap())
        .unwrap();
    assert_eq!(resumed.informed_count(MessageId(0)) as u64, informed);
    let refused = |why| Err(CheckpointError::Mismatch(why));
    let past = refused("an audience window reaches past the fabric");
    assert_eq!(resume_patched(&builder, &bytes, tiles, 1 << 16), past);
    assert_eq!(
        resume_patched(&builder, &bytes, tiles, word(tiles) | 1 << 40),
        past
    );
    let mut moved = bytes.clone();
    moved[first..first + 4].copy_from_slice(&1u32.to_le_bytes());
    let moved = Checkpoint::from_bytes(&moved).unwrap();
    assert_eq!(builder().resume(&moved).map(drop), past);
    assert_eq!(
        resume_patched(&builder, &bytes, tiles, 0),
        refused("an audience window is wider than its tiles")
    );
    assert_eq!(
        resume_patched(&builder, &bytes, id, 1),
        refused("buffered message repeats or was never seen")
    );
}

/// `next_message_id` sizes the engine's per-message state, so a value the
/// records that follow could not back is refused before anything is
/// allocated: at 2⁶² ids of 48 bytes each, sizing first would abort the
/// process. A value the bytes could back but the records do not name is
/// refused too.
#[test]
fn a_next_message_id_the_records_do_not_back_is_refused() {
    let (builder, bytes, _) = flood_checkpoint();
    // Magic, version, digest, round.
    let next_id = 8 + 4 + 8 + 8;
    assert_eq!(resume_patched(&builder, &bytes, next_id, 1), Ok(()));
    for hostile in [1 << 62, u64::MAX] {
        assert_eq!(
            resume_patched(&builder, &bytes, next_id, hostile),
            Err(CheckpointError::Mismatch("more message ids than records")),
            "next id {hostile}"
        );
    }
    for hostile in [0, 2] {
        assert_eq!(
            resume_patched(&builder, &bytes, next_id, hostile),
            Err(CheckpointError::Mismatch(
                "records are not the ids injected"
            )),
            "next id {hostile}"
        );
    }
}

/// An undetected upset can leave any 16-bit node index in the header a
/// tile buffers, so `resume` holds a buffered message to the wire format,
/// not to the topology: a destination of 40 000 in a 4×4 run is state the
/// engine reaches, and it resumes and re-captures byte for byte.
#[test]
fn a_buffered_destination_outside_the_topology_resumes() {
    let builder = || {
        SimulationBuilder::square_grid(4)
            .config(StochasticConfig::flooding(8))
            .seed(5)
    };
    let payload = b"patch me";
    let mut sim = builder().build();
    sim.inject(NodeId(0), NodeId(15), payload.to_vec());
    sim.step();
    let mut bytes = sim.checkpoint().to_bytes();
    // A body is written once, where a copy first names it, as id, source,
    // destination and the length-prefixed payload.
    let mut patched = 0;
    for at in 0..bytes.len() - 24 {
        if bytes[at..at + 8] == 15u64.to_le_bytes()
            && bytes[at + 8..at + 16] == 8u64.to_le_bytes()
            && bytes[at + 16..at + 24] == *payload
        {
            bytes[at..at + 8].copy_from_slice(&40_000u64.to_le_bytes());
            patched += 1;
        }
    }
    assert_eq!(patched, 1, "the message's body, written once");
    let checkpoint = Checkpoint::from_bytes(&bytes).expect("well-formed");
    let mut resumed = builder().resume(&checkpoint).expect("fits the wire format");
    assert_eq!(resumed.checkpoint().to_bytes(), bytes);
    resumed.run();
}

/// A 256×256 checkpoint taken before anything was injected, in which
/// tiles 0 and n − 1 have each seen the ids `0..ids` — ids no `inject`
/// handed out, as an undetected upset can leave in a header. Each such id
/// is a window of n / 64 words, 8 KiB, between its two tiles, written
/// whole.
fn far_apart_strays(ids: u64) -> (impl Fn() -> SimulationBuilder, Vec<u8>) {
    let builder = || SimulationBuilder::new(Topology::grid(256, 256));
    let bytes = builder().build().checkpoint().to_bytes();
    let (n, m) = (MAX_NODES, 2 * 2 * 256 * 255);
    let windows = windows_at(n, m);
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    assert_eq!(word(windows), 0, "audience section offset drifted");
    assert_eq!(word(windows + 8), n as u64, "then the buffers' count");
    let mut patched = bytes[..windows].to_vec();
    patched.extend_from_slice(&ids.to_le_bytes());
    for id in 0..ids {
        patched.extend_from_slice(&id.to_le_bytes());
        patched.extend_from_slice(&0u32.to_le_bytes());
        patched.extend_from_slice(&((n / 64) as u64).to_le_bytes());
        let mut words = vec![0u64; n / 64];
        (words[0], words[n / 64 - 1]) = (1, 1 << 63);
        patched.extend(words.iter().flat_map(|word| word.to_le_bytes()));
    }
    patched.extend_from_slice(&bytes[windows + 8..]);
    (builder, patched)
}

/// Each stray id seen at tiles 0 and n − 1 is 8 KiB of audience, and
/// 8 KiB of checkpoint: a window's words are bytes of the input, so what
/// the windows allocate the input backs. A few resume, and re-capture
/// byte for byte; a window that claims more words than the input holds —
/// 32 MiB, the windows of 4 096 strays, in a checkpoint of 1.3 MB — is
/// refused by the walk that validates the input, before anything is
/// allocated for it.
#[test]
fn stray_ids_whose_windows_the_checkpoint_cannot_back_are_refused() {
    let (builder, bytes) = far_apart_strays(64);
    let checkpoint = Checkpoint::from_bytes(&bytes).expect("well-formed");
    let resumed = builder()
        .resume(&checkpoint)
        .expect("64 windows are 512 KiB");
    assert_eq!(resumed.informed_count(MessageId(63)), 2);
    assert_eq!(resumed.checkpoint().to_bytes(), bytes);

    let (_, mut bytes) = far_apart_strays(1);
    // The window count, the id and the first word, then the word count.
    let words = windows_at(MAX_NODES, 2 * 2 * 256 * 255) + 8 + 8 + 4;
    bytes[words..words + 8].copy_from_slice(&(4_096u64 * 1_024).to_le_bytes());
    assert_eq!(
        Checkpoint::from_bytes(&bytes).map(drop),
        Err(CheckpointError::Truncated)
    );
}

/// A 3×3 flood from tile 0 in which the corners 2 and 6 are compromised
/// replayers, stepped until both hold a replay slot, as checkpoint bytes,
/// with the offsets of the two slots' tile words.
fn replay_checkpoint() -> (impl Fn() -> SimulationBuilder, Vec<u8>, [usize; 2]) {
    let builder = || {
        let replayers = AdversarialScenario::builder()
            .byzantine_tile(2)
            .byzantine_tile(6)
            .byzantine_mode(ByzantineMode::Replay)
            .byzantine_activation(0.5)
            .build()
            .unwrap();
        SimulationBuilder::square_grid(3)
            .config(StochasticConfig::flooding(8))
            .adversary(replayers)
            .seed(5)
    };
    // Header, next id, two flags, the fault stream, no spare, three
    // tallies, no chaos streams, two Byzantine streams.
    let slots = 28 + 8 + 2 + 32 + 1 + 24 + 8 + (8 + 2 * 40);
    let word = |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let mut sim = builder().build();
    sim.inject(NodeId(0), NodeId(8), vec![1, 2, 3]);
    let bytes = loop {
        sim.step();
        let bytes = sim.checkpoint().to_bytes();
        if word(&bytes, slots) == 2 {
            break bytes;
        }
    };
    // A slot is its tile, its message id and its length-prefixed frame.
    let first = slots + 8;
    let second = first + 16 + 8 + word(&bytes, first + 16) as usize;
    assert_eq!(
        (word(&bytes, first), word(&bytes, second)),
        (2, 6),
        "slot offsets drifted"
    );
    (builder, bytes, [first, second])
}

/// Only a compromised tile forwards a frame it could replay; a slot filed
/// at any other tile was once resumed, and never read.
#[test]
fn a_replay_slot_at_an_honest_tile_is_refused() {
    let (builder, bytes, [first, _]) = replay_checkpoint();
    assert_eq!(resume_patched(&builder, &bytes, first, 2), Ok(()));
    for honest in [0, 4, 8, 1_000] {
        assert_eq!(
            resume_patched(&builder, &bytes, first, honest),
            Err(CheckpointError::Mismatch(
                "byzantine replay slot at an honest tile"
            )),
            "tile {honest}"
        );
    }
}

/// Capture lists each compromised tile's slot once, in tile order.
#[test]
fn replay_slots_listed_twice_or_out_of_tile_order_are_refused() {
    let (builder, bytes, [first, second]) = replay_checkpoint();
    let refused = Err(CheckpointError::Mismatch(
        "byzantine replay slots out of tile order",
    ));
    assert_eq!(
        resume_patched(&builder, &bytes, second, 2),
        refused,
        "twice"
    );
    assert_eq!(resume_patched(&builder, &bytes, first, 6), refused, "twice");
    let mut swapped = bytes.clone();
    swapped[first..first + 8].copy_from_slice(&6u64.to_le_bytes());
    swapped[second..second + 8].copy_from_slice(&2u64.to_le_bytes());
    assert_eq!(
        resume_patched(&builder, &swapped, first, 6),
        refused,
        "swapped"
    );
}

/// A 3×3 checkpoint after one flooded round whose tile's egress cursor is
/// set to message 0 — a cursor only a tile with an egress limit moves.
fn resume_with_a_cursor_at(
    builder: impl Fn() -> SimulationBuilder,
    tile: usize,
) -> Result<(), CheckpointError> {
    let mut sim = builder().build();
    sim.inject(NodeId(0), NodeId(8), vec![1, 2, 3]);
    sim.step();
    let bytes = sim.checkpoint().to_bytes();
    let (n, m) = (9, 24);
    // Header, next id, two flags, the fault stream, no spare, three
    // tallies, three empty adversary lists, the two liveness vectors and
    // the clocks; then the cursors' count.
    let cursors = 28 + 8 + 2 + 32 + 1 + 24 + 24 + (8 + n) + (8 + m) + (8 + 16 * n);
    assert_eq!(bytes[cursors..cursors + 8], (n as u64).to_le_bytes());
    let at = cursors + 8 + tile;
    assert_eq!(bytes[at], 0, "the cursor is unset");
    let mut patched = bytes[..at].to_vec();
    patched.push(1);
    patched.extend_from_slice(&0u64.to_le_bytes());
    patched.extend_from_slice(&bytes[at + 1..]);
    let checkpoint = Checkpoint::from_bytes(&patched).expect("well-formed");
    builder().resume(&checkpoint).map(drop)
}

#[test]
fn an_egress_cursor_at_a_tile_without_a_limit_is_refused() {
    let flood = || {
        SimulationBuilder::square_grid(3)
            .config(StochasticConfig::flooding(8))
            .seed(5)
    };
    let bridged = move || flood().egress_limit(NodeId(4), 1);
    let refused = Err(CheckpointError::Mismatch(
        "egress cursor at a tile without a limit",
    ));
    assert_eq!(resume_with_a_cursor_at(bridged, 4), Ok(()));
    assert_eq!(resume_with_a_cursor_at(bridged, 0), refused);
    assert_eq!(resume_with_a_cursor_at(flood, 4), refused);
}
