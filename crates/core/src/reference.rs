//! A deliberately naive reference implementation of the gossip engine.
//!
//! This module preserves the *pre-optimization* data flow of
//! [`Simulation::step`](crate::Simulation::step) — every frame is a fresh
//! `Vec<u8>` clone, every tile re-encodes every buffered message each
//! round, and every round allocates fresh inbox/delivery vectors. It
//! exists as the **specification oracle**: the zero-copy engine (shared
//! wire-table frames, per-round CRC memoization, reusable round arenas)
//! must be observably indistinguishable from this one: same `(topology,
//! config, fault model, seed)` → byte-identical [`SimulationReport`].
//! The `engine_equivalence` property test drives both across random
//! workloads and compares every counter and per-message record, and
//! `noc_benchmark` counts disagreements as `reference.oracle_mismatches`.
//!
//! It intentionally supports only the protocol core — injected
//! messages, fault injection, crash schedules — not IP cores, egress
//! limits or per-tile probability overrides, which are orthogonal to the
//! hot-path data flow.
//!
//! Determinism parity relies on consuming the shared RNG stream in
//! exactly the same order as the optimized engine: alive-tile then
//! alive-link sampling at build; per-frame overflow draws in receive
//! order; per-tile skew, then per-(message, link) forwarding and upset
//! draws in buffer order. Adversarial mechanisms follow the same
//! contract from their own derived streams: per-link chaos draws (delay
//! then reorder, per surviving frame), and per-tile Byzantine draws
//! (activation, then forge offset and mask) — see
//! [`ReferenceSimulation::new_with_adversary`].

#![expect(
    clippy::disallowed_methods,
    reason = "the oracle seeds and draws the streams the engine does, in the engine's order, on one thread; no fan-out here"
)]

use noc_energy::{Bits, TechnologyLibrary};
use noc_fabric::{
    ClockDomain, LinkId, Message, MessageId, NodeId, ReceiveBuffer, Topology, WireCodec,
};
use noc_faults::{
    AdversarialScenario, ByzantineMode, CrashSchedule, FaultInjector, FaultModel, OverflowMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::collections::{BTreeMap, BTreeSet};

use crate::config::StochasticConfig;
use crate::engine::RoundStats;
use crate::metrics::{MessageRecord, SimulationReport};
use crate::seed::{derive_labeled_seed, derive_trial_seed};
use crate::send_buffer::SendBuffer;

/// A frame in flight on a link, owned byte-for-byte (the naive layout).
#[derive(Debug, Clone)]
struct Frame {
    bytes: Vec<u8>,
    scrambled: bool,
}

/// The clone-everything gossip engine kept as the behavioural oracle.
///
/// # Examples
///
/// ```
/// use noc_fabric::{NodeId, Topology};
/// use noc_faults::{CrashSchedule, FaultModel};
/// use stochastic_noc::reference::ReferenceSimulation;
/// use stochastic_noc::StochasticConfig;
///
/// let mut sim = ReferenceSimulation::new(
///     Topology::grid(4, 4),
///     StochasticConfig::flooding(12),
///     FaultModel::none(),
///     CrashSchedule::new(),
///     1,
/// );
/// let id = sim.inject(NodeId(5), NodeId(11), b"x".to_vec());
/// let report = sim.run();
/// assert!(report.delivered(id));
/// ```
pub struct ReferenceSimulation {
    topology: Topology,
    config: StochasticConfig,
    crash_schedule: CrashSchedule,
    adversary: AdversarialScenario,
    chaos_streams: Vec<StdRng>,
    byz_streams: BTreeMap<usize, StdRng>,
    byz_last_frame: Vec<Option<(MessageId, Vec<u8>)>>,
    injector: FaultInjector,
    codec: WireCodec,
    tiles_alive: Vec<bool>,
    links_alive: Vec<bool>,
    buffers: Vec<SendBuffer>,
    clocks: Vec<ClockDomain>,
    inbox_next: Vec<Vec<Frame>>,
    inbox_later: Vec<Vec<Frame>>,
    terminated: BTreeSet<MessageId>,
    report: SimulationReport,
    round: u64,
    next_message_id: u64,
    completed: bool,
}

impl ReferenceSimulation {
    /// Builds a reference simulation, sampling initial tile/link health
    /// from the seeded injector exactly like the optimized builder.
    pub fn new(
        topology: impl Into<Topology>,
        config: StochasticConfig,
        fault_model: FaultModel,
        crash_schedule: CrashSchedule,
        seed: u64,
    ) -> Self {
        Self::new_with_adversary(
            topology,
            config,
            fault_model,
            crash_schedule,
            AdversarialScenario::benign(),
            seed,
        )
    }

    /// Builds a reference simulation under an adversarial scenario,
    /// deriving the same per-link chaos and per-tile Byzantine streams
    /// as [`crate::SimulationBuilder::adversary`].
    pub fn new_with_adversary(
        topology: impl Into<Topology>,
        config: StochasticConfig,
        fault_model: FaultModel,
        crash_schedule: CrashSchedule,
        adversary: AdversarialScenario,
        seed: u64,
    ) -> Self {
        let topology = topology.into();
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        adversary
            .validate()
            .unwrap_or_else(|e| panic!("invalid adversarial scenario: {e}"));
        let mut injector = FaultInjector::new(fault_model, seed);
        let n = topology.node_count();
        let m = topology.link_count();
        let tiles_alive = injector.sample_alive_tiles(n);
        let links_alive = injector.sample_alive_links(m);
        let mut crash_schedule = crash_schedule;
        for (tile, at) in adversary.permanent.tile_events() {
            crash_schedule.kill_tile(tile, at);
        }
        for (link, at) in adversary.permanent.link_events() {
            crash_schedule.kill_link(link, at);
        }
        let chaos_streams: Vec<StdRng> = if adversary.chaos.is_active() {
            let base = derive_labeled_seed(seed, "adversary-link");
            (0..m)
                .map(|link| StdRng::seed_from_u64(derive_trial_seed(base, link as u64)))
                .collect()
        } else {
            Vec::new()
        };
        let byz_streams: BTreeMap<usize, StdRng> = if adversary.byzantine.is_active() {
            let base = derive_labeled_seed(seed, "adversary-tile");
            adversary
                .byzantine
                .tiles
                .iter()
                .map(|&tile| {
                    (
                        tile,
                        StdRng::seed_from_u64(derive_trial_seed(base, tile as u64)),
                    )
                })
                .collect()
        } else {
            BTreeMap::new()
        };
        Self {
            report: SimulationReport::new(TechnologyLibrary::NOC_LINK_0_25UM),
            buffers: (0..n).map(|_| SendBuffer::new()).collect(),
            clocks: vec![ClockDomain::new(); n],
            inbox_next: vec![Vec::new(); n],
            inbox_later: vec![Vec::new(); n],
            terminated: BTreeSet::new(),
            tiles_alive,
            links_alive,
            topology,
            config,
            crash_schedule,
            adversary,
            chaos_streams,
            byz_streams,
            byz_last_frame: vec![None; n],
            injector,
            codec: WireCodec::default(),
            round: 0,
            next_message_id: 0,
            completed: false,
        }
    }

    /// Frames with `codec` instead of the default CRC-16, like
    /// [`crate::SimulationBuilder::wire_codec`]; set before injecting.
    pub fn with_wire_codec(mut self, codec: WireCodec) -> Self {
        self.codec = codec;
        self
    }

    /// The current round (number of rounds fully executed).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// True once the network has drained.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// Has this tile's send buffer ever seen message `id`? Read from the
    /// buffer's own seen-set, which the engine does not use.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the topology.
    pub fn node_informed(&self, node: NodeId, id: MessageId) -> bool {
        self.buffers[node.index()].has_seen(id)
    }

    fn tile_alive(&self, node: NodeId) -> bool {
        self.tiles_alive[node.index()] && !self.crash_schedule.tile_dead(node.index(), self.round)
    }

    /// Injects a message, mirroring [`crate::Simulation::inject`].
    pub fn inject(&mut self, source: NodeId, destination: NodeId, payload: Vec<u8>) -> MessageId {
        let id = MessageId(self.next_message_id);
        self.next_message_id += 1;
        let frame_bits = self.codec.frame_bits(payload.len());
        self.report.record_injection(MessageRecord {
            id,
            source,
            destination,
            injected_round: self.round,
            delivered_round: None,
            frame_bits,
        });
        let message = Message::new(id, source, destination, self.config.default_ttl, payload);
        if !self.tile_alive(source) {
            return id;
        }
        if destination == source {
            self.report.record_delivery(id, self.round);
            let frame = self.codec.encode(&message);
            self.inbox_next[source.index()].push(Frame {
                bytes: frame,
                scrambled: false,
            });
            return id;
        }
        self.buffers[source.index()].insert(message);
        id
    }

    /// Runs until the network drains or the round budget is exhausted.
    pub fn run(&mut self) -> SimulationReport {
        while !self.completed && self.round < self.config.max_rounds {
            self.step();
        }
        let mut report = self.report.clone();
        report.clock_slips = self
            .clocks
            .iter()
            .fold(0, |sum, clock| sum.saturating_add(clock.slips()));
        report.ttl_expirations = self.buffers.iter().map(SendBuffer::expired_count).sum();
        report
    }

    /// Executes one gossip round with the naive clone-everything data
    /// flow (the pre-optimization hot path, preserved verbatim).
    pub fn step(&mut self) -> RoundStats {
        let round = self.round;
        let n = self.topology.node_count();
        let mut stats = RoundStats {
            round,
            ..RoundStats::default()
        };

        // Shift the delay line, allocating a fresh vector per round.
        let current: Vec<Vec<Frame>> =
            std::mem::replace(&mut self.inbox_next, std::mem::take(&mut self.inbox_later));
        self.inbox_later = vec![Vec::new(); n];

        // Phase 1: receive, fully decoding every accepted frame.
        for (tile, frames) in current.into_iter().enumerate() {
            let node = NodeId(tile);
            if !self.tile_alive(node) {
                self.report.crash_drops += frames.len() as u64;
                continue;
            }
            let accepted = self.apply_overflow(frames);
            for frame in accepted {
                match self.codec.decode(&frame.bytes) {
                    Ok(message) => {
                        if self.terminated.contains(&message.id) {
                            continue;
                        }
                        if frame.scrambled {
                            self.report.upsets_undetected += 1;
                        }
                        let is_new = !self.buffers[tile].has_seen(message.id);
                        if message.destination == node && is_new {
                            self.report.record_delivery(message.id, round);
                            stats.deliveries += 1;
                            if self.config.terminate_on_delivery {
                                self.terminated.insert(message.id);
                            }
                        }
                        self.buffers[tile].insert(message);
                    }
                    Err(_) => {
                        self.report.upsets_detected += 1;
                    }
                }
            }
        }

        // Phase 2 (compute) is empty: the reference carries no IP cores.

        // Phase 3: purge terminated spreads, then age TTLs.
        if self.config.terminate_on_delivery && !self.terminated.is_empty() {
            for buffer in &mut self.buffers {
                for &id in &self.terminated {
                    buffer.remove(id);
                }
            }
        }
        for buffer in &mut self.buffers {
            buffer.age();
        }
        stats.live_messages = self.buffers.iter().map(|b| b.len() as u64).sum();

        // Phase 4: forward, cloning the buffer and re-encoding per tile.
        let p = self.config.forward_probability;
        for tile in 0..n {
            let node = NodeId(tile);
            if !self.tile_alive(node) || self.buffers[tile].is_empty() {
                continue;
            }
            let skew = self.injector.round_skew();
            let slipped = self.clocks[tile].advance(skew) > 0;
            let out_links: Vec<(LinkId, NodeId)> = self.topology.out(node).collect();
            let messages: Vec<Message> = self.buffers[tile].iter().cloned().collect();
            for message in &messages {
                let frame = self.codec.encode(message);
                if self.byz_streams.contains_key(&tile) {
                    self.byz_last_frame[tile] = Some((message.id, frame.clone()));
                }
                for &(link_id, to) in &out_links {
                    if p < 1.0 && !bernoulli(self.injector.rng(), p) {
                        continue;
                    }
                    self.transmit(&mut stats, round, link_id, to, &frame, slipped);
                }
            }
            // Byzantine attack, mirroring the engine's draw order from
            // the tile's dedicated stream: one activation draw per armed
            // round, then (for forgeries) one offset and one mask draw.
            if self.adversary.byzantine.armed(tile, round) && self.byz_streams.contains_key(&tile) {
                let activation_probability = self.adversary.byzantine.activation_probability;
                let activated = self
                    .byz_streams
                    .get_mut(&tile)
                    .map(|stream| bernoulli(stream, activation_probability))
                    .unwrap_or(false);
                if activated {
                    let attack: Option<(MessageId, Vec<u8>)> = match self.adversary.byzantine.mode {
                        ByzantineMode::Forge => {
                            let victim = &messages[0];
                            let mut payload = victim.payload.to_vec();
                            if payload.is_empty() {
                                None
                            } else {
                                use rand::Rng;
                                let (at, mask) = {
                                    let stream = self
                                        .byz_streams
                                        .get_mut(&tile)
                                        .expect("armed Byzantine tile has a stream");
                                    (
                                        stream.gen_range(0..payload.len()),
                                        stream.gen_range(1..=255u64) as u8,
                                    )
                                };
                                payload[at] ^= mask;
                                let forged = Message::new(
                                    victim.id,
                                    victim.source,
                                    victim.destination,
                                    victim.ttl,
                                    payload,
                                );
                                self.report.byzantine_forges += 1;
                                Some((victim.id, self.codec.encode(&forged)))
                            }
                        }
                        ByzantineMode::Replay => {
                            let stored = self.byz_last_frame[tile].clone();
                            if stored.is_some() {
                                self.report.byzantine_replays += 1;
                            }
                            stored
                        }
                    };
                    if let Some((_, frame)) = attack {
                        for &(link_id, to) in &out_links {
                            self.transmit(&mut stats, round, link_id, to, &frame, slipped);
                        }
                    }
                }
            }
        }

        self.round += 1;
        let drained = self.buffers.iter().all(SendBuffer::is_empty)
            && self.inbox_next.iter().all(Vec::is_empty)
            && self.inbox_later.iter().all(Vec::is_empty);
        self.completed = drained;
        self.report.rounds_executed = self.round;
        self.report.completed = self.completed;
        stats
    }

    /// One frame over one link: counting, link death, partition,
    /// upset scrambling, and chaos jitter — the exact per-hop tail the
    /// engine's `transmit_frame` performs, in the same draw order.
    fn transmit(
        &mut self,
        stats: &mut RoundStats,
        round: u64,
        link_id: LinkId,
        to: NodeId,
        frame: &[u8],
        slipped: bool,
    ) {
        stats.transmissions += 1;
        self.report.packets_sent += 1;
        self.report.bits_sent += Bits((frame.len() * 8) as u64);
        let link_dead = !self.links_alive[link_id.index()]
            || self.crash_schedule.link_dead(link_id.index(), round);
        if link_dead {
            self.report.crash_drops += 1;
            return;
        }
        // Partition check is RNG-free and sits after link death, before
        // the upset draw — identical to the engine.
        if self.adversary.partitions.link_cut(link_id.index(), round) {
            self.report.partition_drops += 1;
            return;
        }
        let mut out = Frame {
            bytes: frame.to_vec(),
            scrambled: false,
        };
        if self.injector.upset_occurs() {
            self.injector.scramble(&mut out.bytes);
            out.scrambled = true;
        }
        let mut held = slipped;
        let mut front = false;
        if !self.chaos_streams.is_empty() {
            let chaos = self.adversary.chaos;
            let stream = &mut self.chaos_streams[link_id.index()];
            if bernoulli(stream, chaos.delay_probability) {
                self.report.adversarial_delays += 1;
                held = true;
            }
            if bernoulli(stream, chaos.reorder_probability) {
                self.report.adversarial_reorders += 1;
                front = true;
            }
        }
        let inbox = if held {
            &mut self.inbox_later[to.index()]
        } else {
            &mut self.inbox_next[to.index()]
        };
        if front {
            inbox.insert(0, out);
        } else {
            inbox.push(out);
        }
    }

    fn apply_overflow(&mut self, frames: Vec<Frame>) -> Vec<Frame> {
        match self.injector.model().overflow_mode {
            OverflowMode::Probabilistic => {
                let p = self.injector.model().p_overflow;
                if p == 0.0 {
                    return frames;
                }
                let mut kept = Vec::with_capacity(frames.len());
                for frame in frames {
                    if self.injector.overflow_drop() {
                        self.report.overflow_drops += 1;
                    } else {
                        kept.push(frame);
                    }
                }
                kept
            }
            OverflowMode::Structural { capacity } => {
                let mut buffer = ReceiveBuffer::bounded(capacity);
                for frame in frames {
                    if buffer.push(frame).is_some() {
                        self.report.overflow_drops += 1;
                    }
                }
                buffer.drain().collect()
            }
        }
    }
}

fn bernoulli(rng: &mut rand::rngs::StdRng, p: f64) -> bool {
    use rand::Rng;
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimulationBuilder;
    use noc_faults::ErrorModel;

    /// Formats the observable state of a report for equality checks.
    fn digest(report: &SimulationReport) -> String {
        let mut records: Vec<_> = report.records().collect();
        records.sort_by_key(|r| r.id);
        let mut out = format!(
            "{} {} {} {} {} {} {} {} {} {}",
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
        );
        for r in records {
            out.push_str(&format!(" {}@{:?}", r.id, r.delivered_round));
        }
        out
    }

    #[test]
    fn reference_matches_engine_on_faulty_gossip() {
        let model = FaultModel::builder()
            .p_upset(0.2)
            .p_overflow(0.1)
            .sigma_synch(0.3)
            .error_model(ErrorModel::RandomErrorVector)
            .build()
            .unwrap();
        let config = StochasticConfig::new(0.5, 20).unwrap().with_max_rounds(100);
        let mut reference = ReferenceSimulation::new(
            Topology::grid(8, 8),
            config,
            model,
            CrashSchedule::new(),
            42,
        );
        let mut engine = SimulationBuilder::new(Topology::grid(8, 8))
            .config(config)
            .fault_model(model)
            .seed(42)
            .build();
        reference.inject(NodeId(0), NodeId(63), b"corner".to_vec());
        engine.inject(NodeId(0), NodeId(63), b"corner".to_vec());
        reference.inject(NodeId(9), NodeId(54), b"x".to_vec());
        engine.inject(NodeId(9), NodeId(54), b"x".to_vec());
        assert_eq!(digest(&reference.run()), digest(&engine.run()));
    }

    #[test]
    fn reference_matches_engine_on_crash_schedule() {
        let mut schedule = CrashSchedule::new();
        schedule.kill_tile(7, 0).kill_tile(14, 5).kill_link(3, 8);
        let model = FaultModel::builder().p_upset(0.05).build().unwrap();
        let config = StochasticConfig::new(0.6, 15).unwrap().with_max_rounds(60);
        let mut reference =
            ReferenceSimulation::new(Topology::grid(6, 6), config, model, schedule.clone(), 5);
        let mut engine = SimulationBuilder::new(Topology::grid(6, 6))
            .config(config)
            .fault_model(model)
            .crash_schedule(schedule)
            .seed(5)
            .build();
        reference.inject(NodeId(1), NodeId(34), b"survivor".to_vec());
        engine.inject(NodeId(1), NodeId(34), b"survivor".to_vec());
        reference.inject(NodeId(35), NodeId(0), b"reverse".to_vec());
        engine.inject(NodeId(35), NodeId(0), b"reverse".to_vec());
        assert_eq!(digest(&reference.run()), digest(&engine.run()));
    }

    #[test]
    fn reference_self_delivery_is_instant() {
        let mut sim = ReferenceSimulation::new(
            Topology::grid(4, 4),
            StochasticConfig::default(),
            FaultModel::none(),
            CrashSchedule::new(),
            4,
        );
        let id = sim.inject(NodeId(6), NodeId(6), b"me".to_vec());
        let report = sim.run();
        assert!(report.delivered(id));
        assert_eq!(report.latency(id), Some(0));
    }
}
