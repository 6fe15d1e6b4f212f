//! Tile-partitioned shard workers for the intra-trial parallel engine.
//!
//! The sharded round loop splits the grid into contiguous tile ranges
//! and runs each range's receive/age/forward/file work on a scoped
//! thread. Determinism is preserved by a strict division of labour:
//!
//! * **Every RNG draw happens on the main thread**, in a sequential
//!   pre-pass that walks tiles in exactly the order the single-shard
//!   engine does and records the outcomes (overflow keep/drop verdicts
//!   in a [`ReceiveTape`], transmission outcomes in a [`ForwardTape`]).
//!   The shared fault stream is therefore consumed in the identical
//!   sequence for every shard count, which is what keeps reports
//!   byte-identical across `--shards N`.
//! * **Shard workers are RNG-free.** They execute the recorded
//!   outcomes: CRC decode, dedup, buffer insertion and egress
//!   bucketing. Frames travel as handles into the engine's
//!   [`WireTable`]: the forward pre-pass registers every frame it
//!   plans — scrambled copies included — so the tape carries handles
//!   and workers never encode or scramble.
//! * **Merges walk shards in ascending tile order**, so per-location
//!   event order, report counter accumulation and delivery arbitration
//!   replay the sequential engine's order exactly.
//!
//! The worker functions here are pure with respect to the engine's RNG
//! and report state: they read shared topology/config/fault metadata,
//! mutate only their own tile chunk, and return everything else
//! (events, counter deltas, egress) for the main thread to merge.
//!
//! Fully-deterministic configurations (no upsets, no skew, no chaos, no
//! Byzantine tiles, every effective forwarding probability 0 or 1) skip
//! the forward tape entirely: [`forward_shard_uniform`] recomputes the
//! deterministic outcomes locally — encoding into a per-shard
//! [`WireSegment`](crate::wire::WireSegment) the main thread adopts in
//! shard order — which is the mega-grid flooding fast path the
//! `perf_baseline` gate measures.
//!
//! The same division of labour extends to the wall-clock plane
//! (DESIGN.md §13): **workers never read the clock**. Timing spans for
//! the tape pre-pass, the shard fan-out, and the merges are recorded
//! only on the main thread, bracketing the `run_shards` calls from
//! outside — so installing [`crate::EngineObs`] changes nothing about
//! what a worker computes, and the deterministic plane stays
//! byte-identical with observability enabled.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use noc_fabric::{LinkId, MessageId, NodeId, Topology, WireCodec};
use noc_faults::{AdversarialScenario, CrashSchedule};

use crate::events::{DropSite, SimEvent};
use crate::frontier::TileSet;
use crate::send_buffer::{InsertOutcome, SendBuffer};
use crate::wire::{Frame, Wire, WireSegment, WireTable};

/// Contiguous tile ranges `[lo, hi)` covering `0..n`, one per shard,
/// sized as evenly as integer division allows.
pub(crate) fn shard_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    (0..shards)
        .map(|s| (n * s / shards, n * (s + 1) / shards))
        .collect()
}

/// Splits one `&mut [T]` into per-shard chunks matching `ranges`
/// (which must be contiguous, ascending and cover the slice).
pub(crate) fn split_chunks<'a, T>(
    mut slice: &'a mut [T],
    ranges: &[(usize, usize)],
) -> Vec<&'a mut [T]> {
    let mut chunks = Vec::with_capacity(ranges.len());
    for &(lo, hi) in ranges {
        let (head, tail) = slice.split_at_mut(hi - lo);
        chunks.push(head);
        slice = tail;
    }
    chunks
}

/// One tile's pre-drawn probabilistic-overflow verdicts: `len` booleans
/// starting at `start` in [`ReceiveTape::keeps`], one per arriving
/// frame in arrival order (`true` = keep).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OverflowSpan {
    pub tile: u32,
    pub start: u32,
    pub len: u32,
}

/// The receive phase's pre-drawn RNG outcomes: per-frame overflow
/// keep/drop verdicts for every alive tile with arrivals, in ascending
/// tile order (the exact order the sequential engine draws them).
#[derive(Debug, Default)]
pub(crate) struct ReceiveTape {
    pub spans: Vec<OverflowSpan>,
    pub keeps: Vec<bool>,
}

impl ReceiveTape {
    pub fn clear(&mut self) {
        self.spans.clear();
        self.keeps.clear();
    }
}

/// How a receive worker applies overflow for its tiles.
#[derive(Clone, Copy)]
pub(crate) enum OverflowPlan<'a> {
    /// No overflow possible this round (fault-free or `p_overflow = 0`).
    None,
    /// Structural drop-oldest beyond `capacity` — deterministic, so
    /// workers apply it locally without a tape.
    Structural { capacity: usize },
    /// Probabilistic verdicts pre-drawn on the main thread.
    Tape(&'a ReceiveTape),
}

/// Shared read-only context for the receive workers of one round.
pub(crate) struct ReceiveCtx<'a> {
    pub round: u64,
    /// Tiles with a non-empty arrival vector this round.
    pub frontier: &'a TileSet,
    pub codec: &'a WireCodec,
    pub wires: &'a WireTable,
    pub tiles_alive: &'a [bool],
    pub crash_schedule: &'a CrashSchedule,
    pub overflow: OverflowPlan<'a>,
    /// Message ids whose spread terminated in an earlier round.
    pub terminated: &'a BTreeSet<MessageId>,
    /// Ids first delivered *this* round, mapped to the lowest-index
    /// tile delivering them (from [`plan_terminations`]); suppression
    /// applies only to strictly later tiles, exactly like the
    /// sequential engine's immediate `terminated.insert`.
    pub newly_terminated: &'a BTreeMap<MessageId, usize>,
    pub terminate_on_delivery: bool,
    pub ip_is_custom: &'a [bool],
    /// False for sinks that discard events ([`crate::events::NullSink`]);
    /// workers then skip event collection entirely.
    pub record_events: bool,
}

/// Everything a receive worker reports back for the ordered merge.
#[derive(Debug, Default)]
pub(crate) struct ReceiveOut {
    /// Events in emission order. `Delivery` entries are *candidates*:
    /// the merge arbitrates first-delivery through
    /// `SimulationReport::record_delivery` in shard order and drops the
    /// losers, replicating the sequential engine's event stream.
    pub events: Vec<SimEvent>,
    /// Delivery candidates in tile order (always collected, also when
    /// events are not).
    pub deliveries: Vec<MessageId>,
    /// First-sighting message ids, in observation order, for the
    /// informed-population map.
    pub informed: Vec<MessageId>,
    /// Tiles whose buffer accepted at least one insertion.
    pub touched: Vec<u32>,
    pub inserted: u64,
    pub crash_drops: u64,
    pub overflow_drops: u64,
    pub upsets_detected: u64,
    pub upsets_undetected: u64,
}

/// Runs the receive phase over tiles `[lo, lo + inbox.len())`.
///
/// `inbox`, `buffers` and `delivery_scratch` are this shard's chunks
/// (index `tile - lo`); everything in `ctx` is shared read-only state.
/// Consumes no RNG: probabilistic overflow verdicts come pre-drawn on
/// the tape.
#[allow(clippy::type_complexity)] // mirrors the engine's per-tile delivery scratch layout
pub(crate) fn receive_shard(
    ctx: &ReceiveCtx<'_>,
    lo: usize,
    inbox: &mut [Vec<Frame>],
    buffers: &mut [SendBuffer],
    delivery_scratch: &mut [Vec<(NodeId, Arc<[u8]>)>],
) -> ReceiveOut {
    let hi = lo + inbox.len();
    let round = ctx.round;
    let mut out = ReceiveOut::default();
    // Ids this shard has delivered (and terminated) itself, so a second
    // copy arriving at the same tile later in the round is suppressed
    // exactly like the sequential engine's immediate `terminated` insert.
    let mut local_term: BTreeSet<MessageId> = BTreeSet::new();
    let mut span_cursor = match &ctx.overflow {
        OverflowPlan::Tape(tape) => tape.spans.partition_point(|s| (s.tile as usize) < lo),
        _ => 0,
    };
    for tile in ctx.frontier.iter_range(lo, hi) {
        let frames = &mut inbox[tile - lo];
        if frames.is_empty() {
            continue;
        }
        let node = NodeId(tile);
        if !ctx.tiles_alive[tile] || ctx.crash_schedule.tile_dead(tile, round) {
            out.crash_drops += frames.len() as u64;
            if ctx.record_events {
                for _ in 0..frames.len() {
                    out.events.push(SimEvent::CrashDrop {
                        round,
                        site: DropSite::Tile(node),
                    });
                }
            }
            frames.clear();
            continue;
        }
        // Overflow: apply the pre-drawn verdicts (or the deterministic
        // structural policy) in place, then drain survivors.
        match &ctx.overflow {
            OverflowPlan::None => {}
            OverflowPlan::Structural { capacity } => {
                if frames.len() > *capacity {
                    let excess = frames.len() - capacity;
                    frames.drain(..excess);
                    out.overflow_drops += excess as u64;
                    if ctx.record_events {
                        for _ in 0..excess {
                            out.events
                                .push(SimEvent::OverflowDrop { round, tile: node });
                        }
                    }
                }
            }
            OverflowPlan::Tape(tape) => {
                // Spans were generated from the same frontier walk, so
                // the next span in range is this tile's.
                let span = &tape.spans[span_cursor];
                debug_assert_eq!(span.tile as usize, tile, "overflow tape out of step");
                span_cursor += 1;
                let keeps = &tape.keeps[span.start as usize..(span.start + span.len) as usize];
                debug_assert_eq!(keeps.len(), frames.len());
                let before = frames.len();
                let mut k = 0;
                frames.retain(|_| {
                    let keep = keeps[k];
                    k += 1;
                    keep
                });
                let dropped = (before - frames.len()) as u64;
                out.overflow_drops += dropped;
                if ctx.record_events {
                    for _ in 0..dropped {
                        out.events
                            .push(SimEvent::OverflowDrop { round, tile: node });
                    }
                }
            }
        }
        let buffer = &mut buffers[tile - lo];
        let mut inserted_here = false;
        for frame in frames.drain(..) {
            // Suppression check shared by both decode paths: spreads
            // terminated in earlier rounds, spreads terminated this
            // round by a lower-index tile, or by this shard itself.
            let spread_terminated = |id: MessageId, local: &BTreeSet<MessageId>| {
                ctx.terminated.contains(&id)
                    || ctx.newly_terminated.get(&id).is_some_and(|&d| d < tile)
                    || local.contains(&id)
            };
            let entry = ctx.wires.entry(frame.wire);
            let message = match &entry.message {
                None => match ctx.codec.decode_view(&entry.bytes) {
                    Ok(view) => {
                        if spread_terminated(view.id, &local_term) {
                            if ctx.record_events {
                                out.events.push(SimEvent::DuplicateDrop {
                                    round,
                                    tile: node,
                                    message: view.id,
                                });
                            }
                            continue;
                        }
                        out.upsets_undetected += 1;
                        if ctx.record_events {
                            out.events.push(SimEvent::UndetectedUpset {
                                round,
                                tile: node,
                                message: view.id,
                            });
                        }
                        if buffer.has_seen(view.id) {
                            if ctx.record_events {
                                out.events.push(SimEvent::DuplicateDrop {
                                    round,
                                    tile: node,
                                    message: view.id,
                                });
                            }
                            continue;
                        }
                        view.to_message()
                    }
                    Err(_) => {
                        out.upsets_detected += 1;
                        if ctx.record_events {
                            out.events.push(SimEvent::CrcReject {
                                round,
                                tile: node,
                                link: frame.via(),
                            });
                        }
                        continue;
                    }
                },
                Some(message) => {
                    let id = message.id;
                    // Seen-probe first, as in the sequential loop.
                    if buffer.has_seen(id) || spread_terminated(id, &local_term) {
                        if ctx.record_events {
                            out.events.push(SimEvent::DuplicateDrop {
                                round,
                                tile: node,
                                message: id,
                            });
                        }
                        continue;
                    }
                    message.clone()
                }
            };
            out.informed.push(message.id);
            if message.destination == node {
                out.deliveries.push(message.id);
                if ctx.record_events {
                    out.events.push(SimEvent::Delivery {
                        round,
                        tile: node,
                        message: message.id,
                        source: message.source,
                    });
                }
                if ctx.ip_is_custom[tile] {
                    delivery_scratch[tile - lo]
                        .push((message.source, Arc::clone(&message.payload)));
                }
                if ctx.terminate_on_delivery {
                    local_term.insert(message.id);
                }
            }
            let id = message.id;
            match buffer.insert_checked(message) {
                InsertOutcome::Inserted => {
                    out.inserted += 1;
                    inserted_here = true;
                }
                InsertOutcome::ExpiredOnArrival => {
                    if ctx.record_events {
                        out.events.push(SimEvent::TtlExpiry {
                            round,
                            tile: node,
                            message: id,
                        });
                    }
                }
                InsertOutcome::AlreadySeen => {}
            }
        }
        if inserted_here {
            out.touched.push(tile as u32);
        }
    }
    out
}

/// Pre-computes which message ids terminate this round and at which
/// (lowest-index) tile, by replaying the receive phase's delivery logic
/// without side effects. Only needed under `terminate_on_delivery`,
/// where one tile's delivery must suppress the same id at later tiles
/// within the same round — cross-shard information a worker cannot see.
///
/// Runs on the main thread before the workers; consumes no RNG
/// (probabilistic overflow verdicts are read from the tape).
#[allow(clippy::too_many_arguments)] // the receive phase's split borrows, passed explicitly
pub(crate) fn plan_terminations(
    round: u64,
    frontier: &TileSet,
    inbox: &[Vec<Frame>],
    buffers: &[SendBuffer],
    codec: &WireCodec,
    wires: &WireTable,
    tiles_alive: &[bool],
    crash_schedule: &CrashSchedule,
    overflow: &OverflowPlan<'_>,
    terminated: &BTreeSet<MessageId>,
) -> BTreeMap<MessageId, usize> {
    let mut newly: BTreeMap<MessageId, usize> = BTreeMap::new();
    let mut local_seen: BTreeSet<MessageId> = BTreeSet::new();
    let mut span_cursor = 0usize;
    for tile in frontier.iter() {
        let frames = &inbox[tile];
        if frames.is_empty() {
            continue;
        }
        if !tiles_alive[tile] || crash_schedule.tile_dead(tile, round) {
            continue;
        }
        let node = NodeId(tile);
        local_seen.clear();
        // Index of the first surviving frame under structural overflow;
        // under the tape, per-frame verdicts.
        let (skip, keeps): (usize, Option<&[bool]>) = match overflow {
            OverflowPlan::None => (0, None),
            OverflowPlan::Structural { capacity } => (frames.len().saturating_sub(*capacity), None),
            OverflowPlan::Tape(tape) => {
                let span = &tape.spans[span_cursor];
                debug_assert_eq!(span.tile as usize, tile, "overflow tape out of step");
                span_cursor += 1;
                let keeps = &tape.keeps[span.start as usize..(span.start + span.len) as usize];
                (0, Some(keeps))
            }
        };
        for (k, frame) in frames.iter().enumerate() {
            if k < skip || keeps.is_some_and(|keeps| !keeps[k]) {
                continue;
            }
            let entry = wires.entry(frame.wire);
            let (id, destination) = match &entry.message {
                Some(message) => (message.id, message.destination),
                None => match codec.decode_view(&entry.bytes) {
                    Ok(view) => (view.id, view.destination),
                    Err(_) => continue,
                },
            };
            // A `newly` entry at this very tile means an earlier frame
            // in this loop already delivered the id here, so `<=`.
            if terminated.contains(&id) || newly.get(&id).is_some_and(|&d| d <= tile) {
                continue;
            }
            if buffers[tile].has_seen(id) || !local_seen.insert(id) {
                continue;
            }
            if destination == node {
                newly.entry(id).or_insert(tile);
            }
        }
    }
    newly
}

/// An age worker's report: expiry events, counter deltas, and the tiles
/// whose buffers drained to empty (to clear from the frontier).
#[derive(Debug, Default)]
pub(crate) struct AgeOut {
    pub events: Vec<SimEvent>,
    pub expired: u64,
    pub purged: u64,
    pub emptied: Vec<u32>,
}

/// Runs the age phase (termination purge, then TTL decrement and GC)
/// over this shard's buffer chunk. RNG-free and event-order-identical
/// to the sequential engine's ascending-tile walk.
pub(crate) fn age_shard(
    round: u64,
    lo: usize,
    frontier: &TileSet,
    buffers: &mut [SendBuffer],
    pending_purge: &[MessageId],
    record_events: bool,
) -> AgeOut {
    let hi = lo + buffers.len();
    let mut out = AgeOut::default();
    for tile in frontier.iter_range(lo, hi) {
        let buffer = &mut buffers[tile - lo];
        for &id in pending_purge {
            if buffer.remove(id) {
                out.purged += 1;
            }
        }
        let before = buffer.len();
        {
            let events = &mut out.events;
            buffer.age_with(|id| {
                if record_events {
                    events.push(SimEvent::TtlExpiry {
                        round,
                        tile: NodeId(tile),
                        message: id,
                    });
                }
            });
        }
        out.expired += (before - buffer.len()) as u64;
        if buffer.is_empty() {
            out.emptied.push(tile as u32);
        }
    }
    out
}

/// Where a transmission ends up, as decided (with every RNG draw) by
/// the engine's forward walk.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TxOutcome {
    /// Swallowed by a dead link.
    DeadLink,
    /// Swallowed by an active partition cut.
    Partitioned,
    /// Filed into the destination inbox.
    Deliver {
        /// The frame that arrives: the served one, or its scrambled
        /// copy when an upset fired.
        wire: Wire,
        /// Arrives one round late (sender slipped or link delayed).
        held: bool,
        /// Chaos delay fired (event attribution).
        delayed: bool,
        /// Chaos reorder fired: jumps to the front of the destination
        /// queue.
        reordered: bool,
    },
}

impl TxOutcome {
    /// Emits the events this fate owes after the transmission's
    /// `FrameSent`, in the engine's order.
    pub(crate) fn emit_after_send(&self, round: u64, link: LinkId, mut emit: impl FnMut(SimEvent)) {
        match *self {
            TxOutcome::DeadLink => emit(SimEvent::CrashDrop {
                round,
                site: DropSite::Link(link),
            }),
            TxOutcome::Partitioned => emit(SimEvent::PartitionDrop { round, link }),
            TxOutcome::Deliver {
                delayed, reordered, ..
            } => {
                if delayed {
                    emit(SimEvent::AdversarialDelay { round, link });
                }
                if reordered {
                    emit(SimEvent::AdversarialReorder { round, link });
                }
            }
        }
    }
}

/// One planned transmission onto a link.
#[derive(Debug)]
pub(crate) struct LinkTx {
    pub link: LinkId,
    pub outcome: TxOutcome,
}

/// What a planned egress service transmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServeKind {
    /// A message of the tile's send buffer.
    Buffer,
    /// A Byzantine forgery (its corruption drawn from the tile's
    /// adversary stream by the pre-pass).
    Forge,
    /// A Byzantine replay of the tile's last legitimate frame.
    Replay,
}

impl ServeKind {
    /// The event announcing a service of this kind at `tile`.
    pub(crate) fn event(self, round: u64, tile: NodeId, message: MessageId) -> SimEvent {
        match self {
            ServeKind::Buffer => SimEvent::Forwarded {
                round,
                tile,
                message,
            },
            ServeKind::Forge => SimEvent::ByzantineForge {
                round,
                tile,
                message,
            },
            ServeKind::Replay => SimEvent::ByzantineReplay { round, tile },
        }
    }
}

/// One egress service: what is served and its planned transmissions
/// (each carrying the wire handle that arrives).
#[derive(Debug)]
pub(crate) struct ServeCmd {
    pub kind: ServeKind,
    pub id: MessageId,
    /// Index range into [`ForwardTape::txs`].
    pub txs: (u32, u32),
}

/// One forwarding tile's plan for the round.
#[derive(Debug)]
pub(crate) struct TilePlan {
    pub tile: u32,
    /// Whole-round clock slips to attribute (events only; the `held`
    /// consequence is already baked into each transmission's outcome).
    pub slips: u32,
    /// Index range into [`ForwardTape::serves`].
    pub serves: (u32, u32),
}

/// The forward phase's pre-drawn outcomes: a flat, reusable encoding of
/// every decision the sequential engine would have made, in the exact
/// order it would have drawn them.
#[derive(Debug, Default)]
pub(crate) struct ForwardTape {
    pub plans: Vec<TilePlan>,
    pub serves: Vec<ServeCmd>,
    pub txs: Vec<LinkTx>,
}

impl ForwardTape {
    pub fn clear(&mut self) {
        self.plans.clear();
        self.serves.clear();
        self.txs.clear();
    }
}

/// A frame bound for another tile's inbox, produced by a forward worker
/// and filed by the destination's file worker.
#[derive(Debug)]
pub(crate) struct EgressRecord {
    pub to: u32,
    pub frame: Frame,
    pub held: bool,
    pub front: bool,
}

/// A forward worker's report: events, egress records in emission order,
/// and (uniform mode only) the frames it encoded and the counter deltas
/// the tape pre-pass would otherwise have accumulated.
#[derive(Debug, Default)]
pub(crate) struct ForwardOut {
    pub events: Vec<SimEvent>,
    pub egress: Vec<EgressRecord>,
    /// Uniform mode: the frames this worker encoded; the `egress`
    /// handles are relative to it until the merge adopts it.
    pub segment: Option<WireSegment>,
    /// Where the merge placed `segment` in the wire table.
    pub wire_base: u32,
    pub transmissions: u64,
    pub bits: u64,
    pub crash_drops: u64,
    pub partition_drops: u64,
}

/// Executes this shard's slice of the [`ForwardTape`]: emits events and
/// egress in the sequential engine's order. RNG-free and encode-free;
/// all counters were accumulated by the pre-pass.
pub(crate) fn forward_shard_tape(
    round: u64,
    lo: usize,
    hi: usize,
    tape: &ForwardTape,
    topology: &Topology,
    record_events: bool,
) -> ForwardOut {
    let mut out = ForwardOut::default();
    let first = tape.plans.partition_point(|p| (p.tile as usize) < lo);
    for plan in &tape.plans[first..] {
        let tile = plan.tile as usize;
        if tile >= hi {
            break;
        }
        let node = NodeId(tile);
        if record_events {
            for _ in 0..plan.slips {
                out.events.push(SimEvent::ClockSlip { round, tile: node });
            }
        }
        for serve in &tape.serves[plan.serves.0 as usize..plan.serves.1 as usize] {
            if record_events {
                out.events.push(serve.kind.event(round, node, serve.id));
            }
            for tx in &tape.txs[serve.txs.0 as usize..serve.txs.1 as usize] {
                let to = topology.link(tx.link).to;
                if record_events {
                    out.events.push(SimEvent::FrameSent {
                        round,
                        from: node,
                        link: tx.link,
                        to,
                        message: serve.id,
                    });
                    tx.outcome
                        .emit_after_send(round, tx.link, |event| out.events.push(event));
                }
                if let TxOutcome::Deliver {
                    wire,
                    held,
                    reordered,
                    ..
                } = tx.outcome
                {
                    out.egress.push(EgressRecord {
                        to: to.index() as u32,
                        frame: Frame::new(wire, Some(tx.link)),
                        held,
                        front: reordered,
                    });
                }
            }
        }
    }
    out
}

/// Shared context for the tape-free uniform forward workers.
pub(crate) struct UniformForwardCtx<'a> {
    pub round: u64,
    /// Tiles with non-empty send buffers.
    pub frontier: &'a TileSet,
    pub buffers: &'a [SendBuffer],
    pub topology: &'a Topology,
    pub codec: &'a WireCodec,
    pub wires: &'a WireTable,
    pub tiles_alive: &'a [bool],
    pub links_alive: &'a [bool],
    pub crash_schedule: &'a CrashSchedule,
    pub adversary: &'a AdversarialScenario,
    pub forward_overrides: &'a [Option<f64>],
    pub forward_probability: f64,
    pub record_events: bool,
}

/// The fully-deterministic forward fast path: every effective
/// forwarding probability is 0 or 1 and no upset/skew/chaos/Byzantine
/// draw is possible, so each worker recomputes its tiles' outcomes
/// locally with no pre-pass and no RNG. Counter deltas ride back in the
/// [`ForwardOut`].
pub(crate) fn forward_shard_uniform(
    ctx: &UniformForwardCtx<'_>,
    lo: usize,
    hi: usize,
) -> ForwardOut {
    let round = ctx.round;
    let mut out = ForwardOut::default();
    let mut segment = ctx.wires.segment();
    // As the tape pre-pass: no schedule scan when none is in effect.
    let links_scheduled =
        ctx.crash_schedule.any_link_dead(round) || ctx.adversary.partitions.any_active(round);
    for tile in ctx.frontier.iter_range(lo, hi) {
        let node = NodeId(tile);
        let msgs = ctx.buffers[tile].messages();
        if !ctx.tiles_alive[tile] || ctx.crash_schedule.tile_dead(tile, round) || msgs.is_empty() {
            continue;
        }
        let p = ctx.forward_overrides[tile].unwrap_or(ctx.forward_probability);
        for message in msgs {
            if ctx.record_events {
                out.events.push(SimEvent::Forwarded {
                    round,
                    tile: node,
                    message: message.id,
                });
            }
            if p < 1.0 {
                // Uniform mode guarantees p is exactly 0 here: the tile
                // is serviced (event above) but transmits nothing.
                continue;
            }
            let wire = segment.frame_for(ctx.codec, message);
            let frame_bits = (ctx.codec.frame_bytes(message.payload.len()) * 8) as u64;
            let links = ctx.topology.out_links(node);
            out.transmissions += links.len() as u64;
            out.bits += frame_bits * links.len() as u64;
            for &link_id in links {
                let to = ctx.topology.link(link_id).to;
                if ctx.record_events {
                    out.events.push(SimEvent::FrameSent {
                        round,
                        from: node,
                        link: link_id,
                        to,
                        message: message.id,
                    });
                }
                if !ctx.links_alive[link_id.index()]
                    || (links_scheduled && ctx.crash_schedule.link_dead(link_id.index(), round))
                {
                    out.crash_drops += 1;
                    if ctx.record_events {
                        out.events.push(SimEvent::CrashDrop {
                            round,
                            site: DropSite::Link(link_id),
                        });
                    }
                    continue;
                }
                if links_scheduled && ctx.adversary.partitions.link_cut(link_id.index(), round) {
                    out.partition_drops += 1;
                    if ctx.record_events {
                        out.events.push(SimEvent::PartitionDrop {
                            round,
                            link: link_id,
                        });
                    }
                    continue;
                }
                out.egress.push(EgressRecord {
                    to: to.index() as u32,
                    frame: Frame::new(wire, Some(link_id)),
                    held: false,
                    front: false,
                });
            }
        }
    }
    out.segment = Some(segment);
    out
}

/// A file worker's inflight bookkeeping deltas.
#[derive(Debug, Default)]
pub(crate) struct FileOut {
    pub next_frames: u64,
    pub later_frames: u64,
    /// Tiles whose `next` vector went from empty to non-empty.
    pub next_tiles: Vec<u32>,
    /// Tiles whose `later` vector went from empty to non-empty.
    pub later_tiles: Vec<u32>,
}

/// Files every egress record destined for tiles `[lo, lo + chunk)` into
/// this shard's inbox chunks, walking producer shards in ascending
/// order so each inbox receives its frames in exactly the sequential
/// engine's filing order.
pub(crate) fn file_shard(
    lo: usize,
    outs: &[ForwardOut],
    inbox_next: &mut [Vec<Frame>],
    inbox_later: &mut [Vec<Frame>],
) -> FileOut {
    let hi = lo + inbox_next.len();
    let mut out = FileOut::default();
    for produced in outs {
        for record in &produced.egress {
            let to = record.to as usize;
            if to < lo || to >= hi {
                continue;
            }
            let (inbox, frames, tiles) = if record.held {
                (
                    &mut inbox_later[to - lo],
                    &mut out.later_frames,
                    &mut out.later_tiles,
                )
            } else {
                (
                    &mut inbox_next[to - lo],
                    &mut out.next_frames,
                    &mut out.next_tiles,
                )
            };
            if inbox.is_empty() {
                tiles.push(record.to);
            }
            *frames += 1;
            let frame = record.frame.rebased(produced.wire_base);
            if record.front {
                inbox.insert(0, frame);
            } else {
                inbox.push(frame);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_contiguously() {
        for n in [0usize, 1, 7, 64, 65, 4096] {
            for shards in [1usize, 2, 3, 7, 8, 16] {
                let ranges = shard_ranges(n, shards);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges[shards - 1].1, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
                }
            }
        }
    }

    #[test]
    fn shard_ranges_are_balanced() {
        let ranges = shard_ranges(4096, 8);
        for &(lo, hi) in &ranges {
            assert_eq!(hi - lo, 512);
        }
        let ranges = shard_ranges(10, 3);
        let sizes: Vec<usize> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn split_chunks_matches_ranges() {
        let mut data: Vec<u32> = (0..10).collect();
        let ranges = shard_ranges(10, 3);
        let chunks = split_chunks(&mut data, &ranges);
        assert_eq!(chunks.len(), 3);
        for (chunk, &(lo, hi)) in chunks.iter().zip(&ranges) {
            assert_eq!(chunk.len(), hi - lo);
            assert_eq!(chunk[0], lo as u32);
        }
    }
}
