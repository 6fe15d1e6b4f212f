//! Tile-partitioned shard workers for the intra-trial parallel engine.
//!
//! With more than one shard, [`Simulation::step`](crate::Simulation::step)
//! splits the grid into contiguous tile ranges and runs each range's
//! receive and age work on a scoped thread. Forward stays one serial
//! walk on the main thread at every shard count: it is one Bernoulli per
//! (message, link) from one stream, so unless the configuration draws
//! nothing at all (fault-free, every `p` 0 or 1) there is nothing in it
//! a worker could do without the main thread having drawn it first.
//! Determinism is preserved by a strict division of labour:
//!
//! * **Every RNG draw happens on the main thread.** The only draws the
//!   parallel phases need are the probabilistic-overflow keep/drop
//!   verdicts, which a sequential pre-pass records in a [`ReceiveTape`],
//!   walking tiles in exactly the order the single-shard engine does.
//!   The shared fault stream is therefore consumed in the identical
//!   sequence for every shard count, which is what keeps reports
//!   byte-identical across `--shards N`.
//! * **Shard workers are RNG-free.** They execute the recorded
//!   verdicts: dedup, buffer insertion, TTL aging. Frames arrive as
//!   handles into the engine's [`WireTable`] (an upset copy the CRC
//!   missed was decoded when it was made), and dedup probes the
//!   engine's [`Audience`]; workers only read both, and hand their
//!   first sights back for the merge to record.
//! * **Merges walk shards in ascending tile order**, so per-location
//!   event order, report counter accumulation and delivery arbitration
//!   replay the sequential engine's order exactly.
//!
//! The worker functions here are pure with respect to the engine's RNG
//! and report state: they read shared topology/config/fault metadata,
//! mutate only their own tile chunk, and return everything else
//! (events, counter deltas) for the main thread to merge.
//!
//! The same division of labour extends to the wall-clock plane
//! (DESIGN.md §13): **workers never read the clock**. Timing spans for
//! the tape pre-pass, the shard fan-out, and the merges are recorded
//! only on the main thread, bracketing the `run_shards` calls from
//! outside — so installing [`crate::EngineObs`] changes nothing about
//! what a worker computes, and the deterministic plane stays
//! byte-identical with observability enabled.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use noc_fabric::{MessageId, NodeId};
use noc_faults::CrashSchedule;

use crate::arrivals::Grouped;
use crate::audience::Audience;
use crate::events::{DropSite, SimEvent};
use crate::frontier::TileSet;
use crate::send_buffer::Live;
use crate::wire::WireTable;

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

impl<'a> OverflowPlan<'a> {
    /// What overflow does to the `arrivals` frames of `tile`: how many of
    /// the oldest are dropped, and the per-frame keep verdicts when they
    /// were drawn. `cursor` steps through the tape's spans, which were
    /// generated from the same walk over the alive tiles with arrivals.
    fn verdicts(
        &self,
        cursor: &mut usize,
        tile: usize,
        arrivals: usize,
    ) -> (usize, Option<&'a [bool]>) {
        match *self {
            OverflowPlan::None => (0, None),
            OverflowPlan::Structural { capacity } => (arrivals.saturating_sub(capacity), None),
            OverflowPlan::Tape(tape) => {
                let span = &tape.spans[*cursor];
                debug_assert_eq!(span.tile as usize, tile, "overflow tape out of step");
                debug_assert_eq!(span.len as usize, arrivals);
                *cursor += 1;
                let keeps = &tape.keeps[span.start as usize..(span.start + span.len) as usize];
                (0, Some(keeps))
            }
        }
    }
}

/// Shared read-only context for the receive workers of one round.
pub(crate) struct ReceiveCtx<'a> {
    pub round: u64,
    /// This round's arrivals, grouped by tile.
    pub arrivals: &'a Grouped,
    pub wires: &'a WireTable,
    pub tiles_alive: &'a [bool],
    pub crash_schedule: &'a CrashSchedule,
    pub overflow: OverflowPlan<'a>,
    /// Who had seen what when the round began.
    pub audience: &'a Audience,
    /// Message ids whose spread terminated in an earlier round.
    pub terminated: &'a BTreeSet<MessageId>,
    /// Ids first delivered *this* round, mapped to the lowest-index
    /// tile delivering them (from [`plan_terminations`]); suppression
    /// applies only to strictly later tiles, exactly like the
    /// sequential engine's immediate `terminated.insert`.
    pub newly_terminated: &'a BTreeMap<MessageId, usize>,
    pub terminate_on_delivery: bool,
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
    /// Each delivery's tile, source and payload, for the merge to stage
    /// at the tile's mapped IP, if it has one: IP cores stay on the main
    /// thread.
    pub staged: Vec<(u32, NodeId, Arc<[u8]>)>,
    /// First sightings `(tile, id)`, in observation order, for the
    /// merge to add to the audience.
    pub first_sights: Vec<(u32, MessageId)>,
    /// Tiles whose buffer accepted at least one insertion.
    pub touched: Vec<u32>,
    pub inserted: u64,
    pub crash_drops: u64,
    pub overflow_drops: u64,
    pub upsets_detected: u64,
    pub upsets_undetected: u64,
}

/// Runs the receive phase over tiles `[lo, lo + buffers.len())`.
///
/// `buffers` and `expired` are this shard's chunks (index `tile - lo`);
/// everything in `ctx`, the grouped arrivals included, is shared
/// read-only state. Consumes no RNG: probabilistic overflow verdicts come
/// pre-drawn on the tape.
pub(crate) fn receive_shard(
    ctx: &ReceiveCtx<'_>,
    lo: usize,
    buffers: &mut [Live],
    expired: &mut [u64],
) -> ReceiveOut {
    let hi = lo + buffers.len();
    let round = ctx.round;
    let mut out = ReceiveOut::default();
    // Ids this shard has delivered (and terminated) itself, so a second
    // copy arriving at the same tile later in the round is suppressed
    // exactly like the sequential engine's immediate `terminated` insert.
    let mut local_term: BTreeSet<MessageId> = BTreeSet::new();
    // The ids the current tile has accepted this round, which the
    // audience learns only at the merge.
    let mut accepted: Vec<MessageId> = Vec::new();
    let mut span_cursor = match &ctx.overflow {
        OverflowPlan::Tape(tape) => tape.spans.partition_point(|s| (s.tile as usize) < lo),
        _ => 0,
    };
    for (tile, frames) in ctx.arrivals.tiles(lo, hi) {
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
            continue;
        }
        // Overflow: the pre-drawn verdicts (or the deterministic
        // structural policy) say which frames of the slice survive.
        let (skip, keeps) = ctx.overflow.verdicts(&mut span_cursor, tile, frames.len());
        let dropped = skip + keeps.map_or(0, |keeps| keeps.iter().filter(|&&keep| !keep).count());
        out.overflow_drops += dropped as u64;
        if ctx.record_events {
            for _ in 0..dropped {
                out.events
                    .push(SimEvent::OverflowDrop { round, tile: node });
            }
        }
        let buffer = &mut buffers[tile - lo];
        let mut inserted_here = false;
        accepted.clear();
        let seen = |id: MessageId, accepted: &[MessageId]| {
            ctx.audience.contains(id, tile) || accepted.contains(&id)
        };
        for (k, frame) in frames.iter().enumerate().skip(skip) {
            if keeps.is_some_and(|keeps| !keeps[k]) {
                continue;
            }
            // Suppression check shared by both decode paths: spreads
            // terminated in earlier rounds, spreads terminated this
            // round by a lower-index tile, or by this shard itself.
            let spread_terminated = |id: MessageId, local: &BTreeSet<MessageId>| {
                ctx.terminated.contains(&id)
                    || ctx.newly_terminated.get(&id).is_some_and(|&d| d < tile)
                    || local.contains(&id)
            };
            let entry = ctx.wires.entry(frame.wire);
            let held = match entry.held() {
                None => match entry.upset_view() {
                    Some(view) => {
                        let id = view.id();
                        if spread_terminated(id, &local_term) {
                            if ctx.record_events {
                                out.events.push(SimEvent::DuplicateDrop {
                                    round,
                                    tile: node,
                                    message: id,
                                });
                            }
                            continue;
                        }
                        out.upsets_undetected += 1;
                        if ctx.record_events {
                            out.events.push(SimEvent::UndetectedUpset {
                                round,
                                tile: node,
                                message: id,
                            });
                        }
                        if seen(id, &accepted) {
                            if ctx.record_events {
                                out.events.push(SimEvent::DuplicateDrop {
                                    round,
                                    tile: node,
                                    message: id,
                                });
                            }
                            continue;
                        }
                        view.clone()
                    }
                    None => {
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
                Some(held) => {
                    let id = held.id();
                    // Seen-probe first, as in the sequential loop.
                    if seen(id, &accepted) || spread_terminated(id, &local_term) {
                        if ctx.record_events {
                            out.events.push(SimEvent::DuplicateDrop {
                                round,
                                tile: node,
                                message: id,
                            });
                        }
                        continue;
                    }
                    held.clone()
                }
            };
            let body = &*held.body;
            let id = body.id;
            accepted.push(id);
            out.first_sights.push((tile as u32, id));
            if body.destination == node {
                out.deliveries.push(id);
                if ctx.record_events {
                    out.events.push(SimEvent::Delivery {
                        round,
                        tile: node,
                        message: id,
                        source: body.source,
                    });
                }
                out.staged
                    .push((tile as u32, body.source, Arc::clone(&body.payload)));
                if ctx.terminate_on_delivery {
                    local_term.insert(id);
                }
            }
            if buffer.insert(held) {
                out.inserted += 1;
                inserted_here = true;
            } else {
                expired[tile - lo] += 1;
                if ctx.record_events {
                    out.events.push(SimEvent::TtlExpiry {
                        round,
                        tile: node,
                        message: id,
                    });
                }
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
#[allow(
    clippy::too_many_arguments,
    reason = "the receive phase's split borrows, passed explicitly"
)]
pub(crate) fn plan_terminations(
    round: u64,
    arrivals: &Grouped,
    audience: &Audience,
    wires: &WireTable,
    tiles_alive: &[bool],
    crash_schedule: &CrashSchedule,
    overflow: &OverflowPlan<'_>,
    terminated: &BTreeSet<MessageId>,
) -> BTreeMap<MessageId, usize> {
    let mut newly: BTreeMap<MessageId, usize> = BTreeMap::new();
    let mut local_seen: BTreeSet<MessageId> = BTreeSet::new();
    let mut span_cursor = 0usize;
    for (tile, frames) in arrivals.tiles(0, tiles_alive.len()) {
        if !tiles_alive[tile] || crash_schedule.tile_dead(tile, round) {
            continue;
        }
        let node = NodeId(tile);
        local_seen.clear();
        let (skip, keeps) = overflow.verdicts(&mut span_cursor, tile, frames.len());
        for (k, frame) in frames.iter().enumerate().skip(skip) {
            if keeps.is_some_and(|keeps| !keeps[k]) {
                continue;
            }
            let entry = wires.entry(frame.wire);
            let Some(held) = entry.held().or_else(|| entry.upset_view()) else {
                continue;
            };
            let (id, destination) = (held.id(), held.body.destination);
            // A `newly` entry at this very tile means an earlier frame
            // in this loop already delivered the id here, so `<=`.
            if terminated.contains(&id) || newly.get(&id).is_some_and(|&d| d <= tile) {
                continue;
            }
            if audience.contains(id, tile) || !local_seen.insert(id) {
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
/// over this shard's buffer chunk and the expiry counts beside it.
/// RNG-free and event-order-identical to the sequential engine's
/// ascending-tile walk.
pub(crate) fn age_shard(
    round: u64,
    lo: usize,
    frontier: &TileSet,
    buffers: &mut [Live],
    expired: &mut [u64],
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
        let events = &mut out.events;
        let gone = buffer.age_with(|id| {
            if record_events {
                events.push(SimEvent::TtlExpiry {
                    round,
                    tile: NodeId(tile),
                    message: id,
                });
            }
        }) as u64;
        expired[tile - lo] += gone;
        out.expired += gone;
        if buffer.is_empty() {
            out.emptied.push(tile as u32);
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
