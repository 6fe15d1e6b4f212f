//! The receive phase on more than one shard, and its tile-partitioned
//! workers.
//!
//! With more than one shard, [`Simulation::step`](crate::Simulation::step)
//! splits the grid into contiguous tile ranges and runs each range's
//! receive work on a scoped thread. Age and forward stay serial walks on
//! the main thread at every shard count: age is a small share of a round
//! (DESIGN.md §12), and forward is one Bernoulli per (message, link)
//! from one stream, so unless the configuration draws nothing at all
//! (fault-free, every `p` 0 or 1) there is nothing in it a worker could
//! do without the main thread having drawn it first. Determinism is
//! preserved by a strict division of labour:
//!
//! * **Every RNG draw happens on the main thread.** The only draws the
//!   parallel phase needs are the probabilistic-overflow keep/drop
//!   verdicts, which a sequential pre-pass records in a [`ReceiveTape`],
//!   walking tiles in exactly the order the single-shard engine does.
//!   The shared fault stream is therefore consumed in the identical
//!   sequence for every shard count, which is what keeps reports
//!   byte-identical across `--shards N`.
//! * **Shard workers are RNG-free.** They execute the recorded
//!   verdicts: dedup and buffer insertion, each over its own tile
//!   chunk, and return events and counter deltas. Frames arrive as
//!   handles into the engine's [`WireTable`] (an upset copy the CRC
//!   missed was decoded when it was made), and dedup probes the
//!   engine's [`Audience`]; workers only read both, and hand their
//!   first sights back for the merge to record.
//! * **The merge walks shards in ascending tile order**, so per-location
//!   event order, report counter accumulation and delivery arbitration
//!   replay the sequential engine's order exactly.
//!
//! The same division of labour extends to the wall-clock plane
//! (DESIGN.md §13): **workers never read the clock**. Timing spans for
//! the tape pre-pass, the shard fan-out, and the merge are recorded
//! only on the main thread, bracketing the `run_shards` call from
//! outside — so installing [`crate::EngineObs`] changes nothing about
//! what a worker computes, and the deterministic plane stays
//! byte-identical with observability enabled.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use noc_fabric::{MessageId, NodeId};
use noc_faults::OverflowMode;

use super::{Fabric, MappedIp, Simulation, Spread};
use crate::arrivals::Grouped;
use crate::audience::Audience;
use crate::events::{DropSite, EventSink, SimEvent};
use crate::obs::{span_end, span_start, EngineObs, EnginePhase};
use crate::send_buffer::Live;
use crate::wire::WireTable;

/// Contiguous tile ranges `[lo, hi)` covering `0..n`, one per shard,
/// sized as evenly as integer division allows.
fn shard_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    (0..shards)
        .map(|s| (n * s / shards, n * (s + 1) / shards))
        .collect()
}

/// Splits one `&mut [T]` into per-shard chunks matching `ranges`
/// (which must be contiguous, ascending and cover the slice).
fn split_chunks<'a, T>(mut slice: &'a mut [T], ranges: &[(usize, usize)]) -> Vec<&'a mut [T]> {
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
struct OverflowSpan {
    pub tile: u32,
    pub start: u32,
    pub len: u32,
}

/// The receive phase's pre-drawn RNG outcomes: per-frame overflow
/// keep/drop verdicts for every alive tile with arrivals, in ascending
/// tile order (the exact order the sequential engine draws them).
#[derive(Debug, Default)]
pub(super) struct ReceiveTape {
    spans: Vec<OverflowSpan>,
    keeps: Vec<bool>,
}

/// How a receive worker applies overflow for its tiles.
#[derive(Clone, Copy)]
enum OverflowPlan<'a> {
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
struct ReceiveCtx<'a> {
    pub round: u64,
    /// This round's arrivals, grouped by tile.
    pub arrivals: &'a Grouped,
    pub wires: &'a WireTable,
    pub fabric: &'a Fabric,
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
struct ReceiveOut {
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
fn receive_shard(
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
        if !ctx.fabric.tile_up(tile, round) {
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
fn plan_terminations(
    round: u64,
    arrivals: &Grouped,
    spread: &Spread,
    wires: &WireTable,
    fabric: &Fabric,
    overflow: &OverflowPlan<'_>,
) -> BTreeMap<MessageId, usize> {
    let mut newly: BTreeMap<MessageId, usize> = BTreeMap::new();
    let mut local_seen: BTreeSet<MessageId> = BTreeSet::new();
    let mut span_cursor = 0usize;
    for (tile, frames) in arrivals.tiles(0, spread.buffers.len()) {
        if !fabric.tile_up(tile, round) {
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
            if spread.terminated.contains(&id) || newly.get(&id).is_some_and(|&d| d <= tile) {
                continue;
            }
            if spread.audience.contains(id, tile) || !local_seen.insert(id) {
                continue;
            }
            if destination == node {
                newly.entry(id).or_insert(tile);
            }
        }
    }
    newly
}

impl<S: EventSink> Simulation<S> {
    /// The receive phase on more than one shard: the overflow draws
    /// happen here on the main thread, in a serial pre-pass that walks
    /// tiles in exactly the one-shard order; scoped workers execute the
    /// recorded verdicts over disjoint tile ranges; the merge walks
    /// shards in ascending tile order. Returns the round's deliveries.
    pub(super) fn receive_sharded(&mut self, obs: &Option<EngineObs>) -> u64 {
        let round = self.run.round;
        let record_events = S::RECORDS;
        let ranges = shard_ranges(self.node_count(), self.plan.shards);
        let flight = &mut self.flight;

        // Receive pre-pass: probabilistic overflow draws one Bernoulli
        // per arriving frame at each alive tile — replay them onto the
        // tape in tile order.
        flight.receive_tape.spans.clear();
        flight.receive_tape.keeps.clear();
        let model = flight.injector.model();
        let tape_mode =
            matches!(model.overflow_mode, OverflowMode::Probabilistic) && model.p_overflow > 0.0;
        if tape_mode {
            let tape_span = span_start(obs);
            let tape = &mut flight.receive_tape;
            for (tile, frames) in flight.arrivals.grouped.tiles(0, self.spread.buffers.len()) {
                if !self.fabric.tile_up(tile, round) {
                    continue;
                }
                let start = tape.keeps.len() as u32;
                for _ in 0..frames.len() {
                    tape.keeps.push(!flight.injector.overflow_drop());
                }
                tape.spans.push(OverflowSpan {
                    tile: tile as u32,
                    start,
                    len: frames.len() as u32,
                });
            }
            span_end(obs, EnginePhase::Tape, tape_span);
        }
        let overflow_plan = if tape_mode {
            OverflowPlan::Tape(&flight.receive_tape)
        } else {
            match flight.injector.model().overflow_mode {
                OverflowMode::Structural { capacity } => OverflowPlan::Structural { capacity },
                OverflowMode::Probabilistic => OverflowPlan::None,
            }
        };
        let grouped = &flight.arrivals.grouped;

        // Termination plan: under terminate-on-delivery one tile's
        // delivery suppresses later copies of the id — cross-shard
        // information a worker cannot observe, so the delivering tiles
        // are computed up front (RNG-free).
        let newly_terminated = if self.plan.config.terminate_on_delivery {
            plan_terminations(
                round,
                grouped,
                &self.spread,
                &flight.wires,
                &self.fabric,
                &overflow_plan,
            )
        } else {
            BTreeMap::new()
        };

        // Phase 1: receive, one RNG-free worker per shard.
        let receive_outs: Vec<ReceiveOut> = if grouped.is_empty() {
            Vec::new()
        } else {
            let fan_span = span_start(obs);
            let spread = &mut self.spread;
            let ctx = ReceiveCtx {
                round,
                arrivals: grouped,
                wires: &flight.wires,
                fabric: &self.fabric,
                overflow: overflow_plan,
                audience: &spread.audience,
                terminated: &spread.terminated,
                newly_terminated: &newly_terminated,
                terminate_on_delivery: self.plan.config.terminate_on_delivery,
                record_events,
            };
            let buffers = split_chunks(&mut spread.buffers, &ranges);
            let expired = split_chunks(&mut spread.expired, &ranges);
            let work: Vec<_> = ranges
                .iter()
                .zip(buffers.into_iter().zip(expired))
                .map(|(&(lo, _), tiles)| (lo, tiles))
                .collect();
            let outs = run_shards(work, |(lo, (buf, expired))| {
                receive_shard(&ctx, lo, buf, expired)
            });
            span_end(obs, EnginePhase::ShardFanout, fan_span);
            outs
        };
        let merge_span = span_start(obs).filter(|_| !receive_outs.is_empty());
        let (spread, report) = (&mut self.spread, &mut self.report);
        let mut deliveries = 0;
        for out in &receive_outs {
            report.crash_drops += out.crash_drops;
            report.overflow_drops += out.overflow_drops;
            report.upsets_detected += out.upsets_detected;
            report.upsets_undetected += out.upsets_undetected;
            for &(tile, id) in &out.first_sights {
                spread.audience.insert(id, tile as usize);
            }
            deliveries += out.deliveries.len() as u64;
            for (tile, from, payload) in &out.staged {
                MappedIp::stage(&mut self.run.mapped_ips, *tile as usize, *from, payload);
            }
            if record_events {
                // Delivery events are candidates: first-delivery
                // arbitration replays here, in shard (= tile) order.
                for &event in &out.events {
                    if let SimEvent::Delivery { round, message, .. } = event {
                        if report.record_delivery(message, round) {
                            self.sink.emit(event);
                        }
                    } else {
                        self.sink.emit(event);
                    }
                }
            } else {
                for &id in &out.deliveries {
                    report.record_delivery(id, round);
                }
            }
            spread.live_total += out.inserted;
            for &tile in &out.touched {
                spread.frontier.insert(tile as usize);
            }
        }
        span_end(obs, EnginePhase::Merge, merge_span);
        for &id in newly_terminated.keys() {
            if spread.terminated.insert(id) {
                spread.pending_purge.push(id);
            }
        }
        deliveries
    }
}

/// Runs one worker per shard on scoped threads, executing the last
/// shard inline on the calling thread (a one-element work list spawns
/// nothing). Results return in shard order; a worker panic propagates
/// to the caller.
fn run_shards<W, T, F>(mut work: Vec<W>, f: F) -> Vec<T>
where
    W: Send,
    T: Send,
    F: Fn(W) -> T + Sync,
{
    let Some(last) = work.pop() else {
        return Vec::new();
    };
    if work.is_empty() {
        return vec![f(last)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .into_iter()
            .map(|w| scope.spawn(move || f(w)))
            .collect();
        let inline = f(last);
        let mut results: Vec<T> = handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect();
        results.push(inline);
        results
    })
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
