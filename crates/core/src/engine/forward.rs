//! Phase 4, forward: every frontier tile that is up draws its clock skew
//! and serves its egress window, each message offered to every output
//! link with probability `p`; a compromised tile then makes its attack.
//! One serial walk at every shard count: every decision is a draw from
//! the main thread's streams, in the order this module makes them.

use noc_energy::Bits;
use noc_fabric::{LinkId, MessageId, NodeId};
use noc_faults::{ByzantineMode, OverflowMode};
use rand::rngs::StdRng;

use std::collections::BTreeSet;

use super::{Egress, Fabric, Flight, Plan, Simulation, Spread};
use crate::audience::Tiles;
use crate::body::Held;
use crate::events::{DropSite, EventSink, SimEvent};
use crate::metrics::SimulationReport;
use crate::wire::{Frame, Wire, WireEntry};

impl<S: EventSink> Simulation<S> {
    /// Runs the forward walk over the buffer frontier; returns the
    /// round's transmissions. Each frame is registered once per round
    /// through the wire table's memo (and encoded only if an upset reads
    /// its bytes), and fan-out copies the 8-byte handle.
    pub(super) fn forward(&mut self) -> u64 {
        let sent = self.report.packets_sent;
        let mut walk = Walk {
            fabric: &self.fabric,
            plan: &self.plan,
            spread: &self.spread,
            egress: &mut self.egress,
            flight: &mut self.flight,
            report: &mut self.report,
            sink: &mut self.sink,
            round: self.run.round,
        };
        for tile in self.spread.frontier.iter() {
            walk.serve_tile(tile);
        }
        self.report.packets_sent - sent
    }
}

/// The forward walk: the phase structs it reads, and those it writes.
struct Walk<'a, S> {
    fabric: &'a Fabric,
    plan: &'a Plan,
    spread: &'a Spread,
    egress: &'a mut Egress,
    flight: &'a mut Flight,
    report: &'a mut SimulationReport,
    sink: &'a mut S,
    round: u64,
}

impl<'a, S: EventSink> Walk<'a, S> {
    /// Serves `tile` if it is up and buffers something: draws its skew (a
    /// slipped tile delivers one round late), then offers every message
    /// of its egress window (one wire entry per round through the wire
    /// table's memo), then the Byzantine attack a compromised tile makes
    /// after its legitimate service.
    fn serve_tile(&mut self, tile: usize) {
        let (round, node) = (self.round, NodeId(tile));
        let (spread, plan): (&'a Spread, &'a Plan) = (self.spread, self.plan);
        let codec = &plan.codec;
        let msgs = spread.buffers[tile].as_slice();
        if msgs.is_empty() || !self.fabric.tile_up(tile, round) {
            return;
        }
        let skew = self.flight.injector.round_skew();
        let slips = self.egress.clocks[tile].advance(skew);
        // One event per boundary: up to `u32::MAX` turns that an
        // unoptimised build would take even for a sink that records
        // nothing.
        if S::RECORDS {
            for _ in 0..slips {
                self.sink.emit(SimEvent::ClockSlip { round, tile: node });
            }
        }
        let slipped = slips > 0;
        let egress = &mut *self.egress;
        let p = egress.forward_overrides.get(tile).copied().flatten();
        let p = p.unwrap_or(plan.config.forward_probability);
        let compromised = egress.compromised.contains_key(&tile);
        let limit = egress.egress_limits.get(tile).copied().flatten();
        let (start, count) = egress_window(limit, egress.egress_next.get_mut(tile), msgs);
        let mut at = start;
        for _ in 0..count {
            let held = &msgs[at];
            at += 1;
            if at == msgs.len() {
                at = 0;
            }
            let wire = self.flight.wires.frame_for(held);
            if compromised {
                let entry = self.flight.wires.entry(wire).clone();
                if let Some(at) = self.egress.compromised.get_mut(&tile) {
                    at.last_frame = Some((held.id(), entry));
                }
            }
            let serve = Serve {
                id: held.id(),
                wire,
                frame_len: codec.frame_bytes(held.body.payload.len()),
                p,
                slipped,
            };
            self.sink
                .emit(ServeKind::Buffer.event(round, node, serve.id));
            self.offer(node, &serve);
        }
        // One activation draw per armed round (from the tile's own
        // stream), then a forged equivocation or a stale replay is
        // flooded to *every* output link, ignoring the protocol's
        // forwarding probability.
        if let Some((kind, id, entry)) = self.byzantine_attack(tile, &msgs[start]) {
            let wire = self.flight.wires.push(entry);
            let serve = Serve {
                id,
                frame_len: self.flight.wires.frame_len(codec, wire),
                wire,
                p: 1.0,
                slipped,
            };
            self.sink.emit(kind.event(round, node, id));
            self.offer(node, &serve);
        }
    }

    /// Offers `serve` to each output link of `from` (one forwarding
    /// Bernoulli per link when `p < 1`), emits each transmission's events
    /// and appends its frame to the list it arrives from (`later` when
    /// held; at its destination's queue front when reordered), and counts
    /// the transmissions once for the whole service.
    #[inline]
    fn offer(&mut self, from: NodeId, serve: &Serve) {
        let (round, fabric): (u64, &'a Fabric) = (self.round, self.fabric);
        let known = self.known_at(serve);
        let mut sent = 0;
        for (link_id, to) in fabric.topology.out(from) {
            if serve.p < 1.0 && !gen_bool_p(self.flight.injector.rng(), serve.p) {
                continue;
            }
            sent += 1;
            let outcome = self.decide(link_id, serve);
            self.sink.emit(SimEvent::FrameSent {
                round,
                from,
                link: link_id,
                to,
                message: serve.id,
            });
            outcome.emit_after_send(round, link_id, |event| self.sink.emit(event));
            if let TxOutcome::Deliver {
                wire,
                held,
                reordered,
                ..
            } = outcome
            {
                let (to, frame) = (to.index(), Frame::new(wire, Some(link_id)));
                let arrivals = &mut self.flight.arrivals;
                if !held && !reordered && wire == serve.wire && known.holds(to) {
                    arrivals.next.push_known(frame);
                } else {
                    let pending = if held {
                        &mut arrivals.later
                    } else {
                        &mut arrivals.next
                    };
                    pending.push(to, frame, reordered);
                }
            }
        }
        self.report.packets_sent += sent;
        self.report.bits_sent += Bits(sent * (serve.frame_len * 8) as u64);
    }

    /// Decides one transmission onto `link_id`: swallows it on a dead or
    /// partitioned link, registers a scrambled copy on an upset, and
    /// draws chaos jitter from the link's dedicated stream. Inlined into
    /// the link loop whole; the upset branch is a call.
    #[inline(always)]
    fn decide(&mut self, link_id: LinkId, serve: &Serve) -> TxOutcome {
        let (link, round) = (link_id.index(), self.round);
        if !self.fabric.link_up(link, round) {
            self.report.crash_drops += 1;
            return TxOutcome::DeadLink;
        }
        // Partition cuts are pure schedule lookups — no RNG draw — so a
        // benign scenario leaves the main fault stream untouched. Each cut
        // tests its window before its link set.
        let plan: &'a Plan = self.plan;
        let adversary = &plan.adversary;
        if adversary.partitions.link_cut(link, round) {
            self.report.partition_drops += 1;
            return TxOutcome::Partitioned;
        }
        let wire = if self.flight.injector.upset_occurs() {
            self.upset(serve.wire)
        } else {
            serve.wire
        };
        let mut held = serve.slipped;
        let mut delayed = false;
        let mut reordered = false;
        if !self.egress.chaos_streams.is_empty() {
            // Fixed draw order per surviving frame: delay first, then
            // reorder. `gen_bool_p` short-circuits p = 0 without a draw, so
            // a delay-only (or reorder-only) configuration consumes exactly
            // one draw per frame from the link's stream.
            let stream = &mut self.egress.chaos_streams[link];
            if gen_bool_p(stream, adversary.chaos.delay_probability) {
                self.report.adversarial_delays += 1;
                held = true;
                delayed = true;
            }
            if gen_bool_p(stream, adversary.chaos.reorder_probability) {
                self.report.adversarial_reorders += 1;
                reordered = true;
            }
        }
        TxOutcome::Deliver {
            wire,
            held,
            delayed,
            reordered,
        }
    }

    /// The scrambled copy of `wire` an upset puts on the link: out of
    /// line, so that a fault-free transmission's decision stays small.
    #[inline(never)]
    fn upset(&mut self, wire: Wire) -> Wire {
        let Flight {
            wires, injector, ..
        } = &mut *self.flight;
        wires.scrambled_copy(&self.plan.codec, injector, wire)
    }

    /// Where a clean, on-time frame of `serve` is already a duplicate:
    /// the receive phase will drop it at a tile up next round whose
    /// buffer has seen the served entry's id, or anywhere once its spread
    /// terminated. Both sets only grow, so what holds now holds then.
    /// Filed so only when the sink records nothing and an arrival spends
    /// no overflow draw (DESIGN §8, "Known duplicates").
    #[inline]
    fn known_at(&self, serve: &Serve) -> KnownAt<'a> {
        let model = self.flight.injector.model();
        let elide = !S::RECORDS
            && matches!(model.overflow_mode, OverflowMode::Probabilistic)
            && model.p_overflow == 0.0;
        let id = if elide {
            let entry = self.flight.wires.entry(serve.wire);
            entry.held().map(Held::id)
        } else {
            None
        };
        let spread: &'a Spread = self.spread;
        KnownAt {
            id,
            seen: id.and_then(|id| spread.audience.get(id)),
            terminated: &spread.terminated,
            fabric: self.fabric,
            round: self.round + 1,
        }
    }

    /// A compromised tile's attack for this round, if it is armed and
    /// its activation draw fires: a forgery of `victim` (one corrupted
    /// payload byte, re-encoded so the CRC holds) or a replay of the
    /// tile's last legitimate frame, as the wire entry to flood.
    #[expect(
        clippy::disallowed_methods,
        reason = "draws the forged byte from the compromised tile's own stream, in the serial forward walk"
    )]
    fn byzantine_attack(
        &mut self,
        tile: usize,
        victim: &Held,
    ) -> Option<(ServeKind, MessageId, WireEntry)> {
        let byzantine = &self.plan.adversary.byzantine;
        if !byzantine.armed(tile, self.round) {
            return None;
        }
        let at = self.egress.compromised.get_mut(&tile)?;
        let stream = &mut at.stream;
        if !gen_bool_p(stream, byzantine.activation_probability) {
            return None;
        }
        match byzantine.mode {
            ByzantineMode::Forge => {
                let body = &*victim.body;
                let mut payload = body.payload.to_vec();
                if payload.is_empty() {
                    return None;
                }
                use rand::Rng;
                let at = stream.gen_range(0..payload.len());
                let mask = stream.gen_range(1..=255u64) as u8;
                payload[at] ^= mask;
                let forged = Held::new(body.id, body.source, body.destination, victim.ttl, payload);
                self.report.byzantine_forges += 1;
                Some((ServeKind::Forge, body.id, WireEntry::clean(forged)))
            }
            ByzantineMode::Replay => {
                let (id, entry) = at.last_frame.clone()?;
                self.report.byzantine_replays += 1;
                Some((ServeKind::Replay, id, entry))
            }
        }
    }
}

/// The receivers of one service at which its frame is a known
/// duplicate ([`Walk::known_at`]): looked up once per service, asked
/// once per link.
#[derive(Clone, Copy)]
struct KnownAt<'a> {
    /// The served entry's id; `None` when nothing may be filed as known.
    id: Option<MessageId>,
    /// The tiles whose buffer has seen it.
    seen: Option<&'a Tiles>,
    /// Its spread is a duplicate everywhere once terminated. Asked only
    /// where `seen` is not enough: a terminated spread is purged from
    /// every buffer, so only a Byzantine replay still serves it.
    terminated: &'a BTreeSet<MessageId>,
    fabric: &'a Fabric,
    /// The round receive takes the frame in.
    round: u64,
}

impl KnownAt<'_> {
    /// Will receive drop this frame at `to` as a duplicate?
    #[inline]
    fn holds(&self, to: usize) -> bool {
        let Some(id) = self.id else {
            return false;
        };
        (self.seen.is_some_and(|seen| seen.contains(to)) || self.terminated.contains(&id))
            && self.fabric.tile_up(to, self.round)
    }
}

/// The window of an egress-limited tile's buffer served this round:
/// `(start, count)` into `msgs`, wrapping. The buffer is served
/// round-robin so a long-lived head does not starve later arrivals
/// (bus-style fair arbitration). The resume point `next` is a message
/// *id*: an index cursor would drift whenever the buffer shrinks between
/// rounds (TTL expiry, termination purges) and skip or double-serve
/// survivors.
fn egress_window(
    limit: Option<usize>,
    next: Option<&mut Option<MessageId>>,
    msgs: &[Held],
) -> (usize, usize) {
    let len = msgs.len();
    match (limit, next) {
        (Some(limit), Some(next)) if len > limit => {
            let start = next
                .and_then(|id| msgs.iter().position(|m| m.id() == id))
                .unwrap_or(0);
            *next = Some(msgs[(start + limit) % len].id());
            (start, limit)
        }
        _ => (0, len),
    }
}

/// Where a transmission ends up, as decided (with every RNG draw) by
/// the forward walk.
#[derive(Debug, Clone, Copy)]
enum TxOutcome {
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
    fn emit_after_send(&self, round: u64, link: LinkId, mut emit: impl FnMut(SimEvent)) {
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

/// What an egress service transmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServeKind {
    /// A message of the tile's send buffer.
    Buffer,
    /// A Byzantine forgery (its corruption drawn from the tile's
    /// adversary stream).
    Forge,
    /// A Byzantine replay of the tile's last legitimate frame.
    Replay,
}

impl ServeKind {
    /// The event announcing a service of this kind at `tile`.
    fn event(self, round: u64, tile: NodeId, message: MessageId) -> SimEvent {
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

/// One egress service: a wire frame offered to each output link of the
/// serving tile with probability `p`.
struct Serve {
    id: MessageId,
    wire: Wire,
    frame_len: usize,
    p: f64,
    /// The serving tile's clock slipped: delivery is one round late.
    slipped: bool,
}

/// A Bernoulli draw from one of the engine's deterministic streams
/// that spends no draw on a certain outcome (`p` of 0 or 1).
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "the engine's one Bernoulli draw: its callers are the serial forward walk, handing in a stream the engine owns"
)]
fn gen_bool_p(rng: &mut StdRng, p: f64) -> bool {
    use rand::Rng;
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng.gen_bool(p)
    }
}
