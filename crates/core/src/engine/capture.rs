//! Capture and restore: [`Simulation::checkpoint`] writes the state of
//! every phase struct at a round boundary, and a resume reads it back
//! into a freshly built simulation (format v2, `crate::checkpoint`).

use noc_energy::Bits;
use noc_fabric::{ClockDomain, LinkId, MessageId, NodeId};
use noc_faults::{InjectionTally, InjectorSnapshot};
use rand::rngs::StdRng;

use std::fmt::{self, Write as _};

use super::{Egress, Fabric, Flight, Run, Simulation, Spread};
use crate::arrivals::{Arrivals, Grouped};
use crate::audience::Audience;
use crate::checkpoint::{Checkpoint, CheckpointError, Defined, Extent, Fnv1a, Numbering, Writer};
use crate::events::EventSink;
use crate::metrics::MessageRecord;
use crate::send_buffer::Live;
use crate::wire::{Frame, WireEntry, NO_LINK};

impl<S: EventSink> Simulation<S> {
    /// Digest of the simulation's defining tuple: topology shape, seed,
    /// protocol config, fault model, (folded) crash schedule, adversary,
    /// codec, technology point, egress limits and forwarding overrides.
    /// Everything that determines the draw sequence and the observables
    /// — and nothing that does not: the shard count, event sink and
    /// observability plane are excluded, so a checkpoint taken at one
    /// shard count resumes at any other. Computed once per simulation:
    /// every field it hashes is fixed at build.
    fn config_digest_value(&self) -> u64 {
        *self.plan.config_digest.get_or_init(|| {
            let (plan, n) = (&self.plan, self.node_count());
            let mut hash = Fnv1a::default();
            hash.update(&(n as u64).to_le_bytes());
            hash.update(&(self.fabric.topology.link_count() as u64).to_le_bytes());
            hash.update(&plan.seed.to_le_bytes());
            // Hashed as it is formatted; `Fnv1a` takes every write, so
            // formatting cannot fail.
            let _ = write!(
                hash,
                "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
                plan.config,
                self.flight.injector.model(),
                self.fabric.crash_schedule,
                plan.adversary,
                plan.codec,
                self.report.technology(),
                PerTile(&self.egress.egress_limits, n),
                PerTile(&self.egress.forward_overrides, n),
            );
            hash.finish()
        })
    }

    /// Captures a serializable snapshot of the full engine state at the
    /// current round boundary.
    ///
    /// Valid whenever the caller holds `&self` outside
    /// [`Simulation::step`]. The snapshot records every input to future
    /// draws and deliveries — RNG stream positions (fault stream with
    /// its Box–Muller spare, per-link chaos streams, per-tile Byzantine
    /// streams), each message's audience, send buffers and egress
    /// cursors, clock-domain phases, the arrival delay line, adversary
    /// replay ammunition, and the report-so-far — so a simulation
    /// [resumed](super::SimulationBuilder::resume) from it replays the
    /// remaining rounds byte-identically. Custom IP-core
    /// state is *not* captured (see [`Checkpoint`]).
    #[deny(unused_variables)]
    pub fn checkpoint(&self) -> Checkpoint {
        // The compiler is the coverage check: no `..` here, so a new field
        // of `Simulation` or of a phase struct fails the build (E0027)
        // until it is written below or ignored by name, and a bound field
        // no longer written is an `unused variable` error. A `_` is a
        // reviewed decision: file it under its reason.
        let Simulation {
            // Plan: fixed at build and hashed by `config_digest_value`, so
            // a resume under any other value is refused. So are the
            // fabric's topology and crash schedule and the knob tables,
            // empty or not.
            plan: _,
            // Observers a resumed run installs itself.
            sink: _,
            obs: _,
            fabric:
                Fabric {
                    topology: _,
                    crash_schedule: _,
                    // Derived from the crash schedule at build.
                    deaths_from: _,
                    tiles_alive,
                    links_alive,
                },
            spread:
                Spread {
                    buffers,
                    expired,
                    audience,
                    terminated,
                    // Bookkeeping `restore_from` rebuilds from the buffers.
                    frontier: _,
                    live_total: _,
                    // Scratch, empty at every round boundary.
                    pending_purge: _,
                    emptied_scratch: _,
                },
            flight:
                Flight {
                    injector,
                    arrivals:
                        Arrivals {
                            next,
                            later,
                            // Scratch: the arrivals grouped for the round.
                            grouped: _,
                        },
                    wires,
                    // Scratch, re-drawn each round.
                    receive_tape: _,
                },
            egress:
                Egress {
                    egress_limits: _,
                    forward_overrides: _,
                    egress_next,
                    clocks,
                    compromised,
                    chaos_streams,
                },
            report,
            run:
                Run {
                    round,
                    next_message_id,
                    started,
                    completed,
                    // Trait objects the builder re-maps, whose inboxes
                    // compute drains every round.
                    mapped_ips: _,
                },
        } = self;
        let mut w = Writer::new(self.config_digest_value(), *round, &self.extent());
        w.u64(*next_message_id);
        w.bool(*started);
        w.bool(*completed);
        let snap = injector.snapshot();
        w.rng_state(snap.rng_state);
        w.opt_u64(snap.gauss_spare.map(f64::to_bits));
        w.u64(snap.tally.upsets);
        w.u64(snap.tally.overflow_drops);
        w.u64(snap.tally.skew_draws);
        w.count(chaos_streams.len());
        for stream in chaos_streams {
            w.rng_state(stream.state());
        }
        w.count(compromised.len());
        for (&tile, at) in compromised {
            w.u64(tile as u64);
            w.rng_state(at.stream.state());
        }
        w.count(
            compromised
                .values()
                .filter(|at| at.last_frame.is_some())
                .count(),
        );
        for (&tile, at) in compromised {
            if let Some((id, frame)) = &at.last_frame {
                w.u64(tile as u64);
                w.u64(id.0);
                w.bytes_with(|out| wires.append_bytes(&self.plan.codec, injector, frame, out));
            }
        }
        w.bools(tiles_alive);
        w.bools(links_alive);
        w.count(clocks.len());
        for clock in clocks {
            let (skew, slips) = clock.to_parts();
            w.u64(skew.to_bits());
            w.u64(slips);
        }
        // One cursor a tile, the tiles without a limit included.
        let n = buffers.len();
        w.count(n);
        for tile in 0..n {
            let cursor = egress_next.get(tile).copied().flatten();
            w.opt_u64(cursor.map(|id| id.0));
        }
        // Each message's audience window, whole.
        w.count(audience.windows().count());
        for (id, first, words) in audience.windows() {
            w.u64(id.0);
            w.u32(first as u32);
            w.count(words.len());
            for &word in words {
                w.u64(word);
            }
        }
        // Bodies and clean entries are numbered where first written.
        let mut numbering = Numbering::new(*next_message_id, wires);
        w.count(n);
        for (buffer, &expired) in buffers.iter().zip(expired) {
            w.short_count(buffer.len());
            for held in buffer.as_slice() {
                numbering.copy(&mut w, held);
            }
            w.u64(expired);
        }
        // An arena is written tile by tile: each list is grouped through
        // one scratch, known duplicates back at their places (the target
        // of the link each crossed), and a tile the grouping skips has no
        // frames.
        let mut arena = Grouped::new(n);
        let topology = &self.fabric.topology;
        let receiver = |frame: Frame| {
            frame
                .via()
                .map_or(usize::MAX, |link| topology.link(link).to.index())
        };
        for pending in [next, later] {
            arena.group_with_known(pending, receiver);
            w.count(n);
            let mut tiles = arena.tiles(0, n).peekable();
            for tile in 0..n {
                let frames = tiles.next_if(|&(at, _)| at == tile);
                let frames = frames.map_or(&[][..], |(_, frames)| frames);
                w.short_count(frames.len());
                for f in frames {
                    let via = f.via().map_or(NO_LINK, |link| link.index() as u32);
                    numbering.frame(&mut w, via, f.wire);
                }
            }
        }
        w.count(terminated.len());
        for id in terminated {
            w.u64(id.0);
        }
        w.u64(report.rounds_executed);
        w.bool(report.completed);
        for counter in [
            report.packets_sent,
            report.bits_sent.bits(),
            report.upsets_detected,
            report.upsets_undetected,
            report.overflow_drops,
            report.crash_drops,
            report.clock_slips,
            report.ttl_expirations,
            report.partition_drops,
            report.byzantine_forges,
            report.byzantine_replays,
            report.adversarial_delays,
            report.adversarial_reorders,
            report.quiescent_rounds,
        ] {
            w.u64(counter);
        }
        w.count(report.records().count());
        for rec in report.records() {
            w.u64(rec.id.0);
            w.u64(rec.source.index() as u64);
            w.u64(rec.destination.index() as u64);
            w.u64(rec.injected_round);
            w.opt_u64(rec.delivered_round);
            w.u64(rec.frame_bits.bits());
        }
        w.finish()
    }

    /// What [`Simulation::checkpoint`] writes, counted from above. Capture
    /// defines a body once per distinct content, and every content was
    /// minted where a body is made: an inject (one an id), a Byzantine
    /// forge (one a forgery), or the decode of an upset the CRC missed,
    /// which a buffer can take only where receive counts it undetected.
    /// Every other body shares or repeats one of these: a served or
    /// replayed frame shares its copy's body, and a restore reads back
    /// contents its capture had. So the ids assigned and the two report
    /// counters, which never fall, bound the bodies.
    pub(super) fn extent(&self) -> Extent {
        let frame_bits = self.report.records().map(|rec| rec.frame_bits.bits());
        let windows = self
            .spread
            .audience
            .windows()
            .map(|(_, _, words)| words.len());
        let (windows, window_words) = windows.fold((0, 0), |(n, sum), len| (n + 1, sum + len));
        // The previous round's entries stay named only by a frame held a
        // round longer, which heads its list.
        let held = self
            .flight
            .arrivals
            .next
            .heads()
            .any(|frame| self.flight.wires.slot(frame.wire).0 == 1);
        let report = &self.report;
        let bodies = self.run.next_message_id + report.upsets_undetected + report.byzantine_forges;
        Extent {
            tiles: self.node_count(),
            links: self.fabric.topology.link_count(),
            cursors: self.egress.egress_next.iter().flatten().count(),
            copies: self.spread.live_total as usize,
            frames: self.flight.arrivals.pending_frames() as usize,
            entries: self.flight.wires.kinds(1 + usize::from(held)),
            bodies: bodies as usize,
            windows,
            window_words,
            replays: self.egress.compromised.len(),
            streams: self.egress.chaos_streams.len() + self.egress.compromised.len(),
            records: report.records().count(),
            terminated: self.spread.terminated.len(),
            frame_bytes: frame_bits.max().unwrap_or(0).div_ceil(8) as usize,
        }
    }

    /// Overwrites this (freshly built) simulation's state with a
    /// checkpoint's, streaming the validated bytes section by section
    /// in the order [`Simulation::checkpoint`] wrote them; the buffer
    /// frontier and the live total follow each tile's restored buffer.
    /// Only called from [`SimulationBuilder::resume_with_sink`] on a
    /// simulation that has executed zero rounds, so that bookkeeping and
    /// every scratch structure start empty; a restore that fails midway
    /// leaves a half-written simulation for the caller to drop.
    ///
    /// [`SimulationBuilder::resume_with_sink`]: super::SimulationBuilder::resume_with_sink
    #[expect(
        clippy::disallowed_methods,
        reason = "puts the adversary streams back at their checkpointed positions; main thread, before any round"
    )]
    pub(super) fn restore_from(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        use CheckpointError::Mismatch;
        if ck.config_digest() != self.config_digest_value() {
            return Err(CheckpointError::ConfigMismatch);
        }
        let n = self.node_count();
        let m = self.fabric.topology.link_count();
        let per_tile = |count: usize| {
            (count == n)
                .then_some(())
                .ok_or(Mismatch("per-tile state length"))
        };
        let mut r = ck.body();
        self.run.round = ck.round();
        self.run.next_message_id = r.u64()?;
        // Every `inject` records its id, so the bytes that follow hold a
        // record (41 bytes at least) per id: refused here, before the
        // audience is sized by it.
        if !r.holds(self.run.next_message_id, 41) {
            return Err(Mismatch("more message ids than records"));
        }
        self.spread.audience = Audience::new(n, self.run.next_message_id as usize);
        self.run.started = r.bool()?;
        self.run.completed = r.bool()?;
        let rng_state = r.rng_state()?;
        // Scaled by σ_synch, the spare is the next skew handed to
        // `ClockDomain::advance`.
        let gauss_spare = r.opt_u64()?.map(f64::from_bits);
        if gauss_spare.is_some_and(|spare| !spare.is_finite()) {
            return Err(Mismatch("non-finite Gaussian spare"));
        }
        self.flight.injector.restore(&InjectorSnapshot {
            rng_state,
            gauss_spare,
            tally: InjectionTally {
                upsets: r.u64()?,
                overflow_drops: r.u64()?,
                skew_draws: r.u64()?,
            },
        });
        if r.count(32)? != self.egress.chaos_streams.len() {
            return Err(Mismatch("chaos stream count"));
        }
        for stream in &mut self.egress.chaos_streams {
            *stream = StdRng::from_state(r.rng_state()?);
        }
        if r.count(40)? != self.egress.compromised.len() {
            return Err(Mismatch("byzantine tile set"));
        }
        for _ in 0..self.egress.compromised.len() {
            let tile = r.u64()? as usize;
            let at = self.egress.compromised.get_mut(&tile);
            at.ok_or(Mismatch("byzantine tile set"))?.stream = StdRng::from_state(r.rng_state()?);
        }
        let codec = &self.plan.codec;
        // Only a compromised tile replays, and capture lists each one
        // once, in tile order.
        let mut last_tile = None;
        for _ in 0..r.count(24)? {
            let (tile, id, frame) = (r.u64()? as usize, r.u64()?, r.bytes()?);
            if last_tile.is_some_and(|last| tile <= last) {
                return Err(Mismatch("byzantine replay slots out of tile order"));
            }
            last_tile = Some(tile);
            let at = self.egress.compromised.get_mut(&tile);
            let at = at.ok_or(Mismatch("byzantine replay slot at an honest tile"))?;
            let entry = WireEntry::decoded(codec, frame)
                .map_err(|_| Mismatch("unscrambled frame does not decode"))?;
            at.last_frame = Some((MessageId(id), entry));
        }
        for (alive, len, what) in [
            (&mut self.fabric.tiles_alive, n, "tile liveness length"),
            (&mut self.fabric.links_alive, m, "link liveness length"),
        ] {
            let flags = r.bytes()?;
            if flags.len() != len {
                return Err(Mismatch(what));
            }
            alive.clear();
            alive.extend(flags.iter().map(|&flag| flag != 0));
        }
        per_tile(r.count(16)?)?;
        for clock in &mut self.egress.clocks {
            *clock = ClockDomain::from_parts(f64::from_bits(r.u64()?), r.u64()?)
                .ok_or(Mismatch("clock skew outside (-0.5, 0.5]"))?;
        }
        // Only a tile with a limit moves its cursor.
        per_tile(r.count(1)?)?;
        for tile in 0..n {
            let Some(id) = r.opt_u64()? else {
                continue;
            };
            let limited = matches!(self.egress.egress_limits.get(tile), Some(Some(_)));
            let cursor = self.egress.egress_next.get_mut(tile).filter(|_| limited);
            *cursor.ok_or(Mismatch("egress cursor at a tile without a limit"))? =
                Some(MessageId(id));
        }
        // The audience, window by window, ascending by id; each window's
        // words are bytes of the checkpoint, so what they allocate is too.
        let mut last_id = None;
        for _ in 0..r.count(8 + 4 + 8)? {
            let (id, first) = (MessageId(r.u64()?), r.u32()? as usize);
            if last_id.is_some_and(|last| id <= last) {
                return Err(Mismatch("audience windows out of id order"));
            }
            last_id = Some(id);
            let words = (0..r.count(8)?)
                .map(|_| r.u64())
                .collect::<Result<_, _>>()?;
            self.spread
                .audience
                .restore(id, first, words)
                .map_err(Mismatch)?;
        }
        // Tiles buffering the same message share its body, as they do in
        // a live run: a copy names its body by number.
        let mut defined = Defined::default();
        per_tile(r.count(4 + 8)?)?;
        let mut copies = Vec::new();
        let spread = &mut self.spread;
        let tiles = spread.buffers.iter_mut().zip(&mut spread.expired);
        for (tile, (buffer, expired)) in tiles.enumerate() {
            for _ in 0..r.short_count(4 + 1)? {
                let copy = defined.copy(&mut r, tile)?;
                // A buffer keeps one copy of a message because its tile
                // has seen the id: a copy of an id the tile's audience
                // lacks would be buffered again by the next to arrive.
                if !spread.audience.contains(copy.id(), tile) {
                    return Err(Mismatch("buffered message repeats or was never seen"));
                }
                copies.push(copy);
            }
            *buffer = Live::take_from(&mut copies);
            *expired = r.u64()?;
            if !buffer.is_empty() {
                spread.frontier.insert(tile);
                spread.live_total += buffer.len() as u64;
            }
        }
        // Appended tile by tile, each tile's frames in arrival order: the
        // order grouping gives them back in. A clean entry is registered
        // where it is defined and shared by number after; each upset copy
        // was one transmission's, and gets an entry of its own.
        let flight = &mut self.flight;
        for pending in [&mut flight.arrivals.next, &mut flight.arrivals.later] {
            per_tile(r.count(4)?)?;
            for tile in 0..n {
                for _ in 0..r.short_count(4 + 4)? {
                    // The link and the entry word, read as one.
                    let word = r.u64()?;
                    let (via, entry) = (word as u32, (word >> 32) as u32);
                    if via != NO_LINK && via as usize >= m {
                        return Err(Mismatch("arena frame link index"));
                    }
                    let wire = defined.entry(entry, &mut r, &mut flight.wires, codec)?;
                    let via = (via != NO_LINK).then_some(LinkId(via as usize));
                    pending.push(tile, Frame::new(wire, via), false);
                }
            }
        }
        for _ in 0..r.count(8)? {
            spread.terminated.insert(MessageId(r.u64()?));
        }
        let report = &mut self.report;
        report.rounds_executed = r.u64()?;
        report.completed = r.bool()?;
        report.packets_sent = r.u64()?;
        report.bits_sent = Bits(r.u64()?);
        for counter in [
            &mut report.upsets_detected,
            &mut report.upsets_undetected,
            &mut report.overflow_drops,
            &mut report.crash_drops,
            &mut report.clock_slips,
            &mut report.ttl_expirations,
            &mut report.partition_drops,
            &mut report.byzantine_forges,
            &mut report.byzantine_replays,
            &mut report.adversarial_delays,
            &mut report.adversarial_reorders,
            &mut report.quiescent_rounds,
        ] {
            *counter = r.u64()?;
        }
        if r.count(41)? as u64 != self.run.next_message_id {
            return Err(Mismatch("records are not the ids injected"));
        }
        for next in 0..self.run.next_message_id {
            let id = r.u64()?;
            if id != next {
                return Err(Mismatch("records are not the ids injected"));
            }
            report.record_injection(MessageRecord {
                id: MessageId(id),
                source: NodeId(r.u64()? as usize),
                destination: NodeId(r.u64()? as usize),
                injected_round: r.u64()?,
                delivered_round: r.opt_u64()?,
                frame_bits: Bits(r.u64()?),
            });
        }
        Ok(())
    }
}

/// A knob table as [`Simulation::config_digest_value`] hashes it: the
/// `Debug` text of its dense form, `n` entries with the unset ones `None`,
/// whether the table was ever allocated or not.
struct PerTile<'a, T>(&'a [Option<T>], usize);

impl<T: fmt::Debug> fmt::Debug for PerTile<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let PerTile(table, n) = *self;
        f.debug_list()
            .entries((0..n).map(|tile| table.get(tile).and_then(Option::as_ref)))
            .finish()
    }
}
