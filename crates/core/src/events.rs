//! Structured event tracing of the packet lifecycle.
//!
//! Every statistical claim the simulator makes — delivery probability,
//! latency jitter, energy under DSM faults — is an aggregate over
//! individual packet fates. This module makes those fates observable:
//! the engine emits one [`SimEvent`] at every decision point in the hot
//! path (transmission, CRC verdict, overflow, crash, duplicate
//! suppression, TTL expiry, clock slip, delivery), attributed to the
//! round, tile and (where meaningful) link at which it happened.
//!
//! Sinks implement [`EventSink`] and are installed at build time via
//! [`crate::SimulationBuilder::build_with_sink`]. The engine is generic
//! over the sink type, so the default [`NullSink`] monomorphizes every
//! emission into nothing — a simulation built with
//! [`crate::SimulationBuilder::build`] pays zero cost for the
//! instrumentation (guarded by the golden-report digests, which are
//! byte-identical with any sink installed: sinks observe, they never
//! influence; `noc_benchmark` reports what a recording sink costs as
//! `trace.overhead_pct`).
//!
//! Provided sinks:
//!
//! * [`NullSink`] — discards everything (the default engine);
//! * [`CounterSink`] — per-tile / per-link event histograms whose sums
//!   reconcile *exactly* with [`crate::SimulationReport`]'s global
//!   counters ([`CounterSink::reconcile`] is the standing oracle);
//! * [`JsonlSink`] — one JSON object per event on any [`std::io::Write`],
//!   for offline analysis;
//! * `Vec<SimEvent>` — collects raw events, handy in tests.

use std::io::Write;

use noc_fabric::{LinkId, MessageId, NodeId};

use crate::metrics::SimulationReport;

/// Where a crash drop happened: at a dead receiving tile, or on a dead
/// link in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropSite {
    /// The frame arrived at a tile that is dead (defective or crashed).
    Tile(NodeId),
    /// The frame was transmitted onto a dead link.
    Link(LinkId),
}

/// One observable event in a packet's lifecycle.
///
/// Events carry the round they happened in and the tile/link they are
/// attributed to. Message ids are included where the engine knows them —
/// a frame rejected by the CRC never yields a trustworthy id, so
/// [`SimEvent::CrcReject`] carries only its location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A frame was transmitted onto a link (counted whether or not the
    /// link turns out to be dead — the sender spent the energy).
    FrameSent {
        /// Round of transmission.
        round: u64,
        /// Transmitting tile.
        from: NodeId,
        /// Link the frame was placed on.
        link: LinkId,
        /// Receiving end of the link.
        to: NodeId,
        /// The message carried by the frame.
        message: MessageId,
    },
    /// A buffered message was serviced by a tile's egress scheduler this
    /// round (offered to every output link, each with probability `p`).
    Forwarded {
        /// Round of service.
        round: u64,
        /// Forwarding tile.
        tile: NodeId,
        /// The serviced message.
        message: MessageId,
    },
    /// A scrambled frame was discarded at receive: the CRC check caught
    /// it, or passed it with a body that failed to parse.
    CrcReject {
        /// Round of rejection.
        round: u64,
        /// Receiving tile.
        tile: NodeId,
        /// Link the frame arrived on (`None` for local loopback).
        link: Option<LinkId>,
    },
    /// A scrambled frame *passed* the CRC check and entered the buffer —
    /// the residual undetected-error case.
    UndetectedUpset {
        /// Round of acceptance.
        round: u64,
        /// Receiving tile.
        tile: NodeId,
        /// The (possibly corrupted) message id that was accepted.
        message: MessageId,
    },
    /// A frame was dropped by receive-buffer overflow.
    OverflowDrop {
        /// Round of the drop.
        round: u64,
        /// Overflowing tile.
        tile: NodeId,
    },
    /// A frame was swallowed by a dead tile or dead link.
    CrashDrop {
        /// Round of the drop.
        round: u64,
        /// Where the frame died.
        site: DropSite,
    },
    /// An arriving frame was suppressed as redundant: its message is
    /// already in the tile's seen-set, or its spread has terminated.
    DuplicateDrop {
        /// Round of suppression.
        round: u64,
        /// Receiving tile.
        tile: NodeId,
        /// The redundant message.
        message: MessageId,
    },
    /// A buffered message was garbage-collected by TTL expiry.
    TtlExpiry {
        /// Round of collection.
        round: u64,
        /// Tile whose buffer expired the message.
        tile: NodeId,
        /// The expired message.
        message: MessageId,
    },
    /// A tile's accumulated synchronization skew crossed a round
    /// boundary; one event per whole-round slip.
    ClockSlip {
        /// Round of the slip.
        round: u64,
        /// Slipping tile.
        tile: NodeId,
    },
    /// First delivery of a message to its destination IP.
    Delivery {
        /// Round of delivery.
        round: u64,
        /// Destination tile.
        tile: NodeId,
        /// The delivered message.
        message: MessageId,
        /// Originating tile.
        source: NodeId,
    },
    /// A frame was forwarded onto a link severed by an active partition
    /// cut and lost (the sender spent the transmission energy).
    PartitionDrop {
        /// Round of the drop.
        round: u64,
        /// The severed link.
        link: LinkId,
    },
    /// A Byzantine tile emitted a forged, CRC-valid equivocation of a
    /// buffered message.
    ByzantineForge {
        /// Round of the forgery.
        round: u64,
        /// The compromised tile.
        tile: NodeId,
        /// The message whose payload was forged.
        message: MessageId,
    },
    /// A Byzantine tile replayed the frame it last forwarded
    /// legitimately.
    ByzantineReplay {
        /// Round of the replay.
        round: u64,
        /// The compromised tile.
        tile: NodeId,
    },
    /// Adversarial latency jitter held a frame back one round.
    AdversarialDelay {
        /// Round of transmission.
        round: u64,
        /// The jittering link.
        link: LinkId,
    },
    /// Adversarial reordering pushed a frame to the front of its
    /// destination's receive queue.
    AdversarialReorder {
        /// Round of transmission.
        round: u64,
        /// The reordering link.
        link: LinkId,
    },
    /// The active frontier drained to zero live messages at the end of a
    /// round that did not complete the run: every send buffer is empty,
    /// but frames still sit in the arrival delay line (chaos-delayed or
    /// slip-held) or an IP is still awaiting input. Quiescent rounds are
    /// the O(active) fast path of the frontier worklist — this event
    /// makes that behavior observable and exactly checkable.
    RoundQuiescent {
        /// The quiescent round.
        round: u64,
        /// Frames still in flight in the arrival delay line.
        inflight: u64,
    },
}

impl SimEvent {
    /// The round the event happened in.
    pub fn round(&self) -> u64 {
        match *self {
            SimEvent::FrameSent { round, .. }
            | SimEvent::Forwarded { round, .. }
            | SimEvent::CrcReject { round, .. }
            | SimEvent::UndetectedUpset { round, .. }
            | SimEvent::OverflowDrop { round, .. }
            | SimEvent::CrashDrop { round, .. }
            | SimEvent::DuplicateDrop { round, .. }
            | SimEvent::TtlExpiry { round, .. }
            | SimEvent::ClockSlip { round, .. }
            | SimEvent::Delivery { round, .. }
            | SimEvent::PartitionDrop { round, .. }
            | SimEvent::ByzantineForge { round, .. }
            | SimEvent::ByzantineReplay { round, .. }
            | SimEvent::AdversarialDelay { round, .. }
            | SimEvent::AdversarialReorder { round, .. }
            | SimEvent::RoundQuiescent { round, .. } => round,
        }
    }

    /// A stable lowercase tag naming the event kind (the `"event"` field
    /// of the JSONL encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::FrameSent { .. } => "frame_sent",
            SimEvent::Forwarded { .. } => "forwarded",
            SimEvent::CrcReject { .. } => "crc_reject",
            SimEvent::UndetectedUpset { .. } => "undetected_upset",
            SimEvent::OverflowDrop { .. } => "overflow_drop",
            SimEvent::CrashDrop { .. } => "crash_drop",
            SimEvent::DuplicateDrop { .. } => "duplicate_drop",
            SimEvent::TtlExpiry { .. } => "ttl_expiry",
            SimEvent::ClockSlip { .. } => "clock_slip",
            SimEvent::Delivery { .. } => "delivery",
            SimEvent::PartitionDrop { .. } => "partition_drop",
            SimEvent::ByzantineForge { .. } => "byzantine_forge",
            SimEvent::ByzantineReplay { .. } => "byzantine_replay",
            SimEvent::AdversarialDelay { .. } => "adversarial_delay",
            SimEvent::AdversarialReorder { .. } => "adversarial_reorder",
            SimEvent::RoundQuiescent { .. } => "round_quiescent",
        }
    }
}

/// An observer of simulation events.
///
/// Contract: sinks are *passive*. A sink must not (and cannot, through
/// this interface) influence the simulation — the engine's RNG streams,
/// state transitions and report are identical whatever sink is
/// installed, which the golden-report digest tests enforce. `emit` is
/// called on the hot path; implementations should be cheap or buffer.
pub trait EventSink {
    /// Does this sink actually record events? `false` promises that
    /// every event is discarded ([`NullSink`]). It lets the sharded
    /// engine skip collecting per-worker event vectors, and lets the
    /// forward walk set aside a frame it can prove a duplicate at its
    /// receiver, which then never reaches the receive phase or its
    /// `DuplicateDrop`. Reports and checkpoints are the same either way.
    /// A sink that keeps any event must leave the default.
    const RECORDS: bool = true;

    /// Observes one event.
    fn emit(&mut self, event: SimEvent);
}

/// The default sink: discards every event.
///
/// Because the engine is monomorphized per sink type, a simulation built
/// with `NullSink` compiles every emission point down to nothing — the
/// zero-overhead-when-disabled guarantee.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    const RECORDS: bool = false;

    #[inline(always)]
    fn emit(&mut self, _event: SimEvent) {}
}

/// Forwarding impl so a borrowed sink can be installed while the caller
/// keeps ownership (e.g. inspect a [`CounterSink`] after the run without
/// consuming the simulation).
impl<S: EventSink + ?Sized> EventSink for &mut S {
    const RECORDS: bool = S::RECORDS;

    #[inline]
    fn emit(&mut self, event: SimEvent) {
        (**self).emit(event);
    }
}

/// Collects every event in order — convenient in tests.
impl EventSink for Vec<SimEvent> {
    #[inline]
    fn emit(&mut self, event: SimEvent) {
        self.push(event);
    }
}

/// Per-location event tallies accumulated by [`CounterSink`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// Frames transmitted (sender-attributed for tiles, carrier for links).
    pub frames_sent: u64,
    /// Messages serviced by the egress scheduler.
    pub forwards: u64,
    /// Frames discarded by the CRC check.
    pub crc_rejects: u64,
    /// Scrambled frames accepted past the CRC.
    pub undetected_upsets: u64,
    /// Frames dropped by receive-buffer overflow.
    pub overflow_drops: u64,
    /// Frames swallowed by dead tiles/links.
    pub crash_drops: u64,
    /// Redundant arrivals suppressed.
    pub duplicate_drops: u64,
    /// Messages garbage-collected by TTL expiry.
    pub ttl_expirations: u64,
    /// Round-boundary slips.
    pub clock_slips: u64,
    /// First deliveries to destination IPs.
    pub deliveries: u64,
    /// Frames lost to active partition cuts.
    pub partition_drops: u64,
    /// Forged CRC-valid frames emitted by Byzantine tiles.
    pub byzantine_forges: u64,
    /// Stale frames replayed by Byzantine tiles.
    pub byzantine_replays: u64,
    /// Frames delayed one round by adversarial jitter.
    pub adversarial_delays: u64,
    /// Frames that jumped a receive queue through adversarial reordering.
    pub adversarial_reorders: u64,
}

/// Number of event-count kinds tracked per location — one per
/// [`EventCounts`] field, in declaration order.
const KINDS: usize = 15;

/// Column indices into a [`Table`] row, mirroring the [`EventCounts`]
/// field order (`from_slots` below is the single source of truth for
/// the mapping).
mod kind {
    pub(super) const FRAMES_SENT: usize = 0;
    pub(super) const FORWARDS: usize = 1;
    pub(super) const CRC_REJECTS: usize = 2;
    pub(super) const UNDETECTED_UPSETS: usize = 3;
    pub(super) const OVERFLOW_DROPS: usize = 4;
    pub(super) const CRASH_DROPS: usize = 5;
    pub(super) const DUPLICATE_DROPS: usize = 6;
    pub(super) const TTL_EXPIRATIONS: usize = 7;
    pub(super) const CLOCK_SLIPS: usize = 8;
    pub(super) const DELIVERIES: usize = 9;
    pub(super) const PARTITION_DROPS: usize = 10;
    pub(super) const BYZANTINE_FORGES: usize = 11;
    pub(super) const BYZANTINE_REPLAYS: usize = 12;
    pub(super) const ADVERSARIAL_DELAYS: usize = 13;
    pub(super) const ADVERSARIAL_REORDERS: usize = 14;
}

/// Dense per-location counter storage: one flat `u64` array indexed
/// `location * KINDS + kind`. The hot path ([`CounterSink`]'s `emit`)
/// is a multiply-add and one slot increment — no per-location struct
/// stride, and with [`CounterSink::with_capacity`] no growth check ever
/// fires on a resize path.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Table {
    slots: Vec<u64>,
}

impl Table {
    fn with_locations(locations: usize) -> Self {
        Table {
            slots: vec![0; locations * KINDS],
        }
    }

    fn locations(&self) -> usize {
        self.slots.len() / KINDS
    }

    #[inline]
    fn bump(&mut self, location: usize, kind: usize) {
        let index = location * KINDS + kind;
        if index >= self.slots.len() {
            self.grow(location + 1);
        }
        self.slots[index] += 1;
    }

    #[cold]
    fn grow(&mut self, locations: usize) {
        self.slots.resize(locations * KINDS, 0);
    }

    fn get(&self, location: usize, kind: usize) -> u64 {
        self.slots
            .get(location * KINDS + kind)
            .copied()
            .unwrap_or(0)
    }

    fn counts(&self, location: usize) -> EventCounts {
        EventCounts::from_slots(&self.slots[location * KINDS..(location + 1) * KINDS])
    }

    fn merge(&mut self, other: &Table) {
        if self.slots.len() < other.slots.len() {
            self.slots.resize(other.slots.len(), 0);
        }
        for (mine, theirs) in self.slots.iter_mut().zip(&other.slots) {
            *mine += *theirs;
        }
    }
}

impl EventCounts {
    /// Rehydrates one [`Table`] row (see [`kind`] for the column map).
    fn from_slots(slots: &[u64]) -> EventCounts {
        EventCounts {
            frames_sent: slots[kind::FRAMES_SENT],
            forwards: slots[kind::FORWARDS],
            crc_rejects: slots[kind::CRC_REJECTS],
            undetected_upsets: slots[kind::UNDETECTED_UPSETS],
            overflow_drops: slots[kind::OVERFLOW_DROPS],
            crash_drops: slots[kind::CRASH_DROPS],
            duplicate_drops: slots[kind::DUPLICATE_DROPS],
            ttl_expirations: slots[kind::TTL_EXPIRATIONS],
            clock_slips: slots[kind::CLOCK_SLIPS],
            deliveries: slots[kind::DELIVERIES],
            partition_drops: slots[kind::PARTITION_DROPS],
            byzantine_forges: slots[kind::BYZANTINE_FORGES],
            byzantine_replays: slots[kind::BYZANTINE_REPLAYS],
            adversarial_delays: slots[kind::ADVERSARIAL_DELAYS],
            adversarial_reorders: slots[kind::ADVERSARIAL_REORDERS],
        }
    }

    /// Adds `other` into `self`, field by field.
    pub fn merge(&mut self, other: &EventCounts) {
        self.frames_sent += other.frames_sent;
        self.forwards += other.forwards;
        self.crc_rejects += other.crc_rejects;
        self.undetected_upsets += other.undetected_upsets;
        self.overflow_drops += other.overflow_drops;
        self.crash_drops += other.crash_drops;
        self.duplicate_drops += other.duplicate_drops;
        self.ttl_expirations += other.ttl_expirations;
        self.clock_slips += other.clock_slips;
        self.deliveries += other.deliveries;
        self.partition_drops += other.partition_drops;
        self.byzantine_forges += other.byzantine_forges;
        self.byzantine_replays += other.byzantine_replays;
        self.adversarial_delays += other.adversarial_delays;
        self.adversarial_reorders += other.adversarial_reorders;
    }
}

/// Accumulates per-tile and per-link event histograms.
///
/// The per-tile sums reconcile exactly with the global counters of the
/// [`SimulationReport`] produced by the same run — that identity is the
/// repo's standing reconciliation oracle, checked by
/// [`CounterSink::reconcile`]. Crash drops split across the two
/// attribution axes: dead-*tile* arrivals are tile-attributed, dead-*link*
/// transmissions are link-attributed, and the two sum to the report's
/// `crash_drops`.
///
/// # Examples
///
/// ```
/// use noc_fabric::{Grid2d, NodeId};
/// use stochastic_noc::events::CounterSink;
/// use stochastic_noc::{SimulationBuilder, StochasticConfig};
///
/// let mut sim = SimulationBuilder::new(Grid2d::new(4, 4))
///     .config(StochasticConfig::flooding(8).with_max_rounds(20))
///     .seed(1)
///     .build_with_sink(CounterSink::new());
/// sim.inject(NodeId(0), NodeId(15), vec![1]);
/// let (report, counters) = sim.run_to_report_and_sink();
/// counters.reconcile(&report).expect("events reconcile with totals");
/// assert_eq!(counters.totals().frames_sent, report.packets_sent);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CounterSink {
    tiles: Table,
    links: Table,
    totals: EventCounts,
    /// Rounds that ended with zero live messages without completing the
    /// run. A whole-round observation, not a per-location event, so it
    /// lives beside the location tables rather than in [`EventCounts`].
    quiescent_rounds: u64,
}

impl CounterSink {
    /// An empty counter sink; per-location tables grow on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter sink with the per-location tables preallocated for
    /// `tiles` tiles and `links` links, so no `emit` on the hot path
    /// ever takes the growth branch. Sinks only compare equal when
    /// their table extents match, so fold same-constructor sinks
    /// together (as the sweep harnesses do).
    pub fn with_capacity(tiles: usize, links: usize) -> Self {
        CounterSink {
            tiles: Table::with_locations(tiles),
            links: Table::with_locations(links),
            totals: EventCounts::default(),
            quiescent_rounds: 0,
        }
    }

    /// Global tallies (every event counted exactly once).
    pub fn totals(&self) -> &EventCounts {
        &self.totals
    }

    /// Per-tile tallies, indexed by tile; tiles past the table extent
    /// (the preallocated capacity, or the highest tile that counted an
    /// event) are absent. Rehydrated from the dense storage on call —
    /// an inspection API, not a hot-path one.
    pub fn tiles(&self) -> Vec<EventCounts> {
        (0..self.tiles.locations())
            .map(|i| self.tiles.counts(i))
            .collect()
    }

    /// Per-link tallies, indexed by link id; same conventions as
    /// [`CounterSink::tiles`].
    pub fn links(&self) -> Vec<EventCounts> {
        (0..self.links.locations())
            .map(|i| self.links.counts(i))
            .collect()
    }

    /// Rounds observed to end quiescent (no live messages, run not yet
    /// complete) — the frontier worklist's fast-path rounds.
    pub fn quiescent_rounds(&self) -> u64 {
        self.quiescent_rounds
    }

    /// Recomputes the global tallies from the per-tile and per-link
    /// tables (crash drops are the one counter split across both axes).
    /// Equal to [`CounterSink::totals`] by construction; [`reconcile`]
    /// asserts it, catching any future attribution bug.
    ///
    /// [`reconcile`]: CounterSink::reconcile
    pub fn summed_from_locations(&self) -> EventCounts {
        let mut sum = EventCounts::default();
        for tile in 0..self.tiles.locations() {
            sum.merge(&self.tiles.counts(tile));
        }
        // Tile-axis frames_sent already covers every transmission; the
        // link table is a second view of the same events, so only the
        // counters attributed exclusively to links (absent from the tile
        // axis) fold in: crash drops on dead links, partition drops, and
        // adversarial delay/reorder jitter.
        for link in 0..self.links.locations() {
            sum.crash_drops += self.links.get(link, kind::CRASH_DROPS);
            sum.partition_drops += self.links.get(link, kind::PARTITION_DROPS);
            sum.adversarial_delays += self.links.get(link, kind::ADVERSARIAL_DELAYS);
            sum.adversarial_reorders += self.links.get(link, kind::ADVERSARIAL_REORDERS);
        }
        sum
    }

    /// Adds every tally of `other` into `self` — the deterministic
    /// per-trial merge used by Monte-Carlo sweeps (fold trials in
    /// index order and the result is independent of the worker count).
    pub fn merge(&mut self, other: &CounterSink) {
        self.tiles.merge(&other.tiles);
        self.links.merge(&other.links);
        self.totals.merge(&other.totals);
        self.quiescent_rounds += other.quiescent_rounds;
    }

    /// Checks the reconciliation identity: the per-location sums must
    /// equal both the running totals and every global counter of
    /// `report`. Returns a description of the first mismatch.
    pub fn reconcile(&self, report: &SimulationReport) -> Result<(), String> {
        let summed = self.summed_from_locations();
        if summed != self.totals {
            return Err(format!(
                "internal attribution drift: per-location sums {summed:?} != running totals {:?}",
                self.totals
            ));
        }
        let checks: [(&str, u64, u64); 12] = [
            ("packets_sent", summed.frames_sent, report.packets_sent),
            (
                "upsets_detected",
                summed.crc_rejects,
                report.upsets_detected,
            ),
            (
                "upsets_undetected",
                summed.undetected_upsets,
                report.upsets_undetected,
            ),
            (
                "overflow_drops",
                summed.overflow_drops,
                report.overflow_drops,
            ),
            ("crash_drops", summed.crash_drops, report.crash_drops),
            ("clock_slips", summed.clock_slips, report.clock_slips),
            (
                "ttl_expirations",
                summed.ttl_expirations,
                report.ttl_expirations,
            ),
            (
                "partition_drops",
                summed.partition_drops,
                report.partition_drops,
            ),
            (
                "byzantine_forges",
                summed.byzantine_forges,
                report.byzantine_forges,
            ),
            (
                "byzantine_replays",
                summed.byzantine_replays,
                report.byzantine_replays,
            ),
            (
                "adversarial_delays",
                summed.adversarial_delays,
                report.adversarial_delays,
            ),
            (
                "adversarial_reorders",
                summed.adversarial_reorders,
                report.adversarial_reorders,
            ),
        ];
        for (name, events, global) in checks {
            if events != global {
                return Err(format!(
                    "counter `{name}`: attributed events sum to {events}, report says {global}"
                ));
            }
        }
        let delivered = report.messages_delivered() as u64;
        if summed.deliveries != delivered {
            return Err(format!(
                "counter `deliveries`: attributed events sum to {}, report delivered {delivered}",
                summed.deliveries
            ));
        }
        if self.quiescent_rounds != report.quiescent_rounds {
            return Err(format!(
                "counter `quiescent_rounds`: {} events observed, report says {}",
                self.quiescent_rounds, report.quiescent_rounds
            ));
        }
        Ok(())
    }
}

impl EventSink for CounterSink {
    // Every `SimEvent` variant gets an arm of its own: a new variant is
    // E0004 here, and a `_` arm standing in for one fails clippy.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    #[inline]
    fn emit(&mut self, event: SimEvent) {
        match event {
            SimEvent::FrameSent { from, link, .. } => {
                self.tiles.bump(from.index(), kind::FRAMES_SENT);
                self.links.bump(link.index(), kind::FRAMES_SENT);
                self.totals.frames_sent += 1;
            }
            SimEvent::Forwarded { tile, .. } => {
                self.tiles.bump(tile.index(), kind::FORWARDS);
                self.totals.forwards += 1;
            }
            SimEvent::CrcReject { tile, link, .. } => {
                self.tiles.bump(tile.index(), kind::CRC_REJECTS);
                if let Some(link) = link {
                    self.links.bump(link.index(), kind::CRC_REJECTS);
                }
                self.totals.crc_rejects += 1;
            }
            SimEvent::UndetectedUpset { tile, .. } => {
                self.tiles.bump(tile.index(), kind::UNDETECTED_UPSETS);
                self.totals.undetected_upsets += 1;
            }
            SimEvent::OverflowDrop { tile, .. } => {
                self.tiles.bump(tile.index(), kind::OVERFLOW_DROPS);
                self.totals.overflow_drops += 1;
            }
            SimEvent::CrashDrop { site, .. } => {
                match site {
                    DropSite::Tile(tile) => self.tiles.bump(tile.index(), kind::CRASH_DROPS),
                    DropSite::Link(link) => self.links.bump(link.index(), kind::CRASH_DROPS),
                }
                self.totals.crash_drops += 1;
            }
            SimEvent::DuplicateDrop { tile, .. } => {
                self.tiles.bump(tile.index(), kind::DUPLICATE_DROPS);
                self.totals.duplicate_drops += 1;
            }
            SimEvent::TtlExpiry { tile, .. } => {
                self.tiles.bump(tile.index(), kind::TTL_EXPIRATIONS);
                self.totals.ttl_expirations += 1;
            }
            SimEvent::ClockSlip { tile, .. } => {
                self.tiles.bump(tile.index(), kind::CLOCK_SLIPS);
                self.totals.clock_slips += 1;
            }
            SimEvent::Delivery { tile, .. } => {
                self.tiles.bump(tile.index(), kind::DELIVERIES);
                self.totals.deliveries += 1;
            }
            SimEvent::PartitionDrop { link, .. } => {
                self.links.bump(link.index(), kind::PARTITION_DROPS);
                self.totals.partition_drops += 1;
            }
            SimEvent::ByzantineForge { tile, .. } => {
                self.tiles.bump(tile.index(), kind::BYZANTINE_FORGES);
                self.totals.byzantine_forges += 1;
            }
            SimEvent::ByzantineReplay { tile, .. } => {
                self.tiles.bump(tile.index(), kind::BYZANTINE_REPLAYS);
                self.totals.byzantine_replays += 1;
            }
            SimEvent::AdversarialDelay { link, .. } => {
                self.links.bump(link.index(), kind::ADVERSARIAL_DELAYS);
                self.totals.adversarial_delays += 1;
            }
            SimEvent::AdversarialReorder { link, .. } => {
                self.links.bump(link.index(), kind::ADVERSARIAL_REORDERS);
                self.totals.adversarial_reorders += 1;
            }
            SimEvent::RoundQuiescent { .. } => {
                self.quiescent_rounds += 1;
            }
        }
    }
}

/// Duplicates every event to two sinks, so independent consumers — a
/// JSONL trace and a [`CounterSink`], say — observe the *same* stream
/// from a *single* run instead of re-running the trial per consumer.
/// This is the composition behind `--trace-events` + `--metrics-out`
/// in the experiments CLI.
///
/// Events are `Copy`, so the fan-out costs two moves; `RECORDS` is the
/// OR of the parts, so a tee of two non-recording sinks still
/// monomorphizes the emission points away.
#[derive(Debug, Default, Clone)]
pub struct TeeSink<A, B> {
    first: A,
    second: B,
}

impl<A: EventSink, B: EventSink> TeeSink<A, B> {
    /// Tees `first` and `second` into one sink.
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }

    /// The first sink, borrowed.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// The second sink, borrowed.
    pub fn second(&self) -> &B {
        &self.second
    }

    /// Splits the tee back into its parts.
    pub fn into_parts(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: EventSink, B: EventSink> EventSink for TeeSink<A, B> {
    const RECORDS: bool = A::RECORDS || B::RECORDS;

    #[inline]
    fn emit(&mut self, event: SimEvent) {
        self.first.emit(event);
        self.second.emit(event);
    }
}

/// Streams events as JSON Lines to any writer, for offline analysis.
///
/// One object per line, e.g.:
///
/// ```text
/// {"event":"frame_sent","round":3,"from":5,"link":12,"to":6,"message":0}
/// {"event":"crc_reject","round":4,"tile":6,"link":17}
/// ```
///
/// The encoding is hand-rolled but stable: field order is fixed per
/// event kind, and every value is an integer or the kind tag. Rounds are
/// non-decreasing within one simulation, so a JSONL file sorts naturally
/// by emission order.
///
/// # Panics
///
/// [`EventSink::emit`] panics if the underlying writer fails — the sink
/// is a diagnostic tool and silently losing trace lines would defeat it.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    written: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer. Consider a [`std::io::BufWriter`] for files: the
    /// sink writes one line per event on the hot path.
    pub fn new(out: W) -> Self {
        Self { out, written: 0 }
    }

    /// Number of event lines written so far.
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if the final flush fails.
    pub fn into_inner(mut self) -> W {
        self.out.flush().expect("flush JSONL event sink");
        self.out
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    // Every `SimEvent` variant gets an arm of its own: a new variant is
    // E0004 here, and a `_` arm standing in for one fails clippy.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn emit(&mut self, event: SimEvent) {
        let result = match event {
            SimEvent::FrameSent {
                round,
                from,
                link,
                to,
                message,
            } => writeln!(
                self.out,
                "{{\"event\":\"frame_sent\",\"round\":{round},\"from\":{},\"link\":{},\"to\":{},\"message\":{}}}",
                from.index(),
                link.index(),
                to.index(),
                message.0,
            ),
            SimEvent::Forwarded {
                round,
                tile,
                message,
            } => writeln!(
                self.out,
                "{{\"event\":\"forwarded\",\"round\":{round},\"tile\":{},\"message\":{}}}",
                tile.index(),
                message.0,
            ),
            SimEvent::CrcReject { round, tile, link } => match link {
                Some(link) => writeln!(
                    self.out,
                    "{{\"event\":\"crc_reject\",\"round\":{round},\"tile\":{},\"link\":{}}}",
                    tile.index(),
                    link.index(),
                ),
                None => writeln!(
                    self.out,
                    "{{\"event\":\"crc_reject\",\"round\":{round},\"tile\":{}}}",
                    tile.index(),
                ),
            },
            SimEvent::UndetectedUpset {
                round,
                tile,
                message,
            } => writeln!(
                self.out,
                "{{\"event\":\"undetected_upset\",\"round\":{round},\"tile\":{},\"message\":{}}}",
                tile.index(),
                message.0,
            ),
            SimEvent::OverflowDrop { round, tile } => writeln!(
                self.out,
                "{{\"event\":\"overflow_drop\",\"round\":{round},\"tile\":{}}}",
                tile.index(),
            ),
            SimEvent::CrashDrop { round, site } => match site {
                DropSite::Tile(tile) => writeln!(
                    self.out,
                    "{{\"event\":\"crash_drop\",\"round\":{round},\"tile\":{}}}",
                    tile.index(),
                ),
                DropSite::Link(link) => writeln!(
                    self.out,
                    "{{\"event\":\"crash_drop\",\"round\":{round},\"link\":{}}}",
                    link.index(),
                ),
            },
            SimEvent::DuplicateDrop {
                round,
                tile,
                message,
            } => writeln!(
                self.out,
                "{{\"event\":\"duplicate_drop\",\"round\":{round},\"tile\":{},\"message\":{}}}",
                tile.index(),
                message.0,
            ),
            SimEvent::TtlExpiry {
                round,
                tile,
                message,
            } => writeln!(
                self.out,
                "{{\"event\":\"ttl_expiry\",\"round\":{round},\"tile\":{},\"message\":{}}}",
                tile.index(),
                message.0,
            ),
            SimEvent::ClockSlip { round, tile } => writeln!(
                self.out,
                "{{\"event\":\"clock_slip\",\"round\":{round},\"tile\":{}}}",
                tile.index(),
            ),
            SimEvent::Delivery {
                round,
                tile,
                message,
                source,
            } => writeln!(
                self.out,
                "{{\"event\":\"delivery\",\"round\":{round},\"tile\":{},\"message\":{},\"source\":{}}}",
                tile.index(),
                message.0,
                source.index(),
            ),
            SimEvent::PartitionDrop { round, link } => writeln!(
                self.out,
                "{{\"event\":\"partition_drop\",\"round\":{round},\"link\":{}}}",
                link.index(),
            ),
            SimEvent::ByzantineForge {
                round,
                tile,
                message,
            } => writeln!(
                self.out,
                "{{\"event\":\"byzantine_forge\",\"round\":{round},\"tile\":{},\"message\":{}}}",
                tile.index(),
                message.0,
            ),
            SimEvent::ByzantineReplay { round, tile } => writeln!(
                self.out,
                "{{\"event\":\"byzantine_replay\",\"round\":{round},\"tile\":{}}}",
                tile.index(),
            ),
            SimEvent::AdversarialDelay { round, link } => writeln!(
                self.out,
                "{{\"event\":\"adversarial_delay\",\"round\":{round},\"link\":{}}}",
                link.index(),
            ),
            SimEvent::AdversarialReorder { round, link } => writeln!(
                self.out,
                "{{\"event\":\"adversarial_reorder\",\"round\":{round},\"link\":{}}}",
                link.index(),
            ),
            SimEvent::RoundQuiescent { round, inflight } => writeln!(
                self.out,
                "{{\"event\":\"round_quiescent\",\"round\":{round},\"inflight\":{inflight}}}",
            ),
        };
        result.expect("write JSONL event line");
        self.written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_sent(round: u64) -> SimEvent {
        SimEvent::FrameSent {
            round,
            from: NodeId(1),
            link: LinkId(4),
            to: NodeId(2),
            message: MessageId(9),
        }
    }

    #[test]
    fn counter_sink_attributes_per_tile_and_link() {
        let mut sink = CounterSink::new();
        sink.emit(frame_sent(0));
        sink.emit(frame_sent(0));
        sink.emit(SimEvent::CrashDrop {
            round: 1,
            site: DropSite::Link(LinkId(4)),
        });
        sink.emit(SimEvent::CrashDrop {
            round: 1,
            site: DropSite::Tile(NodeId(2)),
        });
        sink.emit(SimEvent::ClockSlip {
            round: 1,
            tile: NodeId(1),
        });
        assert_eq!(sink.tiles()[1].frames_sent, 2);
        assert_eq!(sink.links()[4].frames_sent, 2);
        assert_eq!(sink.links()[4].crash_drops, 1);
        assert_eq!(sink.tiles()[2].crash_drops, 1);
        assert_eq!(sink.totals().crash_drops, 2);
        assert_eq!(sink.summed_from_locations(), *sink.totals());
    }

    #[test]
    fn merge_is_elementwise_and_grows_tables() {
        let mut a = CounterSink::new();
        a.emit(frame_sent(0));
        let mut b = CounterSink::new();
        b.emit(SimEvent::OverflowDrop {
            round: 2,
            tile: NodeId(7),
        });
        b.emit(frame_sent(1));
        a.merge(&b);
        assert_eq!(a.totals().frames_sent, 2);
        assert_eq!(a.tiles()[7].overflow_drops, 1);
        assert_eq!(a.tiles()[1].frames_sent, 2);
        assert_eq!(a.summed_from_locations(), *a.totals());
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink: Vec<SimEvent> = Vec::new();
        sink.emit(frame_sent(0));
        sink.emit(frame_sent(3));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink[1].round(), 3);
        assert_eq!(sink[0].kind(), "frame_sent");
    }

    #[test]
    fn borrowed_sink_forwards() {
        let mut counters = CounterSink::new();
        {
            let borrowed: &mut CounterSink = &mut counters;
            borrowed.emit(frame_sent(0));
        }
        assert_eq!(counters.totals().frames_sent, 1);
    }

    #[test]
    fn jsonl_lines_are_stable() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(frame_sent(3));
        sink.emit(SimEvent::CrcReject {
            round: 4,
            tile: NodeId(6),
            link: None,
        });
        sink.emit(SimEvent::Delivery {
            round: 5,
            tile: NodeId(2),
            message: MessageId(0),
            source: NodeId(1),
        });
        assert_eq!(sink.events_written(), 3);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"event\":\"frame_sent\",\"round\":3,\"from\":1,\"link\":4,\"to\":2,\"message\":9}"
        );
        assert_eq!(
            lines[1],
            "{\"event\":\"crc_reject\",\"round\":4,\"tile\":6}"
        );
        assert_eq!(
            lines[2],
            "{\"event\":\"delivery\",\"round\":5,\"tile\":2,\"message\":0,\"source\":1}"
        );
    }

    #[test]
    fn adversarial_events_attribute_to_their_axis() {
        let mut sink = CounterSink::new();
        sink.emit(SimEvent::PartitionDrop {
            round: 1,
            link: LinkId(3),
        });
        sink.emit(SimEvent::AdversarialDelay {
            round: 1,
            link: LinkId(3),
        });
        sink.emit(SimEvent::AdversarialReorder {
            round: 2,
            link: LinkId(5),
        });
        sink.emit(SimEvent::ByzantineForge {
            round: 2,
            tile: NodeId(4),
            message: MessageId(7),
        });
        sink.emit(SimEvent::ByzantineReplay {
            round: 3,
            tile: NodeId(4),
        });
        assert_eq!(sink.links()[3].partition_drops, 1);
        assert_eq!(sink.links()[3].adversarial_delays, 1);
        assert_eq!(sink.links()[5].adversarial_reorders, 1);
        assert_eq!(sink.tiles()[4].byzantine_forges, 1);
        assert_eq!(sink.tiles()[4].byzantine_replays, 1);
        assert_eq!(sink.totals().partition_drops, 1);
        assert_eq!(sink.totals().byzantine_forges, 1);
        assert_eq!(sink.summed_from_locations(), *sink.totals());
    }

    #[test]
    fn adversarial_jsonl_lines_are_stable() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(SimEvent::PartitionDrop {
            round: 2,
            link: LinkId(9),
        });
        sink.emit(SimEvent::ByzantineForge {
            round: 3,
            tile: NodeId(4),
            message: MessageId(1),
        });
        sink.emit(SimEvent::ByzantineReplay {
            round: 4,
            tile: NodeId(4),
        });
        sink.emit(SimEvent::AdversarialDelay {
            round: 5,
            link: LinkId(2),
        });
        sink.emit(SimEvent::AdversarialReorder {
            round: 6,
            link: LinkId(2),
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"event\":\"partition_drop\",\"round\":2,\"link\":9}"
        );
        assert_eq!(
            lines[1],
            "{\"event\":\"byzantine_forge\",\"round\":3,\"tile\":4,\"message\":1}"
        );
        assert_eq!(
            lines[2],
            "{\"event\":\"byzantine_replay\",\"round\":4,\"tile\":4}"
        );
        assert_eq!(
            lines[3],
            "{\"event\":\"adversarial_delay\",\"round\":5,\"link\":2}"
        );
        assert_eq!(
            lines[4],
            "{\"event\":\"adversarial_reorder\",\"round\":6,\"link\":2}"
        );
    }

    #[test]
    fn quiescent_rounds_count_and_serialize() {
        let mut counters = CounterSink::new();
        counters.emit(SimEvent::RoundQuiescent {
            round: 7,
            inflight: 2,
        });
        counters.emit(SimEvent::RoundQuiescent {
            round: 8,
            inflight: 1,
        });
        assert_eq!(counters.quiescent_rounds(), 2);
        // Whole-round events attribute to no tile or link: the location
        // sums are unaffected.
        assert_eq!(counters.summed_from_locations(), *counters.totals());
        let mut merged = CounterSink::new();
        merged.merge(&counters);
        assert_eq!(merged.quiescent_rounds(), 2);

        let mut jsonl = JsonlSink::new(Vec::new());
        jsonl.emit(SimEvent::RoundQuiescent {
            round: 7,
            inflight: 2,
        });
        let text = String::from_utf8(jsonl.into_inner()).unwrap();
        assert_eq!(
            text.trim_end(),
            "{\"event\":\"round_quiescent\",\"round\":7,\"inflight\":2}"
        );
        let event = SimEvent::RoundQuiescent {
            round: 7,
            inflight: 2,
        };
        assert_eq!(event.kind(), "round_quiescent");
        assert_eq!(event.round(), 7);
    }

    #[test]
    fn reconcile_catches_quiescent_round_drift() {
        let sink = CounterSink::new();
        let mut report = SimulationReport::new(noc_energy::TechnologyLibrary::NOC_LINK_0_25UM);
        report.quiescent_rounds = 3;
        let err = sink.reconcile(&report).unwrap_err();
        assert!(err.contains("quiescent_rounds"), "unexpected error: {err}");
    }

    #[test]
    fn reconcile_reports_the_failing_counter() {
        let mut sink = CounterSink::new();
        sink.emit(frame_sent(0));
        let report = SimulationReport::new(noc_energy::TechnologyLibrary::NOC_LINK_0_25UM);
        let err = sink.reconcile(&report).unwrap_err();
        assert!(err.contains("packets_sent"), "unexpected error: {err}");
    }
}
