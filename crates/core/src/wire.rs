//! The round-scoped wire table: where in-flight frames live.
//!
//! A frame in an arrival arena is an 8-byte `Copy` [`Frame`] — a handle
//! into the [`WireTable`] plus the arrival link — not a refcounted byte
//! buffer. The table holds one [`WireEntry`] per *distinct* wire frame:
//! each `(MessageId, ttl)` the forward phase serves (shared by every
//! tile and link that transmits it, through the round's memo), each
//! loopback inject, each Byzantine emission, and one entry per upset
//! copy. Fan-out therefore copies 8 bytes with no atomic, and receive
//! rejects a duplicate on the entry's message id. A clean frame *is* its
//! message, held as a 16-byte copy that shares its message's body:
//! [`WireEntry::bytes`] encodes it for the first reader, if any, and a
//! checkpoint writes the copy, not the bytes.
//! An upset copy the CRC misses is decoded once, when it is made, so its
//! receiver reads the copy it carries, not its bytes.
//! An upset copy the CRC will catch is not built at all: the CRC is
//! linear, so the error vector alone decides the receiver's verdict, and
//! the copy is an [`Upset::Caught`]: its source and the fault stream's
//! position, which is also what a checkpoint writes of it.
//!
//! **Lifetime rule.** A frame sent in round `r` is read in round `r + 1`
//! (the `next` arena) or, when the sender slipped or the link delayed
//! it, in `r + 2` (the `later` arena) — never later. The table keeps
//! three generations, rotated together with the arrival arenas at the
//! start of every round: the generation written during round `r` is
//! cleared by the rotation that opens round `r + 3`. Handles carry a
//! two-bit generation tag, so debug builds catch a handle that outlived
//! its generation.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::{Arc, OnceLock};

use noc_fabric::{LinkId, ParsePacketError, WireCodec};
use noc_faults::FaultInjector;

use crate::body::Held;
use crate::seed::mix64;

/// Bits of a [`Wire`] that index into its generation; the two above
/// carry the generation tag.
const INDEX_BITS: u32 = 30;
const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;

/// Generations a frame can stay in flight for (see the module docs).
const GENERATIONS: usize = 3;

/// [`Frame::via`] of a local loopback, which crossed no link. The
/// builder rejects topologies with this many links.
pub(crate) const NO_LINK: u32 = u32::MAX;

/// Handle of one [`WireEntry`]: generation tag and index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Wire(u32);

/// A frame in flight on a link: which wire frame, and the link it
/// arrives over (event attribution only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frame {
    pub(crate) wire: Wire,
    via: u32,
}

const _: () = assert!(std::mem::size_of::<Frame>() == 8);
const _: fn() = || {
    fn fans_out_by_copy<T: Copy>() {}
    fans_out_by_copy::<Frame>();
};

impl Frame {
    /// A frame arriving over `via` (`None` for a local loopback).
    #[inline]
    pub(crate) fn new(wire: Wire, via: Option<LinkId>) -> Self {
        Frame {
            wire,
            via: via.map_or(NO_LINK, |link| link.index() as u32),
        }
    }

    /// The arrival link, `None` for a local loopback.
    pub(crate) fn via(self) -> Option<LinkId> {
        (self.via != NO_LINK).then_some(LinkId(self.via as usize))
    }
}

/// One distinct wire frame.
#[derive(Debug, Clone)]
pub(crate) enum WireEntry {
    /// Bit-identical to our own encoder's output, so receivers trust
    /// `held` instead of parsing bytes.
    Clean {
        held: Held,
        /// `codec.encode` of `held`, built for its first reader and kept.
        /// A cache, not state: `Debug` shows whether it is filled, so
        /// nothing hashed into a digest may format a `WireEntry` or
        /// `WireTable`.
        encoding: OnceLock<Arc<[u8]>>,
    },
    /// A copy scrambled in flight.
    Upset(Upset),
}

/// An upset copy of a wire frame.
#[derive(Debug, Clone)]
pub(crate) enum Upset {
    /// A copy whose upset the CRC misses (or one a checkpoint captured):
    /// `view` is what the receiver's CRC check and parse make of `bytes`,
    /// `None` when they reject it.
    Scrambled {
        bytes: Arc<[u8]>,
        view: Option<Held>,
    },
    /// A copy of the clean entry `base` scrambled by an error vector the
    /// CRC catches, so every receiver rejects it. It holds no bytes:
    /// `state` is the fault stream's position before the draw, from which
    /// [`WireTable::append_bytes`] rebuilds them. A checkpoint writes
    /// `base` and `state`, not the bytes.
    Caught { base: Wire, state: [u64; 4] },
}

const _: () = assert!(std::mem::size_of::<WireEntry>() == 48);

/// Wire entries counted by kind, as a checkpoint writes them
/// ([`WireTable::kinds`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EntryKinds {
    pub(crate) clean: usize,
    pub(crate) caught: usize,
    pub(crate) missed: usize,
    /// The missed copies' bytes, summed.
    pub(crate) missed_bytes: usize,
}

impl WireEntry {
    /// The entry of an unscrambled frame carrying `held`.
    pub(crate) fn clean(held: Held) -> Self {
        WireEntry::Clean {
            held,
            encoding: OnceLock::new(),
        }
    }

    /// The entry of an unscrambled frame a checkpoint captured as `bytes`,
    /// kept beside the copy they decode to; bytes that fail the CRC or do
    /// not parse are not this engine's output.
    pub(crate) fn decoded(codec: &WireCodec, bytes: &[u8]) -> Result<Self, ParsePacketError> {
        Ok(WireEntry::Clean {
            held: Held::from_view(&codec.decode_view(bytes)?),
            encoding: OnceLock::from(Arc::from(bytes)),
        })
    }

    /// The entry of an upset copy the CRC misses, or of one a checkpoint
    /// captured: decoded here, once, as its receiver will.
    pub(crate) fn scrambled(codec: &WireCodec, bytes: Arc<[u8]>) -> Self {
        let view = codec.decode_view(&bytes).ok();
        let view = view.map(|view| Held::from_view(&view));
        WireEntry::Upset(Upset::Scrambled { bytes, view })
    }

    /// The copy an unscrambled frame carries, `None` for an upset copy.
    #[inline]
    pub(crate) fn held(&self) -> Option<&Held> {
        match self {
            WireEntry::Clean { held, .. } => Some(held),
            WireEntry::Upset(_) => None,
        }
    }

    /// What a receiver's CRC check and parse make of an upset copy: the
    /// copy an upset the CRC missed carries, `None` when the frame is
    /// rejected — always for a caught copy, without bytes to look at.
    #[inline]
    pub(crate) fn upset_view(&self) -> Option<&Held> {
        match self {
            WireEntry::Upset(Upset::Scrambled { view, .. }) => view.as_ref(),
            WireEntry::Upset(Upset::Caught { .. }) | WireEntry::Clean { .. } => None,
        }
    }

    /// The frame on the wire, if the entry holds it: a clean entry is
    /// encoded by the first call, however many copies or upsets share it;
    /// a caught copy holds none ([`WireTable::append_bytes`] rebuilds
    /// them).
    pub(crate) fn bytes(&self, codec: &WireCodec) -> Option<&Arc<[u8]>> {
        match self {
            WireEntry::Clean { held, encoding } => {
                Some(encoding.get_or_init(|| codec.encode(&held.message()).into()))
            }
            WireEntry::Upset(Upset::Scrambled { bytes, .. }) => Some(bytes),
            WireEntry::Upset(Upset::Caught { .. }) => None,
        }
    }

    /// Does this (unscrambled) entry carry exactly `held`? Id and TTL are
    /// the memo key; an undetected upset can put a different source,
    /// destination or payload into circulation under the same key, which
    /// is decoded into a body of its own, and the two copies must keep
    /// encoding differently.
    #[inline]
    fn encodes(&self, held: &Held) -> bool {
        self.held().is_some_and(|own| own.same_body(held))
    }
}

/// One slot of a [`MemoTable`]: live while `epoch` equals the table's,
/// free otherwise (zeroed, or stamped by an earlier round).
#[derive(Debug, Clone, Copy, Default)]
struct MemoSlot {
    epoch: u32,
    tag: u8,
    index: u32,
    key: u64,
}

/// Slots of a [`MemoTable`]'s first allocation.
const MEMO_INITIAL_SLOTS: usize = 64;

/// A lookup-only multimap from `(key, tag)` to entry indices: the
/// round's memo, `(message id, ttl)`. One flat open-addressing table,
/// probed linearly from `mix64(key ^ tag << 56)`; it is never iterated,
/// so its order cannot reach a report.
///
/// Several indices may be filed under one `(key, tag)` (twins); they
/// sit in successive probe slots and the caller's predicate tells them
/// apart. Nothing is ever removed within an epoch, so a probe that
/// meets a free slot has seen every live candidate.
#[derive(Debug)]
struct MemoTable {
    /// Power-of-two length; empty until the first lookup.
    slots: Vec<MemoSlot>,
    /// Stamp of the live slots. Never 0, so a zeroed slot is free.
    epoch: u32,
    /// Slots stamped `epoch`.
    live: usize,
}

impl Default for MemoTable {
    fn default() -> Self {
        MemoTable {
            slots: Vec::new(),
            epoch: 1,
            live: 0,
        }
    }
}

impl MemoTable {
    /// Forgets every key without touching the slots: bumping the epoch
    /// turns them all stale. Only a wrapped epoch, which would make
    /// stamps from 2^32 clears ago read as live, zeroes the table.
    fn clear(&mut self) {
        self.live = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill(MemoSlot::default());
            self.epoch = 1;
        }
    }

    #[inline]
    fn home(key: u64, tag: u8, mask: usize) -> usize {
        mix64(key ^ (u64::from(tag) << 56)) as usize & mask
    }

    /// The index filed under `(key, tag)` that `matches` accepts, or
    /// else the free slot to [`MemoTable::fill`] with a new one.
    #[inline]
    fn find(&mut self, key: u64, tag: u8, matches: impl Fn(u32) -> bool) -> Result<u32, usize> {
        // At most half full, so the probe below always meets a free slot.
        if self.live * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = Self::home(key, tag, mask);
        loop {
            let slot = self.slots[at];
            if slot.epoch != self.epoch {
                return Err(at);
            }
            if slot.key == key && slot.tag == tag && matches(slot.index) {
                return Ok(slot.index);
            }
            at = (at + 1) & mask;
        }
    }

    /// Files `index` under `(key, tag)` in the free slot `at` that the
    /// preceding [`MemoTable::find`] returned.
    #[inline]
    fn fill(&mut self, at: usize, key: u64, tag: u8, index: u32) {
        self.slots[at] = MemoSlot {
            epoch: self.epoch,
            tag,
            index,
            key,
        };
        self.live += 1;
    }

    /// Doubles the table, rehashing the live slots only.
    #[cold]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MEMO_INITIAL_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![MemoSlot::default(); len]);
        let mask = len - 1;
        for slot in old.into_iter().filter(|slot| slot.epoch == self.epoch) {
            let mut at = Self::home(slot.key, slot.tag, mask);
            while self.slots[at].epoch == self.epoch {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }
}

/// Three generations of wire entries plus the current round's memo.
/// See the module docs for the lifetime rule.
#[derive(Debug, Default)]
pub(crate) struct WireTable {
    /// `generations[age]`: 0 is written this round, 1 and 2 are read.
    generations: [Vec<WireEntry>; GENERATIONS],
    /// Rotations so far; a handle's tag is its generation's epoch mod 4.
    epoch: u32,
    /// This round's clean entries by `(message id, ttl)`: every tile
    /// holding a message at the same TTL sends the identical frame, so
    /// they share one entry (twins under one key are told apart by
    /// [`WireEntry::encodes`]). TTLs decrement every round, so the memo
    /// is forgotten with the round.
    served: MemoTable,
    /// The error vector of the latest upset, drawn here by
    /// [`WireTable::scrambled_copy`].
    error: Vec<u8>,
}

impl WireTable {
    /// Opens a new round: the oldest generation is emptied and becomes
    /// the current one. Called in lockstep with the arena rotation.
    pub(crate) fn rotate(&mut self) {
        self.generations.rotate_right(1);
        self.generations[0].clear();
        self.epoch = self.epoch.wrapping_add(1);
        self.served.clear();
    }

    fn tag(&self) -> u32 {
        (self.epoch & 3) << INDEX_BITS
    }

    /// Resolves a handle minted in the current or either of the two
    /// previous rounds.
    #[inline]
    pub(crate) fn entry(&self, wire: Wire) -> &WireEntry {
        let (age, index) = self.slot(wire);
        &self.generations[age][index]
    }

    /// Where `wire`'s entry sits: its generation's age (0 is this round's)
    /// and its index there.
    #[inline]
    pub(crate) fn slot(&self, wire: Wire) -> (usize, usize) {
        let age = self.epoch.wrapping_sub(wire.0 >> INDEX_BITS) & 3;
        debug_assert!(
            (age as usize) < GENERATIONS,
            "wire handle outlived its generation"
        );
        (age as usize, (wire.0 & INDEX_MASK) as usize)
    }

    /// Entries in each generation, by age.
    pub(crate) fn generation_lens(&self) -> [usize; GENERATIONS] {
        self.generations.each_ref().map(Vec::len)
    }

    /// The entries of the `newest` newest generations, by kind. At a
    /// round boundary a frame in flight names one of the two newest: a
    /// frame is read at most two rounds after it was sent, and an upset
    /// copies the frame served that round.
    pub(crate) fn kinds(&self, newest: usize) -> EntryKinds {
        let mut kinds = EntryKinds::default();
        for entry in self.generations[..newest].iter().flatten() {
            match entry {
                WireEntry::Clean { .. } => kinds.clean += 1,
                WireEntry::Upset(Upset::Caught { .. }) => kinds.caught += 1,
                WireEntry::Upset(Upset::Scrambled { bytes, .. }) => {
                    kinds.missed += 1;
                    kinds.missed_bytes += bytes.len();
                }
            }
        }
        kinds
    }

    /// Registers an entry in the current generation.
    pub(crate) fn push(&mut self, entry: WireEntry) -> Wire {
        let index = self.generations[0].len();
        assert!(
            index < INDEX_MASK as usize,
            "a wire generation holds at most 2^30 distinct frames"
        );
        self.generations[0].push(entry);
        Wire(self.tag() | index as u32)
    }

    /// The wire frame carrying `held`, shared with every other
    /// transmission of the same message and TTL this round.
    #[inline]
    pub(crate) fn frame_for(&mut self, held: &Held) -> Wire {
        let entries = &self.generations[0];
        let found = self.served.find(held.id().0, held.ttl, |index| {
            entries[index as usize].encodes(held)
        });
        match found {
            Ok(index) => Wire(self.tag() | index),
            Err(free) => self.serve_first(free, held),
        }
    }

    /// The miss path, out of line so that a hit stays a probe.
    #[cold]
    fn serve_first(&mut self, free: usize, held: &Held) -> Wire {
        let wire = self.push(WireEntry::clean(held.clone()));
        self.served
            .fill(free, held.id().0, held.ttl, wire.0 & INDEX_MASK);
        wire
    }

    /// `wire`'s frame length in bytes, without building its bytes.
    pub(crate) fn frame_len(&self, codec: &WireCodec, wire: Wire) -> usize {
        match self.entry(wire) {
            WireEntry::Clean { held, .. } => codec.frame_bytes(held.body.payload.len()),
            WireEntry::Upset(Upset::Scrambled { bytes, .. }) => bytes.len(),
            WireEntry::Upset(Upset::Caught { base, .. }) => self.frame_len(codec, *base),
        }
    }

    /// Registers an upset copy of `wire`, drawing its error vector on
    /// exactly the draws [`FaultInjector::scramble`] spends on the frame.
    /// The CRC is linear, so the vector alone says whether receivers
    /// reject the copy: if it does and `wire` is clean, the copy is a
    /// [`Upset::Caught`] that builds no bytes. Otherwise its bytes are
    /// built now, `wire`'s encoding XOR the vector, and decoded as its
    /// receiver will; other holders of `wire` are unaffected.
    pub(crate) fn scrambled_copy(
        &mut self,
        codec: &WireCodec,
        injector: &mut FaultInjector,
        wire: Wire,
    ) -> Wire {
        let state = injector.stream_state();
        self.error.clear();
        self.error.resize(self.frame_len(codec, wire), 0);
        injector.scramble(&mut self.error);
        let entry = self.entry(wire);
        if entry.held().is_some() && codec.catches(&self.error) {
            return self.push(WireEntry::Upset(Upset::Caught { base: wire, state }));
        }
        let mut bytes = Vec::with_capacity(self.error.len());
        self.append_bytes(codec, injector, entry, &mut bytes);
        for (byte, flip) in bytes.iter_mut().zip(&self.error) {
            *byte ^= flip;
        }
        let entry = WireEntry::scrambled(codec, bytes.into());
        self.push(entry)
    }

    /// Appends the bytes of `entry`, an entry of this table or a clone of
    /// one, to `out`: a missed upset's source, or a replay slot's frame in
    /// a checkpoint. A caught copy's are its base's encoding scrambled
    /// again on the draws replayed from its stream position.
    pub(crate) fn append_bytes(
        &self,
        codec: &WireCodec,
        injector: &FaultInjector,
        entry: &WireEntry,
        out: &mut Vec<u8>,
    ) {
        if let WireEntry::Upset(Upset::Caught { base, state }) = entry {
            let start = out.len();
            self.append_bytes(codec, injector, self.entry(*base), out);
            injector.rescramble(*state, &mut out[start..]);
        } else if let Some(bytes) = entry.bytes(codec) {
            out.extend_from_slice(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_fabric::{Message, MessageId, NodeId};
    use proptest::prelude::*;

    fn message(id: u64, ttl: u8) -> Message {
        Message::new(MessageId(id), NodeId(0), NodeId(3), ttl, vec![id as u8; 4])
    }

    /// `message` as a copy, in a body of its own.
    fn held(message: &Message) -> Held {
        let payload = Arc::clone(&message.payload);
        Held::new(
            message.id,
            message.source,
            message.destination,
            message.ttl,
            payload,
        )
    }

    fn id_of(table: &WireTable, wire: Wire) -> Option<u64> {
        table.entry(wire).held().map(|h| h.id().0)
    }

    #[test]
    fn via_round_trips_through_the_handle() {
        let mut table = WireTable::default();
        let wire = table.frame_for(&held(&message(1, 5)));
        assert_eq!(Frame::new(wire, Some(LinkId(7))).via(), Some(LinkId(7)));
        assert_eq!(Frame::new(wire, None).via(), None);
    }

    #[test]
    fn handle_resolves_across_two_rotations_and_its_generation_empties_on_the_third() {
        let mut table = WireTable::default();
        let wire = table.frame_for(&held(&message(7, 5)));
        assert_eq!(id_of(&table, wire), Some(7));
        for _ in 0..2 {
            table.rotate();
            table.frame_for(&held(&message(8, 4)));
            assert_eq!(id_of(&table, wire), Some(7), "still in flight");
        }
        table.rotate();
        assert!(
            table
                .generations
                .iter()
                .all(|g| g.iter().all(|e| e.held().is_some_and(|h| h.id().0 == 8))),
            "the generation that held message 7 was emptied"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outlived its generation")]
    fn stale_generation_tag_trips_the_debug_assert() {
        let mut table = WireTable::default();
        let wire = table.frame_for(&held(&message(7, 5)));
        for _ in 0..3 {
            table.rotate();
        }
        table.entry(wire);
    }

    #[test]
    fn memo_shares_equal_messages_and_separates_corrupt_twins() {
        let codec = WireCodec::default();
        let mut table = WireTable::default();
        let clean = message(1, 5);
        let mut corrupt = clean.clone();
        corrupt.payload = vec![0xFF; 4].into();
        let a = table.frame_for(&held(&clean));
        assert_eq!(table.frame_for(&held(&clean.clone())), a);
        let b = table.frame_for(&held(&corrupt));
        assert_ne!(a, b, "same id and ttl, different payload");
        assert_eq!(table.frame_for(&held(&corrupt)), b);
        assert_eq!(
            &table.entry(a).bytes(&codec).unwrap()[..],
            &codec.encode(&clean)[..]
        );
        assert_eq!(
            &table.entry(b).bytes(&codec).unwrap()[..],
            &codec.encode(&corrupt)[..]
        );
        table.rotate();
        assert_ne!(
            table.frame_for(&held(&clean)),
            a,
            "the memo does not outlive its round"
        );
    }

    /// `message(id, ttl)` with every payload byte set to `content`: the
    /// same memo key, a different frame.
    fn twin(id: u64, ttl: u8, content: u8) -> Message {
        let mut message = message(id, ttl);
        message.payload = vec![content; 4].into();
        message
    }

    #[test]
    fn a_table_grown_mid_round_returns_every_earlier_index_and_keeps_twins_apart() {
        let codec = WireCodec::default();
        let mut table = WireTable::default();
        let keys: Vec<Message> = (0..96u64)
            .flat_map(|id| [twin(id, 5, 0), twin(id, 5, 1)])
            .collect();
        let first: Vec<Wire> = keys.iter().map(|m| table.frame_for(&held(m))).collect();
        assert!(
            table.served.slots.len() > MEMO_INITIAL_SLOTS,
            "192 keys outgrow the first allocation"
        );
        for (at, (message, &wire)) in keys.iter().zip(&first).enumerate() {
            assert_eq!(wire.0 & INDEX_MASK, at as u32, "one entry per key");
            assert_eq!(table.frame_for(&held(message)), wire, "key {at}");
            assert_eq!(
                &table.entry(wire).bytes(&codec).unwrap()[..],
                &codec.encode(message)[..],
                "key {at} kept its own frame across the rehashes"
            );
        }
        assert_eq!(table.generations[0].len(), keys.len(), "nothing re-encoded");
    }

    #[test]
    fn rotate_forgets_the_round_without_touching_the_slots() {
        let mut table = WireTable::default();
        let old = table.frame_for(&held(&message(1, 5)));
        let stamps = |table: &WireTable| -> Vec<(u32, u64)> {
            let slots = &table.served.slots;
            slots.iter().map(|slot| (slot.epoch, slot.key)).collect()
        };
        let before = stamps(&table);
        assert_eq!(before.iter().filter(|&&(epoch, _)| epoch != 0).count(), 1);
        table.rotate();
        assert_eq!(stamps(&table), before, "clear is an epoch bump");
        assert_eq!(table.served.live, 0);
        let new = table.frame_for(&held(&message(1, 5)));
        assert_ne!(new, old, "last round's key is a miss");
        assert_eq!(new.0 & INDEX_MASK, 0, "first entry of the new generation");
    }

    #[test]
    fn epoch_wrap_cannot_resurrect_a_stale_slot() {
        let mut memo = MemoTable::default();
        let free = memo.find(7, 3, |_| true).unwrap_err();
        memo.fill(free, 7, 3, 42);
        assert_eq!(memo.find(7, 3, |_| true), Ok(42));
        // 2^32 − 2 clears later the counter is about to wrap onto the
        // stamp that slot still carries.
        memo.epoch = u32::MAX;
        memo.live = 0;
        assert!(memo.find(7, 3, |_| true).is_err(), "stale at u32::MAX");
        memo.clear();
        assert_eq!(memo.epoch, 1, "0 is reserved for free slots");
        assert!(memo.find(7, 3, |_| true).is_err(), "the wrap zeroed it");
        assert!(memo.slots.iter().all(|slot| slot.epoch == 0));
    }

    proptest! {
        /// The table against a naive scan of this round's keys: the
        /// same insert/rotate sequence must share exactly the same
        /// indices (a key's index is its rank of first use in the round).
        #[test]
        fn memo_shares_indices_exactly_like_a_linear_scan(
            ops in proptest::collection::vec((0u8..64, 0u64..48, 1u8..3, 0u8..2), 0..400)
        ) {
            let mut table = WireTable::default();
            let mut naive: Vec<(u64, u8, u8)> = Vec::new();
            for (op, id, ttl, content) in ops {
                if op == 0 {
                    table.rotate();
                    naive.clear();
                    continue;
                }
                let key = (id, ttl, content);
                let expected = naive.iter().position(|&seen| seen == key).unwrap_or_else(|| {
                    naive.push(key);
                    naive.len() - 1
                });
                let wire = table.frame_for(&held(&twin(id, ttl, content)));
                prop_assert_eq!((wire.0 & INDEX_MASK) as usize, expected);
                prop_assert_eq!(table.generations[0].len(), naive.len());
            }
        }
    }

    fn upset_injector() -> FaultInjector {
        let model = noc_faults::FaultModel::builder()
            .p_upset(0.5)
            .build()
            .unwrap();
        FaultInjector::new(model, 3)
    }

    impl WireTable {
        /// Every clean entry of every generation with the encoding it
        /// holds so far — what the engine's tests count.
        pub(crate) fn clean_entries(&self) -> impl Iterator<Item = (&Held, Option<&Arc<[u8]>>)> {
            self.generations.iter().flatten().filter_map(|entry| {
                let WireEntry::Clean { held, encoding } = entry else {
                    return None;
                };
                Some((held, encoding.get()))
            })
        }

        /// The caught and the missed (built) upset copies of every
        /// generation.
        pub(crate) fn upset_kinds(&self) -> (usize, usize) {
            let upsets = self.generations.iter().flatten();
            upsets.fold((0, 0), |(caught, missed), entry| match entry {
                WireEntry::Upset(Upset::Caught { .. }) => (caught + 1, missed),
                WireEntry::Upset(Upset::Scrambled { .. }) => (caught, missed + 1),
                WireEntry::Clean { .. } => (caught, missed),
            })
        }

        /// The current generation's entries, in registration order.
        pub(crate) fn current(&self) -> &[WireEntry] {
            &self.generations[0]
        }
    }

    /// The encoding a clean entry holds so far.
    fn built(table: &WireTable, wire: Wire) -> Option<&Arc<[u8]>> {
        match table.entry(wire) {
            WireEntry::Clean { encoding, .. } => encoding.get(),
            WireEntry::Upset(_) => panic!("not a clean entry"),
        }
    }

    /// `wire`'s bytes as a checkpoint captures them.
    fn captured(
        table: &WireTable,
        codec: &WireCodec,
        injector: &FaultInjector,
        wire: Wire,
    ) -> Vec<u8> {
        let mut out = vec![0xEE];
        table.append_bytes(codec, injector, table.entry(wire), &mut out);
        assert_eq!(out.remove(0), 0xEE, "appended, not overwritten");
        out
    }

    #[test]
    fn a_clean_entry_holds_no_bytes_until_they_are_read() {
        let codec = WireCodec::default();
        let mut table = WireTable::default();
        let wire = table.frame_for(&held(&message(1, 5)));
        assert_eq!(table.frame_for(&held(&message(1, 5))), wire);
        assert!(built(&table, wire).is_none(), "serving builds nothing");
        assert_eq!(table.frame_len(&codec, wire), codec.frame_bytes(4));
        assert!(built(&table, wire).is_none(), "nor does asking the length");
        let bytes = table.entry(wire).bytes(&codec).unwrap();
        assert_eq!(bytes[..], codec.encode(&message(1, 5))[..]);
        assert_eq!(table.frame_len(&codec, wire), bytes.len());
        assert!(
            Arc::ptr_eq(bytes, built(&table, wire).unwrap()),
            "the second read is the first one's bytes"
        );
    }

    #[test]
    fn caught_copies_build_no_bytes_and_each_is_rebuilt_from_its_own_draws() {
        let mut injector = upset_injector();
        let codec = WireCodec::default();
        let mut table = WireTable::default();
        let clean = table.frame_for(&held(&message(1, 5)));
        let copies = [0; 2].map(|_| table.scrambled_copy(&codec, &mut injector, clean));
        assert!(built(&table, clean).is_none(), "the source was not encoded");
        for upset in copies {
            let entry = table.entry(upset);
            assert!(
                matches!(entry, WireEntry::Upset(Upset::Caught { base, .. }) if *base == clean),
                "a CRC-16 tag catches these draws"
            );
            assert!(entry.held().is_none() && entry.bytes(&codec).is_none());
            assert!(entry.upset_view().is_none(), "rejected unread");
            assert_eq!(table.frame_len(&codec, upset), codec.frame_bytes(4));
        }
        let mut eager = upset_injector();
        for upset in copies {
            let mut bytes = codec.encode(&message(1, 5));
            eager.scramble(&mut bytes);
            assert_eq!(captured(&table, &codec, &injector, upset), bytes);
        }
        assert_eq!(
            injector.snapshot(),
            eager.snapshot(),
            "rebuilding drew nothing"
        );
        assert_ne!(
            captured(&table, &codec, &injector, copies[0]),
            captured(&table, &codec, &injector, copies[1]),
            "each copy spends its own draws"
        );
    }

    /// What [`WireTable::scrambled_copy`] registers reads, through the
    /// capture path, as the scramble of exactly `codec.encode(message)`
    /// on the draws `scramble` spends — for the copies a CRC-8 tag
    /// catches and for the ones it misses, which are built at once.
    #[test]
    fn a_scrambled_copy_is_the_scramble_of_the_eager_encoding() {
        let codec = WireCodec::new(noc_crc::CrcParams::CRC8_ATM);
        let (mut injector, mut eager) = (upset_injector(), upset_injector());
        let mut table = WireTable::default();
        let clean = table.frame_for(&held(&message(9, 3)));
        let (mut caught, mut missed) = (0, 0);
        for _ in 0..2_000 {
            let upset = table.scrambled_copy(&codec, &mut injector, clean);
            let mut bytes = codec.encode(&message(9, 3));
            eager.scramble(&mut bytes);
            assert_eq!(captured(&table, &codec, &injector, upset), bytes);
            match table.entry(upset) {
                WireEntry::Upset(Upset::Caught { .. }) => caught += 1,
                WireEntry::Upset(Upset::Scrambled { bytes: held, .. }) => {
                    assert_eq!(held[..], bytes[..]);
                    let verdict = codec.decode(held);
                    assert!(!matches!(verdict, Err(ParsePacketError::Crc(_))), "missed");
                    missed += 1;
                }
                WireEntry::Clean { .. } => panic!("an upset copy is not clean"),
            }
        }
        assert!(
            caught > 1_900 && missed > 0,
            "{caught} caught, {missed} missed"
        );
    }

    /// An upset the CRC misses can put a variant of a live message into
    /// circulation under its id: the variant is decoded once, into a body
    /// of its own, and served under the same `(id, ttl)` key it gets a
    /// memo entry and an encoding of its own.
    #[test]
    fn a_corrupted_variant_keeps_its_own_body_memo_entry_and_encoding() {
        let codec = WireCodec::default();
        let mut table = WireTable::default();
        let original = held(&message(9, 3));
        let clean = table.frame_for(&original);
        // What a missed upset of `clean` that flipped payload bits reads
        // as: a frame whose CRC holds.
        let missed = codec.encode(&twin(9, 3, 0xAB));
        let upset = table.push(WireEntry::scrambled(&codec, missed.into()));
        let variant = table.entry(upset).upset_view().unwrap().clone();
        assert_eq!((variant.id(), variant.ttl), (original.id(), original.ttl));
        assert!(!variant.same_body(&original), "a body of its own");
        assert_eq!(&*variant.body.payload, &[0xAB; 4]);
        // Served this round, the variant shares the original's memo key.
        let served = table.frame_for(&variant);
        assert_ne!(served, clean, "a memo entry of its own");
        assert_eq!(table.frame_for(&variant), served);
        assert_eq!(table.frame_for(&original), clean);
        let encoding = table.entry(served).bytes(&codec).unwrap();
        assert_eq!(encoding[..], codec.encode(&twin(9, 3, 0xAB))[..]);
        assert_ne!(
            encoding[..],
            table.entry(clean).bytes(&codec).unwrap()[..],
            "an encoding of its own"
        );
    }
}
