//! A round's arrivals: two pending lists and one array grouped by tile.
//!
//! Forward (and the loopback `inject`) *append* `(destination, frame)` to
//! a [`Pending`] list; no per-tile storage is touched when a frame is
//! sent. [`Arrivals::rotate`] opens a round by grouping the list that is
//! due into [`Grouped`] — one `Vec<Frame>` ordered by destination tile,
//! each tile's frames contiguous and in arrival order — which the receive
//! phase reads as slices in ascending tile order, sequential and sharded
//! alike. The frames held one round longer then become the head of the
//! due-next list, which keeps being appended to, so a tile's arrival
//! order stays "held frames of round r − 1, then frames of round r".
//!
//! **Arrival order.** A chaos reorder sends a frame to the front of its
//! destination queue. Over the life of one queue that is exactly: every
//! reordered frame, newest first, then every other frame in push order —
//! so a list keeps the two kinds apart and grouping reads the reordered
//! ones backwards. `ReferenceSimulation`'s per-tile `Vec`s with `push` /
//! `insert(0, …)` are the oracle for this order.
//!
//! **Known duplicates.** A frame the forward walk has proved a duplicate
//! at its receiver (DESIGN §8, "Known duplicates") is filed in a third
//! list with its position among the pushed ones. Grouping for receive
//! skips that list without reading it; capture's grouping merges it back
//! at those positions, so a checkpoint reads as if it had been pushed.
//!
//! **Cost.** Grouping is a stable counting sort over the tiles the list
//! names: O(frames + touched tiles) plus one walk of the touched-tile
//! bitset's n / 64 words, never a visit of every tile. Counting a frame
//! ORs its tile's bit in without a branch; the walk that reads a word
//! zeroes it, and the spans zero the per-tile cursors, so both are clear
//! when it returns.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::wire::Frame;

/// Frames sent and not yet arrived, as `(destination tile, frame)`.
#[derive(Debug, Default)]
pub(crate) struct Pending {
    /// In push order.
    pushed: Vec<(u32, Frame)>,
    /// Frames a chaos reorder moved to their queue's front, in push
    /// order: a later one overtakes an earlier one.
    reordered: Vec<(u32, Frame)>,
    /// Frames the receiver will drop as duplicates, as `(seq, to,
    /// frame)`: `seq` is the frame's position among `pushed` and these
    /// at push time. Receive never sees them.
    known: Vec<(u32, u32, Frame)>,
}

impl Pending {
    /// Files `frame` for tile `to`, at the back of its queue or, when
    /// `reordered`, at the front.
    #[inline]
    pub(crate) fn push(&mut self, to: usize, frame: Frame, reordered: bool) {
        let list = if reordered {
            &mut self.reordered
        } else {
            &mut self.pushed
        };
        list.push((to as u32, frame));
    }

    /// Files `frame` for tile `to` as a known duplicate, at the back of
    /// its queue.
    #[inline]
    pub(crate) fn push_known(&mut self, to: usize, frame: Frame) {
        let seq = (self.pushed.len() + self.known.len()) as u32;
        self.known.push((seq, to as u32, frame));
    }

    /// Frames in the list, known duplicates included.
    pub(crate) fn len(&self) -> usize {
        self.pushed.len() + self.reordered.len() + self.known.len()
    }

    /// Known duplicates in the list.
    #[cfg(test)]
    pub(crate) fn known_len(&self) -> usize {
        self.known.len()
    }

    /// Calls `visit` with every `(tile, frame)`, each tile's frames in
    /// arrival order; the known duplicates only `with_known`, each at its
    /// place among the pushed frames.
    #[inline]
    fn in_arrival_order(&self, with_known: bool, mut visit: impl FnMut(usize, Frame)) {
        for &(to, frame) in self.reordered.iter().rev() {
            visit(to as usize, frame);
        }
        let known = if with_known { &self.known[..] } else { &[] };
        if known.is_empty() {
            for &(to, frame) in &self.pushed {
                visit(to as usize, frame);
            }
            return;
        }
        let mut known = known.iter().peekable();
        let mut seq = 0;
        for &(to, frame) in &self.pushed {
            while let Some(&(_, to, frame)) = known.next_if(|&&(at, _, _)| at == seq) {
                visit(to as usize, frame);
                seq += 1;
            }
            visit(to as usize, frame);
            seq += 1;
        }
        for &(_, to, frame) in known {
            visit(to as usize, frame);
        }
    }

    fn clear(&mut self) {
        self.pushed.clear();
        self.reordered.clear();
        self.known.clear();
    }
}

/// One [`Pending`] list grouped by destination tile.
#[derive(Debug)]
pub(crate) struct Grouped {
    /// Every frame, ordered by tile, then by arrival.
    frames: Vec<Frame>,
    /// `(tile, end of its slice of frames)` for each tile with at least
    /// one frame, ascending; a slice starts where the one before ends.
    spans: Vec<(u32, u32)>,
    /// Per-tile count, then write cursor, while grouping; all zero
    /// otherwise.
    cursors: Vec<u32>,
    /// One bit per tile with a non-zero cursor; all zero between
    /// groupings.
    touched: Vec<u64>,
}

impl Grouped {
    /// An empty grouping over tiles `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Grouped {
            frames: Vec::new(),
            spans: Vec::new(),
            cursors: vec![0; n],
            touched: vec![0; n.div_ceil(64)],
        }
    }

    /// Replaces the contents with `pending`'s frames, less the known
    /// duplicates: what the receive phase reads.
    pub(crate) fn group(&mut self, pending: &Pending) {
        self.fill(pending, false);
    }

    /// Replaces the contents with every frame of `pending`, each known
    /// duplicate at its place: what a checkpoint writes.
    pub(crate) fn group_with_known(&mut self, pending: &Pending) {
        self.fill(pending, true);
    }

    #[inline]
    fn fill(&mut self, pending: &Pending, with_known: bool) {
        self.clear();
        let plain = pending.pushed.first().or(pending.reordered.first());
        let known = pending.known.first().filter(|_| with_known);
        let filler = plain.map(|&(_, frame)| frame);
        let Some(filler) = filler.or(known.map(|&(_, _, frame)| frame)) else {
            return;
        };
        assert!(
            u32::try_from(pending.len()).is_ok(),
            "more frames in flight than a slice offset holds"
        );
        let Grouped {
            frames,
            spans,
            cursors,
            touched,
        } = self;
        pending.in_arrival_order(with_known, |to, _| {
            cursors[to] += 1;
            touched[to / 64] |= 1 << (to % 64);
        });
        let mut end = 0;
        for (at, word) in touched
            .iter_mut()
            .enumerate()
            .filter(|(_, word)| **word != 0)
        {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let tile = at * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let start = end;
                end += std::mem::replace(&mut cursors[tile], start);
                spans.push((tile as u32, end));
            }
        }
        frames.resize(end as usize, filler);
        pending.in_arrival_order(with_known, |to, frame| {
            let cursor = &mut cursors[to];
            frames[*cursor as usize] = frame;
            *cursor += 1;
        });
        for &(tile, _) in spans.iter() {
            cursors[tile as usize] = 0;
        }
    }

    /// Forgets the frames (the cursors are already reset).
    pub(crate) fn clear(&mut self) {
        self.frames.clear();
        self.spans.clear();
    }

    /// True when no tile has a frame.
    pub(crate) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The tiles of `lo..hi` that have frames, ascending, each with its
    /// frames in arrival order.
    pub(crate) fn tiles(&self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, &[Frame])> {
        let first = self
            .spans
            .partition_point(|&(tile, _)| (tile as usize) < lo);
        let mut start = first
            .checked_sub(1)
            .map_or(0, |before| self.spans[before].1 as usize);
        self.spans[first..]
            .iter()
            .take_while(move |&&(tile, _)| (tile as usize) < hi)
            .map(move |&(tile, end)| {
                let frames = &self.frames[start..end as usize];
                start = end as usize;
                (tile as usize, frames)
            })
    }

    /// Every tile that has frames, ascending, with its frames in arrival
    /// order and free to be compacted in place.
    pub(crate) fn tiles_mut(&mut self) -> impl Iterator<Item = (usize, &mut [Frame])> {
        let mut rest = self.frames.as_mut_slice();
        let mut start = 0;
        self.spans.iter().map(move |&(tile, end)| {
            let (frames, tail) = std::mem::take(&mut rest).split_at_mut((end - start) as usize);
            (rest, start) = (tail, end);
            (tile as usize, frames)
        })
    }

    /// Nothing is grouped and every cursor is reset (the engine's
    /// debug-build round-boundary assert).
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn is_reset(&self) -> bool {
        self.is_empty()
            && self.touched.iter().all(|&w| w == 0)
            && self.cursors.iter().all(|&c| c == 0)
    }
}

/// The engine's delay line. A frame sent in round `r` arrives in `r + 1`
/// or, when the sender slipped or the link delayed it, in `r + 2`.
#[derive(Debug)]
pub(crate) struct Arrivals {
    /// Arrives next round.
    pub(crate) next: Pending,
    /// Arrives the round after.
    pub(crate) later: Pending,
    /// Arrives this round: filled by [`Arrivals::rotate`], cleared once
    /// the receive phase has read it.
    pub(crate) grouped: Grouped,
}

impl Arrivals {
    /// An empty delay line over tiles `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Arrivals {
            next: Pending::default(),
            later: Pending::default(),
            grouped: Grouped::new(n),
        }
    }

    /// Opens a round: what was due next is grouped for the receive phase,
    /// and what was held becomes due next and keeps being appended to. The
    /// held frames — few, unless chaos delays everything — move into the
    /// storage `next` already has, so one list carries a round's worth of
    /// capacity, not both.
    pub(crate) fn rotate(&mut self) {
        debug_assert!(
            self.later.known.is_empty(),
            "a known duplicate is never held"
        );
        self.grouped.group(&self.next);
        self.next.clear();
        self.next.pushed.append(&mut self.later.pushed);
        self.next.reordered.append(&mut self.later.reordered);
    }

    /// Frames in flight, not counting those grouped for this round.
    pub(crate) fn pending_frames(&self) -> u64 {
        (self.next.len() + self.later.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireEntry, WireTable};
    use noc_fabric::{LinkId, Message, MessageId, NodeId};
    use proptest::prelude::*;

    /// Frame number `k`, told apart by its arrival link.
    fn frame(k: usize) -> Frame {
        let message = Message::new(MessageId(0), NodeId(0), NodeId(1), 1, vec![]);
        let wire = WireTable::default().push(WireEntry::clean(message));
        Frame::new(wire, Some(LinkId(k)))
    }

    const TILES: usize = 70;

    /// Asserts that `tiles` — ascending, none empty — read what `want`
    /// holds for each of them, and that the tiles left out want nothing.
    fn assert_reads<'a>(tiles: impl Iterator<Item = (usize, &'a [Frame])>, want: &[Vec<Frame>]) {
        let mut read = vec![&[][..]; want.len()];
        let mut last = None;
        for (tile, frames) in tiles {
            assert!(last < Some(tile) && !frames.is_empty());
            last = Some(tile);
            read[tile] = frames;
        }
        assert_eq!(read, want);
    }

    proptest! {
        /// The delay line the engine had before — one `Vec<Frame>` per
        /// tile and arena, `push` / `insert(0, …)`, the three-way swap —
        /// is the model: every tile reads the same frames in the same
        /// order every round. A send is `(to, kind, known)`: 0 and 1
        /// arrive next round, 2 is held a round, 3 and 4 are those two
        /// reordered, and 5 is a loopback `inject` — to the delay line one
        /// more frame for next round, wherever among the sends it falls.
        /// A kind-0 send with `known` set is filed as a known duplicate:
        /// receive reads every other frame as the model does, and
        /// capture's grouping reads what a twin delay line that pushed
        /// every frame plainly groups.
        #[test]
        fn grouping_agrees_with_per_tile_vecs(
            rounds in proptest::collection::vec(
                proptest::collection::vec((0..TILES, 0u8..6, 0u8..2), 0..40),
                1..8,
            ),
        ) {
            let mut arrivals = Arrivals::new(TILES);
            let mut plain = Arrivals::new(TILES);
            let mut capture = Grouped::new(TILES);
            let mut next = vec![Vec::new(); TILES];
            let mut later = vec![Vec::new(); TILES];
            let mut scratch = vec![Vec::new(); TILES];
            let mut sent = 0;
            // Two empty rounds at the end drain what the last one held.
            for sends in rounds.iter().chain([&vec![], &vec![]]) {
                arrivals.rotate();
                plain.rotate();
                plain.grouped.clear();
                std::mem::swap(&mut next, &mut scratch);
                std::mem::swap(&mut next, &mut later);
                assert_reads(arrivals.grouped.tiles(0, TILES), &scratch);
                let ranges = [(0, 13), (13, 13), (13, 64), (64, TILES)];
                let by_range = ranges.into_iter().flat_map(|(lo, hi)| arrivals.grouped.tiles(lo, hi));
                assert_reads(by_range, &scratch);
                let mutable = arrivals.grouped.tiles_mut().map(|(tile, frames)| (tile, &*frames));
                assert_reads(mutable, &scratch);
                scratch.iter_mut().for_each(Vec::clear);
                arrivals.grouped.clear();
                prop_assert!(arrivals.grouped.is_reset());

                let mut known = 0;
                for &(to, kind, filed_known) in sends {
                    let frame = frame(sent);
                    sent += 1;
                    let (held, reordered) = (kind == 2 || kind == 4, kind == 3 || kind == 4);
                    let twin = if held { &mut plain.later } else { &mut plain.next };
                    twin.push(to, frame, reordered);
                    if kind == 0 && filed_known == 1 {
                        arrivals.next.push_known(to, frame);
                        known += 1;
                        continue;
                    }
                    let (list, model) = if held {
                        (&mut arrivals.later, &mut later[to])
                    } else {
                        (&mut arrivals.next, &mut next[to])
                    };
                    list.push(to, frame, reordered);
                    if reordered {
                        model.insert(0, frame);
                    } else {
                        model.push(frame);
                    }
                }
                for (list, twin) in [(&arrivals.next, &plain.next), (&arrivals.later, &plain.later)] {
                    capture.group_with_known(list);
                    plain.grouped.group(twin);
                    let read: Vec<_> = capture.tiles(0, TILES).collect();
                    let want: Vec<_> = plain.grouped.tiles(0, TILES).collect();
                    prop_assert_eq!(read, want);
                    capture.clear();
                    plain.grouped.clear();
                }
                let pending: usize = next.iter().chain(&later).map(Vec::len).sum();
                prop_assert_eq!(arrivals.pending_frames(), (pending + known) as u64);
                prop_assert_eq!(arrivals.pending_frames(), plain.pending_frames());
            }
            prop_assert_eq!(arrivals.pending_frames(), 0);
        }
    }

    /// The O(active) contract: grouping `k` frames visits the tiles they
    /// name and no others, however large the fabric, and hands the
    /// per-tile cursors back at zero.
    #[test]
    fn grouping_a_few_frames_on_a_huge_fabric_touches_only_their_tiles() {
        let n = 1 << 20;
        let mut grouped = Grouped::new(n);
        let mut pending = Pending::default();
        let sends = [
            (n - 1, false),
            (3, false),
            (n / 2, true),
            (3, true),
            (n - 1, false),
        ];
        for (k, &(to, reordered)) in sends.iter().enumerate() {
            pending.push(to, frame(k), reordered);
        }
        grouped.group(&pending);
        assert!(grouped.spans.len() <= sends.len());
        assert!(grouped.touched.iter().all(|&word| word == 0));
        assert!(grouped.cursors.iter().all(|&cursor| cursor == 0));
        let tiles: Vec<_> = grouped.tiles(0, n).collect();
        assert_eq!(
            tiles,
            [
                (3, &[frame(3), frame(1)][..]),
                (n / 2, &[frame(2)][..]),
                (n - 1, &[frame(0), frame(4)][..]),
            ]
        );
        grouped.clear();
        assert!(grouped.is_reset());
    }
}
