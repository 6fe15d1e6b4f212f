//! Who has heard of what: the engine's one seen-set, kept per message.
//!
//! §3.2.3's dedup rule — "if a message is already present, a duplicate
//! message will not be inserted" — asks of every arriving frame whether
//! the receiving tile's buffer has seen its id, and nearly every frame of
//! a flood is a duplicate. [`Audience`] holds that relation per message:
//! the tiles whose send buffer has seen each id. Read per message it is
//! the informed population `I(t)` of Fig 3-1, so `informed_count` is a
//! set's size and `node_informed` its membership; read per tile, it is
//! what a checkpoint writes as each buffer's seen list.
//!
//! **Layout.**
//!
//! * Ids the engine assigned (below `next_message_id`) index a `Vec`
//!   directly. Any other id — a header an undetected upset corrupted —
//!   waits in an ordered map until `inject` assigns it, then moves into
//!   the `Vec`. So every key of the map is above every index of the
//!   `Vec`, and walking the `Vec` then the map is ascending id order.
//! * A message's tiles are a bitset over a window of words: the words
//!   between its lowest and its highest tile, and no others. A probe is a subtraction, a bounds check and
//!   one bit. An insert outside the window regrows it to exactly the
//!   words needed, so a message costs at most `n / 8` bytes, and a
//!   trickled message that reached a few dozen neighbouring tiles costs
//!   the few rows of words they span.
//!
//! The sets only grow: a tile never forgets an id, since a copy still
//! circulating would otherwise resurrect an expired broadcast.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;

use noc_fabric::MessageId;

/// The tiles whose send buffer has seen each message id.
#[derive(Debug, Clone)]
pub(crate) struct Audience {
    /// Tiles of the fabric, `n`.
    tiles: usize,
    /// Indexed by id, one per id the engine assigned.
    assigned: Vec<Tiles>,
    /// Ids above every assigned one, each seen by at least one tile.
    stray: BTreeMap<MessageId, Tiles>,
}

/// One message's audience: a bitset over a window of words.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tiles {
    /// Bit `t % 64` of `words[t / 64 - first]` is tile `t`; empty until
    /// the first insert.
    words: Box<[u64]>,
    /// The word of the fabric `words[0]` covers.
    first: u32,
    /// Tiles in the set.
    len: u32,
}

impl Tiles {
    /// Has `tile` seen the message?
    #[inline]
    pub(crate) fn contains(&self, tile: usize) -> bool {
        let at = (tile / 64).wrapping_sub(self.first as usize);
        self.words
            .get(at)
            .is_some_and(|word| (word >> (tile % 64)) & 1 == 1)
    }

    /// The window of words that holds it and `word`.
    fn span_with(&self, word: usize) -> (usize, usize) {
        let first = self.first as usize;
        if self.words.is_empty() {
            (word, word + 1)
        } else {
            (first.min(word), (first + self.words.len()).max(word + 1))
        }
    }

    /// Words `insert(tile)` would add to the window.
    fn growth(&self, tile: usize) -> usize {
        let (lo, hi) = self.span_with(tile / 64);
        hi - lo - self.words.len()
    }

    /// Adds `tile`; false if it was there.
    #[inline]
    fn insert(&mut self, tile: usize) -> bool {
        let mut at = (tile / 64).wrapping_sub(self.first as usize);
        if at >= self.words.len() {
            self.regrow(tile / 64);
            at = tile / 64 - self.first as usize;
        }
        let (word, bit) = (&mut self.words[at], 1 << (tile % 64));
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.len += 1;
        true
    }

    /// Widens the window to exactly the words from its first to `word`,
    /// or from `word` to its last.
    fn regrow(&mut self, word: usize) {
        let (lo, hi) = self.span_with(word);
        let mut words = vec![0; hi - lo].into_boxed_slice();
        if !self.words.is_empty() {
            let keep = self.first as usize - lo;
            words[keep..keep + self.words.len()].copy_from_slice(&self.words);
        }
        (self.words, self.first) = (words, lo as u32);
    }

    /// The tiles, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let first = self.first as usize;
        self.words.iter().enumerate().flat_map(move |(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    (first + at) * 64 + bit
                })
            })
        })
    }
}

impl Audience {
    /// Nobody has heard of anything, over tiles `0..tiles`, with ids
    /// `0..assigned` already handed out.
    pub(crate) fn new(tiles: usize, assigned: usize) -> Self {
        Audience {
            tiles,
            assigned: vec![Tiles::default(); assigned],
            stray: BTreeMap::new(),
        }
    }

    /// Where `id` sits in `assigned`, if the engine assigned it.
    #[inline]
    fn index(&self, id: MessageId) -> Option<usize> {
        usize::try_from(id.0)
            .ok()
            .filter(|&at| at < self.assigned.len())
    }

    /// The tiles that have seen `id`, for probing many of them.
    #[inline]
    pub(crate) fn get(&self, id: MessageId) -> Option<&Tiles> {
        match self.index(id) {
            Some(at) => Some(&self.assigned[at]),
            None => self.stray.get(&id),
        }
    }

    /// Has `tile`'s buffer seen `id`?
    #[inline]
    pub(crate) fn contains(&self, id: MessageId, tile: usize) -> bool {
        self.get(id).is_some_and(|tiles| tiles.contains(tile))
    }

    /// Records that `tile` (below `n`) has seen `id`; false if it had.
    #[inline]
    pub(crate) fn insert(&mut self, id: MessageId, tile: usize) -> bool {
        debug_assert!(tile < self.tiles, "tile {tile} outside 0..{}", self.tiles);
        let tiles = match self.index(id) {
            Some(at) => &mut self.assigned[at],
            None => self.stray.entry(id).or_default(),
        };
        tiles.insert(tile)
    }

    /// Bytes `insert(id, tile)` would allocate for `id`'s window.
    pub(crate) fn growth_bytes(&self, id: MessageId, tile: usize) -> usize {
        8 * self.get(id).map_or(1, |tiles| tiles.growth(tile))
    }

    /// `inject` hands out `id`, the next one: the tiles that already hold
    /// a corrupted header carrying it keep it.
    pub(crate) fn assign(&mut self, id: MessageId) {
        debug_assert_eq!(
            id.0,
            self.assigned.len() as u64,
            "ids are assigned in order"
        );
        let tiles = self.stray.remove(&id).unwrap_or_default();
        self.assigned.push(tiles);
    }

    /// How many tiles have seen `id`.
    pub(crate) fn count(&self, id: MessageId) -> usize {
        self.get(id).map_or(0, |tiles| tiles.len as usize)
    }

    /// Every id with its tiles, ascending.
    fn messages(&self) -> impl Iterator<Item = (MessageId, &Tiles)> {
        let assigned = (0u64..).map(MessageId).zip(&self.assigned);
        assigned.chain(self.stray.iter().map(|(&id, tiles)| (id, tiles)))
    }

    /// `(id, tiles that have seen it)` for every id some tile has seen,
    /// ascending.
    pub(crate) fn counts(&self) -> impl Iterator<Item = (MessageId, usize)> + '_ {
        self.messages()
            .filter(|(_, tiles)| tiles.len > 0)
            .map(|(id, tiles)| (id, tiles.len as usize))
    }

    /// The relation turned around: each tile's ids, ascending.
    pub(crate) fn by_tile(&self) -> SeenByTile {
        // `ends[t]` counts tile t's ids, then marks where they start, then,
        // once they are placed, where they end.
        let mut ends = vec![0usize; self.tiles];
        for (_, tiles) in self.messages() {
            for tile in tiles.iter() {
                ends[tile] += 1;
            }
        }
        let mut total = 0;
        for end in &mut ends {
            total += std::mem::replace(end, total);
        }
        let mut ids = vec![MessageId(0); total];
        for (id, tiles) in self.messages() {
            for tile in tiles.iter() {
                ids[ends[tile]] = id;
                ends[tile] += 1;
            }
        }
        SeenByTile { ends, ids }
    }
}

/// An [`Audience`] read per tile ([`Audience::by_tile`]).
pub(crate) struct SeenByTile {
    /// Where each tile's ids end in `ids`; they start where the previous
    /// tile's end.
    ends: Vec<usize>,
    ids: Vec<MessageId>,
}

impl SeenByTile {
    /// The ids `tile`'s buffer has seen, ascending.
    pub(crate) fn tile(&self, tile: usize) -> &[MessageId] {
        let start = tile.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.ids[start..self.ends[tile]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// What an [`Audience`] is, with no window about it.
    #[derive(Default)]
    struct Model {
        seen: BTreeMap<MessageId, BTreeSet<usize>>,
        assigned: u64,
    }

    proptest! {
        /// `n` is one word, one word exactly, a tile past two words and
        /// sixteen words. An operation is `(kind, id, tile)`: kinds 0–4
        /// insert (ids past the assigned ones are stray), 5 assigns the
        /// next id, as `inject` does. `order` 1 sorts the operations by
        /// tile, so every window grows upward only, and 2 sorts them the
        /// other way, so every window grows downward only.
        #[test]
        fn every_operation_agrees_with_the_model(
            n in prop_oneof![Just(16usize), Just(64), Just(130), Just(1_000)],
            ids in prop_oneof![Just(2u64), Just(24)],
            order in 0u8..3,
            mut ops in proptest::collection::vec((0u8..6, 0u64..24, 0usize..1_000), 0..400),
        ) {
            for op in &mut ops {
                op.2 %= n;
            }
            match order {
                1 => ops.sort_by_key(|op| op.2),
                2 => ops.sort_by_key(|op| std::cmp::Reverse(op.2)),
                _ => {}
            }
            let mut audience = Audience::new(n, 0);
            let mut model = Model::default();
            for (kind, id, tile) in ops {
                let id = MessageId(id % ids);
                if kind == 5 {
                    let next = MessageId(model.assigned);
                    audience.assign(next);
                    model.assigned += 1;
                    continue;
                }
                let fresh = model.seen.entry(id).or_default().insert(tile);
                let (words, growth) = (window(&audience, id).len(), audience.growth_bytes(id, tile));
                prop_assert_eq!(audience.insert(id, tile), fresh);
                prop_assert_eq!(8 * (window(&audience, id).len() - words), growth);
            }
            for id in (0..24).map(MessageId) {
                let want = model.seen.get(&id);
                prop_assert_eq!(audience.count(id), want.map_or(0, BTreeSet::len));
                for tile in 0..n {
                    prop_assert_eq!(
                        audience.contains(id, tile),
                        want.is_some_and(|tiles| tiles.contains(&tile))
                    );
                }
                // Exactly the words between the lowest and highest tile.
                if let Some((&lo, &hi)) = want.and_then(|tiles| tiles.first().zip(tiles.last())) {
                    prop_assert_eq!(window(&audience, id).len(), hi / 64 - lo / 64 + 1);
                }
            }
            let counts: Vec<_> = audience.counts().collect();
            let want: Vec<_> = model
                .seen
                .iter()
                .filter(|(_, tiles)| !tiles.is_empty())
                .map(|(&id, tiles)| (id, tiles.len()))
                .collect();
            prop_assert_eq!(counts, want);
            let by_tile = audience.by_tile();
            for tile in 0..n {
                let want: Vec<_> = model
                    .seen
                    .iter()
                    .filter(|(_, tiles)| tiles.contains(&tile))
                    .map(|(&id, _)| id)
                    .collect();
                prop_assert_eq!(by_tile.tile(tile), &want[..]);
            }
        }
    }

    /// `id`'s window of words; empty if no tile has seen it.
    fn window(audience: &Audience, id: MessageId) -> &[u64] {
        audience.get(id).map_or(&[], |tiles| &tiles.words)
    }

    #[test]
    fn a_window_holds_exactly_the_words_its_tiles_span() {
        let mut tiles = Tiles::default();
        assert!(!tiles.contains(0) && tiles.growth(500) == 1);
        assert!(tiles.insert(500));
        assert_eq!((tiles.first, tiles.words.len()), (7, 1));
        assert!(!tiles.contains(499) && !tiles.contains(64 * 8));
        assert_eq!(
            (tiles.growth(10), tiles.growth(511), tiles.growth(999)),
            (7, 0, 8)
        );
        assert!(tiles.insert(10), "grows downward");
        assert_eq!((tiles.first, tiles.words.len()), (0, 8));
        assert!(tiles.insert(999), "grows upward");
        assert_eq!((tiles.first, tiles.words.len()), (0, 16));
        assert!(!tiles.insert(999) && !tiles.insert(10) && !tiles.insert(500));
        assert_eq!(tiles.iter().collect::<Vec<_>>(), [10, 500, 999]);
        assert_eq!(tiles.len, 3);
    }

    #[test]
    fn a_stray_id_moves_in_with_its_audience_when_assigned() {
        let mut audience = Audience::new(16, 0);
        assert!(audience.insert(MessageId(1), 7));
        audience.assign(MessageId(0));
        assert!(audience.stray.contains_key(&MessageId(1)));
        audience.assign(MessageId(1));
        assert!(audience.stray.is_empty());
        assert!(audience.contains(MessageId(1), 7));
        assert!(!audience.insert(MessageId(1), 7));
        assert_eq!(audience.count(MessageId(1)), 1);
        assert_eq!(audience.count(MessageId(0)), 0);
    }
}
