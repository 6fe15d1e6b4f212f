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
//! * A message's tiles are an ascending `u32` list until the list would
//!   outweigh a bit per tile (`len · 32 > n`), then a bitset over
//!   `0..n`. The switch is derived from `n`; nothing configures it.
//! * Both forms live in one struct whose bitset, empty while the list is
//!   in use, is tested first: a flood's probe is a bounds check and one
//!   word, the compare the per-tile inline ids used to cost.
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

/// One message's audience: a sorted list or a bitset, never both.
#[derive(Debug, Clone, Default)]
struct Tiles {
    /// One bit per tile once dense; empty while `list` holds the set.
    bits: Box<[u64]>,
    /// Ascending tile indices while sparse; empty once dense.
    list: Vec<u32>,
    /// Tiles in the set.
    len: u32,
}

impl Tiles {
    #[inline]
    fn contains(&self, tile: usize) -> bool {
        match self.bits.get(tile / 64) {
            Some(word) => (word >> (tile % 64)) & 1 == 1,
            None => self.list.binary_search(&(tile as u32)).is_ok(),
        }
    }

    /// Adds `tile` (below `n`); false if it was there.
    #[inline]
    fn insert(&mut self, tile: usize, n: usize) -> bool {
        if let Some(word) = self.bits.get_mut(tile / 64) {
            let bit = 1 << (tile % 64);
            if *word & bit != 0 {
                return false;
            }
            *word |= bit;
        } else {
            let Err(at) = self.list.binary_search(&(tile as u32)) else {
                return false;
            };
            if (self.list.len() + 1) * 32 > n {
                let mut bits = vec![0u64; n.div_ceil(64)].into_boxed_slice();
                self.list.push(tile as u32);
                for t in std::mem::take(&mut self.list) {
                    bits[t as usize / 64] |= 1 << (t % 64);
                }
                self.bits = bits;
            } else {
                self.list.insert(at, tile as u32);
            }
        }
        self.len += 1;
        true
    }

    /// The tiles, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let dense = self.bits.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    at * 64 + bit
                })
            })
        });
        dense.chain(self.list.iter().map(|&t| t as usize))
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

    #[inline]
    fn get(&self, id: MessageId) -> Option<&Tiles> {
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
        let tiles = match self.index(id) {
            Some(at) => &mut self.assigned[at],
            None => self.stray.entry(id).or_default(),
        };
        tiles.insert(tile, self.tiles)
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

    /// What an [`Audience`] is, with nothing sparse or dense about it.
    #[derive(Default)]
    struct Model {
        seen: BTreeMap<MessageId, BTreeSet<usize>>,
        assigned: u64,
    }

    proptest! {
        /// `n` is below, near and far above the first switch (32 tiles
        /// per listed one); with two ids, a 1 000-tile set crosses it
        /// too. An operation is `(kind, id, tile)`: kinds 0–4 insert (ids
        /// past the assigned ones are stray), 5 assigns the next id, as
        /// `inject` does.
        #[test]
        fn every_operation_agrees_with_the_model(
            n in prop_oneof![Just(16usize), Just(64), Just(1_000)],
            ids in prop_oneof![Just(2u64), Just(24)],
            ops in proptest::collection::vec((0u8..6, 0u64..24, 0usize..1_000), 0..400),
        ) {
            let mut audience = Audience::new(n, 0);
            let mut model = Model::default();
            for (kind, id, tile) in ops {
                let (id, tile) = (MessageId(id % ids), tile % n);
                if kind == 5 {
                    let next = MessageId(model.assigned);
                    audience.assign(next);
                    model.assigned += 1;
                    continue;
                }
                let fresh = model.seen.entry(id).or_default().insert(tile);
                prop_assert_eq!(audience.insert(id, tile), fresh);
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

    #[test]
    fn a_list_turns_into_a_bitset_once_it_would_outweigh_one() {
        let n = 1_000;
        let mut tiles = Tiles::default();
        // 31 listed tiles are 992 bits: still a list.
        for tile in (0..31).rev().map(|k| 3 * k) {
            assert!(tiles.insert(tile, n));
        }
        assert!(tiles.bits.is_empty());
        assert!(tiles.insert(999, n), "the 32nd is 1 024 bits");
        assert_eq!((tiles.bits.len(), tiles.list.len()), (16, 0));
        assert!(!tiles.insert(999, n) && !tiles.insert(30, n));
        let want: Vec<usize> = (0..31).map(|k| 3 * k).chain([999]).collect();
        assert_eq!(tiles.iter().collect::<Vec<_>>(), want);
        assert_eq!(tiles.len, 32);
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
