//! Active-frontier bookkeeping: which tiles have work this round.
//!
//! A mega-grid trial spends most of its late rounds quiescent — the
//! epidemic has died down, yet the engine used to walk every tile in
//! every phase. [`TileSet`] — a bitset over tile indices with
//! ascending-order iteration — makes each phase O(active) instead of
//! O(n): a frontier walk visits tiles in exactly the order the full
//! `0..n` loop did (the draw-order invariant every golden digest depends
//! on).
//!
//! **Summary.** Beside its words the set keeps one summary bit per word,
//! set while that word is non-zero, so a walk or an emptiness test skips
//! 64 empty words per summary word it reads: 4 reads for a 128² fabric
//! with nothing in it. `insert` and `remove` keep the summary exact; the
//! engine calls them on a tile's first sight of a message and when its
//! buffer empties, never per duplicate frame.
//!
//! The buffer frontier is *exact* (maintained at every transition from
//! empty to non-empty and back), which `Simulation::step` re-asserts
//! against the O(n) scan in debug builds.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// A bitset over tile indices `0..n` with ascending iteration.
#[derive(Debug, Clone, Default)]
pub(crate) struct TileSet {
    words: Vec<u64>,
    /// Bit `k % 64` of `summary[k / 64]` is set iff `words[k]` is not 0.
    summary: Vec<u64>,
}

impl TileSet {
    /// An empty set sized for tiles `0..n`.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Self {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    /// Adds `tile` to the set.
    #[inline]
    pub fn insert(&mut self, tile: usize) {
        let word = tile / 64;
        self.words[word] |= 1u64 << (tile % 64);
        self.summary[word / 64] |= 1u64 << (word % 64);
    }

    /// Removes `tile` from the set.
    #[inline]
    pub fn remove(&mut self, tile: usize) {
        let word = tile / 64;
        self.words[word] &= !(1u64 << (tile % 64));
        if self.words[word] == 0 {
            self.summary[word / 64] &= !(1u64 << (word % 64));
        }
    }

    /// Is `tile` in the set?
    #[inline]
    #[allow(
        dead_code,
        reason = "used by the engine's debug-build exactness asserts and unit tests"
    )]
    pub fn contains(&self, tile: usize) -> bool {
        (self.words[tile / 64] >> (tile % 64)) & 1 == 1
    }

    /// True when no tile is set.
    pub fn is_empty(&self) -> bool {
        self.summary.iter().all(|&w| w == 0)
    }

    /// Number of tiles in the set.
    #[allow(
        dead_code,
        reason = "exercised by unit tests; kept as the bitset's natural API"
    )]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set tiles in ascending index order.
    pub fn iter(&self) -> TileSetIter<'_> {
        self.iter_range(0, self.words.len() * 64)
    }

    /// Iterates the set tiles in `lo..hi`, in ascending index order —
    /// the shard-partition view of the frontier.
    pub fn iter_range(&self, lo: usize, hi: usize) -> TileSetIter<'_> {
        let word = lo / 64;
        // The first word is read here, masked below `lo`; the summary
        // hands out only the non-zero words after it.
        let current = self
            .words
            .get(word)
            .map_or(0, |&w| w & (!0u64 << (lo % 64)));
        let pending = self
            .summary
            .get(word / 64)
            .map_or(0, |&s| s & (!1u64 << (word % 64)));
        TileSetIter {
            set: self,
            group: word / 64,
            pending,
            word,
            current,
            hi,
        }
    }
}

/// Ascending iterator over a [`TileSet`] range.
pub(crate) struct TileSetIter<'a> {
    set: &'a TileSet,
    /// The summary word `pending` was read from.
    group: usize,
    /// Non-zero words of summary word `group` not yet read.
    pending: u64,
    /// The word `current` was read from.
    word: usize,
    /// Set tiles of word `word` not yet returned.
    current: u64,
    hi: usize,
}

impl Iterator for TileSetIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tile = self.word * 64 + self.current.trailing_zeros() as usize;
                if tile >= self.hi {
                    return None;
                }
                self.current &= self.current - 1;
                return Some(tile);
            }
            while self.pending == 0 {
                self.group += 1;
                if self.group * 4096 >= self.hi {
                    return None;
                }
                self.pending = *self.set.summary.get(self.group)?;
            }
            self.word = self.group * 64 + self.pending.trailing_zeros() as usize;
            self.pending &= self.pending - 1;
            self.current = self.set.words[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::sharded::shard_ranges;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove() {
        let mut set = TileSet::new(130);
        assert!(!set.contains(0));
        set.insert(0);
        set.insert(63);
        set.insert(64);
        set.insert(129);
        assert!(set.contains(0));
        assert!(set.contains(63));
        assert!(set.contains(64));
        assert!(set.contains(129));
        assert!(!set.contains(1));
        assert_eq!(set.len(), 4);
        set.remove(63);
        assert!(!set.contains(63));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut set = TileSet::new(200);
        for tile in [150, 3, 64, 0, 199, 65] {
            set.insert(tile);
        }
        let seen: Vec<usize> = set.iter().collect();
        assert_eq!(seen, vec![0, 3, 64, 65, 150, 199]);
    }

    #[test]
    fn range_iteration_respects_bounds() {
        let mut set = TileSet::new(200);
        for tile in [0, 10, 63, 64, 100, 127, 128, 199] {
            set.insert(tile);
        }
        let seen: Vec<usize> = set.iter_range(10, 128).collect();
        assert_eq!(seen, vec![10, 63, 64, 100, 127]);
        let seen: Vec<usize> = set.iter_range(64, 64).collect();
        assert!(seen.is_empty());
        let seen: Vec<usize> = set.iter_range(0, 200).collect();
        assert_eq!(seen.len(), set.len());
    }

    #[test]
    fn range_iteration_matches_filtered_full_iteration() {
        // Pseudo-random membership via a fixed multiplicative pattern.
        let n = 517;
        let mut set = TileSet::new(n);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for tile in 0..n {
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
            if x & 3 == 0 {
                set.insert(tile);
            }
        }
        for (lo, hi) in [(0, n), (5, 5), (5, 6), (60, 70), (100, 517), (0, 64)] {
            let ranged: Vec<usize> = set.iter_range(lo, hi).collect();
            let filtered: Vec<usize> = set.iter().filter(|&t| t >= lo && t < hi).collect();
            assert_eq!(ranged, filtered, "range ({lo}, {hi})");
        }
    }

    #[test]
    fn remove_and_empty() {
        let mut set = TileSet::new(10);
        assert!(set.is_empty());
        set.insert(7);
        assert!(!set.is_empty());
        set.remove(7);
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
    }

    /// The summary words a walk skips through are exact: one bit per
    /// non-zero word, cleared when its word empties.
    #[test]
    fn the_summary_marks_exactly_the_non_zero_words() {
        let mut set = TileSet::new(70_000);
        for tile in [5, 6, 64_000, 69_999] {
            set.insert(tile);
        }
        set.remove(5);
        assert_eq!(set.summary[0], 1);
        set.remove(6);
        let marked: Vec<usize> = (0..set.words.len())
            .filter(|&k| (set.summary[k / 64] >> (k % 64)) & 1 == 1)
            .collect();
        assert_eq!(marked, [1_000, 1_093]);
        assert_eq!(set.iter().collect::<Vec<_>>(), [64_000, 69_999]);
    }

    proptest! {
        /// A `BTreeSet` is the model. `n` is one tile, one word, one
        /// summary word and a tile, and more than 16 summary words. An
        /// operation is `(insert?, tile)`; a tile below 64 is in the first
        /// word, so inserts and removes there empty it again and again.
        #[test]
        fn every_operation_agrees_with_the_model(
            n in prop_oneof![Just(1usize), Just(64), Just(4_097), Just(70_000)],
            ops in proptest::collection::vec((any::<bool>(), 0usize..70_000), 0..300),
        ) {
            let mut set = TileSet::new(n);
            let mut model = BTreeSet::new();
            for (k, (insert, tile)) in ops.into_iter().enumerate() {
                let tile = if k % 2 == 0 { tile % n.min(64) } else { tile % n };
                if insert {
                    set.insert(tile);
                    model.insert(tile);
                } else {
                    set.remove(tile);
                    model.remove(&tile);
                }
                prop_assert_eq!(set.is_empty(), model.is_empty());
            }
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(set.len(), model.len());
            for shards in [1, 2, 3, 7, 8] {
                for (lo, hi) in shard_ranges(n, shards) {
                    let want: Vec<usize> = model.range(lo..hi).copied().collect();
                    prop_assert_eq!(set.iter_range(lo, hi).collect::<Vec<_>>(), want);
                }
            }
            // Ranges that start and end inside a word and a summary word.
            for (lo, hi) in [(1, n), (n / 3, n / 2 + 1), (63, 64 * 65 + 1), (n, n)] {
                let want: Vec<usize> = model.range(lo..hi.max(lo)).copied().collect();
                prop_assert_eq!(set.iter_range(lo, hi).collect::<Vec<_>>(), want);
            }
        }
    }
}
