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
//! set while that word is non-zero, so a walk skips 64 empty words per
//! summary word it reads: 4 reads for a 128² fabric with nothing in it.
//! `insert` and `remove` keep the summary exact; the engine calls them on
//! a tile's first sight of a message and when its buffer empties, never
//! per duplicate frame.
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

    /// Is `tile` in the set? (The engine's debug-build exactness
    /// asserts and the unit tests.)
    #[cfg(any(debug_assertions, test))]
    #[inline]
    pub fn contains(&self, tile: usize) -> bool {
        (self.words[tile / 64] >> (tile % 64)) & 1 == 1
    }

    /// Iterates the set tiles in ascending index order.
    pub fn iter(&self) -> TileSetIter<'_> {
        // The first word is read here; the summary hands out only the
        // non-zero words after it.
        TileSetIter {
            set: self,
            group: 0,
            pending: self.summary.first().map_or(0, |&s| s & !1),
            word: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Ascending iterator over a [`TileSet`].
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
}

impl Iterator for TileSetIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tile = self.word * 64 + self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(tile);
            }
            while self.pending == 0 {
                self.group += 1;
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
        assert_eq!(set.iter().count(), 4);
        set.remove(63);
        assert!(!set.contains(63));
        assert_eq!(set.iter().count(), 3);
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
    fn remove_and_empty() {
        let mut set = TileSet::new(10);
        assert!(set.iter().next().is_none());
        set.insert(7);
        assert!(set.iter().next().is_some());
        set.remove(7);
        assert!(set.iter().next().is_none());
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
                prop_assert_eq!(set.iter().next().is_none(), model.is_empty());
            }
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        }
    }
}
