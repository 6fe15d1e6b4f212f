//! Active-frontier bookkeeping: which tiles have work this round.
//!
//! A mega-grid trial spends most of its late rounds quiescent — the
//! epidemic has died down, yet the engine used to walk every tile in
//! every phase. [`TileSet`] — a dense bitset over tile indices with
//! ascending-order iteration — makes each phase O(active) instead of
//! O(n): a frontier walk visits tiles in exactly the order the full
//! `0..n` loop did (the draw-order invariant every golden digest depends
//! on).
//!
//! The buffer frontier is *exact* (maintained at every transition from
//! empty to non-empty and back), which `Simulation::step` re-asserts
//! against the O(n) scan in debug builds.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// A dense bitset over tile indices `0..n` with ascending iteration.
#[derive(Debug, Clone, Default)]
pub(crate) struct TileSet {
    words: Vec<u64>,
}

impl TileSet {
    /// An empty set sized for tiles `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Adds `tile` to the set.
    #[inline]
    pub fn insert(&mut self, tile: usize) {
        self.words[tile / 64] |= 1u64 << (tile % 64);
    }

    /// Removes `tile` from the set.
    #[inline]
    pub fn remove(&mut self, tile: usize) {
        self.words[tile / 64] &= !(1u64 << (tile % 64));
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
        self.words.iter().all(|&w| w == 0)
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
        let start_word = (lo / 64).min(self.words.len());
        let mut current = self.words.get(start_word).copied().unwrap_or(0);
        // Mask off bits below `lo` inside the first word.
        if start_word * 64 < lo {
            current &= !0u64 << (lo % 64);
        }
        TileSetIter {
            words: &self.words,
            word: start_word,
            current,
            hi,
        }
    }
}

/// Ascending iterator over a [`TileSet`] range.
pub(crate) struct TileSetIter<'a> {
    words: &'a [u64],
    word: usize,
    current: u64,
    hi: usize,
}

impl Iterator for TileSetIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                let tile = self.word * 64 + bit;
                if tile >= self.hi {
                    return None;
                }
                self.current &= self.current - 1;
                return Some(tile);
            }
            self.word += 1;
            if self.word >= self.words.len() || self.word * 64 >= self.hi {
                return None;
            }
            self.current = self.words[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
