//! Deterministic per-trial seed derivation for Monte-Carlo sweeps.
//!
//! Every figure of the paper averages many independent seeded
//! simulations. To run those trials in parallel while keeping output
//! bit-identical for any worker count, each trial's seed must be a pure
//! function of `(base_seed, trial_index)` — never of scheduling order.
//! This module provides that function via SplitMix64, the same finalizer
//! used to expand single-word RNG seeds: it is cheap, stateless, and
//! statistically strong enough that consecutive trial indices produce
//! uncorrelated simulation streams.
//!
//! # Examples
//!
//! ```
//! use stochastic_noc::seed;
//!
//! let a = seed::derive_trial_seed(42, 0);
//! let b = seed::derive_trial_seed(42, 1);
//! assert_ne!(a, b, "trials get distinct seeds");
//! assert_eq!(a, seed::derive_trial_seed(42, 0), "derivation is pure");
//! ```

/// The golden-ratio increment SplitMix64 walks its state by.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advances `state` by one SplitMix64 step and returns the mixed output.
///
/// This is the reference SplitMix64 generator (Steele, Lea & Flood,
/// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014).
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// The SplitMix64 output finalizer on its own: a bijective mix in which
/// every input bit reaches every output bit. Also the hash of the wire
/// table's round memo (`crate::wire`).
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of trial `trial_index` in a sweep rooted at
/// `base_seed`.
///
/// The derivation jumps the SplitMix64 state directly to
/// `base_seed + (trial_index + 1) · γ` and mixes once, so it costs O(1)
/// for any index, and two sweeps with different base seeds produce
/// disjoint-looking seed sequences.
pub fn derive_trial_seed(base_seed: u64, trial_index: u64) -> u64 {
    let mut state = base_seed.wrapping_add(trial_index.wrapping_mul(GOLDEN_GAMMA));
    split_mix64(&mut state)
}

/// Derives a sweep base seed for a named experiment from a global base
/// seed, so that every figure sharing one `--seed` value still runs
/// statistically independent trials.
///
/// The label is folded with FNV-1a and mixed with the global seed
/// through SplitMix64.
pub fn derive_labeled_seed(base_seed: u64, label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = FNV_OFFSET;
    for byte in label.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    let mut state = base_seed ^ hash;
    split_mix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn derivation_is_stable_across_runs() {
        // Pin concrete values: these must never change, or previously
        // published figure tables would silently shift.
        assert_eq!(derive_trial_seed(0, 0), 16294208416658607535);
        assert_eq!(derive_trial_seed(0, 1), 7960286522194355700);
        assert_eq!(derive_trial_seed(42, 0), 13679457532755275413);
    }

    #[test]
    fn trial_seeds_are_distinct() {
        let mut seen = BTreeSet::new();
        for base in [0u64, 1, 42, u64::MAX] {
            for index in 0..1000u64 {
                assert!(
                    seen.insert(derive_trial_seed(base, index)),
                    "collision at base {base} index {index}"
                );
            }
        }
    }

    #[test]
    fn trial_seed_matches_sequential_split_mix() {
        // The O(1) jump must agree with stepping SplitMix64 from
        // base_seed trial_index + 1 times.
        let base = 1234u64;
        let mut state = base;
        for index in 0..64u64 {
            let sequential = split_mix64(&mut state);
            assert_eq!(sequential, derive_trial_seed(base, index));
        }
    }

    #[test]
    fn labeled_seeds_differ_per_label_and_base() {
        let a = derive_labeled_seed(0, "fig4-4");
        let b = derive_labeled_seed(0, "fig4-5");
        let c = derive_labeled_seed(1, "fig4-4");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_labeled_seed(0, "fig4-4"));
    }

    #[test]
    fn split_mix_avalanches() {
        // Flipping one input bit should flip roughly half the output bits.
        let mut flips = 0u32;
        let samples = 64u32;
        for i in 0..samples {
            let x = derive_trial_seed(7, u64::from(i));
            let y = derive_trial_seed(7 ^ 1, u64::from(i));
            flips += (x ^ y).count_ones();
        }
        let mean = f64::from(flips) / f64::from(samples);
        assert!((20.0..44.0).contains(&mean), "mean bit flips {mean}");
    }
}
