//! GALS clock domains with accumulated synchronization skew.
//!
//! The paper adopts "a tile-based architecture in which every tile has its
//! own clock domain" with mixed-clock interfaces between tiles; the round
//! duration of each tile is normally distributed around `T_R` with a
//! standard deviation `σ_synchr`. A tile whose accumulated skew drifts past
//! half a round misses the round boundary: its outgoing messages land one
//! round late at their receivers. This reproduces the paper's observation
//! that synchronization errors cause latency *jitter* without message loss.

/// Per-tile clock domain tracking accumulated skew (in fractions of the
/// round duration `T_R`).
///
/// # Examples
///
/// ```
/// use noc_fabric::ClockDomain;
///
/// let mut clock = ClockDomain::new();
/// // A tile running 60% of a round slow this round slips the boundary:
/// assert_eq!(clock.advance(0.6), 1);
/// // ...and is back in step afterwards (the slip consumed the debt).
/// assert_eq!(clock.advance(0.0), 0);
/// // A massive deviation slips as many boundaries as it crossed
/// // (accumulated skew is -0.4 here, so 2.0 more crosses two):
/// assert_eq!(clock.advance(2.0), 2);
/// assert!(clock.skew() > -0.5 && clock.skew() <= 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClockDomain {
    skew: f64,
    slips: u64,
}

impl ClockDomain {
    /// A clock domain with no accumulated skew.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the domain by one round whose duration deviated from `T_R`
    /// by `skew_fraction` (e.g. `0.1` = 10% slow, `-0.1` = 10% fast).
    ///
    /// Returns the number of round boundaries slipped: each time the
    /// accumulated skew crosses half a round in either direction, the tile
    /// misses a boundary and its sends this round are delayed by one
    /// round. Every slip resets the accumulated skew by a whole round in
    /// the appropriate direction, so a `skew_fraction` larger than 1.5
    /// slips more than once and the residual skew is always restored to
    /// the documented `(-0.5, 0.5]` range.
    ///
    /// Constant time whatever the deviation: the boundaries crossed are
    /// counted in closed form, the returned count saturates at `u32::MAX`
    /// and [`ClockDomain::slips`] at `u64::MAX`. From 2⁵³ rounds of skew
    /// on, an `f64` holds no fraction of a round and the residual is 0,
    /// as it is for a non-finite deviation.
    #[inline]
    pub fn advance(&mut self, skew_fraction: f64) -> u32 {
        self.skew += skew_fraction;
        if self.skew > -0.5 && self.skew <= 0.5 {
            return 0;
        }
        // Whole rounds to give back: the nearest integer, with the tie
        // at +k.5 going down (0.5 itself is in range) and the tie at
        // -k.5 going away from zero (-0.5 is not), which is how `round`
        // already breaks it. Below 2⁵³ the subtraction is exact, so the
        // residual is the one that `|crossed|` unit steps would leave.
        let nearest = self.skew.round();
        let crossed = if nearest - self.skew == 0.5 {
            nearest - 1.0
        } else {
            nearest
        };
        self.skew = if crossed.is_finite() {
            self.skew - crossed
        } else {
            0.0
        };
        // Float-to-integer `as` saturates (and maps NaN to 0).
        let crossed = crossed.abs();
        self.slips = self.slips.saturating_add(crossed as u64);
        crossed as u32
    }

    /// Rebuilds a domain from previously captured `skew`/`slips`
    /// values, for checkpoint restore.
    ///
    /// Returns `None` unless `skew` lies inside the `(-0.5, 0.5]` that
    /// [`ClockDomain::advance`] maintains: no run of the engine leaves a
    /// value outside it (or a non-finite one) behind.
    pub fn from_parts(skew: f64, slips: u64) -> Option<Self> {
        (skew > -0.5 && skew <= 0.5).then_some(Self { skew, slips })
    }

    /// The `(skew, slips)` pair [`ClockDomain::from_parts`] rebuilds the
    /// domain from: everything a checkpoint must carry. The pattern names
    /// every field, so a new one fails the build here.
    pub fn to_parts(&self) -> (f64, u64) {
        let Self { skew, slips } = *self;
        (skew, slips)
    }

    /// Current accumulated skew, as a fraction of `T_R` in `(-0.5, 0.5]`.
    pub fn skew(&self) -> f64 {
        self.skew
    }

    /// Total round-boundary slips since construction.
    pub fn slips(&self) -> u64 {
        self.slips
    }

    /// Resets skew and slip count.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ideal_clock_never_slips() {
        let mut c = ClockDomain::new();
        for _ in 0..1000 {
            assert_eq!(c.advance(0.0), 0);
        }
        assert_eq!(c.slips(), 0);
        assert_eq!(c.skew(), 0.0);
    }

    #[test]
    fn small_skews_accumulate_into_a_slip() {
        let mut c = ClockDomain::new();
        assert_eq!(c.advance(0.3), 0);
        assert_eq!(c.advance(0.2), 0); // exactly 0.5: not yet over
        assert_eq!(c.advance(0.1), 1); // 0.6 > 0.5: slip
        assert_eq!(c.slips(), 1);
        assert!((c.skew() - (-0.4)).abs() < 1e-12);
    }

    #[test]
    fn fast_clocks_slip_too() {
        let mut c = ClockDomain::new();
        assert_eq!(c.advance(-0.7), 1);
        assert!((c.skew() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn large_skews_slip_multiple_boundaries() {
        let mut c = ClockDomain::new();
        assert_eq!(c.advance(2.6), 3, "2.6 crosses three boundaries");
        assert!((c.skew() - (-0.4)).abs() < 1e-12);
        assert_eq!(c.slips(), 3);

        let mut fast = ClockDomain::new();
        assert_eq!(fast.advance(-1.6), 2);
        assert!((fast.skew() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_skews_advance_never_leaves() {
        let mut c = ClockDomain::new();
        c.advance(0.9);
        let (skew, slips) = c.to_parts();
        assert_eq!(ClockDomain::from_parts(skew, slips), Some(c));
        assert!(ClockDomain::from_parts(0.5, 0).is_some());
        for skew in [-0.5, 0.75, 1e300, f64::INFINITY, f64::NAN] {
            assert_eq!(ClockDomain::from_parts(skew, 0), None, "skew {skew}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut c = ClockDomain::new();
        c.advance(0.9);
        c.reset();
        assert_eq!(c.skew(), 0.0);
        assert_eq!(c.slips(), 0);
    }

    #[test]
    fn slip_rate_grows_with_sigma() {
        // Feed alternating-free Gaussian-ish noise of two magnitudes and
        // check that bigger noise slips more often.
        let noisy: Vec<f64> = (0..2000)
            .map(|i| if i % 2 == 0 { 0.45 } else { -0.3 })
            .collect();
        let calm: Vec<f64> = (0..2000)
            .map(|i| if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let run = |skews: &[f64]| {
            let mut c = ClockDomain::new();
            for &s in skews {
                c.advance(s);
            }
            c.slips()
        };
        assert!(run(&noisy) > run(&calm));
        assert_eq!(run(&calm), 0);
    }

    /// `advance` as it was: one loop turn per boundary crossed.
    fn advance_by_unit_steps(skew: &mut f64, slips: &mut u64, skew_fraction: f64) -> u32 {
        *skew += skew_fraction;
        let mut count = 0;
        while *skew <= -0.5 || *skew > 0.5 {
            *skew -= skew.signum();
            *slips += 1;
            count += 1;
        }
        count
    }

    #[test]
    fn ties_at_half_a_round_break_as_the_unit_steps_broke_them() {
        for skew in [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1e4 + 0.5, -1e4 - 0.5] {
            let mut c = ClockDomain::new();
            let (mut old_skew, mut old_slips) = (0.0, 0);
            let expected = advance_by_unit_steps(&mut old_skew, &mut old_slips, skew);
            assert_eq!(c.advance(skew), expected, "skew {skew}");
            assert_eq!(c.skew().to_bits(), old_skew.to_bits(), "skew {skew}");
        }
    }

    #[test]
    fn astronomic_and_non_finite_skews_return_at_once_and_saturate() {
        for skew in [1e300, -1e300, f64::MAX, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = ClockDomain::new();
            assert_eq!(c.advance(skew), u32::MAX, "skew {skew}");
            assert_eq!(c.slips(), u64::MAX);
            assert_eq!(c.skew(), 0.0);
            assert_eq!(c.advance(-skew), u32::MAX, "slips stay saturated");
            assert_eq!(c.slips(), u64::MAX);
        }
        // 2⁵³ + 2 is the first skew the unit steps could not reduce.
        let mut c = ClockDomain::new();
        assert_eq!(c.advance(9_007_199_254_740_994.0), u32::MAX);
        assert_eq!(c.slips(), 9_007_199_254_740_994);
        assert_eq!(c.skew(), 0.0);
        let mut c = ClockDomain::new();
        assert_eq!(c.advance(f64::NAN), 0);
        assert_eq!((c.skew(), c.slips()), (0.0, 0));
    }

    proptest! {
        #[test]
        fn closed_form_equals_the_unit_step_loop(
            skews in proptest::collection::vec(-1.0e4f64..1.0e4, 1..40),
            scale in 0usize..4,
        ) {
            // Scaled down, most deviations stay within a few rounds, where
            // the ties and the range edges are.
            let scale = [1.0, 1e-2, 1e-3, 1e-4][scale];
            let mut c = ClockDomain::new();
            let (mut old_skew, mut old_slips) = (0.0, 0);
            for s in skews {
                let expected = advance_by_unit_steps(&mut old_skew, &mut old_slips, s * scale);
                prop_assert_eq!(c.advance(s * scale), expected);
                prop_assert_eq!(c.skew().to_bits(), old_skew.to_bits());
                prop_assert_eq!(c.slips(), old_slips);
            }
        }

        #[test]
        fn skew_stays_bounded(skews in proptest::collection::vec(-3.0f64..3.0, 0..500)) {
            let mut c = ClockDomain::new();
            for s in skews {
                c.advance(s);
                // After each advance the residual skew sits in the
                // documented half-open range, no matter how large the
                // per-round deviation was.
                prop_assert!(c.skew() > -0.5 && c.skew() <= 0.5);
            }
        }
    }
}
