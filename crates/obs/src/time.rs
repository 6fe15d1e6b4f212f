//! The sanctioned wall-clock read.
//!
//! `Stopwatch` is the only place in the workspace allowed to name
//! `std::time::Instant`: `clippy.toml` disallows the type everywhere,
//! and the expectation below is the one exception. Keeping the
//! read behind one type makes the wall-clock plane auditable: grep for
//! `Stopwatch::start` and you have every timing span in the system.

#![expect(
    clippy::disallowed_types,
    reason = "the one sanctioned clock read; every other crate times spans through Stopwatch"
)]

use std::time::{Duration, Instant};

/// A started monotonic timer.
///
/// Spans are measured by constructing a `Stopwatch` at the start of the
/// region and feeding it to [`crate::Histogram::observe`] (or reading
/// [`Stopwatch::elapsed_secs`]) at the end. The type is `Copy`-free on
/// purpose — a span is started once and usually consumed once — but it
/// is `Clone` so sweep-level timers can be shared across threads.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a timer at the current instant.
    #[inline]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed time in seconds as a float (the unit every histogram and
    /// gauge in the registry uses).
    #[inline]
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Elapsed time in whole nanoseconds, saturating at `u64::MAX`
    /// (584 years — safely beyond any sweep).
    #[inline]
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone_and_consistent() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a, "monotonic clock went backwards");
        assert!(sw.elapsed_secs() >= 0.0);
        assert!(sw.elapsed() >= Duration::ZERO);
    }
}
