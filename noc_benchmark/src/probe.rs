//! The host-speed probe every end-to-end timing is calibrated by.
//!
//! The benchmark runs on a shared host whose effective speed drifts by
//! tens of percent over minutes: the same 64×64 flood read 77 to 121
//! ns/frame over twelve runs a minute apart, and all six workloads moved
//! together. A fixed kernel timed before and after every iteration sees
//! the same drift, so a timing is reported as
//!
//! ```text
//! calibrated = measured × REFERENCE_S ÷ mean(probe before, probe after)
//! ```
//!
//! — the seconds it would have taken on a host that runs the probe in
//! [`REFERENCE_S`]. The kernel has three phases, because the workloads
//! have three bottlenecks: random read-modify-writes over 64 MB (the
//! memory system: the per-frame path of a big grid), the same over 4 MB
//! (the shared cache: a trickle's few dozen active tiles), and a
//! dependent integer chain (core throughput: DSP kernels and 4×4
//! fabrics). One phase alone tracked only the workloads that share its
//! bottleneck and made the others worse; the sum roughly halved every
//! workload's run-to-run spread (README, "Noise"). It does not remove
//! it: in a bad minute the trickle slowed by 80 % while the probe
//! slowed by 25 %.

use std::hint::black_box;

use noc_obs::Stopwatch;

/// The probe time calibrated timings are normalised to: what the kernel
/// takes on the benchmark's 2-core host when it is quiet.
pub const REFERENCE_S: f64 = 0.072;

/// Words of the memory phase's buffer: 64 MB, past every cache level.
const MEMORY_WORDS: usize = 1 << 23;
/// Words of the cache phase's buffer: 4 MB, past L2 and inside L3.
const CACHE_WORDS: usize = 1 << 19;
const MEMORY_STEPS: u32 = 2_000_000;
const CACHE_STEPS: u32 = 8_000_000;
const COMPUTE_STEPS: u64 = 12_000_000;

/// The probe kernel and the buffers it walks.
#[derive(Debug)]
pub struct Probe {
    memory: Vec<u64>,
    cache: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

/// One xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Random read-modify-writes over `buffer` (a power-of-two number of
/// words).
fn walk(buffer: &mut [u64], steps: u32) -> u64 {
    let mask = buffer.len() as u64 - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..steps {
        let slot = &mut buffer[(next(&mut x) & mask) as usize];
        acc = acc.wrapping_add(*slot);
        *slot = acc ^ x;
    }
    acc
}

impl Probe {
    /// Allocates and touches both buffers, once, so they are resident
    /// for the rest of the run and [`Probe::resident_mb`] can be taken
    /// off the process's peak.
    pub fn new() -> Self {
        Probe {
            memory: vec![1u64; MEMORY_WORDS],
            cache: vec![1u64; CACHE_WORDS],
        }
    }

    /// Resident memory the probe itself holds, in MB.
    pub fn resident_mb(&self) -> f64 {
        ((self.memory.len() + self.cache.len()) * std::mem::size_of::<u64>()) as f64
            / (1024.0 * 1024.0)
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn sample(&mut self) -> f64 {
        let sw = Stopwatch::start();
        black_box(walk(&mut self.memory, MEMORY_STEPS));
        black_box(walk(&mut self.cache, CACHE_STEPS));
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for i in 0..COMPUTE_STEPS {
            acc = acc
                .wrapping_add(next(&mut x).wrapping_mul(i | 1))
                .rotate_left(7);
        }
        black_box(acc);
        sw.elapsed_secs()
    }
}

/// `measured` as it would read on a host that runs the probe in
/// [`REFERENCE_S`], given the probe's times before and after it.
pub fn calibrate(measured: f64, before: f64, after: f64) -> f64 {
    measured * REFERENCE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_probes_slowdown() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // A host running the probe at half speed reads twice the time.
        assert!(close(
            calibrate(2.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S),
            1.0
        ));
        assert!(close(calibrate(1.0, REFERENCE_S, REFERENCE_S), 1.0));
        // Before and after are averaged.
        assert!(close(calibrate(3.0, REFERENCE_S, 2.0 * REFERENCE_S), 2.0));
    }

    #[test]
    fn the_probe_takes_time_and_owns_68_mb() {
        let mut probe = Probe::new();
        assert!(probe.sample() > 0.0);
        assert_eq!(probe.resident_mb(), 68.0);
    }
}
