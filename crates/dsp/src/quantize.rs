//! Nonuniform quantization with an iterative rate-control loop — the
//! "Iterative Encoding" module of the encoder pipeline (Figure 4-7).
//!
//! MP3 quantizes MDCT coefficients with a 3/4-power law and searches a
//! global gain so that the Huffman-coded granule fits the bit budget.
//! This module implements the same structure: [`quantize`]/[`dequantize`]
//! with the power law, and [`rate_control`], a binary search over the
//! step size against the actual Elias-gamma coded size from
//! [`crate::bitstream`].

use crate::bitstream::{coded_bits, BitWriter};

/// Quantizes one coefficient with step `step` and the MP3 3/4-power law:
/// `q = sign(x) · round(|x/step|^0.75)`.
///
/// # Panics
///
/// Panics if `step` is not strictly positive.
pub fn quantize(x: f64, step: f64) -> i32 {
    assert!(step > 0.0, "quantizer step must be positive");
    let mag = (x.abs() / step).powf(0.75).round();
    (mag.min(i32::MAX as f64) as i32) * x.signum() as i32
}

/// Inverse of [`quantize`]: `x ≈ sign(q) · |q|^(4/3) · step`.
///
/// # Panics
///
/// Panics if `step` is not strictly positive.
pub fn dequantize(q: i32, step: f64) -> f64 {
    assert!(step > 0.0, "quantizer step must be positive");
    (q.unsigned_abs() as f64).powf(4.0 / 3.0) * step * q.signum() as f64
}

/// Distance from a half-integer within which [`quantize_powered`] leaves
/// the rounding to [`quantize`].
const HALF_GUARD: f64 = 1e-9;

/// Magnitudes from which [`quantize_powered`] leaves the rounding to
/// [`quantize`]: 2^20.
const POWERED_MAX: f64 = (1u32 << 20) as f64;

/// [`quantize`]`(c, step)` from `powered = |c|^0.75` and `scale =
/// step^-0.75`, whose product is `(|c| / step)^0.75` to within a few ulps
/// — ≈ 5e-12 at the magnitudes up to 4096 the rate loop's window admits.
/// Where the product lies within [`HALF_GUARD`] of a half-integer, is not
/// below [`POWERED_MAX`] or is not finite, the two roundings could differ
/// and `quantize` decides; everywhere else they round to the same integer.
#[inline]
fn quantize_powered(c: f64, powered: f64, scale: f64, step: f64) -> i32 {
    let mag = powered * scale;
    if mag < POWERED_MAX && (mag - mag.floor() - 0.5).abs() > HALF_GUARD {
        mag.round() as i32 * c.signum() as i32
    } else {
        quantize(c, step)
    }
}

/// Quantizes a whole coefficient vector.
pub fn quantize_all(coeffs: &[f64], step: f64) -> Vec<i32> {
    coeffs.iter().map(|&c| quantize(c, step)).collect()
}

/// Dequantizes a whole coefficient vector.
pub fn dequantize_all(quants: &[i32], step: f64) -> Vec<f64> {
    quants.iter().map(|&q| dequantize(q, step)).collect()
}

/// Result of the iterative rate-control loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RateControlResult {
    /// The chosen quantizer step.
    pub step: f64,
    /// Quantized coefficients at that step.
    pub quantized: Vec<i32>,
    /// Actual coded size in bits at that step.
    pub bits: usize,
    /// Number of search iterations used.
    pub iterations: usize,
}

/// Finds (by bisection over the log-step) the smallest quantizer step
/// whose coded size fits `bit_budget`, mimicking MP3's inner rate loop.
/// Each coefficient's `|c|^0.75` is computed once per call and each
/// probe's `step^-0.75` once per probe; their product quantizes exactly
/// as [`quantize`] would (see `quantize_powered`).
///
/// Returns the coarsest usable quantization if even the coarsest probe
/// exceeds the budget (which, with Elias-gamma coding of zeros, cannot
/// happen for budgets ≥ `2 × len` bits).
///
/// # Panics
///
/// Panics if `coeffs` is empty or `bit_budget` is zero.
///
/// # Examples
///
/// ```
/// use noc_dsp::quantize::rate_control;
///
/// let coeffs: Vec<f64> = (0..64).map(|n| (n as f64 * 0.2).sin() * 8.0).collect();
/// let result = rate_control(&coeffs, 256);
/// assert!(result.bits <= 256);
/// ```
pub fn rate_control(coeffs: &[f64], bit_budget: usize) -> RateControlResult {
    assert!(!coeffs.is_empty(), "nothing to quantize");
    assert!(bit_budget > 0, "bit budget must be positive");

    let peak = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
    if peak == 0.0 {
        // Silence: the finest step works trivially.
        let quantized = vec![0i32; coeffs.len()];
        let bits = coded_size(&quantized);
        return RateControlResult {
            step: 1.0,
            quantized,
            bits,
            iterations: 0,
        };
    }

    // Search window: from very fine (peak/2^16) to coarse enough that
    // everything quantizes to zero (step > peak means |x/step| < 1 and
    // the 3/4-power round gives 0 or ±1; 4*peak forces all-zero).
    let mut fine = peak / 65_536.0;
    let mut coarse = peak * 4.0;
    let mut iterations = 0;

    // Ensure the coarse end fits (it always does for sane budgets).
    // `best` is the quantization at `coarse`, the finest step known to
    // fit; each probe fills `trial` and the two swap when it fits, so the
    // up-to-40 steps share two buffers.
    let mut best = quantize_all(coeffs, coarse);
    let mut best_bits = coded_size(&best);
    if best_bits <= bit_budget {
        let mut trial = vec![0i32; coeffs.len()];
        let powered: Vec<f64> = coeffs.iter().map(|c| c.abs().powf(0.75)).collect();
        for _ in 0..40 {
            iterations += 1;
            let mid = (fine.ln() + coarse.ln()) / 2.0;
            let step = mid.exp();
            let scale = step.powf(-0.75);
            for ((q, &c), &powered) in trial.iter_mut().zip(coeffs).zip(&powered) {
                *q = quantize_powered(c, powered, scale, step);
            }
            let bits = coded_size(&trial);
            if bits <= bit_budget {
                // Fits: try finer.
                coarse = step;
                best_bits = bits;
                std::mem::swap(&mut best, &mut trial);
            } else {
                fine = step;
            }
            if (coarse / fine - 1.0).abs() < 1e-6 {
                break;
            }
        }
    }
    RateControlResult {
        step: coarse,
        quantized: best,
        bits: best_bits,
        iterations,
    }
}

/// Exact coded size (bits) of a quantized vector under the bitstream's
/// signed Elias-gamma code.
pub fn coded_size(quants: &[i32]) -> usize {
    quants.iter().map(|&q| coded_bits(q)).sum()
}

/// Convenience: code a quantized vector into a fresh writer (used by the
/// encoder pipeline and tests).
pub fn code_into_writer(quants: &[i32]) -> BitWriter {
    let mut writer = BitWriter::new();
    for &q in quants {
        writer.write_signed_gamma(q);
    }
    writer
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantize_zero_is_zero() {
        assert_eq!(quantize(0.0, 0.5), 0);
        assert_eq!(dequantize(0, 0.5), 0.0);
    }

    #[test]
    fn quantize_preserves_sign() {
        assert!(quantize(3.7, 0.1) > 0);
        assert!(quantize(-3.7, 0.1) < 0);
        assert_eq!(quantize(3.7, 0.1), -quantize(-3.7, 0.1));
    }

    #[test]
    fn round_trip_error_shrinks_with_step() {
        let x = 2.34567;
        let err = |step: f64| (dequantize(quantize(x, step), step) - x).abs();
        assert!(err(0.001) < err(0.1));
        assert!(err(0.001) < 0.01);
    }

    #[test]
    fn coarse_step_zeroes_everything() {
        let coeffs = [0.5, -0.25, 0.125];
        let q = quantize_all(&coeffs, 10.0);
        assert_eq!(q, vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_step_panics() {
        let _ = quantize(1.0, 0.0);
    }

    #[test]
    fn rate_control_fits_budget() {
        let coeffs: Vec<f64> = (0..128)
            .map(|n| ((n * n) as f64 * 0.01).sin() * 4.0)
            .collect();
        for budget in [300, 600, 1200] {
            let r = rate_control(&coeffs, budget);
            assert!(r.bits <= budget, "budget {budget}: used {}", r.bits);
        }
    }

    #[test]
    fn bigger_budget_gives_finer_quantization() {
        let coeffs: Vec<f64> = (0..128).map(|n| (n as f64 * 0.17).sin() * 4.0).collect();
        let small = rate_control(&coeffs, 300);
        let large = rate_control(&coeffs, 2400);
        assert!(large.step < small.step, "{} !< {}", large.step, small.step);
        // Finer quantization means lower reconstruction error.
        let err = |r: &RateControlResult| -> f64 {
            dequantize_all(&r.quantized, r.step)
                .iter()
                .zip(&coeffs)
                .map(|(a, b)| (a - b).powi(2))
                .sum()
        };
        assert!(err(&large) < err(&small));
    }

    /// The loop as it was before it reused two buffers: a fresh vector
    /// per bisection step. The reference [`rate_control`] must equal.
    fn rate_control_allocating(coeffs: &[f64], bit_budget: usize) -> RateControlResult {
        assert!(!coeffs.is_empty(), "nothing to quantize");
        assert!(bit_budget > 0, "bit budget must be positive");

        let peak = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
        if peak == 0.0 {
            // Silence: the finest step works trivially.
            let quantized = vec![0i32; coeffs.len()];
            let bits = coded_size(&quantized);
            return RateControlResult {
                step: 1.0,
                quantized,
                bits,
                iterations: 0,
            };
        }

        // Search window: from very fine (peak/2^16) to coarse enough that
        // everything quantizes to zero (step > peak means |x/step| < 1 and
        // the 3/4-power round gives 0 or ±1; 4*peak forces all-zero).
        let mut fine = peak / 65_536.0;
        let mut coarse = peak * 4.0;
        let mut iterations = 0;

        // Ensure the coarse end fits (it always does for sane budgets).
        let q_coarse = quantize_all(coeffs, coarse);
        let b_coarse = coded_size(&q_coarse);
        if b_coarse > bit_budget {
            return RateControlResult {
                step: coarse,
                quantized: q_coarse,
                bits: b_coarse,
                iterations,
            };
        }
        let mut best = Some((coarse, q_coarse, b_coarse));

        for _ in 0..40 {
            iterations += 1;
            let mid = (fine.ln() + coarse.ln()) / 2.0;
            let step = mid.exp();
            let q = quantize_all(coeffs, step);
            let bits = coded_size(&q);
            if bits <= bit_budget {
                // Fits: try finer.
                coarse = step;
                best = Some((step, q, bits));
            } else {
                fine = step;
            }
            if (coarse / fine - 1.0).abs() < 1e-6 {
                break;
            }
        }
        let (step, quantized, bits) = best.expect("coarse end verified to fit");
        RateControlResult {
            step,
            quantized,
            bits,
            iterations,
        }
    }

    #[test]
    fn dequantize_takes_the_most_negative_code() {
        // A corrupt granule can decode to any `i32`; `abs` of this one
        // overflows.
        let x = dequantize(i32::MIN, 0.5);
        assert_eq!(x, -(2f64.powi(31)).powf(4.0 / 3.0) * 0.5);
    }

    /// The rate loop's first probe on `[1.0, c, -c]`, with `c` placed so
    /// that `(c / step)^0.75` is 2.5 to within rounding: the product of
    /// the two powers lands in the guard band and `quantize` decides.
    #[test]
    fn a_product_in_the_guard_band_falls_back_to_quantize() {
        let (fine, coarse) = (1.0f64 / 65_536.0, 4.0f64);
        let step = ((fine.ln() + coarse.ln()) / 2.0).exp();
        let c = step * 2.5f64.powf(4.0 / 3.0);
        let (powered, scale) = (c.powf(0.75), step.powf(-0.75));
        assert!((powered * scale - 2.5).abs() <= HALF_GUARD, "in the band");
        assert_eq!(quantize_powered(c, powered, scale, step), quantize(c, step));
        assert_eq!(
            quantize_powered(-c, powered, scale, step),
            quantize(-c, step)
        );
        let coeffs = [1.0, c, -c];
        for budget in [8, 24, 64, 512] {
            let (fast, reference) = (
                rate_control(&coeffs, budget),
                rate_control_allocating(&coeffs, budget),
            );
            assert_eq!(fast.step.to_bits(), reference.step.to_bits());
            assert_eq!(fast, reference, "budget {budget}");
        }
    }

    #[test]
    fn silence_needs_minimal_bits() {
        let r = rate_control(&[0.0; 32], 1000);
        assert_eq!(r.quantized, vec![0; 32]);
        assert_eq!(r.bits, 32, "a zero codes to one gamma bit");
    }

    proptest! {
        #[test]
        fn dequantize_quantize_is_monotone(
            a in -100.0f64..100.0,
            b in -100.0f64..100.0,
            step in 0.01f64..10.0,
        ) {
            // Quantization must preserve order (monotone nondecreasing).
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(quantize(lo, step) <= quantize(hi, step));
        }

        #[test]
        fn rate_control_never_overshoots(
            scale in 0.1f64..50.0,
            budget in 64usize..4096,
        ) {
            let coeffs: Vec<f64> = (0..32).map(|n| (n as f64 * 0.29).sin() * scale).collect();
            let r = rate_control(&coeffs, budget);
            prop_assert!(r.bits <= budget);
            prop_assert_eq!(r.quantized.len(), 32);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every field, on every path: silence (all-zero input), a
        /// budget even the coarsest step overshoots (under one bit per
        /// coefficient), and the bisection proper.
        #[test]
        fn rate_control_equals_the_allocating_loop(
            raw in proptest::collection::vec(-1.0f64..1.0, 1..96),
            scale in prop_oneof![Just(0.0f64), 1e-9f64..1e9],
            budget in prop_oneof![1usize..48, 48usize..4096],
        ) {
            let coeffs: Vec<f64> = raw.iter().map(|x| x * scale).collect();
            prop_assert_eq!(
                rate_control(&coeffs, budget),
                rate_control_allocating(&coeffs, budget)
            );
        }

        /// The once-per-granule powers against the per-probe `powf`
        /// reference on coefficients spread over eighteen decades, with
        /// zeros and negative zeros among them: every probe must quantize
        /// alike, so the step's bits, the codes, the size and the
        /// iteration count all agree.
        #[test]
        fn rate_control_equals_the_per_probe_powf_reference(
            draws in proptest::collection::vec((0u8..8, any::<bool>(), -9.0f64..9.0), 1..129),
            budget in prop_oneof![1usize..48, 48usize..8192],
        ) {
            let coeffs: Vec<f64> = draws
                .iter()
                .map(|&(kind, negative, exponent)| match kind {
                    0 => 0.0,
                    1 => -0.0,
                    _ if negative => -(10f64.powf(exponent)),
                    _ => 10f64.powf(exponent),
                })
                .collect();
            let (fast, reference) = (
                rate_control(&coeffs, budget),
                rate_control_allocating(&coeffs, budget),
            );
            prop_assert_eq!(fast.step.to_bits(), reference.step.to_bits());
            prop_assert_eq!(fast.quantized, reference.quantized);
            prop_assert_eq!(fast.bits, reference.bits);
            prop_assert_eq!(fast.iterations, reference.iterations);
        }
    }
}
