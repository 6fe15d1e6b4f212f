//! The modified discrete cosine transform (MDCT) — the lapped transform
//! at the heart of the MP3-style encoder pipeline (Figure 4-7's "MDCT"
//! module).
//!
//! A frame of `N` windowed samples maps to `N/2` coefficients; with 50%
//! overlap and a Princen–Bradley window (e.g. [`crate::sine_window`]),
//! overlap-adding consecutive inverse transforms reconstructs the signal
//! exactly (time-domain alias cancellation).

use std::sync::Arc;

use crate::window::sine_window;

/// Forward MDCT of one `N`-sample frame into `N/2` coefficients.
///
/// `X[k] = Σ_{n=0}^{N−1} x[n] · cos(π/M · (n + 0.5 + M/2)(k + 0.5))`,
/// with `M = N/2`. The caller is responsible for windowing `x` first.
///
/// # Panics
///
/// Panics if the frame length is zero or odd.
///
/// # Examples
///
/// ```
/// use noc_dsp::mdct;
///
/// let frame: Vec<f64> = (0..16).map(|n| (n as f64 * 0.4).sin()).collect();
/// let coeffs = mdct(&frame);
/// assert_eq!(coeffs.len(), 8);
/// ```
pub fn mdct(frame: &[f64]) -> Vec<f64> {
    let n = frame.len();
    assert!(
        n > 0 && n.is_multiple_of(2),
        "mdct frame length must be positive and even"
    );
    let m = n / 2;
    let mut out = Vec::with_capacity(m);
    for k in 0..m {
        let mut acc = 0.0;
        for (j, &x) in frame.iter().enumerate() {
            acc += x * twiddle(m, j, k);
        }
        out.push(acc);
    }
    out
}

/// The kernel both transforms share: `cos(π/M (n + 0.5 + M/2)(k + 0.5))`.
/// [`MdctFrame`] tabulates it, so its sums equal theirs bit for bit.
#[inline]
fn twiddle(m: usize, n: usize, k: usize) -> f64 {
    let angle =
        std::f64::consts::PI / m as f64 * (n as f64 + 0.5 + m as f64 / 2.0) * (k as f64 + 0.5);
    angle.cos()
}

/// Inverse MDCT of `M` coefficients back into `2M` (aliased) samples.
///
/// `y[n] = (2/M) Σ_{k=0}^{M−1} X[k] · cos(π/M (n + 0.5 + M/2)(k + 0.5))`.
/// The output contains time-domain aliasing that cancels under windowed
/// 50% overlap-add.
///
/// # Panics
///
/// Panics if `coeffs` is empty.
pub fn imdct(coeffs: &[f64]) -> Vec<f64> {
    let m = coeffs.len();
    assert!(m > 0, "imdct of an empty coefficient set");
    let n = 2 * m;
    let mut out = Vec::with_capacity(n);
    for j in 0..n {
        let mut acc = 0.0;
        for (k, &c) in coeffs.iter().enumerate() {
            acc += c * twiddle(m, j, k);
        }
        out.push(acc * 2.0 / m as f64);
    }
    out
}

/// A windowed, overlapped MDCT analysis/synthesis engine for streaming
/// frames (the granule pipeline of the encoder).
///
/// Feed `hop = N/2` new samples per call to [`MdctFrame::analyze`]; each
/// call produces `N/2` coefficients. [`MdctFrame::synthesize`] is the
/// matching overlap-add decoder; after the one-frame algorithmic delay the
/// output reproduces the input exactly.
///
/// # Examples
///
/// ```
/// use noc_dsp::MdctFrame;
///
/// let mut analysis = MdctFrame::new(16);
/// let mut synthesis = MdctFrame::new(16);
/// let hop: Vec<f64> = (0..8).map(|n| (n as f64 * 0.3).sin()).collect();
/// let coeffs = analysis.analyze(&hop);
/// let _audio = synthesis.synthesize(&coeffs);
/// ```
#[derive(Debug, Clone)]
pub struct MdctFrame {
    frame_len: usize,
    window: Vec<f64>,
    /// Row `k` holds `twiddle(M, n, k)` for `n` in `0..N`, evaluated once
    /// and shared by every clone: a caller that needs an engine per run
    /// clones a template instead of paying `N²/2` cosines again.
    twiddles: Arc<[f64]>,
    history: Vec<f64>,
    overlap: Vec<f64>,
}

impl MdctFrame {
    /// Creates an engine with frame length `n` (even, ≥ 4); the hop size
    /// is `n/2`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is odd or below 4.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 4 && n.is_multiple_of(2),
            "frame length must be even and at least 4"
        );
        let m = n / 2;
        let twiddles = (0..m)
            .flat_map(|k| (0..n).map(move |j| twiddle(m, j, k)))
            .collect();
        Self {
            frame_len: n,
            window: sine_window(n),
            twiddles,
            history: vec![0.0; n / 2],
            overlap: vec![0.0; n / 2],
        }
    }

    /// Hop size (`N/2` samples per frame).
    pub fn hop(&self) -> usize {
        self.frame_len / 2
    }

    /// Consumes `hop()` new samples, returns `hop()` MDCT coefficients of
    /// the windowed frame `[previous hop | new hop]`.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != hop()`.
    pub fn analyze(&mut self, samples: &[f64]) -> Vec<f64> {
        let m = self.hop();
        assert_eq!(
            samples.len(),
            m,
            "analyze expects exactly one hop of samples"
        );
        let mut frame = Vec::with_capacity(self.frame_len);
        frame.extend_from_slice(&self.history);
        frame.extend_from_slice(samples);
        for (x, w) in frame.iter_mut().zip(&self.window) {
            *x *= w;
        }
        self.history.copy_from_slice(samples);
        // `mdct(&frame)`, cosines from the table, each sum in the same
        // order.
        self.twiddles
            .chunks_exact(self.frame_len)
            .map(|row| {
                let mut acc = 0.0;
                for (&x, &c) in frame.iter().zip(row) {
                    acc += x * c;
                }
                acc
            })
            .collect()
    }

    /// Consumes `hop()` coefficients, returns `hop()` reconstructed
    /// samples (delayed by one hop relative to the analysis input).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != hop()`.
    pub fn synthesize(&mut self, coeffs: &[f64]) -> Vec<f64> {
        let m = self.hop();
        assert_eq!(
            coeffs.len(),
            m,
            "synthesize expects exactly one hop of coefficients"
        );
        // `imdct(coeffs)`, cosines from the table: sample `j` still adds
        // its terms in coefficient order, all samples advancing together
        // along a table row.
        let mut frame = vec![0.0; self.frame_len];
        for (&c, row) in coeffs
            .iter()
            .zip(self.twiddles.chunks_exact(self.frame_len))
        {
            for (acc, &t) in frame.iter_mut().zip(row) {
                *acc += c * t;
            }
        }
        for (x, w) in frame.iter_mut().zip(&self.window) {
            *x = *x * 2.0 / m as f64 * w;
        }
        let out: Vec<f64> = (0..m).map(|j| self.overlap[j] + frame[j]).collect();
        self.overlap.copy_from_slice(&frame[m..]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficient_count_is_half_the_frame() {
        let frame = vec![1.0; 32];
        assert_eq!(mdct(&frame).len(), 16);
        assert_eq!(imdct(&mdct(&frame)).len(), 32);
    }

    #[test]
    fn perfect_reconstruction_via_overlap_add() {
        let n = 32;
        let hop = n / 2;
        let signal: Vec<f64> = (0..hop * 8)
            .map(|j| (j as f64 * 0.21).sin() + 0.5 * (j as f64 * 0.53).cos())
            .collect();
        let mut analysis = MdctFrame::new(n);
        let mut synthesis = MdctFrame::new(n);
        let mut reconstructed = Vec::new();
        for chunk in signal.chunks(hop) {
            let coeffs = analysis.analyze(chunk);
            reconstructed.extend(synthesis.synthesize(&coeffs));
        }
        // Total pipeline delay is one hop: output[j + hop] == input[j].
        for j in 0..signal.len() - hop {
            assert!(
                (reconstructed[j + hop] - signal[j]).abs() < 1e-9,
                "sample {j}: {} vs {}",
                reconstructed[j + hop],
                signal[j]
            );
        }
    }

    #[test]
    fn table_driven_frames_equal_the_free_transforms_bit_for_bit() {
        for n in [4, 16, 36, 128] {
            let hop = n / 2;
            let window = sine_window(n);
            let signal: Vec<f64> = (0..hop * 6)
                .map(|j| (j as f64 * 0.37).sin() - 0.25 * (j as f64 * 1.9).cos())
                .collect();
            let mut analysis = MdctFrame::new(n);
            let mut synthesis = MdctFrame::new(n);
            let mut history = vec![0.0; hop];
            let mut overlap = vec![0.0; hop];
            for chunk in signal.chunks(hop) {
                let frame: Vec<f64> = history
                    .iter()
                    .chain(chunk)
                    .zip(&window)
                    .map(|(x, w)| x * w)
                    .collect();
                let coeffs = mdct(&frame);
                assert_eq!(bits(&analysis.analyze(chunk)), bits(&coeffs), "n = {n}");
                history.copy_from_slice(chunk);

                let aliased: Vec<f64> = imdct(&coeffs)
                    .iter()
                    .zip(&window)
                    .map(|(y, w)| y * w)
                    .collect();
                let expected: Vec<f64> = overlap.iter().zip(&aliased).map(|(o, y)| o + y).collect();
                assert_eq!(
                    bits(&synthesis.synthesize(&coeffs)),
                    bits(&expected),
                    "n = {n}"
                );
                overlap.copy_from_slice(&aliased[hop..]);
            }
        }
    }

    #[test]
    fn a_clone_shares_the_table_and_transforms_like_a_new_engine() {
        let template = MdctFrame::new(128);
        let (mut cloned, mut built) = (template.clone(), MdctFrame::new(128));
        assert!(Arc::ptr_eq(&template.twiddles, &cloned.twiddles));
        for hop in 0..3 {
            let chunk: Vec<f64> = (0..64)
                .map(|j| ((hop * 64 + j) as f64 * 0.37).sin())
                .collect();
            let coeffs = cloned.analyze(&chunk);
            assert_eq!(bits(&coeffs), bits(&built.analyze(&chunk)));
            assert_eq!(
                bits(&cloned.synthesize(&coeffs)),
                bits(&built.synthesize(&coeffs))
            );
        }
        assert!(template
            .history
            .iter()
            .chain(&template.overlap)
            .all(|&x| x == 0.0));
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dc_energy_concentrates_in_low_coefficients() {
        let n = 64;
        let frame: Vec<f64> = sine_window(n); // smooth, low-frequency
        let coeffs = mdct(&frame);
        let low: f64 = coeffs[..4].iter().map(|c| c * c).sum();
        let high: f64 = coeffs[n / 4..].iter().map(|c| c * c).sum();
        assert!(low > 100.0 * high, "low {low} vs high {high}");
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_frame_panics() {
        let _ = mdct(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_imdct_panics() {
        let _ = imdct(&[]);
    }

    #[test]
    #[should_panic(expected = "exactly one hop")]
    fn wrong_hop_size_panics() {
        let mut eng = MdctFrame::new(16);
        let _ = eng.analyze(&[0.0; 5]);
    }
}
