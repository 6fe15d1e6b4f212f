//! Signal-processing substrate for the stochastic-NoC workloads.
//!
//! The paper's case studies and complex application need real DSP kernels:
//! the parallel 2-D FFT case study (§4.1.2) and the MP3-style encoder
//! pipeline (§4.2, Figure 4-7: signal acquisition → psychoacoustic model +
//! MDCT → iterative encoding → bit reservoir → output). This crate
//! implements all of them from scratch:
//!
//! * [`Complex64`] and a radix-2 [`fft`]/[`ifft`] (+ [`fft2d`]),
//! * the [`mdct`]/[`imdct`] lapped transform with perfect reconstruction,
//! * a simplified FFT-based [`psycho`] psychoacoustic masking model,
//! * the nonuniform [`quantize`] power-law quantizer with an iterative
//!   rate-control loop,
//! * a [`bitstream`] writer/reader with Elias-gamma coding and a bit
//!   reservoir.
//!
//! # Examples
//!
//! ```
//! use noc_dsp::{fft, ifft, Complex64};
//!
//! let signal: Vec<Complex64> = (0..8)
//!     .map(|n| Complex64::new((n as f64 * 0.7).sin(), 0.0))
//!     .collect();
//! let mut spectrum = signal.clone();
//! fft(&mut spectrum);
//! ifft(&mut spectrum);
//! for (a, b) in signal.iter().zip(&spectrum) {
//!     assert!((a.re - b.re).abs() < 1e-12);
//! }
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "unit tests seed streams")
)]

pub mod bitstream;
mod complex;
mod fft;
pub mod filterbank;
mod mdct;
pub mod psycho;
pub mod quantize;
pub mod signal;
mod window;

pub use complex::Complex64;
pub use fft::{dft_naive, fft, fft2d, ifft, ifft2d};
pub use mdct::{imdct, mdct, MdctFrame};
pub use window::{hann_window, sine_window};
