//! Workload applications for stochastic-NoC evaluation.
//!
//! The applications the paper uses to evaluate on-chip stochastic
//! communication, each built on the [`noc_fabric::IpCore`] interface and
//! run through the [`stochastic_noc::Simulation`] engine:
//!
//! * [`master_slave`] — the Master–Slave π computation of §4.1.1
//!   (Equation 4), with optional slave replication for tile-crash
//!   tolerance;
//! * [`fft2d`] — the parallel two-dimensional FFT of §4.1.2 (scatter the
//!   row blocks, transform in parallel, gather and assemble), with worker
//!   replication;
//! * [`mp3`] — the MP3-style encoder pipeline of §4.2 (Figure 4-7):
//!   signal acquisition → psychoacoustic model + MDCT → iterative
//!   encoding → bit reservoir → output, with output bit-rate monitoring;
//! * [`beamforming`] — the acoustic delay-and-sum beamforming traffic of
//!   Chapter 5's on-chip diversity experiment.
//!
//! # Examples
//!
//! ```
//! use noc_apps::master_slave::{MasterSlaveApp, MasterSlaveParams};
//!
//! let outcome = MasterSlaveApp::new(MasterSlaveParams::default()).run();
//! assert!(outcome.completed);
//! let pi = outcome.pi_estimate.expect("all partial sums collected");
//! assert!((pi - std::f64::consts::PI).abs() < 1e-6);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "unit tests seed streams")
)]

pub mod beamforming;
pub mod fft2d;
pub mod mapping;
pub mod master_slave;
pub mod mp3;
pub mod reliable;
pub mod wire;
