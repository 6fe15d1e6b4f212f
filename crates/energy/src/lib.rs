//! Energy and timing metrics for on-chip interconnects.
//!
//! Implements the performance-evaluation formulas of Dumitraş &
//! Mărculescu's stochastic communication work:
//!
//! * **Equation 2** — the optimal gossip-round duration
//!   `T_R = N_packets/round · S / f`, where `f` is the maximum link
//!   frequency and `S` the average packet size ([`round_duration`]).
//! * **Equation 3** — the communication energy
//!   `E = N_packets · S · E_bit` ([`communication_energy`]), with `E_bit`
//!   taken from a [`TechnologyLibrary`].
//!
//! The crate also carries the paper's extracted 0.25 µm technology points
//! (§4.1.4): a shared bus running at 43 MHz dissipating 21.6e-10 J/bit, and
//! a NoC link at 381 MHz dissipating 2.4e-10 J/bit.
//!
//! # Examples
//!
//! ```
//! use noc_energy::{communication_energy, TechnologyLibrary, Bits};
//!
//! let tech = TechnologyLibrary::NOC_LINK_0_25UM;
//! // 1200 packets of 64 bits each:
//! let e = communication_energy(1200, Bits(64), tech.energy_per_bit);
//! assert!((e.joules() - 1200.0 * 64.0 * 2.4e-10).abs() < 1e-18);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod account;
mod metrics;
mod tech;
mod units;

pub use account::EnergyAccount;
pub use metrics::{communication_energy, energy_delay_product, round_duration, EnergyDelay};
pub use tech::TechnologyLibrary;
pub use units::{Bits, Hertz, Joules, Seconds};
