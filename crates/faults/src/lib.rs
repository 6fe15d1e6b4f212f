//! A stochastic failure model for networks-on-chip.
//!
//! Implements Chapter 2 of Dumitraş's *On-Chip Stochastic Communication*:
//! the deep-sub-micron failure modes that a NoC communication scheme must
//! survive, parameterised by
//!
//! * `p_tiles`, `p_links` — probability that a tile/link suffers a crash
//!   failure (dead from the start, or scheduled mid-run),
//! * `p_upset` — probability that a packet is scrambled by a data upset
//!   while crossing a link,
//! * `p_overflow` — probability that a packet is dropped because of buffer
//!   overflow,
//! * `σ_synchr` — standard deviation of the round duration, modelling
//!   synchronization errors between per-tile clock domains (GALS).
//!
//! The chapter's two analytical error models are implemented in
//! [`ErrorModel`]: the **random error vector** model (all `2^n − 1`
//! non-null vectors equally likely, `p_v ≈ p_upset / 2^n`) and the
//! **random bit error** model (independent bit flips, `p_b ≈ p_upset / n`).
//!
//! # Examples
//!
//! ```
//! use noc_faults::{FaultInjector, FaultModel};
//!
//! let model = FaultModel::builder()
//!     .p_upset(0.3)
//!     .p_overflow(0.1)
//!     .build()
//!     .expect("probabilities in range");
//! let mut injector = FaultInjector::new(model, 42);
//!
//! let mut packet = vec![0xAB, 0xCD, 0xEF];
//! if injector.upset_occurs() {
//!     injector.scramble(&mut packet);
//! }
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "unit tests seed streams")
)]

mod adversary;
mod error_vector;
mod injector;
mod model;
mod rng;
mod sweep;

pub use adversary::{
    AdversarialScenario, AdversarialScenarioBuilder, ByzantineMode, ByzantineSet, InvalidScenario,
    LinkChaos, PartitionCut, PartitionSchedule,
};
pub use error_vector::{bit_error_probability, vector_probability, ErrorModel};
pub use injector::{CrashSchedule, FaultInjector, InjectionTally, InjectorSnapshot};
pub use model::{FaultModel, FaultModelBuilder, InvalidFaultModel, OverflowMode};
pub use rng::GaussianSampler;
pub use sweep::{linspace, FaultSweep};
