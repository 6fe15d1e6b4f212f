//! `noc_benchmark` — host-cost benchmark of the gossip-NoC simulator.
//!
//! See `README.md` beside this crate and `BENCHMARK.json` at the
//! repository root. The simulator is touched nowhere: every layer is
//! measured from outside, by timing calls into its public functions with
//! [`noc_obs::Stopwatch`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod trace;
pub mod workloads;
