//! Experiment harness regenerating every figure of *On-Chip Stochastic
//! Communication*.
//!
//! One module per figure; each exposes a `run(scale)` returning typed
//! rows and a `print(&rows)` that writes the same series the paper plots.
//! The `experiments` binary dispatches on a figure name:
//!
//! ```text
//! cargo run -p noc-experiments --release -- fig4-4
//! cargo run -p noc-experiments --release -- all --full
//! ```
//!
//! [`Scale::Quick`] keeps every experiment under a few seconds for CI;
//! [`Scale::Full`] uses paper-scale repetition counts.

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "unit tests seed streams")
)]

pub mod ablations;
pub mod error_models;
pub mod fig3_1;
pub mod fig3_3;
pub mod fig4_10;
pub mod fig4_11;
pub mod fig4_4;
pub mod fig4_5;
pub mod fig4_6;
pub mod fig4_8;
pub mod fig4_9;
pub mod fig5_3;
pub mod grid_spread;
pub mod hostile;
pub mod mega_grid;
pub mod runner;
pub mod stats;

pub use runner::TrialRunner;

/// How much work an experiment run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Reduced grids/repetitions; seconds per figure. Used by tests.
    #[default]
    Quick,
    /// Paper-scale sweeps and averaging.
    Full,
}

impl Scale {
    /// Number of repeated simulations to average, per scale.
    pub fn repetitions(self) -> u64 {
        match self {
            Scale::Quick => 3,
            Scale::Full => 10,
        }
    }
}
