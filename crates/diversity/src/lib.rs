//! On-chip diversity: hybrid communication architectures (Chapter 5).
//!
//! The paper's closing chapter argues that heterogeneous SoCs will mix
//! architectural styles, and sketches three candidate interconnects for a
//! four-quadrant system (Figure 5-2), compared on an acoustic
//! beamforming workload (Figure 5-3):
//!
//! * **flat NoC** — one large tile grid ([`Architecture::flat`]);
//! * **hierarchical NoC** — four stochastic quadrants joined through a
//!   central router node ([`Architecture::hierarchical`]);
//! * **bus-connected NoCs** — four quadrants joined by a shared bus,
//!   modelled as a bridge node that can forward only a limited number of
//!   messages per round ([`Architecture::bus_connected`]).
//!
//! All three run the *same* stochastic communication protocol and the
//! same workload; only the fabric changes, which is exactly the
//! comparison of Figure 5-3.
//!
//! # Examples
//!
//! ```
//! use noc_diversity::{compare_architectures, ComparisonParams};
//!
//! let results = compare_architectures(&ComparisonParams::quick());
//! assert_eq!(results.len(), 3);
//! // Every architecture moves the beamforming traffic:
//! assert!(results.iter().all(|r| r.transmissions > 0));
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

mod architecture;
mod comparison;

pub use architecture::{Architecture, ArchitectureKind};
pub use comparison::{compare_architectures, ArchitectureResult, ComparisonParams};
