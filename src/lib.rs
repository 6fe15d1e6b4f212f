//! Umbrella crate for the On-Chip Stochastic Communication reproduction.
//!
//! This crate hosts the workspace-level runnable examples (`examples/`) and
//! the cross-crate integration tests (`tests/`). It re-exports every member
//! crate so downstream users can depend on a single crate:
//!
//! ```
//! use ocsc::stochastic_noc::SimulationBuilder;
//! use ocsc::noc_fabric::Grid2d;
//!
//! let grid = Grid2d::new(4, 4);
//! let sim = SimulationBuilder::new(grid).forward_probability(0.5).build();
//! assert_eq!(sim.node_count(), 16);
//! ```

pub use noc_apps;
pub use noc_bus;
pub use noc_crc;
pub use noc_diversity;
pub use noc_dsp;
pub use noc_energy;
pub use noc_experiments;
pub use noc_fabric;
pub use noc_faults;
pub use stochastic_noc;
