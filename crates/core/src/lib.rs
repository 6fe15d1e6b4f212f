//! On-chip stochastic communication: a gossip-based fault-tolerant
//! broadcast protocol for networks-on-chip.
//!
//! This crate is a from-scratch reproduction of the communication paradigm
//! of *On-Chip Stochastic Communication* (Dumitraş & Mărculescu, DATE
//! 2003): instead of routing, every tile keeps a send buffer of messages
//! it knows about and, each gossip round, forwards every buffered message
//! over each of its output links independently with probability `p`
//! (Figure 3-4). Packets are CRC-protected; receivers silently discard
//! scrambled packets, relying on the redundancy of the spread rather than
//! retransmission requests. Messages carry a TTL decremented once per
//! round so the broadcast dies out after the destination has been reached
//! with high probability.
//!
//! The crate provides:
//!
//! * [`StochasticConfig`]/[`SimulationBuilder`] — protocol parameters
//!   (`p`, TTL, round budget) and simulation assembly;
//! * [`Simulation`] — a deterministic, seeded, round-synchronous engine
//!   over any [`noc_fabric::Topology`], with full fault injection from
//!   [`noc_faults`];
//! * [`SendBuffer`] — the per-tile deduplicating output buffer of
//!   Figure 3-4, a `Vec` and a `BTreeSet`: the reference oracle's and
//!   yours (the engine's tiles keep copies in a buffer of their own and
//!   their seen ids per message, so the two share no code);
//! * [`SimulationReport`] — latency, packet-count, energy and
//!   fault-tolerance metrics;
//! * [`Checkpoint`] — serializable round-boundary snapshots;
//!   [`SimulationBuilder::resume`] continues an interrupted run
//!   byte-identically;
//! * [`spread`] — the epidemic-spreading theory of §3.1 (Equation 1) and
//!   the 1000-node rumor experiment of Figure 3-1.
//!
//! # Examples
//!
//! Producer–consumer on the paper's 4×4 grid (Figure 3-3):
//!
//! ```
//! use noc_fabric::{Grid2d, NodeId};
//! use stochastic_noc::SimulationBuilder;
//!
//! let mut sim = SimulationBuilder::new(Grid2d::new(4, 4))
//!     .forward_probability(0.5)
//!     .ttl(12)
//!     .seed(7)
//!     .build();
//! // Producer on tile 6 (0-based 5) sends to the consumer on tile 12
//! // (0-based 11):
//! let msg = sim.inject(NodeId(5), NodeId(11), b"sample".to_vec());
//! let report = sim.run();
//! assert!(report.delivered(msg), "gossip delivered the message");
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "unit tests seed streams")
)]

mod arrivals;
mod audience;
mod body;
mod checkpoint;
mod config;
mod engine;
pub mod events;
mod frontier;
mod metrics;
pub mod obs;
pub mod reference;
pub mod seed;
mod send_buffer;
mod shard;
pub mod spread;
mod trace;
pub mod tuning;
mod wire;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::{InvalidConfig, StochasticConfig};
pub use engine::{RoundStats, Simulation, SimulationBuilder};
pub use events::{CounterSink, DropSite, EventSink, JsonlSink, NullSink, SimEvent, TeeSink};
pub use metrics::{MessageRecord, SimulationReport};
pub use obs::{EngineObs, EnginePhase};
pub use send_buffer::{InsertOutcome, SendBuffer};
pub use trace::{RoundSnapshot, SpreadTrace};
