//! Network-on-chip fabric substrate.
//!
//! Provides the structural pieces of the tile-based NoC of Figure 1-1 in
//! *On-Chip Stochastic Communication*: node/link identifiers, the grid and
//! fully-connected [`Topology`] graphs (Figure 3-2), the on-wire
//! [`Message`]/packet format protected by a CRC tag, finite receive
//! [`ReceiveBuffer`]s that drop their oldest entry on overflow, GALS
//! [`ClockDomain`]s with accumulated skew, and the [`IpCore`] trait that
//! application IPs implement (the computation side of the
//! computation/communication separation).
//!
//! A tile's out-links are read through [`Topology::out`], which yields
//! each `(LinkId, NodeId)` pair of the tile's row in the order its edges
//! were added (the order a forward walk draws in), and counted by
//! [`Topology::degree`]. A row is stored as 32-bit pairs and widened as
//! it is read.
//!
//! # Examples
//!
//! ```
//! use noc_fabric::{Grid2d, NodeId};
//!
//! let grid = Grid2d::new(4, 4);
//! assert_eq!(grid.topology().node_count(), 16);
//! // Tile 6 and tile 12 of the paper's producer-consumer example are 3
//! // hops apart:
//! assert_eq!(grid.manhattan_distance(NodeId(5), NodeId(11)), 3);
//! // Tile 6 has four neighbours, tile 12 (on the east edge) three:
//! assert_eq!(grid.topology().degree(NodeId(5)), 4);
//! let east_edge: Vec<NodeId> = grid.topology().out(NodeId(11)).map(|(_, to)| to).collect();
//! assert_eq!(east_edge, [NodeId(7), NodeId(10), NodeId(15)]);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "unit tests seed streams")
)]

mod buffer;
mod clock;
mod ip;
mod node;
mod packet;
mod topology;

pub use buffer::ReceiveBuffer;
pub use clock::ClockDomain;
pub use ip::{IpContext, IpCore, NullIp};
pub use node::{LinkId, NodeId};
pub use packet::{
    Message, MessageId, MessageView, ParsePacketError, WireCodec, HEADER_BYTES, MAX_NODES,
    MAX_PAYLOAD_BYTES,
};
pub use topology::{Grid2d, Link, Topology};
