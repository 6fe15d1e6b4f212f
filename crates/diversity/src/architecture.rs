//! The three candidate fabrics of Figure 5-2, as topology constructors
//! with a uniform logical-placement interface.

use noc_fabric::{NodeId, Topology};

/// Which fabric an [`Architecture`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchitectureKind {
    /// One flat `2s × 2s` grid.
    Flat,
    /// Four `s × s` quadrants joined through a central router node (the
    /// "central router" option of Figure 5-2; the paper's Figure 5-3
    /// measurements use this as their hierarchical NoC).
    Hierarchical,
    /// Four `s × s` quadrants joined by a shared-bus bridge node with a
    /// per-round forwarding limit.
    BusConnected,
}

impl ArchitectureKind {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ArchitectureKind::Flat => "flat NoC",
            ArchitectureKind::Hierarchical => "hierarchical NoC",
            ArchitectureKind::BusConnected => "bus-connected NoCs",
        }
    }
}

/// A four-quadrant system fabric with a uniform logical addressing
/// scheme: `(quadrant, x, y)` with `quadrant ∈ 0..4` and `x, y ∈ 0..s`.
///
/// The same logical placement maps onto all three architectures, so a
/// workload can be replayed unchanged across them.
///
/// # Examples
///
/// ```
/// use noc_diversity::Architecture;
///
/// let flat = Architecture::flat(4);
/// let hier = Architecture::hierarchical(4);
/// // Same logical tile, different physical fabrics:
/// let a = flat.tile(2, 1, 3);
/// let b = hier.tile(2, 1, 3);
/// assert!(a.index() < flat.topology().node_count());
/// assert!(b.index() < hier.topology().node_count());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    kind: ArchitectureKind,
    quadrant_side: usize,
    topology: Topology,
    /// The bridge node (router or bus), if any.
    bridge: Option<NodeId>,
    /// Bus service rate (messages per round); meaningful for
    /// [`ArchitectureKind::BusConnected`] only.
    bus_rate: usize,
}

impl Architecture {
    /// One flat `2s × 2s` grid; quadrant `q` is the corresponding
    /// `s × s` sub-block.
    ///
    /// # Panics
    ///
    /// Panics if `quadrant_side` is zero.
    pub fn flat(quadrant_side: usize) -> Self {
        assert!(quadrant_side > 0, "quadrant side must be positive");
        Self {
            kind: ArchitectureKind::Flat,
            quadrant_side,
            topology: Topology::grid(2 * quadrant_side, 2 * quadrant_side),
            bridge: None,
            bus_rate: 1,
        }
    }

    /// Four `s × s` quadrant grids, each with a gateway tile at its local
    /// center, all gateways linked to one central router node (the
    /// left-most option of Figure 5-2).
    ///
    /// # Panics
    ///
    /// Panics if `quadrant_side` is zero.
    pub fn hierarchical(quadrant_side: usize) -> Self {
        let (topology, bridge) = Self::quadrants_with_bridge(quadrant_side, "hierarchical NoC");
        Self {
            kind: ArchitectureKind::Hierarchical,
            quadrant_side,
            topology,
            bridge: Some(bridge),
            bus_rate: 1,
        }
    }

    /// Four `s × s` quadrant grids joined by a shared bus, modelled as a
    /// bridge node identical to the hierarchical router — the difference
    /// is imposed at simulation time by limiting the bridge's egress
    /// ([`Architecture::bridge_egress_limit`]) to one message per round.
    ///
    /// # Panics
    ///
    /// Panics if `quadrant_side` is zero.
    pub fn bus_connected(quadrant_side: usize) -> Self {
        Self::bus_connected_with_rate(quadrant_side, 1)
    }

    /// Like [`Architecture::bus_connected`] with an explicit bus service
    /// rate: the number of messages the shared bus can move per gossip
    /// round (a gossip round spans several bus cycles, so rates above 1
    /// model faster buses).
    ///
    /// # Panics
    ///
    /// Panics if `quadrant_side` or `messages_per_round` is zero.
    pub fn bus_connected_with_rate(quadrant_side: usize, messages_per_round: usize) -> Self {
        assert!(messages_per_round > 0, "bus service rate must be positive");
        let (topology, bridge) = Self::quadrants_with_bridge(quadrant_side, "bus-connected NoCs");
        Self {
            kind: ArchitectureKind::BusConnected,
            quadrant_side,
            topology,
            bridge: Some(bridge),
            bus_rate: messages_per_round,
        }
    }

    fn quadrants_with_bridge(side: usize, name: &str) -> (Topology, NodeId) {
        assert!(side > 0, "quadrant side must be positive");
        let per = side * side;
        let bridge = NodeId(4 * per);
        let local = |q: usize, x: usize, y: usize| NodeId(q * per + y * side + x);
        let mut edges = Vec::new();
        for q in 0..4 {
            for y in 0..side {
                for x in 0..side {
                    if x + 1 < side {
                        edges.push((local(q, x, y), local(q, x + 1, y)));
                        edges.push((local(q, x + 1, y), local(q, x, y)));
                    }
                    if y + 1 < side {
                        edges.push((local(q, x, y), local(q, x, y + 1)));
                        edges.push((local(q, x, y + 1), local(q, x, y)));
                    }
                }
            }
            // Gateway at the local center.
            let gw = local(q, side / 2, side / 2);
            edges.push((gw, bridge));
            edges.push((bridge, gw));
        }
        (
            Topology::from_links(name.to_string(), 4 * per + 1, edges),
            bridge,
        )
    }

    /// The fabric kind.
    pub fn kind(&self) -> ArchitectureKind {
        self.kind
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Quadrant side `s`.
    pub fn quadrant_side(&self) -> usize {
        self.quadrant_side
    }

    /// The bridge node (router/bus), if this architecture has one.
    pub fn bridge(&self) -> Option<NodeId> {
        self.bridge
    }

    /// Per-round forwarding limit to impose on the bridge: the bus
    /// service rate for the shared bus, none otherwise.
    pub fn bridge_egress_limit(&self) -> Option<(NodeId, usize)> {
        match self.kind {
            ArchitectureKind::BusConnected => self.bridge.map(|b| (b, self.bus_rate)),
            _ => None,
        }
    }

    /// Physical tile of logical position `(quadrant, x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `quadrant >= 4` or `x`/`y` are outside the quadrant.
    pub fn tile(&self, quadrant: usize, x: usize, y: usize) -> NodeId {
        let s = self.quadrant_side;
        assert!(quadrant < 4, "quadrant {quadrant} out of range");
        assert!(x < s && y < s, "({x},{y}) outside quadrant of side {s}");
        match self.kind {
            ArchitectureKind::Flat => {
                let (qx, qy) = (quadrant % 2, quadrant / 2);
                let (gx, gy) = (qx * s + x, qy * s + y);
                NodeId(gy * 2 * s + gx)
            }
            ArchitectureKind::Hierarchical | ArchitectureKind::BusConnected => {
                NodeId(quadrant * s * s + y * s + x)
            }
        }
    }

    /// Gateway tile of a quadrant (the local center; defined for all
    /// architectures so placements stay comparable).
    ///
    /// # Panics
    ///
    /// Panics if `quadrant >= 4`.
    pub fn gateway(&self, quadrant: usize) -> NodeId {
        self.tile(quadrant, self.quadrant_side / 2, self.quadrant_side / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_one_big_grid() {
        let a = Architecture::flat(4);
        assert_eq!(a.topology().node_count(), 64);
        assert_eq!(a.bridge(), None);
        assert_eq!(a.bridge_egress_limit(), None);
        assert!(a.topology().is_connected_with(|_| true, |_| true));
    }

    #[test]
    fn hierarchical_has_a_router_hub() {
        let a = Architecture::hierarchical(4);
        assert_eq!(a.topology().node_count(), 65);
        let bridge = a.bridge().unwrap();
        assert_eq!(a.topology().degree(bridge), 4);
        assert!(a.topology().is_connected_with(|_| true, |_| true));
        assert_eq!(a.bridge_egress_limit(), None);
    }

    #[test]
    fn bus_connected_limits_the_bridge() {
        let a = Architecture::bus_connected(4);
        let (node, limit) = a.bridge_egress_limit().unwrap();
        assert_eq!(Some(node), a.bridge());
        assert_eq!(limit, 1);
    }

    #[test]
    fn quadrants_only_communicate_through_the_bridge() {
        let a = Architecture::hierarchical(3);
        let bridge = a.bridge().unwrap();
        // Removing the bridge disconnects the quadrants.
        let connected = a.topology().is_connected_with(|n| n != bridge, |_| true);
        assert!(!connected);
    }

    #[test]
    fn logical_tiles_are_distinct_within_an_architecture() {
        for arch in [
            Architecture::flat(3),
            Architecture::hierarchical(3),
            Architecture::bus_connected(3),
        ] {
            let mut tiles: Vec<NodeId> = (0..4)
                .flat_map(|q| (0..3).flat_map(move |y| (0..3).map(move |x| (q, x, y))))
                .map(|(q, x, y)| arch.tile(q, x, y))
                .collect();
            let n = tiles.len();
            tiles.sort();
            tiles.dedup();
            assert_eq!(tiles.len(), n, "collision in {:?}", arch.kind());
        }
    }

    #[test]
    fn flat_quadrant_blocks_tile_the_big_grid() {
        let a = Architecture::flat(2);
        // Quadrant 0 occupies the top-left 2x2 of the 4x4 grid.
        assert_eq!(a.tile(0, 0, 0), NodeId(0));
        assert_eq!(a.tile(0, 1, 1), NodeId(5));
        // Quadrant 1 is top-right:
        assert_eq!(a.tile(1, 0, 0), NodeId(2));
        // Quadrant 2 is bottom-left:
        assert_eq!(a.tile(2, 0, 0), NodeId(8));
        // Quadrant 3 is bottom-right:
        assert_eq!(a.tile(3, 1, 1), NodeId(15));
    }

    #[test]
    fn gateways_are_quadrant_centers() {
        let a = Architecture::hierarchical(5);
        for q in 0..4 {
            assert_eq!(a.gateway(q), a.tile(q, 2, 2));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quadrant_bounds_checked() {
        let _ = Architecture::flat(2).tile(4, 0, 0);
    }

    #[test]
    fn hierarchical_cross_quadrant_distance_goes_through_bridge() {
        let a = Architecture::hierarchical(4);
        let from = a.tile(0, 0, 0);
        let to = a.tile(3, 3, 3);
        // local center is 4 hops from corner (2+2); corner->gw 4, gw->bridge 1,
        // bridge->gw 1, gw->far-corner: (3-2)+(3-2)=2 -> total 8.
        assert_eq!(a.topology().hop_distance(from, to), Some(8));
    }
}
