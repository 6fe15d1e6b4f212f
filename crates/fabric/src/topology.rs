//! Network topologies: the grid of Figure 3-2b, the fully connected graph
//! of Figure 3-2a, and arbitrary custom graphs for hybrid architectures.

use std::collections::VecDeque;

use crate::node::{LinkId, NodeId};

/// One *directed* link of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// This link's identifier.
    pub id: LinkId,
    /// Sending endpoint.
    pub from: NodeId,
    /// Receiving endpoint.
    pub to: NodeId,
}

/// A directed multigraph of tiles and links.
///
/// All simulation engines in this workspace operate on a `Topology`;
/// convenience constructors build the two shapes studied by the paper, and
/// [`Topology::from_links`] supports the custom hierarchies of Chapter 5.
///
/// Out-links are stored as compressed sparse rows: one array of link ids
/// grouped by source node, each node's in edge-insertion order (the order
/// a forward walk draws in), and beside it the array of their targets, so
/// a walk over a node's links reads both from two contiguous slices.
///
/// # Examples
///
/// ```
/// use noc_fabric::{NodeId, Topology};
///
/// let t = Topology::grid(4, 4);
/// assert_eq!(t.node_count(), 16);
/// // An interior tile has 4 outgoing links:
/// assert_eq!(t.out_links(NodeId(5)).len(), 4);
/// // A corner tile has 2:
/// assert_eq!(t.out_links(NodeId(0)).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    node_count: usize,
    links: Vec<Link>,
    /// Node `i`'s out-links are `out[out_start[i]..out_start[i + 1]]`.
    out_start: Vec<usize>,
    out: Vec<LinkId>,
    /// `out_to[k]` is `link(out[k]).to`.
    out_to: Vec<NodeId>,
}

impl Topology {
    /// Builds a topology from explicit directed edges.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero, any endpoint is out of range, or an
    /// edge is a self-loop.
    pub fn from_links(
        name: impl Into<String>,
        node_count: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        assert!(node_count > 0, "a network needs at least one tile");
        let mut links = Vec::new();
        // Out-degrees, then (a counting sort, stable in link id) where
        // each node's rows start.
        let mut out_start = vec![0; node_count + 1];
        for (from, to) in edges {
            assert!(
                from.index() < node_count && to.index() < node_count,
                "link {from}->{to} endpoint outside 0..{node_count}"
            );
            assert_ne!(from, to, "self-loop at {from}");
            links.push(Link {
                id: LinkId(links.len()),
                from,
                to,
            });
            out_start[from.index() + 1] += 1;
        }
        for node in 0..node_count {
            out_start[node + 1] += out_start[node];
        }
        let mut cursor = out_start.clone();
        let (mut out, mut out_to) = (vec![LinkId(0); links.len()], vec![NodeId(0); links.len()]);
        for link in &links {
            let at = &mut cursor[link.from.index()];
            (out[*at], out_to[*at]) = (link.id, link.to);
            *at += 1;
        }
        Self {
            name: name.into(),
            node_count,
            links,
            out_start,
            out,
            out_to,
        }
    }

    /// The `width × height` rectangular grid of tiles (Figure 3-2b), with
    /// a pair of directed links for every horizontal/vertical neighbour
    /// pair. Tiles are numbered row-major.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        let idx = |x: usize, y: usize| NodeId(y * width + x);
        let mut edges = Vec::new();
        for y in 0..height {
            for x in 0..width {
                if x + 1 < width {
                    edges.push((idx(x, y), idx(x + 1, y)));
                    edges.push((idx(x + 1, y), idx(x, y)));
                }
                if y + 1 < height {
                    edges.push((idx(x, y), idx(x, y + 1)));
                    edges.push((idx(x, y + 1), idx(x, y)));
                }
            }
        }
        Self::from_links(format!("grid {width}x{height}"), width * height, edges)
    }

    /// The `width × height` torus: a grid whose rows and columns wrap
    /// around. Every tile has degree 4, halving the worst-case hop count
    /// relative to the plain grid — a common NoC variant included for
    /// topology ablations.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 3 (wrap-around links would
    /// duplicate or self-loop).
    pub fn torus(width: usize, height: usize) -> Self {
        assert!(
            width >= 3 && height >= 3,
            "torus dimensions must be at least 3"
        );
        let idx = |x: usize, y: usize| NodeId(y * width + x);
        let mut edges = Vec::new();
        for y in 0..height {
            for x in 0..width {
                let right = idx((x + 1) % width, y);
                let down = idx(x, (y + 1) % height);
                edges.push((idx(x, y), right));
                edges.push((right, idx(x, y)));
                edges.push((idx(x, y), down));
                edges.push((down, idx(x, y)));
            }
        }
        Self::from_links(format!("torus {width}x{height}"), width * height, edges)
    }

    /// The fully connected network of Figure 3-2a: a directed link between
    /// every ordered pair of distinct tiles.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn fully_connected(n: usize) -> Self {
        assert!(n > 0, "a network needs at least one tile");
        let mut edges = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    edges.push((NodeId(a), NodeId(b)));
                }
            }
        }
        Self::from_links(format!("fully connected {n}"), n, edges)
    }

    /// Human-readable topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tiles.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All directed links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id.index()]
    }

    /// Outgoing links of a node, in the order their edges were added.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[inline]
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out[self.out_range(node)]
    }

    /// The target of each of [`Topology::out_links`]`(node)`, in the same
    /// order: `out_targets(node)[k] == link(out_links(node)[k]).to`.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[inline]
    pub fn out_targets(&self, node: NodeId) -> &[NodeId] {
        &self.out_to[self.out_range(node)]
    }

    #[inline]
    fn out_range(&self, node: NodeId) -> std::ops::Range<usize> {
        self.out_start[node.index()]..self.out_start[node.index() + 1]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count).map(NodeId)
    }

    /// Shortest hop distance between two nodes (BFS), or `None` if
    /// unreachable.
    pub fn hop_distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut dist = vec![usize::MAX; self.node_count];
        dist[from.index()] = 0;
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            for &next in self.out_targets(n) {
                if dist[next.index()] == usize::MAX {
                    dist[next.index()] = dist[n.index()] + 1;
                    if next == to {
                        return Some(dist[next.index()]);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// The network diameter (longest shortest path), or `None` if the
    /// graph is disconnected.
    pub fn diameter(&self) -> Option<usize> {
        let mut best = 0;
        for a in self.nodes() {
            for b in self.nodes() {
                match self.hop_distance(a, b) {
                    Some(d) => best = best.max(d),
                    None => return None,
                }
            }
        }
        Some(best)
    }

    /// True if every node can reach every other node, *ignoring* the nodes
    /// and links for which the given predicates return `false` (used to
    /// check whether crash faults have partitioned the NoC).
    pub fn is_connected_with(
        &self,
        node_alive: impl Fn(NodeId) -> bool,
        link_alive: impl Fn(LinkId) -> bool,
    ) -> bool {
        let alive: Vec<NodeId> = self.nodes().filter(|&n| node_alive(n)).collect();
        let Some(&start) = alive.first() else {
            return true; // vacuously connected
        };
        let mut seen = vec![false; self.node_count];
        seen[start.index()] = true;
        let mut queue = VecDeque::from([start]);
        let mut count = 1;
        while let Some(n) = queue.pop_front() {
            for (&l, &next) in self.out_links(n).iter().zip(self.out_targets(n)) {
                if !link_alive(l) {
                    continue;
                }
                if node_alive(next) && !seen[next.index()] {
                    seen[next.index()] = true;
                    count += 1;
                    queue.push_back(next);
                }
            }
        }
        count == alive.len()
    }
}

/// A rectangular tile grid with geometric helpers on top of [`Topology`].
///
/// # Examples
///
/// ```
/// use noc_fabric::{Grid2d, NodeId};
///
/// let g = Grid2d::new(5, 5);
/// assert_eq!(g.width(), 5);
/// assert_eq!(g.node_at(2, 3), NodeId(17));
/// assert_eq!(g.coordinates(NodeId(17)), (2, 3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2d {
    width: usize,
    height: usize,
    topology: Topology,
}

impl Grid2d {
    /// Creates a `width × height` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            topology: Topology::grid(width, height),
        }
    }

    /// Grid width in tiles.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in tiles.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The underlying topology graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Node id at `(x, y)` (row-major).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        assert!(x < self.width && y < self.height, "({x},{y}) outside grid");
        NodeId(y * self.width + x)
    }

    /// `(x, y)` coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn coordinates(&self, node: NodeId) -> (usize, usize) {
        assert!(
            node.index() < self.width * self.height,
            "{node} outside grid"
        );
        (node.index() % self.width, node.index() / self.width)
    }

    /// Manhattan distance between two tiles — the hop count of the optimal
    /// (flooding) route.
    pub fn manhattan_distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coordinates(a);
        let (bx, by) = self.coordinates(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }
}

impl From<Grid2d> for Topology {
    fn from(g: Grid2d) -> Topology {
        g.topology
    }
}

impl AsRef<Topology> for Grid2d {
    fn as_ref(&self) -> &Topology {
        &self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grid_link_count() {
        // A w×h grid has 2*(w*(h-1) + h*(w-1)) directed links.
        let t = Topology::grid(4, 4);
        assert_eq!(t.link_count(), 2 * (4 * 3 + 4 * 3));
        let t = Topology::grid(5, 5);
        assert_eq!(t.link_count(), 2 * (5 * 4 + 5 * 4));
    }

    #[test]
    fn grid_degrees() {
        let t = Topology::grid(4, 4);
        let degree_counts: Vec<usize> = t.nodes().map(|n| t.out_links(n).len()).collect();
        assert_eq!(degree_counts.iter().filter(|&&d| d == 2).count(), 4); // corners
        assert_eq!(degree_counts.iter().filter(|&&d| d == 3).count(), 8); // edges
        assert_eq!(degree_counts.iter().filter(|&&d| d == 4).count(), 4); // interior
    }

    #[test]
    fn torus_is_regular_of_degree_four() {
        let t = Topology::torus(4, 4);
        assert_eq!(t.node_count(), 16);
        assert_eq!(t.link_count(), 2 * 2 * 16); // 2 dims x 2 dirs x tiles
        assert!(t.nodes().all(|n| t.out_links(n).len() == 4));
    }

    #[test]
    fn torus_halves_the_diameter() {
        let grid = Topology::grid(6, 6);
        let torus = Topology::torus(6, 6);
        assert_eq!(grid.diameter(), Some(10));
        assert_eq!(torus.diameter(), Some(6));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_torus_rejected() {
        let _ = Topology::torus(2, 4);
    }

    #[test]
    fn fully_connected_link_count() {
        let t = Topology::fully_connected(16);
        assert_eq!(t.link_count(), 16 * 15);
        assert!(t.nodes().all(|n| t.out_links(n).len() == 15));
        assert_eq!(t.diameter(), Some(1));
    }

    #[test]
    fn single_node_topologies() {
        let t = Topology::fully_connected(1);
        assert_eq!(t.link_count(), 0);
        assert_eq!(t.diameter(), Some(0));
    }

    #[test]
    fn grid_diameter_is_manhattan_extent() {
        let t = Topology::grid(4, 4);
        assert_eq!(t.diameter(), Some(6));
        let t = Topology::grid(5, 5);
        assert_eq!(t.diameter(), Some(8));
    }

    #[test]
    fn hop_distance_matches_manhattan_on_grid() {
        let g = Grid2d::new(4, 4);
        for a in g.topology().nodes() {
            for b in g.topology().nodes() {
                assert_eq!(
                    g.topology().hop_distance(a, b),
                    Some(g.manhattan_distance(a, b))
                );
            }
        }
    }

    #[test]
    fn producer_consumer_tiles_of_the_paper() {
        // Paper Figure 3-3: producer on tile 6, consumer on tile 12
        // (1-based) of a 4x4 grid; 0-based: 5 and 11; 3 hops apart, message
        // arrives at round 3 under flooding.
        let g = Grid2d::new(4, 4);
        assert_eq!(g.manhattan_distance(NodeId(5), NodeId(11)), 3);
    }

    #[test]
    fn connectivity_with_dead_column_partitions() {
        // Killing the middle column of a 3x3 grid disconnects it.
        let g = Grid2d::new(3, 3);
        let dead = [g.node_at(1, 0), g.node_at(1, 1), g.node_at(1, 2)];
        let connected = g
            .topology()
            .is_connected_with(|n| !dead.contains(&n), |_| true);
        assert!(!connected);
        assert!(g.topology().is_connected_with(|_| true, |_| true));
    }

    #[test]
    fn from_links_validates() {
        let r =
            std::panic::catch_unwind(|| Topology::from_links("bad", 2, [(NodeId(0), NodeId(5))]));
        assert!(r.is_err(), "out-of-range endpoint must panic");
        let r =
            std::panic::catch_unwind(|| Topology::from_links("bad", 2, [(NodeId(1), NodeId(1))]));
        assert!(r.is_err(), "self-loop must panic");
    }

    /// Every node's out-links in edge-insertion order, each beside its
    /// target: the draw order of a forward walk, whatever the constructor.
    fn assert_rows_follow_insertion_order(t: &Topology) {
        for n in t.nodes() {
            let want: Vec<LinkId> = t
                .links()
                .iter()
                .filter(|l| l.from == n)
                .map(|l| l.id)
                .collect();
            assert_eq!(t.out_links(n), &want[..], "{} at {n}", t.name());
            let targets: Vec<NodeId> = want.iter().map(|&l| t.link(l).to).collect();
            assert_eq!(t.out_targets(n), &targets[..], "{} at {n}", t.name());
        }
    }

    #[test]
    fn out_links_keep_insertion_order_beside_their_targets() {
        for t in [
            Topology::grid(4, 3),
            Topology::grid(1, 1),
            Topology::torus(3, 4),
            Topology::fully_connected(5),
        ] {
            assert_rows_follow_insertion_order(&t);
        }
        let edges = [
            (2, 0),
            (0, 3),
            (2, 1),
            (1, 2),
            (0, 1),
            (2, 3),
            (3, 0),
            (0, 2),
        ];
        let t = Topology::from_links("interleaved", 4, edges.map(|(a, b)| (NodeId(a), NodeId(b))));
        assert_rows_follow_insertion_order(&t);
        assert_eq!(t.out_links(NodeId(0)), [LinkId(1), LinkId(4), LinkId(7)]);
        assert_eq!(t.out_targets(NodeId(2)), [NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_targets_of_a_node_outside_the_topology_panics() {
        let _ = Topology::grid(2, 2).out_targets(NodeId(4));
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn node_at_bounds_checked() {
        let g = Grid2d::new(2, 2);
        let _ = g.node_at(2, 0);
    }

    proptest! {
        #[test]
        fn grid_coordinates_round_trip(w in 1usize..8, h in 1usize..8) {
            let g = Grid2d::new(w, h);
            for n in g.topology().nodes() {
                let (x, y) = g.coordinates(n);
                prop_assert_eq!(g.node_at(x, y), n);
            }
        }

        #[test]
        fn grids_are_connected(w in 1usize..7, h in 1usize..7) {
            let t = Topology::grid(w, h);
            prop_assert!(t.is_connected_with(|_| true, |_| true));
            prop_assert_eq!(t.diameter(), Some((w - 1) + (h - 1)));
        }

        #[test]
        fn every_link_appears_in_exactly_one_out_list(w in 1usize..6, h in 1usize..6) {
            let t = Topology::grid(w, h);
            let mut seen = vec![0usize; t.link_count()];
            for n in t.nodes() {
                for &l in t.out_links(n) {
                    seen[l.index()] += 1;
                    prop_assert_eq!(t.link(l).from, n);
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));
        }
    }
}
