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
/// Out-links are stored as compressed sparse rows: one array of
/// `(link id, target)` pairs, 32 bits each, grouped by source node, each
/// node's in edge-insertion order (the order a forward walk draws in).
/// A walk over a node's links reads one contiguous slice, and
/// [`Topology::out`] widens each pair to ids as it yields it. The rows
/// are the only copy of a link: [`Topology::link`] finds one through its
/// row position.
///
/// # Examples
///
/// ```
/// use noc_fabric::{LinkId, NodeId, Topology};
///
/// let t = Topology::grid(4, 4);
/// assert_eq!(t.node_count(), 16);
/// // An interior tile has 4 outgoing links:
/// assert_eq!(t.degree(NodeId(5)), 4);
/// // A corner tile has 2, to its right neighbour and the one below:
/// let corner: Vec<(LinkId, NodeId)> = t.out(NodeId(0)).collect();
/// assert_eq!(corner, [(LinkId(0), NodeId(1)), (LinkId(2), NodeId(4))]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    name: String,
    node_count: usize,
    /// Node `i`'s out-links are `out[out_start[i]..out_start[i + 1]]`.
    out_start: Vec<u32>,
    /// `(link id, target)` of each out-link, grouped by source node.
    out: Vec<(u32, u32)>,
    /// Link `id` sits at row position `at[id]`: `out[at[id]].0 == id`.
    at: Vec<u32>,
}

impl Topology {
    /// Builds a topology from explicit directed edges.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero or above `u32::MAX`, any endpoint is
    /// out of range, an edge is a self-loop, or there are more than
    /// `u32::MAX` edges.
    pub fn from_links(
        name: impl Into<String>,
        node_count: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        assert!(node_count > 0, "a network needs at least one tile");
        assert!(
            u32::try_from(node_count).is_ok(),
            "{node_count} tiles exceed a u32 index"
        );
        // Each link's source (its row position, once placed) and target
        // in link-id order, and the out-degrees; then (a counting sort,
        // stable in link id) where each node's rows start. Every index
        // fits in a `u32`: the node count is checked above, and the link
        // count as each edge arrives.
        let (mut at, mut to_by_id) = (Vec::<u32>::new(), Vec::<u32>::new());
        let mut out_start = vec![0u32; node_count + 1];
        for (from, to) in edges {
            assert!(
                from.index() < node_count && to.index() < node_count,
                "link {from}->{to} endpoint outside 0..{node_count}"
            );
            assert_ne!(from, to, "self-loop at {from}");
            assert!(
                at.len() < u32::MAX as usize,
                "more than {} links exceed a u32 row position",
                u32::MAX
            );
            at.push(from.index() as u32);
            to_by_id.push(to.index() as u32);
            out_start[from.index() + 1] += 1;
        }
        for node in 0..node_count {
            out_start[node + 1] += out_start[node];
        }
        let mut cursor = out_start.clone();
        let mut out = vec![(0, 0); at.len()];
        for (id, (at, &to)) in at.iter_mut().zip(&to_by_id).enumerate() {
            let row = &mut cursor[*at as usize];
            out[*row as usize] = (id as u32, to);
            *at = *row;
            *row += 1;
        }
        Self {
            name: name.into(),
            node_count,
            out_start,
            out,
            at,
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
        // Row-major: each tile's pair of links to its right neighbour,
        // then its pair to the one below.
        let edges = (0..width * height).flat_map(move |tile| {
            let here = NodeId(tile);
            let right = (tile % width + 1 < width).then_some(NodeId(tile + 1));
            let down = (tile / width + 1 < height).then_some(NodeId(tile + width));
            [right, down]
                .into_iter()
                .flatten()
                .flat_map(move |next| [(here, next), (next, here)])
        });
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
        let edges = (0..width * height).flat_map(move |tile| {
            let (x, y) = (tile % width, tile / width);
            let here = NodeId(tile);
            let right = NodeId(y * width + (x + 1) % width);
            let down = NodeId((y + 1) % height * width + x);
            [(here, right), (right, here), (here, down), (down, here)]
        });
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
        let edges = (0..n).flat_map(move |a| {
            (0..n)
                .filter(move |&b| b != a)
                .map(move |b| (NodeId(a), NodeId(b)))
        });
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
        self.at.len()
    }

    /// All directed links, in id order.
    pub fn links(&self) -> impl ExactSizeIterator<Item = Link> + '_ {
        (0..self.link_count()).map(|id| self.link(LinkId(id)))
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> Link {
        let k = self.at[id.index()];
        // The row holding position `k`: the last one starting at or
        // before it (rows before it may be empty and start there too).
        let from = self.out_start.partition_point(|&start| start <= k) - 1;
        Link {
            id,
            from: NodeId(from),
            to: NodeId(self.out[k as usize].1 as usize),
        }
    }

    /// Outgoing links of a node with their targets, in the order their
    /// edges were added: each `(l, to)` has `link(l).from == node` and
    /// `link(l).to == to`.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[inline]
    pub fn out(&self, node: NodeId) -> impl ExactSizeIterator<Item = (LinkId, NodeId)> + '_ {
        self.row(node)
            .iter()
            .map(|&(link, to)| (LinkId(link as usize), NodeId(to as usize)))
    }

    /// Number of outgoing links of a node: `out(node).len()`.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.row(node).len()
    }

    #[inline]
    fn row(&self, node: NodeId) -> &[(u32, u32)] {
        let (start, end) = (
            self.out_start[node.index()],
            self.out_start[node.index() + 1],
        );
        &self.out[start as usize..end as usize]
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
            for (_, next) in self.out(n) {
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
            for (l, next) in self.out(n) {
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
        let degree_counts: Vec<usize> = t.nodes().map(|n| t.degree(n)).collect();
        assert_eq!(degree_counts.iter().filter(|&&d| d == 2).count(), 4); // corners
        assert_eq!(degree_counts.iter().filter(|&&d| d == 3).count(), 8); // edges
        assert_eq!(degree_counts.iter().filter(|&&d| d == 4).count(), 4); // interior
    }

    #[test]
    fn torus_is_regular_of_degree_four() {
        let t = Topology::torus(4, 4);
        assert_eq!(t.node_count(), 16);
        assert_eq!(t.link_count(), 2 * 2 * 16); // 2 dims x 2 dirs x tiles
        assert!(t.nodes().all(|n| t.degree(n) == 4));
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
        assert!(t.nodes().all(|n| t.degree(n) == 15));
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
            let want: Vec<(LinkId, NodeId)> = t
                .links()
                .filter(|l| l.from == n)
                .map(|l| (l.id, l.to))
                .collect();
            assert_eq!(t.out(n).collect::<Vec<_>>(), want, "{} at {n}", t.name());
            assert_eq!(t.out(n).len(), want.len(), "{} at {n}", t.name());
            assert_eq!(t.degree(n), want.len(), "{} at {n}", t.name());
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
        let links = |n| t.out(NodeId(n)).map(|(l, _)| l).collect::<Vec<_>>();
        let targets = |n| t.out(NodeId(n)).map(|(_, to)| to).collect::<Vec<_>>();
        assert_eq!(links(0), [LinkId(1), LinkId(4), LinkId(7)]);
        assert_eq!(targets(2), [NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_a_node_outside_the_topology_panics() {
        let _ = Topology::grid(2, 2).out(NodeId(4));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn degree_of_a_node_outside_the_topology_panics() {
        let _ = Topology::grid(2, 2).degree(NodeId(4));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn link_outside_the_topology_panics() {
        let _ = Topology::grid(2, 2).link(LinkId(8));
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn node_at_bounds_checked() {
        let g = Grid2d::new(2, 2);
        let _ = g.node_at(2, 0);
    }

    /// The edges of a `w × h` grid, pushed in the order the constructor
    /// documents: per row-major tile, the pair to its right neighbour,
    /// then the pair to the one below.
    fn grid_edges(w: usize, h: usize) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let here = NodeId(y * w + x);
                if x + 1 < w {
                    edges.push((here, NodeId(y * w + x + 1)));
                    edges.push((NodeId(y * w + x + 1), here));
                }
                if y + 1 < h {
                    edges.push((here, NodeId((y + 1) * w + x)));
                    edges.push((NodeId((y + 1) * w + x), here));
                }
            }
        }
        edges
    }

    fn torus_edges(w: usize, h: usize) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let here = NodeId(y * w + x);
                let right = NodeId(y * w + (x + 1) % w);
                let down = NodeId((y + 1) % h * w + x);
                edges.extend([(here, right), (right, here), (here, down), (down, here)]);
            }
        }
        edges
    }

    fn fully_connected_edges(n: usize) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (0..n).filter(|&b| b != a) {
                edges.push((NodeId(a), NodeId(b)));
            }
        }
        edges
    }

    /// Link `id` is the `id`-th edge, whether asked for alone, in the
    /// iteration, counted, or read from its source's row: each row holds
    /// its node's edges as `(id, to)` pairs in edge order.
    fn links_match_edges(t: &Topology, edges: &[(NodeId, NodeId)]) -> Result<(), String> {
        let want: Vec<Link> = edges
            .iter()
            .enumerate()
            .map(|(id, &(from, to))| Link {
                id: LinkId(id),
                from,
                to,
            })
            .collect();
        let by_id: Vec<Link> = (0..want.len()).map(|id| t.link(LinkId(id))).collect();
        let listed: Vec<Link> = t.links().collect();
        if t.link_count() != want.len() || t.links().len() != want.len() {
            return Err(format!(
                "{}: {} links, want {}",
                t.name(),
                t.link_count(),
                want.len()
            ));
        }
        if by_id != want || listed != want {
            return Err(format!("{}: links differ from the edge list", t.name()));
        }
        for n in t.nodes() {
            let row: Vec<(LinkId, NodeId)> = want
                .iter()
                .filter(|l| l.from == n)
                .map(|l| (l.id, l.to))
                .collect();
            if t.out(n).collect::<Vec<_>>() != row || t.out(n).len() != row.len() {
                return Err(format!("{}: row {n} differs from the edge list", t.name()));
            }
            if t.degree(n) != row.len() {
                return Err(format!("{}: degree of {n} is {}", t.name(), t.degree(n)));
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn links_agree_with_the_constructors_edge_lists(w in 1usize..7, h in 1usize..7) {
            let grid = links_match_edges(&Topology::grid(w, h), &grid_edges(w, h));
            prop_assert_eq!(grid, Ok(()));
            let n = w * h;
            let full = links_match_edges(&Topology::fully_connected(n), &fully_connected_edges(n));
            prop_assert_eq!(full, Ok(()));
            if w >= 3 && h >= 3 {
                let torus = links_match_edges(&Topology::torus(w, h), &torus_edges(w, h));
                prop_assert_eq!(torus, Ok(()));
            }
        }

        /// Random multigraphs: repeated edges, empty rows (leading,
        /// trailing and between full ones) and edges in any order.
        #[test]
        fn links_agree_with_a_random_multigraphs_edge_list(
            n in 2usize..10,
            raw in proptest::collection::vec((0usize..64, 1usize..64), 0..40),
        ) {
            // `b` is an offset off `a`, never 0 mod n: no self-loops.
            let edges: Vec<(NodeId, NodeId)> = raw
                .iter()
                .map(|&(a, b)| (NodeId(a % n), NodeId((a + 1 + b % (n - 1)) % n)))
                .collect();
            let t = Topology::from_links("random", n, edges.iter().copied());
            prop_assert_eq!(links_match_edges(&t, &edges), Ok(()));
        }

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
                for (l, to) in t.out(n) {
                    seen[l.index()] += 1;
                    prop_assert_eq!(t.link(l), Link { id: l, from: n, to });
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));
        }
    }
}
