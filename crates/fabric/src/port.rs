//! Port directions of a grid tile — the four edges of Figure 3-5, each
//! with its own buffer and RND forwarding circuit in the paper's tile
//! design.

use std::fmt;

use crate::node::LinkId;
use crate::topology::Grid2d;

/// One of the four edges of a grid tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Towards smaller `y`.
    North,
    /// Towards larger `x`.
    East,
    /// Towards larger `y`.
    South,
    /// Towards smaller `x`.
    West,
}

impl Direction {
    /// All four directions, clockwise from north.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The opposite edge (the receive port matching this send port).
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }

    /// The `(dx, dy)` step this direction takes on the grid.
    pub fn delta(self) -> (isize, isize) {
        match self {
            Direction::North => (0, -1),
            Direction::East => (1, 0),
            Direction::South => (0, 1),
            Direction::West => (-1, 0),
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "north",
            Direction::East => "east",
            Direction::South => "south",
            Direction::West => "west",
        };
        f.write_str(s)
    }
}

impl Grid2d {
    /// Which of the sender's four ports a directed link leaves through.
    ///
    /// # Panics
    ///
    /// Panics if the link id is outside this grid's topology.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_fabric::{Direction, Grid2d, NodeId};
    ///
    /// let grid = Grid2d::new(4, 4);
    /// // Interior tile 5 at (1,1) has all four ports wired:
    /// let mut dirs: Vec<Direction> = grid
    ///     .topology()
    ///     .out_links(NodeId(5))
    ///     .iter()
    ///     .map(|&l| grid.port_of(l))
    ///     .collect();
    /// dirs.sort();
    /// assert_eq!(dirs.len(), 4);
    /// ```
    pub fn port_of(&self, link: LinkId) -> Direction {
        let link = self.topology().link(link);
        let (fx, fy) = self.coordinates(link.from);
        let (tx, ty) = self.coordinates(link.to);
        let dx = tx as isize - fx as isize;
        let dy = ty as isize - fy as isize;
        match (dx, dy) {
            (0, -1) => Direction::North,
            (1, 0) => Direction::East,
            (0, 1) => Direction::South,
            (-1, 0) => Direction::West,
            other => unreachable!("grid link with step {other:?}"),
        }
    }

    /// The outgoing link of `node` in `direction`, if the tile has that
    /// port wired (edge tiles do not).
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the grid.
    pub fn link_towards(&self, node: crate::node::NodeId, direction: Direction) -> Option<LinkId> {
        self.topology()
            .out_links(node)
            .iter()
            .copied()
            .find(|&l| self.port_of(l) == direction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn opposites_are_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn deltas_cancel_with_opposites() {
        for d in Direction::ALL {
            let (dx, dy) = d.delta();
            let (ox, oy) = d.opposite().delta();
            assert_eq!((dx + ox, dy + oy), (0, 0));
        }
    }

    #[test]
    fn interior_tile_has_all_four_ports() {
        let grid = Grid2d::new(4, 4);
        let node = grid.node_at(1, 1);
        let mut dirs: Vec<Direction> = grid
            .topology()
            .out_links(node)
            .iter()
            .map(|&l| grid.port_of(l))
            .collect();
        dirs.sort();
        let mut expect = Direction::ALL.to_vec();
        expect.sort();
        assert_eq!(dirs, expect);
    }

    #[test]
    fn corner_tile_misses_two_ports() {
        let grid = Grid2d::new(4, 4);
        let origin = grid.node_at(0, 0);
        assert!(grid.link_towards(origin, Direction::North).is_none());
        assert!(grid.link_towards(origin, Direction::West).is_none());
        assert!(grid.link_towards(origin, Direction::East).is_some());
        assert!(grid.link_towards(origin, Direction::South).is_some());
    }

    #[test]
    fn link_towards_reaches_the_right_neighbour() {
        let grid = Grid2d::new(4, 4);
        let node = grid.node_at(2, 2);
        let east = grid
            .link_towards(node, Direction::East)
            .expect("interior tile");
        assert_eq!(grid.topology().link(east).to, grid.node_at(3, 2));
        let north = grid
            .link_towards(node, Direction::North)
            .expect("interior tile");
        assert_eq!(grid.topology().link(north).to, grid.node_at(2, 1));
    }

    #[test]
    fn every_grid_link_has_a_direction() {
        let grid = Grid2d::new(5, 3);
        for link in grid.topology().links() {
            let d = grid.port_of(link.id);
            // Following the direction from `from` lands on `to`.
            let (fx, fy) = grid.coordinates(link.from);
            let (dx, dy) = d.delta();
            let target = grid.node_at((fx as isize + dx) as usize, (fy as isize + dy) as usize);
            assert_eq!(target, link.to);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Direction::North.to_string(), "north");
        assert_eq!(NodeId(0).to_string(), "n0"); // re-export sanity
    }
}
