//! Node and link identifiers.

use std::fmt;

/// Index of a tile in the network (0-based).
///
/// The paper numbers tiles 1..=16 in its figures; this library uses the
/// conventional 0-based indices, so the paper's "tile 6" is `NodeId(5)`.
///
/// # Examples
///
/// ```
/// use noc_fabric::NodeId;
///
/// let producer = NodeId(5);
/// assert_eq!(producer.index(), 5);
/// assert_eq!(producer.to_string(), "n5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

/// Index of a *directed* link in the network (0-based).
///
/// Every bidirectional wire of the grid appears as two directed links, one
/// per direction, each with its own id — crash faults and upsets are
/// applied per directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub usize);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl LinkId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

impl From<usize> for LinkId {
    fn from(i: usize) -> Self {
        LinkId(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        fn hashable(_: impl std::hash::Hash) {}
        hashable((NodeId(1), LinkId(3)));
        let set: BTreeSet<NodeId> = [NodeId(1), NodeId(2), NodeId(1)].into_iter().collect();
        assert_eq!(set.len(), 2);
        assert!(NodeId(1) < NodeId(2));
        assert!(LinkId(3) > LinkId(0));
    }

    #[test]
    fn conversions() {
        let n: NodeId = 7usize.into();
        assert_eq!(n.index(), 7);
        let l: LinkId = 9usize.into();
        assert_eq!(l.index(), 9);
    }

    #[test]
    fn display() {
        assert_eq!(NodeId(12).to_string(), "n12");
        assert_eq!(LinkId(3).to_string(), "l3");
    }
}
