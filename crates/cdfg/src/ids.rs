//! Strongly typed identifiers for graph entities.

use std::fmt;
use std::ops::Index;

/// Identifier of a node inside a [`Cdfg`](crate::Cdfg).
///
/// `NodeId`s are only meaningful for the graph that created them.  An id is
/// never reused after a node has been removed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

/// Identifier of an edge inside a [`Cdfg`](crate::Cdfg).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// Raw index of this node (useful for dense side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index.
    ///
    /// Intended for dense side tables and tests; a `NodeId` fabricated for an
    /// index that does not exist in the graph will be rejected by graph
    /// accessors.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl EdgeId {
    /// Raw index of this edge (useful for dense side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EdgeId` from a raw index.
    pub fn from_index(index: usize) -> Self {
        EdgeId(index as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Sentinel for an unmapped [`NodeRemap`] slot.  Arena indices are bounded
/// by the live node count, so `u32::MAX` can never name a real node.
const UNMAPPED: NodeId = NodeId(u32::MAX);

/// A dense old-id → new-id mapping, as returned by
/// [`Cdfg::compact`](crate::Cdfg::compact) and
/// [`Cdfg::splice`](crate::Cdfg::splice).
///
/// Node ids are dense arena indices, so the remap is a flat `Vec` indexed by
/// [`NodeId::index`] instead of a hash map: lookups are a bounds check and a
/// load.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeRemap {
    map: Vec<NodeId>,
    mapped: usize,
}

impl NodeRemap {
    /// An empty remap sized for source ids below `bound`.
    pub(crate) fn with_bound(bound: usize) -> Self {
        NodeRemap {
            map: vec![UNMAPPED; bound],
            mapped: 0,
        }
    }

    /// Records `old → new`, growing the table if `old` is beyond the
    /// presized bound.
    pub(crate) fn insert(&mut self, old: NodeId, new: NodeId) {
        if old.index() >= self.map.len() {
            self.map.resize(old.index() + 1, UNMAPPED);
        }
        let slot = &mut self.map[old.index()];
        if *slot == UNMAPPED {
            self.mapped += 1;
        }
        *slot = new;
    }

    /// The new id of `old`, if `old` was remapped.
    pub fn get(&self, old: NodeId) -> Option<NodeId> {
        self.map
            .get(old.index())
            .copied()
            .filter(|id| *id != UNMAPPED)
    }

    /// Number of remapped ids.
    pub fn len(&self) -> usize {
        self.mapped
    }

    /// `true` when no id was remapped.
    pub fn is_empty(&self) -> bool {
        self.mapped == 0
    }

    /// Iterates over `(old, new)` pairs in old-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter(|(_, new)| **new != UNMAPPED)
            .map(|(old, new)| (NodeId::from_index(old), *new))
    }
}

impl Index<NodeId> for NodeRemap {
    type Output = NodeId;

    /// The new id of `old`.
    ///
    /// # Panics
    /// When `old` was not remapped.
    fn index(&self, old: NodeId) -> &NodeId {
        let slot = self.map.get(old.index()).unwrap_or(&UNMAPPED);
        assert!(*slot != UNMAPPED, "node {old} was not remapped");
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(format!("{id:?}"), "n42");
    }

    #[test]
    fn edge_id_round_trip() {
        let id = EdgeId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "e7");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
        assert!(EdgeId::from_index(0) < EdgeId::from_index(9));
    }

    #[test]
    fn remap_records_and_looks_up() {
        let mut remap = NodeRemap::with_bound(2);
        assert!(remap.is_empty());
        remap.insert(NodeId::from_index(0), NodeId::from_index(7));
        // Inserting beyond the presized bound grows the table.
        remap.insert(NodeId::from_index(5), NodeId::from_index(1));
        assert_eq!(remap.len(), 2);
        assert_eq!(
            remap.get(NodeId::from_index(0)),
            Some(NodeId::from_index(7))
        );
        assert_eq!(remap.get(NodeId::from_index(1)), None);
        assert_eq!(remap[NodeId::from_index(5)], NodeId::from_index(1));
        let pairs: Vec<_> = remap.iter().collect();
        assert_eq!(
            pairs,
            vec![
                (NodeId::from_index(0), NodeId::from_index(7)),
                (NodeId::from_index(5), NodeId::from_index(1)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "was not remapped")]
    fn remap_index_panics_on_unmapped() {
        let remap = NodeRemap::with_bound(4);
        let _ = remap[NodeId::from_index(1)];
    }
}
