//! Rewrite observation: a change journal recording which nodes the graph
//! mutation primitives touched.
//!
//! The incremental rewrite engine of `fpfa-transform` needs to know *which*
//! nodes changed so that a pass only re-examines the neighbourhood of recent
//! rewrites instead of rescanning the whole graph.  Every mutation primitive
//! of [`Cdfg`](crate::Cdfg) ([`add_node`](crate::Cdfg::add_node),
//! [`connect`](crate::Cdfg::connect), [`disconnect`](crate::Cdfg::disconnect),
//! [`remove_node`](crate::Cdfg::remove_node),
//! [`replace_uses`](crate::Cdfg::replace_uses),
//! [`splice`](crate::Cdfg::splice)) records the nodes it created, removed or
//! re-connected in the graph's optional [`ChangeJournal`].
//!
//! The journal is a set: a node is recorded once until the next drain, no
//! matter how many mutations touch it, so its size is bounded by the graph's
//! node bound and not by the number of mutations (unrolling a loop nest
//! makes more than ten of those per node).  The graph hosts the journal (a
//! plain value type, so the graph stays `Clone`/`PartialEq`); drivers drain
//! it with [`Cdfg::drain_touched_into`](crate::Cdfg::drain_touched_into)
//! after every rewrite step.

use crate::ids::NodeId;

/// The set of nodes touched since the last drain, in first-touch order.
///
/// Install with [`Cdfg::enable_journal`](crate::Cdfg::enable_journal) and
/// drain with [`Cdfg::drain_touched_into`](crate::Cdfg::drain_touched_into).
/// A removed node stays recorded: consumers skip ids that are no longer
/// live.
#[derive(Clone, Debug, Default)]
pub struct ChangeJournal {
    /// One bit per node id: set while the id is in `touched`.
    seen: Vec<u64>,
    /// Recorded ids in first-touch order.
    touched: Vec<NodeId>,
}

impl ChangeJournal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        ChangeJournal::default()
    }

    /// Number of recorded (undrained) nodes.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// `true` when no node is pending.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Records `id` unless it is already pending.
    pub(crate) fn record(&mut self, id: NodeId) {
        let (word, mask) = (id.index() / 64, 1u64 << (id.index() % 64));
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        if self.seen[word] & mask == 0 {
            self.seen[word] |= mask;
            self.touched.push(id);
        }
    }

    /// Moves every pending node into `out`, in first-touch order, and
    /// empties the journal.
    pub fn drain_nodes_into(&mut self, out: &mut Vec<NodeId>) {
        for id in self.touched.drain(..) {
            self.seen[id.index() / 64] &= !(1u64 << (id.index() % 64));
            out.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(journal: &mut ChangeJournal) -> Vec<NodeId> {
        let mut out = Vec::new();
        journal.drain_nodes_into(&mut out);
        out
    }

    #[test]
    fn a_node_is_recorded_once_until_drained() {
        let (a, b) = (NodeId::from_index(3), NodeId::from_index(130));
        let mut journal = ChangeJournal::new();
        assert!(journal.is_empty());
        for id in [a, b, a, b, a] {
            journal.record(id);
        }
        assert_eq!(journal.len(), 2);
        assert_eq!(drained(&mut journal), vec![a, b]);
        assert!(journal.is_empty());
        assert!(drained(&mut journal).is_empty());
    }

    #[test]
    fn a_drained_node_is_recorded_again() {
        let (a, b) = (NodeId::from_index(0), NodeId::from_index(64));
        let mut journal = ChangeJournal::new();
        journal.record(a);
        assert_eq!(drained(&mut journal), vec![a]);
        // First-touch order restarts after a drain.
        journal.record(b);
        journal.record(a);
        journal.record(b);
        assert_eq!(drained(&mut journal), vec![b, a]);
    }
}
