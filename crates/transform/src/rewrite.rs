//! The [`LocalRewrite`] abstraction: transformation passes as node-local
//! rewrites over a worklist, instead of whole-graph scans.
//!
//! A classic [`Transform`](crate::Transform) pass answers "sweep the whole
//! graph once"; a [`LocalRewrite`] answers two smaller questions instead:
//!
//! * [`LocalRewrite::wants`] — could this pass ever fire at this node? (used
//!   to seed the initial worklist and to re-seed from dirty nodes);
//! * [`LocalRewrite::visit`] — try to rewrite at one node, returning how
//!   many changes were made.
//!
//! The [`WorklistDriver`](crate::WorklistDriver) owns the scheduling: it
//! seeds every pass from the graph, runs each pass over its pending
//! [`Worklist`], and folds the graph's
//! [`ChangeJournal`](fpfa_cdfg::ChangeJournal) back into the pending sets
//! so that a change made in round *N* only re-examines its transitive
//! neighbourhood in round *N + 1*.

use crate::error::TransformError;
use fpfa_cdfg::{Cdfg, NodeId, NodeKind};
use std::collections::BTreeSet;

/// An ordered set of nodes awaiting (re-)examination by a pass.
///
/// Nodes come out in ascending id order, mirroring the snapshot sweeps of the
/// legacy full-scan passes, so both engines examine rewrite opportunities in
/// the same relative order.  Stale ids (nodes removed since they were
/// enqueued) are tolerated: the driver skips them at pop time.
#[derive(Clone, Debug, Default)]
pub struct Worklist {
    set: BTreeSet<NodeId>,
}

impl Worklist {
    /// Creates an empty worklist.
    pub fn new() -> Self {
        Worklist::default()
    }

    /// Enqueues a node (idempotent).
    pub fn push(&mut self, id: NodeId) {
        self.set.insert(id);
    }

    /// Removes and returns the smallest pending node id.
    pub fn pop_first(&mut self) -> Option<NodeId> {
        self.set.pop_first()
    }

    /// Number of pending nodes.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// `true` when the node is pending.
    pub fn contains(&self, id: NodeId) -> bool {
        self.set.contains(&id)
    }

    /// Takes the whole pending set, leaving the worklist empty.
    pub fn take(&mut self) -> Worklist {
        Worklist {
            set: std::mem::take(&mut self.set),
        }
    }

    /// Converts into a sorted, deduplicated vector of node ids.
    pub fn into_vec(self) -> Vec<NodeId> {
        self.set.into_iter().collect()
    }
}

impl FromIterator<NodeId> for Worklist {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        Worklist {
            set: iter.into_iter().collect(),
        }
    }
}

impl Extend<NodeId> for Worklist {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        self.set.extend(iter);
    }
}

/// A behaviour-preserving transformation expressed as a node-local rewrite.
///
/// Implementations may keep incremental state across visits (for example the
/// value-number table of CSE); [`LocalRewrite::reset`] clears that state at
/// the start of a driver run.
pub trait LocalRewrite {
    /// Short, stable name of the pass (shared with the legacy pass names so
    /// reports from both engines are comparable).
    fn name(&self) -> &'static str;

    /// `true` when the pass could ever fire at `id` in the current graph.
    ///
    /// Must be *conservative-complete*: whenever a rewrite is applicable at
    /// a node, `wants` must return `true` for it — the driver only routes
    /// dirty nodes for which `wants` holds.  `id` is always live when the
    /// driver calls this.
    fn wants(&self, graph: &Cdfg, id: NodeId) -> bool;

    /// Kind-only routing pre-filter: `false` means a dirty node of this kind
    /// can never concern this pass — neither directly nor through
    /// [`reseeds`](LocalRewrite::reseeds) neighbour expansion — so the
    /// driver skips the pass without a virtual `reseeds` round-trip.  Must
    /// be conservative (`true` when unsure); the default never filters.
    fn cares_about(&self, kind: &NodeKind) -> bool {
        let _ = kind;
        true
    }

    /// Builds the initial worklist for a fresh graph (every node the pass
    /// could fire at).  The default scans the whole graph through
    /// [`LocalRewrite::wants`].
    fn seed(&self, graph: &Cdfg) -> Worklist {
        graph
            .node_ids()
            .filter(|id| self.wants(graph, *id))
            .collect()
    }

    /// Attempts to rewrite at one (live) node; returns the number of graph
    /// changes made.
    ///
    /// # Errors
    /// Returns a [`TransformError`] when the rewrite cannot proceed.
    fn visit(&mut self, graph: &mut Cdfg, id: NodeId) -> Result<usize, TransformError>;

    /// Expands one dirty node into the nodes this pass must re-examine.
    ///
    /// The default re-examines the dirty node itself (when
    /// [`wants`](LocalRewrite::wants) holds).  Passes whose applicability at
    /// a node also depends on a *neighbour* override this: store-to-load
    /// forwarding, for example, must revisit a fetch when its upstream store
    /// changes.  The driver applies its sweep-scheduling rules to every
    /// returned node, so expansion here never changes the pace at which
    /// rewrites fire relative to the legacy snapshot sweeps.
    fn reseeds(&self, graph: &Cdfg, dirty: NodeId, out: &mut Vec<NodeId>) {
        if self.wants(graph, dirty) {
            out.push(dirty);
        }
    }

    /// Clears incremental state at the start of a driver run.
    fn reset(&mut self) {}
}

/// Boxed rewrites forward to their contents.
impl<T: LocalRewrite + ?Sized> LocalRewrite for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn wants(&self, graph: &Cdfg, id: NodeId) -> bool {
        (**self).wants(graph, id)
    }

    fn cares_about(&self, kind: &NodeKind) -> bool {
        (**self).cares_about(kind)
    }

    fn seed(&self, graph: &Cdfg) -> Worklist {
        (**self).seed(graph)
    }

    fn visit(&mut self, graph: &mut Cdfg, id: NodeId) -> Result<usize, TransformError> {
        (**self).visit(graph, id)
    }

    fn reseeds(&self, graph: &Cdfg, dirty: NodeId, out: &mut Vec<NodeId>) {
        (**self).reseeds(graph, dirty, out);
    }

    fn reset(&mut self) {
        (**self).reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worklist_orders_and_dedups() {
        let mut wl = Worklist::new();
        wl.push(NodeId::from_index(5));
        wl.push(NodeId::from_index(1));
        wl.push(NodeId::from_index(5));
        wl.push(NodeId::from_index(3));
        assert_eq!(wl.len(), 3);
        assert!(wl.contains(NodeId::from_index(3)));
        assert_eq!(wl.pop_first(), Some(NodeId::from_index(1)));
        assert_eq!(wl.pop_first(), Some(NodeId::from_index(3)));
        assert_eq!(wl.pop_first(), Some(NodeId::from_index(5)));
        assert_eq!(wl.pop_first(), None);
        assert!(wl.is_empty());
    }

    #[test]
    fn take_empties_the_source() {
        let mut wl: Worklist = (0..4).map(NodeId::from_index).collect();
        let taken = wl.take();
        assert!(wl.is_empty());
        assert_eq!(taken.len(), 4);
    }
}
