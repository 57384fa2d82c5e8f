//! Phase 1: task clustering and ALU data-path mapping.
//!
//! "In the clustering phase the task graph is partitioned and mapped to an
//! unbounded number of fully connected ALUs [...]. This clustering and
//! mapping scheme is based on the ALU data-path of our FPFA." (Section VI-A)
//!
//! The implementation follows Sarkar's edge-zeroing idea adapted to the FPFA
//! ALU: start with one cluster per operation, then repeatedly merge clusters
//! across dataflow edges when the merged group
//!
//! * still fits the ALU data-path ([`AluCapability`]): bounded operation
//!   count, chain depth, multiplier usage, external inputs and outputs;
//! * keeps the cluster graph acyclic;
//! * does not lengthen the critical path of the cluster graph.
//!
//! Edges are considered in a priority order that prefers zeroing edges on the
//! current critical path, which is what reduces the schedule length.

use crate::dfg::{MappingGraph, OpId, ValueRef};
use crate::error::MapError;
use fpfa_arch::AluCapability;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Identifier of a cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClusterId(pub(crate) u32);

impl ClusterId {
    /// Raw index of the cluster.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clu{}", self.0)
    }
}

/// A group of operations executed by one ALU in one clock cycle.
#[derive(Clone, PartialEq, Debug)]
pub struct Cluster {
    /// Operations of the cluster in topological order (earlier operations may
    /// feed later ones through the ALU-internal data-path).
    pub ops: Vec<OpId>,
}

impl Cluster {
    /// Number of operations in the cluster.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the cluster is empty (never the case for returned
    /// clusterings).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Summary of one cluster against the ALU capability.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ClusterShape {
    /// Number of operations.
    pub ops: usize,
    /// Longest dependent chain inside the cluster.
    pub depth: usize,
    /// Number of multiplications.
    pub multiplies: usize,
    /// Number of distinct non-constant external input values.
    pub inputs: usize,
    /// Number of results visible outside the cluster.
    pub outputs: usize,
}

/// The result of the clustering phase: clusters plus their dependence edges.
#[derive(Clone, PartialEq, Debug)]
pub struct ClusteredGraph {
    clusters: Vec<Cluster>,
    /// `deps[i]` = clusters that must complete before cluster `i` starts.
    deps: Vec<Vec<ClusterId>>,
    /// `succs[i]` = clusters that depend on cluster `i` (cached transpose of
    /// `deps` so that successor queries stay O(out-degree)).
    succs: Vec<Vec<ClusterId>>,
    /// `owner[op]` = cluster that executes operation `op`.
    owner: Vec<ClusterId>,
}

impl ClusteredGraph {
    /// Rebuilds a clustered graph from its serialized parts (the binary
    /// codec's decode path).  `deps` and `succs` are stored verbatim so edge
    /// ordering survives the roundtrip; the op→cluster owner map is derived
    /// from the cluster contents.
    pub(crate) fn from_parts(
        clusters: Vec<Cluster>,
        deps: Vec<Vec<ClusterId>>,
        succs: Vec<Vec<ClusterId>>,
    ) -> Self {
        let op_count = clusters
            .iter()
            .flat_map(|cluster| &cluster.ops)
            .map(|op| op.index() + 1)
            .max()
            .unwrap_or(0);
        let mut owner = vec![ClusterId(u32::MAX); op_count];
        for (i, cluster) in clusters.iter().enumerate() {
            for op in &cluster.ops {
                owner[op.index()] = ClusterId(i as u32);
            }
        }
        ClusteredGraph {
            clusters,
            deps,
            succs,
            owner,
        }
    }

    /// Dependence edges of every cluster, indexed by cluster id (the binary
    /// codec's encode path).
    pub(crate) fn deps(&self) -> &[Vec<ClusterId>] {
        &self.deps
    }

    /// Successor edges of every cluster, indexed by cluster id.
    pub(crate) fn succs(&self) -> &[Vec<ClusterId>] {
        &self.succs
    }

    /// Builds a synthetic cluster graph from explicit dependence edges.
    ///
    /// Cluster `i` (for `i < count`) contains the placeholder operation
    /// `OpId(i)`; each `(from, to)` pair makes cluster `to` depend on cluster
    /// `from`. This constructor exists for scheduling experiments on abstract
    /// task graphs (the Fig. 4 example, the linear-complexity sweep) and for
    /// property-based scheduler tests; such graphs cannot be allocated
    /// because their operations do not belong to a real [`MappingGraph`].
    ///
    /// # Panics
    /// Panics when an edge references a cluster `>= count`.
    pub fn from_dependencies(count: usize, edges: &[(usize, usize)]) -> Self {
        let clusters: Vec<Cluster> = (0..count)
            .map(|i| Cluster {
                ops: vec![OpId(i as u32)],
            })
            .collect();
        let mut deps: Vec<Vec<ClusterId>> = vec![Vec::new(); count];
        let mut succs: Vec<Vec<ClusterId>> = vec![Vec::new(); count];
        for &(from, to) in edges {
            assert!(
                from < count && to < count,
                "edge ({from},{to}) out of range"
            );
            let from_id = ClusterId(from as u32);
            if !deps[to].contains(&from_id) {
                deps[to].push(from_id);
                succs[from].push(ClusterId(to as u32));
            }
        }
        let owner = (0..count).map(|i| ClusterId(i as u32)).collect();
        ClusteredGraph {
            clusters,
            deps,
            succs,
            owner,
        }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` when there are no clusters (empty kernels).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// All cluster ids.
    pub fn ids(&self) -> impl Iterator<Item = ClusterId> + '_ {
        (0..self.clusters.len()).map(|i| ClusterId(i as u32))
    }

    /// The cluster with the given id.
    ///
    /// # Panics
    /// Panics when the id does not belong to this clustering.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// Clusters that must complete before `id` can start.
    pub fn predecessors(&self, id: ClusterId) -> &[ClusterId] {
        &self.deps[id.index()]
    }

    /// Clusters that depend on `id`.
    pub fn successors(&self, id: ClusterId) -> &[ClusterId] {
        &self.succs[id.index()]
    }

    /// The cluster executing a given operation.
    ///
    /// # Panics
    /// Panics when the operation belongs to no cluster.
    pub fn owner_of(&self, op: OpId) -> ClusterId {
        self.owner[op.index()]
    }

    /// Critical-path length of the cluster graph, in clusters (= minimum
    /// schedule length with unbounded ALUs).
    pub fn critical_path(&self) -> usize {
        let mut depth: HashMap<ClusterId, usize> = HashMap::new();
        let order = self.topo_order();
        let mut max = 0;
        for id in order {
            let d = self.deps[id.index()]
                .iter()
                .map(|p| depth.get(p).copied().unwrap_or(0))
                .max()
                .unwrap_or(0)
                + 1;
            depth.insert(id, d);
            max = max.max(d);
        }
        max
    }

    /// Total number of values that cross cluster boundaries (inter-ALU
    /// traffic), counted once per (producer cluster, consumer cluster, value).
    pub fn inter_cluster_values(&self, graph: &MappingGraph) -> usize {
        let mut crossings: HashSet<(ClusterId, ClusterId, OpId)> = HashSet::new();
        for id in graph.op_ids() {
            let consumer_cluster = self.owner_of(id);
            for input in graph.op(id).inputs {
                if let ValueRef::Op(producer) = input {
                    let producer_cluster = self.owner_of(*producer);
                    if producer_cluster != consumer_cluster {
                        crossings.insert((producer_cluster, consumer_cluster, *producer));
                    }
                }
            }
        }
        crossings.len()
    }

    /// Clusters in a topological order of their dependences.
    pub fn topo_order(&self) -> Vec<ClusterId> {
        let n = self.clusters.len();
        let mut in_deg: Vec<usize> = (0..n).map(|i| self.deps[i].len()).collect();
        let mut ready: Vec<ClusterId> = (0..n)
            .filter(|i| in_deg[*i] == 0)
            .map(|i| ClusterId(i as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = ready.pop() {
            order.push(id);
            for &succ in self.successors(id) {
                in_deg[succ.index()] -= 1;
                if in_deg[succ.index()] == 0 {
                    ready.push(succ);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "cluster graph must be acyclic");
        order
    }

    /// Computes the shape of a cluster for capability checking.
    pub fn shape(&self, graph: &MappingGraph, id: ClusterId) -> ClusterShape {
        shape_of(graph, &self.clusters[id.index()].ops)
    }
}

/// Computes the shape of an arbitrary set of operations.
fn shape_of(graph: &MappingGraph, ops: &[OpId]) -> ClusterShape {
    let members: HashSet<OpId> = ops.iter().copied().collect();
    let mut inputs: HashSet<ValueRef> = HashSet::new();
    let mut outputs: HashSet<OpId> = HashSet::new();
    let mut multiplies = 0;
    // Depth: longest chain of member ops.
    let mut depth: HashMap<OpId, usize> = HashMap::new();
    let mut max_depth = 0;
    // Ops are created in topological order, so iterating sorted ids is a
    // valid dependence order.
    let mut sorted: Vec<OpId> = ops.to_vec();
    sorted.sort();
    for &id in &sorted {
        let op = graph.op(id);
        if op.kind.is_multiply() {
            multiplies += 1;
        }
        let mut local_depth = 1;
        for input in op.inputs {
            match input {
                ValueRef::Op(p) if members.contains(p) => {
                    local_depth = local_depth.max(depth.get(p).copied().unwrap_or(1) + 1);
                }
                ValueRef::Const(_) => {}
                other => {
                    inputs.insert(*other);
                }
            }
            if let ValueRef::Op(p) = input {
                if !members.contains(p) {
                    inputs.insert(*input);
                    let _ = p;
                }
            }
        }
        depth.insert(id, local_depth);
        max_depth = max_depth.max(local_depth);
        // An op is an output when it is used outside the cluster or
        // externally observable.
        let used_outside = graph.consumers(id).iter().any(|c| !members.contains(c))
            || graph.is_externally_used(id);
        if used_outside {
            outputs.insert(id);
        }
    }
    ClusterShape {
        ops: ops.len(),
        depth: max_depth,
        multiplies,
        inputs: inputs.len(),
        outputs: outputs.len(),
    }
}

fn fits(capability: &AluCapability, shape: &ClusterShape) -> bool {
    capability
        .check(
            shape.inputs,
            shape.depth,
            shape.ops,
            shape.multiplies,
            shape.outputs.max(1),
            0,
        )
        .is_none()
}

/// The clustering engine.
#[derive(Clone, Copy, Debug)]
pub struct Clusterer {
    capability: AluCapability,
    /// When `false`, clustering is disabled and every operation becomes its
    /// own cluster (the A1 ablation baseline).
    enabled: bool,
}

impl Clusterer {
    /// Creates a clusterer for the given ALU capability.
    pub fn new(capability: AluCapability) -> Self {
        Clusterer {
            capability,
            enabled: true,
        }
    }

    /// Creates a clusterer that performs no merging (one operation per
    /// cluster).
    pub fn disabled(capability: AluCapability) -> Self {
        Clusterer {
            capability,
            enabled: false,
        }
    }

    /// Clusters a mapping graph.
    ///
    /// # Errors
    /// [`MapError::UnmappableOperation`] when a single operation already
    /// violates the ALU capability (for example more operands than ALU
    /// inputs).
    pub fn cluster(&self, graph: &MappingGraph) -> Result<ClusteredGraph, MapError> {
        // Start with one cluster per op.
        let mut membership: Vec<usize> = (0..graph.op_count()).collect();
        for id in graph.op_ids() {
            let shape = shape_of(graph, &[id]);
            if !fits(&self.capability, &shape) {
                return Err(MapError::UnmappableOperation {
                    node: fpfa_cdfg::NodeId::from_index(id.index()),
                    reason: format!(
                        "operation `{}` alone violates the ALU capability ({:?})",
                        graph.op(id).kind.mnemonic(),
                        shape
                    ),
                });
            }
        }

        if self.enabled {
            self.merge_pass(graph, &mut membership);
        }
        Ok(build_clustered(graph, &membership))
    }

    /// Sarkar-style edge zeroing: walk dataflow edges (critical ones first)
    /// and merge endpoint clusters when legal and profitable.
    ///
    /// The merge loop keeps the cluster graph *incrementally*: per-cluster
    /// member lists, dense label-level dependence lists and reusable scratch
    /// buffers, so evaluating a candidate costs one dense longest-path pass
    /// instead of rebuilding the whole clustering (which made the cold path
    /// quadratic in the kernel size).  The decisions — data-path fit,
    /// acyclicity, critical path — are computed over exactly the same
    /// contracted graph a full rebuild would produce, so the resulting
    /// membership is identical.
    fn merge_pass(&self, graph: &MappingGraph, membership: &mut [usize]) {
        if graph.op_count() == 0 {
            return;
        }
        // Collect producer→consumer edges.
        let mut edges: Vec<(OpId, OpId)> = Vec::new();
        for id in graph.op_ids() {
            for p in graph.producers(id) {
                edges.push((p, id));
            }
        }
        // Longest-path level per op: edges whose endpoints span the largest
        // combined path length are the most critical — zero them first.
        let levels = op_levels(graph);
        let heights = op_heights(graph);
        edges.sort_by_key(|(p, c)| {
            let criticality = levels[p.index()] + heights[c.index()];
            std::cmp::Reverse(criticality)
        });

        let mut state = MergeState::new(graph, membership);
        let mut scratch = EvalScratch::new(graph.op_count());
        let mut best_cp = state
            .contracted_critical_path(&mut scratch, None)
            .expect("the initial per-op cluster graph is acyclic");

        for (producer, consumer) in edges {
            let a = state.membership[producer.index()];
            let b = state.membership[consumer.index()];
            if a == b {
                continue;
            }
            if let Some(cp) = self.evaluate(&state, &mut scratch, a, b, best_cp) {
                state.commit(a, b);
                best_cp = cp;
            }
        }
        membership.copy_from_slice(&state.membership);
    }

    /// One candidate decision — data-path fit, then legality (no cycle) and
    /// profitability (Sarkar: do not lengthen the critical path) in one
    /// contracted longest-path pass.  Returns the merged critical path when
    /// the candidate is acceptable.
    fn evaluate(
        &self,
        state: &MergeState<'_>,
        scratch: &mut EvalScratch,
        a: usize,
        b: usize,
        best_cp: usize,
    ) -> Option<usize> {
        if !fits(&self.capability, &state.union_shape(scratch, a, b)) {
            return None;
        }
        let cp = state.contracted_critical_path(scratch, Some((a, b)))?;
        (cp <= best_cp).then_some(cp)
    }
}

/// Incremental state of [`Clusterer::merge_pass`]: the cluster graph keyed by
/// membership *labels* (not yet compacted to dense [`ClusterId`]s) plus the
/// scratch buffers reused across candidate evaluations.
struct MergeState<'g> {
    graph: &'g MappingGraph,
    membership: Vec<usize>,
    /// Member ops per label, in id (= topological) order.
    members: Vec<Vec<OpId>>,
    /// Distinct dependence labels per label (cluster-level in-edges).
    deps: Vec<Vec<usize>>,
    /// Distinct dependent labels per label (cluster-level out-edges).
    succs: Vec<Vec<usize>>,
    live: Vec<bool>,
    live_count: usize,
    /// `is_externally_used` per op, precomputed.
    ext_used: Vec<bool>,
}

/// Reusable scratch for candidate evaluation, split out of [`MergeState`] so
/// a candidate is scored against the state through a shared borrow while the
/// scratch buffers are mutated.
struct EvalScratch {
    // Label-indexed unless noted.
    mark: Vec<u64>,
    epoch: u64,
    in_deg: Vec<u32>,
    depth: Vec<u32>,
    ready: Vec<usize>,
    /// Op-indexed chain depth used by [`MergeState::union_shape`].
    op_depth: Vec<u32>,
    ext_inputs: Vec<ValueRef>,
}

impl EvalScratch {
    fn new(n: usize) -> Self {
        EvalScratch {
            mark: vec![0; n],
            epoch: 0,
            in_deg: vec![0; n],
            depth: vec![0; n],
            ready: Vec::new(),
            op_depth: vec![0; n],
            ext_inputs: Vec::new(),
        }
    }
}

impl<'g> MergeState<'g> {
    fn new(graph: &'g MappingGraph, membership: &[usize]) -> Self {
        let n = graph.op_count();
        let mut members: Vec<Vec<OpId>> = vec![Vec::new(); n];
        for id in graph.op_ids() {
            members[membership[id.index()]].push(id);
        }
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for id in graph.op_ids() {
            let consumer = membership[id.index()];
            for p in graph.producers(id) {
                let producer = membership[p.index()];
                if producer != consumer && !deps[consumer].contains(&producer) {
                    deps[consumer].push(producer);
                    succs[producer].push(consumer);
                }
            }
        }
        let live: Vec<bool> = members.iter().map(|m| !m.is_empty()).collect();
        let live_count = live.iter().filter(|l| **l).count();
        let ext_used = (0..n)
            .map(|i| graph.is_externally_used(OpId(i as u32)))
            .collect();
        MergeState {
            graph,
            membership: membership.to_vec(),
            members,
            deps,
            succs,
            live,
            live_count,
            ext_used,
        }
    }

    /// The shape the merged cluster `a ∪ b` would have (same counts as
    /// [`shape_of`] over the union of the two member lists).
    fn union_shape(&self, scratch: &mut EvalScratch, a: usize, b: usize) -> ClusterShape {
        let mut inputs = std::mem::take(&mut scratch.ext_inputs);
        inputs.clear();
        let mut outputs = 0usize;
        let mut multiplies = 0usize;
        let mut max_depth = 0u32;
        // Merge the two id-sorted member lists on the fly: ids are created in
        // topological order, so producers are visited before consumers.
        let (mut ia, mut ib) = (0, 0);
        let (la, lb) = (&self.members[a], &self.members[b]);
        while ia < la.len() || ib < lb.len() {
            let id = if ib >= lb.len() || (ia < la.len() && la[ia] < lb[ib]) {
                ia += 1;
                la[ia - 1]
            } else {
                ib += 1;
                lb[ib - 1]
            };
            let op = self.graph.op(id);
            if op.kind.is_multiply() {
                multiplies += 1;
            }
            let mut local_depth = 1u32;
            for input in op.inputs {
                match input {
                    ValueRef::Op(p)
                        if self.membership[p.index()] == a || self.membership[p.index()] == b =>
                    {
                        local_depth = local_depth.max(scratch.op_depth[p.index()].max(1) + 1);
                    }
                    ValueRef::Const(_) => {}
                    other => {
                        if !inputs.contains(other) {
                            inputs.push(*other);
                        }
                    }
                }
            }
            scratch.op_depth[id.index()] = local_depth;
            max_depth = max_depth.max(local_depth);
            let used_outside =
                self.ext_used[id.index()]
                    || self.graph.consumers(id).iter().any(|c| {
                        self.membership[c.index()] != a && self.membership[c.index()] != b
                    });
            if used_outside {
                outputs += 1;
            }
        }
        for id in la.iter().chain(lb.iter()) {
            scratch.op_depth[id.index()] = 0;
        }
        let shape = ClusterShape {
            ops: la.len() + lb.len(),
            depth: max_depth as usize,
            multiplies,
            inputs: inputs.len(),
            outputs,
        };
        scratch.ext_inputs = inputs;
        shape
    }

    /// Critical path (in clusters) of the label graph with `merge` contracted
    /// into its first label, or `None` when the contraction creates a cycle.
    fn contracted_critical_path(
        &self,
        scratch: &mut EvalScratch,
        merge: Option<(usize, usize)>,
    ) -> Option<usize> {
        let (a, b) = merge.unwrap_or((usize::MAX, usize::MAX));
        let sub = |label: usize| if label == b { a } else { label };
        let node_count = if merge.is_some() {
            self.live_count - 1
        } else {
            self.live_count
        };

        scratch.ready.clear();
        for label in 0..self.members.len() {
            if !self.live[label] || label == b {
                continue;
            }
            scratch.epoch += 1;
            let mut distinct = 0u32;
            let extra = if label == a { &self.deps[b][..] } else { &[] };
            for &d in self.deps[label].iter().chain(extra) {
                let d = sub(d);
                if d == label || scratch.mark[d] == scratch.epoch {
                    continue;
                }
                scratch.mark[d] = scratch.epoch;
                distinct += 1;
            }
            scratch.in_deg[label] = distinct;
            scratch.depth[label] = 1;
            if distinct == 0 {
                scratch.ready.push(label);
            }
        }

        let mut visited = 0usize;
        let mut max_depth = 0u32;
        while let Some(label) = scratch.ready.pop() {
            visited += 1;
            max_depth = max_depth.max(scratch.depth[label]);
            scratch.epoch += 1;
            let extra = if label == a { &self.succs[b][..] } else { &[] };
            for &s in self.succs[label].iter().chain(extra) {
                let s = sub(s);
                if s == label || scratch.mark[s] == scratch.epoch {
                    continue;
                }
                scratch.mark[s] = scratch.epoch;
                scratch.depth[s] = scratch.depth[s].max(scratch.depth[label] + 1);
                scratch.in_deg[s] -= 1;
                if scratch.in_deg[s] == 0 {
                    scratch.ready.push(s);
                }
            }
        }
        (visited == node_count).then_some(max_depth as usize)
    }

    /// Merges label `b` into label `a` and patches the affected dependence
    /// lists in place.
    fn commit(&mut self, a: usize, b: usize) {
        let absorbed = std::mem::take(&mut self.members[b]);
        for &op in &absorbed {
            self.membership[op.index()] = a;
        }
        let mut merged = Vec::with_capacity(self.members[a].len() + absorbed.len());
        {
            let la = &self.members[a];
            let (mut ia, mut ib) = (0, 0);
            while ia < la.len() || ib < absorbed.len() {
                if ib >= absorbed.len() || (ia < la.len() && la[ia] < absorbed[ib]) {
                    merged.push(la[ia]);
                    ia += 1;
                } else {
                    merged.push(absorbed[ib]);
                    ib += 1;
                }
            }
        }
        self.members[a] = merged;

        // Neighbours of either endpoint must re-point their lists at `a`.
        let mut affected: Vec<usize> = self.deps[a]
            .iter()
            .chain(&self.succs[a])
            .chain(&self.deps[b])
            .chain(&self.succs[b])
            .copied()
            .filter(|x| *x != a && *x != b)
            .collect();
        affected.sort_unstable();
        affected.dedup();
        for x in affected {
            remap_labels(&mut self.deps[x], b, a);
            remap_labels(&mut self.succs[x], b, a);
        }
        let deps_b = std::mem::take(&mut self.deps[b]);
        let succs_b = std::mem::take(&mut self.succs[b]);
        self.deps[a].extend(deps_b);
        remap_labels(&mut self.deps[a], b, a);
        self.deps[a].retain(|x| *x != a);
        self.deps[a].sort_unstable();
        self.deps[a].dedup();
        self.succs[a].extend(succs_b);
        remap_labels(&mut self.succs[a], b, a);
        self.succs[a].retain(|x| *x != a);
        self.succs[a].sort_unstable();
        self.succs[a].dedup();

        self.live[b] = false;
        self.live_count -= 1;
    }
}

/// Rewrites occurrences of label `from` to `to` and restores distinctness.
fn remap_labels(labels: &mut Vec<usize>, from: usize, to: usize) {
    let mut changed = false;
    for label in labels.iter_mut() {
        if *label == from {
            *label = to;
            changed = true;
        }
    }
    if changed {
        let mut seen_to = false;
        labels.retain(|label| {
            if *label == to {
                let first = !seen_to;
                seen_to = true;
                first
            } else {
                true
            }
        });
    }
}

impl Default for Clusterer {
    fn default() -> Self {
        Clusterer::new(AluCapability::paper())
    }
}

/// Longest-path level per op (dense, indexed by [`OpId::index`]).
fn op_levels(graph: &MappingGraph) -> Vec<usize> {
    let mut levels = vec![0usize; graph.op_count()];
    for id in graph.op_ids() {
        let level = graph
            .producers(id)
            .iter()
            .map(|p| levels[p.index()] + 1)
            .max()
            .unwrap_or(0);
        levels[id.index()] = level;
    }
    levels
}

/// Longest-path height per op (dense, indexed by [`OpId::index`]).
fn op_heights(graph: &MappingGraph) -> Vec<usize> {
    let mut heights = vec![0usize; graph.op_count()];
    for index in (0..graph.op_count()).rev() {
        let id = OpId(index as u32);
        let height = graph
            .consumers(id)
            .iter()
            .map(|c| heights[c.index()] + 1)
            .max()
            .unwrap_or(0);
        heights[index] = height;
    }
    heights
}

fn build_clustered(graph: &MappingGraph, membership: &[usize]) -> ClusteredGraph {
    // Compact the membership labels into dense cluster ids.
    let mut label_to_id: HashMap<usize, ClusterId> = HashMap::new();
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut owner: Vec<ClusterId> = Vec::with_capacity(graph.op_count());
    for id in graph.op_ids() {
        let label = membership[id.index()];
        let cluster_id = *label_to_id.entry(label).or_insert_with(|| {
            clusters.push(Cluster { ops: Vec::new() });
            ClusterId((clusters.len() - 1) as u32)
        });
        clusters[cluster_id.index()].ops.push(id);
        owner.push(cluster_id);
    }
    // Dependence edges between clusters.
    let mut deps: Vec<Vec<ClusterId>> = vec![Vec::new(); clusters.len()];
    let mut succs: Vec<Vec<ClusterId>> = vec![Vec::new(); clusters.len()];
    for id in graph.op_ids() {
        let consumer = owner[id.index()];
        for p in graph.producers(id) {
            let producer = owner[p.index()];
            if producer != consumer && !deps[consumer.index()].contains(&producer) {
                deps[consumer.index()].push(producer);
                succs[producer.index()].push(consumer);
            }
        }
    }
    ClusteredGraph {
        clusters,
        deps,
        succs,
        owner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpfa_transform::WorklistDriver;

    fn fir_mapping_graph(taps: usize) -> MappingGraph {
        let src = format!(
            r#"
            void main() {{
                int a[{taps}];
                int c[{taps}];
                int sum;
                int i;
                sum = 0; i = 0;
                while (i < {taps}) {{ sum = sum + a[i] * c[i]; i = i + 1; }}
            }}
            "#
        );
        let program = fpfa_frontend::compile(&src).unwrap();
        let mut g = program.cdfg;
        WorklistDriver::new().run_standard(&mut g).unwrap();
        MappingGraph::from_cdfg(&g).unwrap()
    }

    #[test]
    fn every_op_is_assigned_exactly_once() {
        let m = fir_mapping_graph(6);
        let clustered = Clusterer::default().cluster(&m).unwrap();
        let mut seen = HashSet::new();
        for id in clustered.ids() {
            for op in &clustered.cluster(id).ops {
                assert!(seen.insert(*op), "operation {op} appears twice");
                assert_eq!(clustered.owner_of(*op), id);
            }
        }
        assert_eq!(seen.len(), m.op_count());
    }

    #[test]
    fn clustering_respects_the_alu_capability() {
        let m = fir_mapping_graph(8);
        let capability = AluCapability::paper();
        let clustered = Clusterer::new(capability).cluster(&m).unwrap();
        for id in clustered.ids() {
            let shape = clustered.shape(&m, id);
            assert!(
                fits(&capability, &shape),
                "cluster {id} violates the capability: {shape:?}"
            );
        }
    }

    #[test]
    fn clustering_reduces_cluster_count() {
        let m = fir_mapping_graph(8);
        let clustered = Clusterer::default().cluster(&m).unwrap();
        let unclustered = Clusterer::disabled(AluCapability::paper())
            .cluster(&m)
            .unwrap();
        assert_eq!(unclustered.len(), m.op_count());
        assert!(clustered.len() < unclustered.len());
    }

    #[test]
    fn clustering_never_lengthens_the_critical_path() {
        for taps in [2usize, 4, 8, 12] {
            let m = fir_mapping_graph(taps);
            let clustered = Clusterer::default().cluster(&m).unwrap();
            let unclustered = Clusterer::disabled(AluCapability::paper())
                .cluster(&m)
                .unwrap();
            assert!(clustered.critical_path() <= unclustered.critical_path());
        }
    }

    #[test]
    fn clustering_reduces_inter_alu_traffic() {
        let m = fir_mapping_graph(8);
        let clustered = Clusterer::default().cluster(&m).unwrap();
        let unclustered = Clusterer::disabled(AluCapability::paper())
            .cluster(&m)
            .unwrap();
        assert!(clustered.inter_cluster_values(&m) <= unclustered.inter_cluster_values(&m));
    }

    #[test]
    fn cluster_graph_is_acyclic_and_topo_orderable() {
        let m = fir_mapping_graph(10);
        let clustered = Clusterer::default().cluster(&m).unwrap();
        let order = clustered.topo_order();
        assert_eq!(order.len(), clustered.len());
        // Predecessors come before successors.
        let pos: HashMap<ClusterId, usize> =
            order.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        for id in clustered.ids() {
            for pred in clustered.predecessors(id) {
                assert!(pos[pred] < pos[&id]);
            }
        }
    }

    #[test]
    fn empty_graphs_produce_empty_clusterings() {
        let m = MappingGraph::default();
        let clustered = Clusterer::default().cluster(&m).unwrap();
        assert!(clustered.is_empty());
        assert_eq!(clustered.critical_path(), 0);
    }

    #[test]
    fn mac_pattern_packs_into_one_cluster() {
        // r = a*b + c is the canonical FPFA data-path group.
        use fpfa_cdfg::CdfgBuilder;
        let mut b = CdfgBuilder::new("mac");
        let a = b.input("a");
        let x = b.input("b");
        let c = b.input("c");
        let mul = b.mul(a, x);
        let add = b.add(mul, c);
        b.output("r", add);
        let g = b.finish().unwrap();
        let m = MappingGraph::from_cdfg(&g).unwrap();
        let clustered = Clusterer::default().cluster(&m).unwrap();
        assert_eq!(clustered.len(), 1);
        assert_eq!(clustered.cluster(ClusterId(0)).len(), 2);
    }
}
