//! The worklist-driven incremental rewrite engine.
//!
//! [`WorklistDriver`] replaces the scan-until-fixpoint loop of
//! [`Pipeline`](crate::Pipeline) with dirty-set propagation: every pass
//! starts from a seed worklist (its candidate nodes in the initial graph),
//! and afterwards only re-examines nodes that a rewrite actually touched.
//! The graph's [`ChangeJournal`](fpfa_cdfg::ChangeJournal) supplies the
//! dirty sets: after every [`LocalRewrite::visit`] the driver drains the
//! journal and routes each touched node to the pending worklist of every
//! pass that [`wants`](LocalRewrite::wants) it.
//!
//! Scheduling mirrors the legacy engine closely enough that both minimise a
//! graph to the same canonical form with the same per-pass change totals:
//!
//! * passes run in the same order within a round;
//! * within a pass sweep, nodes are visited in ascending id order; a node
//!   dirtied mid-sweep re-enters the *current* sweep only if it lies ahead
//!   of the sweep position and already existed when the sweep started
//!   (exactly the nodes a legacy snapshot sweep would still reach) —
//!   everything else waits for the next round;
//! * a pass that saw no dirty nodes is skipped entirely, which is where the
//!   asymptotic win over the full-scan pipeline comes from: quiescent
//!   regions of the graph are never rescanned.
//!
//! The driver records per-round instrumentation ([`RoundStats`]): how many
//! nodes were visited versus how many the graph holds, making the engine's
//! output-sensitivity observable in `--timings` output and work counts.

use crate::error::TransformError;
use crate::pass::TransformReport;
use crate::rewrite::LocalRewrite;
use crate::{algebraic, const_fold, copy_prop, cse, dce, dead_store, forward, strength, unroll};
use fpfa_cdfg::{Cdfg, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Visited-versus-size instrumentation of one driver round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RoundStats {
    /// 1-based round number.
    pub round: usize,
    /// Nodes examined by all passes this round.
    pub visited: usize,
    /// Live nodes in the graph when the round started.
    pub graph_nodes: usize,
    /// Graph changes made this round.
    pub changes: usize,
}

/// Everything a [`WorklistDriver::run`] left behind.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WorklistOutcome {
    /// Per-pass change counts, comparable with the legacy
    /// [`Pipeline`](crate::Pipeline) report.
    pub report: TransformReport,
    /// Per-round visited/size instrumentation.
    pub round_stats: Vec<RoundStats>,
}

impl WorklistOutcome {
    /// Total nodes examined across all rounds and passes.
    pub fn visited_total(&self) -> usize {
        self.round_stats.iter().map(|r| r.visited).sum()
    }
}

/// The default pass list of the incremental engine: the same nine rewrites
/// as [`standard_passes`](crate::standard_passes), in the same order, as
/// [`LocalRewrite`]s (CSE appears as the stateful
/// [`IncrementalCse`](crate::cse::IncrementalCse)).
pub fn standard_local_rewrites() -> Vec<Box<dyn LocalRewrite + Send + Sync>> {
    vec![
        Box::new(unroll::UnrollLoops::default()),
        Box::new(const_fold::ConstantFold),
        Box::new(algebraic::AlgebraicSimplify),
        Box::new(strength::StrengthReduce),
        Box::new(forward::ForwardStores),
        Box::new(cse::IncrementalCse::default()),
        Box::new(dead_store::DeadStoreElimination),
        Box::new(copy_prop::CopyPropagation),
        Box::new(dce::DeadCodeElimination),
    ]
}

/// Ascending sweep over a pass's pending nodes.
///
/// The bulk of the queue is a sorted, deduplicated snapshot (one cheap
/// `sort_unstable` instead of thousands of ordered-set insertions); the rare
/// mid-sweep insertions (a node dirtied while the sweep is still below it)
/// go into a small min-heap merged on the fly.
struct SweepQueue {
    snapshot: Vec<NodeId>,
    cursor: usize,
    inserted: BinaryHeap<Reverse<NodeId>>,
    last: Option<NodeId>,
}

impl SweepQueue {
    fn new(mut pending: Vec<NodeId>) -> Self {
        pending.sort_unstable();
        pending.dedup();
        SweepQueue {
            snapshot: pending,
            cursor: 0,
            inserted: BinaryHeap::new(),
            last: None,
        }
    }

    fn push(&mut self, id: NodeId) {
        // Ignore ids at or below the sweep position; the driver re-queues
        // those for the next round instead.
        if self.last.is_some_and(|last| id <= last) {
            return;
        }
        self.inserted.push(Reverse(id));
    }

    fn pop_first(&mut self) -> Option<NodeId> {
        loop {
            let from_snapshot = self.snapshot.get(self.cursor).copied();
            let from_heap = self.inserted.peek().map(|Reverse(id)| *id);
            let next = match (from_snapshot, from_heap) {
                (Some(a), Some(b)) => {
                    if a <= b {
                        self.cursor += 1;
                        a
                    } else {
                        self.inserted.pop();
                        b
                    }
                }
                (Some(a), None) => {
                    self.cursor += 1;
                    a
                }
                (None, Some(b)) => {
                    self.inserted.pop();
                    b
                }
                (None, None) => return None,
            };
            // Skip duplicates (a node both in the snapshot and inserted).
            if self.last == Some(next) {
                continue;
            }
            self.last = Some(next);
            return Some(next);
        }
    }
}

/// Runs [`LocalRewrite`] passes to a fixpoint over propagated dirty sets.
#[derive(Clone, Copy, Debug)]
pub struct WorklistDriver {
    max_rounds: usize,
}

impl WorklistDriver {
    /// A driver with the default round budget (64, matching
    /// [`Pipeline`](crate::Pipeline)).
    pub fn new() -> Self {
        WorklistDriver { max_rounds: 64 }
    }

    /// Overrides the round budget.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Minimises `graph` with the standard pass recipe
    /// ([`standard_local_rewrites`]).
    ///
    /// # Errors
    /// Propagates pass errors; see [`WorklistDriver::run`].
    pub fn run_standard(&self, graph: &mut Cdfg) -> Result<WorklistOutcome, TransformError> {
        let mut passes = standard_local_rewrites();
        self.run(&mut passes, graph)
    }

    /// Runs `passes` over `graph` until every pending worklist drains.
    ///
    /// The driver installs (and on return removes) a change journal on the
    /// graph; any journal the caller had installed is replaced.
    ///
    /// # Errors
    /// Propagates pass errors and reports
    /// [`TransformError::PipelineDiverged`] when the round budget is
    /// exhausted before quiescence.
    pub fn run<P: LocalRewrite>(
        &self,
        passes: &mut [P],
        graph: &mut Cdfg,
    ) -> Result<WorklistOutcome, TransformError> {
        for pass in passes.iter_mut() {
            pass.reset();
        }
        graph.enable_journal();
        let result = self.run_inner(passes, graph);
        graph.disable_journal();
        result
    }

    fn run_inner<P: LocalRewrite>(
        &self,
        passes: &mut [P],
        graph: &mut Cdfg,
    ) -> Result<WorklistOutcome, TransformError> {
        // Pending dirty nodes per pass, seeded through each pass's own
        // `seed` (so passes may override their initial candidate set).
        // Afterwards the lists are cheap unordered push-lists (duplicates
        // allowed); each sweep folds its list into an ordered queue when it
        // starts.  Routing is two orders of magnitude more frequent than
        // sweep starts, so pushes must be O(1).
        let mut pending: Vec<Vec<NodeId>> = passes
            .iter()
            .map(|pass| pass.seed(graph).into_vec())
            .collect();

        let mut outcome = WorklistOutcome::default();
        let mut rounds = 0usize;
        // Reusable scratch buffers (allocation-free steady state).
        let mut dirty: Vec<NodeId> = Vec::new();
        let mut targets: Vec<NodeId> = Vec::new();
        let mut sweep_dirty: Vec<NodeId> = Vec::new();
        while pending.iter().any(|wl| !wl.is_empty()) {
            if rounds == self.max_rounds {
                return Err(TransformError::PipelineDiverged {
                    rounds: self.max_rounds,
                });
            }
            rounds += 1;
            let graph_nodes = graph.node_count();
            let mut visited = 0usize;
            let mut changes_this_round = 0usize;

            for pi in 0..passes.len() {
                if pending[pi].is_empty() {
                    continue;
                }
                let mut sweep = SweepQueue::new(std::mem::take(&mut pending[pi]));
                // Nodes created during this sweep have ids at or above this
                // watermark (node ids are never reused): a legacy snapshot
                // sweep would not reach them, so they wait for the next
                // round.
                let born_watermark = graph.node_bound();
                let mut pass_changes = 0usize;
                sweep_dirty.clear();
                while let Some(id) = sweep.pop_first() {
                    if !graph.contains_node(id) {
                        continue;
                    }
                    visited += 1;
                    pass_changes += passes[pi].visit(graph, id)?;
                    // The journal holds each node the visit touched once.
                    // Only the *current* pass is routed per visit (its sweep
                    // may need to revisit a node this round); every other
                    // pass is routed once at sweep end, deduplicated across
                    // the whole sweep.  Routing order does not matter: the
                    // sweep queue is a heap, and a pending list is sorted
                    // when its sweep starts.
                    dirty.clear();
                    graph.drain_touched_into(&mut dirty);
                    sweep_dirty.extend_from_slice(&dirty);
                    for &node in dirty.iter() {
                        let Ok(kind) = graph.kind(node) else {
                            continue;
                        };
                        if !passes[pi].cares_about(kind) {
                            continue;
                        }
                        targets.clear();
                        passes[pi].reseeds(graph, node, &mut targets);
                        for &target in targets.iter() {
                            if !graph.contains_node(target) {
                                continue;
                            }
                            if target > id && target.index() < born_watermark {
                                // Still ahead of the current snapshot sweep:
                                // a legacy sweep would reach it this round.
                                sweep.push(target);
                            } else {
                                pending[pi].push(target);
                            }
                        }
                    }
                }
                // Route the sweep's dirty set to every other pass.
                sweep_dirty.sort_unstable();
                sweep_dirty.dedup();
                for &node in sweep_dirty.iter() {
                    let Ok(kind) = graph.kind(node) else {
                        continue;
                    };
                    for (qi, pass) in passes.iter().enumerate() {
                        if qi == pi || !pass.cares_about(kind) {
                            continue;
                        }
                        targets.clear();
                        pass.reseeds(graph, node, &mut targets);
                        for &target in targets.iter() {
                            if graph.contains_node(target) {
                                pending[qi].push(target);
                            }
                        }
                    }
                }
                if pass_changes > 0 {
                    outcome
                        .report
                        .record(LocalRewrite::name(&passes[pi]), pass_changes);
                }
                changes_this_round += pass_changes;
            }

            outcome.round_stats.push(RoundStats {
                round: rounds,
                visited,
                graph_nodes,
                changes: changes_this_round,
            });
        }
        outcome.report.rounds = rounds;
        Ok(outcome)
    }
}

impl Default for WorklistDriver {
    fn default() -> Self {
        WorklistDriver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::Pipeline;
    use fpfa_cdfg::{canonical_signature, CdfgBuilder, GraphStats, NodeId};

    fn example() -> Cdfg {
        let mut b = CdfgBuilder::new("t");
        let two = b.constant(2);
        let three = b.constant(3);
        let six = b.mul(two, three);
        let x = b.input("x");
        let x2 = b.add(x, six);
        let y2 = b.add(x, six);
        let prod = b.mul(x2, y2);
        b.output("r", prod);
        b.finish().unwrap()
    }

    #[test]
    fn standard_run_matches_the_legacy_pipeline() {
        let mut legacy = example();
        let legacy_report = Pipeline::standard().run(&mut legacy).unwrap();

        let mut incremental = example();
        let outcome = WorklistDriver::new()
            .run_standard(&mut incremental)
            .unwrap();

        assert_eq!(
            canonical_signature(&legacy),
            canonical_signature(&incremental)
        );
        assert_eq!(GraphStats::of(&legacy), GraphStats::of(&incremental));
        assert_eq!(
            legacy_report.total_changes(),
            outcome.report.total_changes()
        );
        for pass in ["const-fold", "cse", "dce"] {
            assert_eq!(
                legacy_report.changes_of(pass),
                outcome.report.changes_of(pass),
                "pass `{pass}` disagrees"
            );
        }
        // The journal is gone when the driver returns.
        assert!(!incremental.journal_enabled());
    }

    #[test]
    fn later_rounds_visit_fewer_nodes_than_the_graph_holds() {
        let mut graph = example();
        let outcome = WorklistDriver::new().run_standard(&mut graph).unwrap();
        assert!(!outcome.round_stats.is_empty());
        let last = outcome.round_stats.last().unwrap();
        assert!(
            last.visited < last.graph_nodes || last.changes == 0,
            "tail rounds must be output-sensitive: {last:?}"
        );
        assert!(outcome.visited_total() > 0);
    }

    #[test]
    fn empty_graph_converges_without_rounds() {
        let mut graph = Cdfg::new("empty");
        let outcome = WorklistDriver::new().run_standard(&mut graph).unwrap();
        assert_eq!(outcome.report.total_changes(), 0);
        assert!(outcome.round_stats.is_empty());
    }

    #[test]
    fn round_budget_is_enforced() {
        /// A pass that rewires an edge back and forth forever.
        struct Flip;
        impl LocalRewrite for Flip {
            fn name(&self) -> &'static str {
                "flip"
            }
            fn wants(&self, graph: &Cdfg, id: NodeId) -> bool {
                matches!(graph.kind(id), Ok(fpfa_cdfg::NodeKind::Output(_)))
            }
            fn visit(&mut self, graph: &mut Cdfg, id: NodeId) -> Result<usize, TransformError> {
                let src = graph.input_source(id, 0).expect("connected");
                let edge = graph.node(id).unwrap().input_edge(0).unwrap();
                graph.disconnect(edge)?;
                graph.connect(src.node, src.port_index(), id, 0)?;
                Ok(1)
            }
        }
        let mut b = CdfgBuilder::new("t");
        let x = b.input("x");
        b.output("r", x);
        let mut graph = b.finish().unwrap();
        let err = WorklistDriver::new()
            .with_max_rounds(5)
            .run(&mut [Flip], &mut graph)
            .unwrap_err();
        assert!(matches!(
            err,
            TransformError::PipelineDiverged { rounds: 5 }
        ));
        assert!(!graph.journal_enabled());
    }

    #[test]
    fn unrolls_loops_like_the_legacy_engine() {
        let src = r#"
            void main() {
                int a[6];
                int c[6];
                int sum;
                int i;
                sum = 0; i = 0;
                while (i < 6) { sum = sum + a[i] * c[i]; i = i + 1; }
            }
        "#;
        let program = fpfa_frontend::compile(src).unwrap();
        let mut legacy = program.cdfg.clone();
        Pipeline::standard().run(&mut legacy).unwrap();
        let mut incremental = program.cdfg.clone();
        WorklistDriver::new()
            .run_standard(&mut incremental)
            .unwrap();
        assert_eq!(GraphStats::of(&incremental).loops, 0);
        assert_eq!(
            canonical_signature(&legacy),
            canonical_signature(&incremental)
        );
    }
}
