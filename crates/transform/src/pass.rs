//! The [`Transform`] trait and the fixpoint [`Pipeline`] driver.

use crate::error::TransformError;
use crate::{algebraic, const_fold, copy_prop, cse, dce, dead_store, forward, strength, unroll};
use fpfa_cdfg::{Cdfg, NodeId, NodeKind};
use std::fmt;

/// A behaviour-preserving graph transformation.
pub trait Transform {
    /// Short, stable name of the pass (used in reports).
    fn name(&self) -> &'static str;

    /// Applies the pass once and returns the number of graph changes made.
    ///
    /// # Errors
    /// Returns a [`TransformError`] when the pass cannot proceed (for example
    /// a loop that cannot be unrolled).
    fn apply(&self, graph: &mut Cdfg) -> Result<usize, TransformError>;
}

/// Rewires every use of `node`'s output 0 to a fresh constant and removes the
/// node. Returns the id of the constant node.
///
/// This is the shared "replace with constant" helper used by several passes;
/// it assumes the node is pure (no statespace side effects).
pub(crate) fn replace_with_const(
    graph: &mut Cdfg,
    node: NodeId,
    value: i64,
) -> Result<NodeId, TransformError> {
    let c = graph.add_node(NodeKind::Const(value));
    graph.replace_uses(node, 0, c, 0)?;
    graph.remove_node(node)?;
    Ok(c)
}

/// Per-pass change counts of one pipeline run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TransformReport {
    entries: Vec<(String, usize)>,
    /// Number of fixpoint rounds executed.
    pub rounds: usize,
}

impl TransformReport {
    /// Total number of changes across all passes.
    pub fn total_changes(&self) -> usize {
        self.entries.iter().map(|(_, n)| n).sum()
    }

    /// Changes attributed to a pass name (summed over rounds).
    pub fn changes_of(&self, name: &str) -> usize {
        self.entries
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, c)| c)
            .sum()
    }

    /// All `(pass, changes)` entries in execution order.
    pub fn entries(&self) -> &[(String, usize)] {
        &self.entries
    }

    pub(crate) fn record(&mut self, name: &str, changes: usize) {
        if changes > 0 {
            self.entries.push((name.to_string(), changes));
        }
    }
}

impl fmt::Display for TransformReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} rounds, {} changes",
            self.rounds,
            self.total_changes()
        )?;
        for (name, changes) in &self.entries {
            writeln!(f, "  {name:<14} {changes}")?;
        }
        Ok(())
    }
}

/// The paper's "full simplification" pass list: loop unrolling followed by
/// constant folding, algebraic simplification, strength reduction,
/// store-to-load forwarding, CSE, dead-store elimination, copy propagation
/// and dead-code elimination.
///
/// [`Pipeline::standard`] runs it; the production engine runs the same
/// rewrites as [`standard_local_rewrites`](crate::standard_local_rewrites).
pub fn standard_passes() -> Vec<Box<dyn Transform + Send + Sync>> {
    vec![
        Box::new(unroll::UnrollLoops::default()),
        Box::new(const_fold::ConstantFold),
        Box::new(algebraic::AlgebraicSimplify),
        Box::new(strength::StrengthReduce),
        Box::new(forward::ForwardStores),
        Box::new(cse::CommonSubexpressionElimination),
        Box::new(dead_store::DeadStoreElimination),
        Box::new(copy_prop::CopyPropagation),
        Box::new(dce::DeadCodeElimination),
    ]
}

/// Fixpoint rounds a [`Pipeline`] runs before it reports divergence.
const MAX_ROUNDS: usize = 64;

/// An ordered list of passes run to a fixpoint: the scan-until-fixpoint
/// reference the worklist engine ([`WorklistDriver`](crate::WorklistDriver))
/// is tested against.
pub struct Pipeline {
    passes: Vec<Box<dyn Transform>>,
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Pipeline { passes: Vec::new() }
    }

    /// The paper's "full simplification" recipe ([`standard_passes`]),
    /// iterated to a fixpoint.
    pub fn standard() -> Self {
        let mut pipeline = Pipeline::new();
        for pass in standard_passes() {
            pipeline.passes.push(pass);
        }
        pipeline
    }

    /// Appends a pass to the pipeline.
    pub fn with<T: Transform + 'static>(mut self, pass: T) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Runs every pass in order, repeating the whole sequence until no pass
    /// changes the graph any more.
    ///
    /// # Errors
    /// Propagates pass errors and reports
    /// [`TransformError::PipelineDiverged`] when the fixpoint is not reached
    /// within the round budget.
    pub fn run(&self, graph: &mut Cdfg) -> Result<TransformReport, TransformError> {
        let mut report = TransformReport::default();
        for round in 0..MAX_ROUNDS {
            let mut changes_this_round = 0;
            for pass in &self.passes {
                let changes = pass.apply(graph)?;
                report.record(pass.name(), changes);
                changes_this_round += changes;
            }
            report.rounds = round + 1;
            if changes_this_round == 0 {
                return Ok(report);
            }
        }
        Err(TransformError::PipelineDiverged { rounds: MAX_ROUNDS })
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpfa_cdfg::{BinOp, CdfgBuilder};

    struct CountNodes;
    impl Transform for CountNodes {
        fn name(&self) -> &'static str {
            "count"
        }
        fn apply(&self, _graph: &mut Cdfg) -> Result<usize, TransformError> {
            Ok(0)
        }
    }

    #[test]
    fn empty_pipeline_converges_immediately() {
        let mut g = Cdfg::new("t");
        let report = Pipeline::new().with(CountNodes).run(&mut g).unwrap();
        assert_eq!(report.rounds, 1);
        assert_eq!(report.total_changes(), 0);
    }

    #[test]
    fn standard_pipeline_simplifies_constants() {
        let mut b = CdfgBuilder::new("t");
        let two = b.constant(2);
        let three = b.constant(3);
        let six = b.mul(two, three);
        let x = b.input("x");
        let r = b.binop(BinOp::Add, six, x);
        b.output("r", r);
        let mut g = b.finish().unwrap();
        let report = Pipeline::standard().run(&mut g).unwrap();
        assert!(report.total_changes() > 0);
        assert!(report.changes_of("const-fold") >= 1);
        // The multiply has been folded away.
        assert_eq!(fpfa_cdfg::GraphStats::of(&g).multiplies, 0);
        assert!(report.to_string().contains("const-fold"));
    }
}
