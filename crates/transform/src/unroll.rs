//! Complete loop unrolling.
//!
//! Fig. 3 of the paper shows the FIR kernel "after complete loop unrolling
//! and full simplification": the `while` loop disappears and its body is
//! replicated once per iteration, exposing all the parallelism to the
//! clustering phase. This pass performs that unrolling for structured
//! [`LoopSpec`] nodes whose trip count can be decided
//! statically:
//!
//! 1. resolve the current value of every loop-carried variable the condition
//!    reads to a constant where possible (a memoised evaluation of the wire's
//!    dependence cone, walked with an explicit stack; which variables the
//!    condition reads is worked out once per loop, so an accumulator the
//!    condition never reads is never evaluated).  The graph itself is *not*
//!    const-folded during unrolling: the arithmetic the evaluation
//!    short-circuits is folded by the constant-folding pass afterwards;
//! 2. evaluate the condition sub-graph on those constants — if any variable
//!    the condition actually reads is unknown, the loop is left in place and
//!    reported as unresolvable;
//! 3. while the condition holds, [splice](Cdfg::splice) one copy of the
//!    body's operations into the host graph: the body's inputs are bound to
//!    the current variable wires and its outputs name the next ones, so no
//!    interface node is copied;
//! 4. when the condition becomes false, rewire the loop node's consumers to
//!    the final variable wires and delete the loop node.

use crate::error::TransformError;
use crate::pass::Transform;
use fpfa_cdfg::interp::eval_graph;
use fpfa_cdfg::{Cdfg, Endpoint, LoopSpec, NodeId, NodeKind, Value};
use std::collections::HashMap;

/// Default maximum number of iterations a single loop may be unrolled to.
pub const DEFAULT_UNROLL_BUDGET: usize = 4096;

/// Name of the carried statespace variable; a condition that reads it
/// cannot be decided statically.
const STATE_VAR: &str = "@state";

/// Completely unrolls statically-counted structured loops.
#[derive(Clone, Copy, Debug)]
pub struct UnrollLoops {
    /// Maximum number of iterations to unroll per loop.
    pub budget: usize,
    /// When `true` (the default), a loop whose trip count cannot be decided
    /// is a hard error; when `false` the loop is silently left in place.
    pub strict: bool,
}

impl Default for UnrollLoops {
    fn default() -> Self {
        UnrollLoops {
            budget: DEFAULT_UNROLL_BUDGET,
            strict: true,
        }
    }
}

impl UnrollLoops {
    /// A lenient unroller that leaves undecidable loops in place.
    pub fn lenient() -> Self {
        UnrollLoops {
            strict: false,
            ..Self::default()
        }
    }

    /// Overrides the per-loop iteration budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }
}

impl Transform for UnrollLoops {
    fn name(&self) -> &'static str {
        "unroll"
    }

    fn apply(&self, graph: &mut Cdfg) -> Result<usize, TransformError> {
        let mut changes = 0;
        // Peel every loop as far as its condition can be decided, repeating
        // until no loop makes progress. Nested loops resolve round by round:
        // an inner loop spliced by an outer peel is not in this round's
        // snapshot, so it unrolls in the next round.
        loop {
            let loops: Vec<NodeId> = graph
                .node_ids()
                .filter(|id| matches!(graph.kind(*id), Ok(NodeKind::Loop(_))))
                .collect();
            if loops.is_empty() {
                return Ok(changes);
            }
            let mut progressed = false;
            for id in loops {
                if !graph.contains_node(id) {
                    continue;
                }
                let (peeled, removed) = self.unroll_one(graph, id)?;
                if peeled > 0 || removed {
                    progressed = true;
                }
                changes += peeled + usize::from(removed);
            }
            if !progressed {
                let remaining: Vec<String> = graph
                    .nodes()
                    .filter_map(|(_, n)| match &n.kind {
                        NodeKind::Loop(spec) => Some(format!("[{}]", spec.vars.join(", "))),
                        _ => None,
                    })
                    .collect();
                if self.strict {
                    return Err(TransformError::UnresolvableLoop {
                        detail: format!(
                            "loops over {} depend on non-constant values",
                            remaining.join(", ")
                        ),
                    });
                }
                return Ok(changes);
            }
        }
    }
}

/// In the worklist engine, unrolling stays a whole-graph fixpoint: the first
/// pending loop node triggers the same [`Transform::apply`] the legacy
/// pipeline runs (nested loops spliced mid-unroll must resolve in the same
/// sweep for the outer loop's counters to fold).  Loops only exist at the
/// start of a run, so this costs one full unroll exactly like the legacy
/// engine; the remaining pending loop ids are stale afterwards and are
/// skipped by the driver.
impl crate::rewrite::LocalRewrite for UnrollLoops {
    fn name(&self) -> &'static str {
        "unroll"
    }

    fn wants(&self, graph: &Cdfg, id: NodeId) -> bool {
        matches!(graph.kind(id), Ok(NodeKind::Loop(_)))
    }

    fn cares_about(&self, kind: &NodeKind) -> bool {
        matches!(kind, NodeKind::Loop(_))
    }

    fn visit(&mut self, graph: &mut Cdfg, id: NodeId) -> Result<usize, TransformError> {
        if !matches!(graph.kind(id)?, NodeKind::Loop(_)) {
            return Ok(0);
        }
        Transform::apply(self, graph)
    }
}

/// How one loop's condition and body attach to its carried variables,
/// worked out once per loop instead of once per peel.
struct LoopPorts {
    /// The carried port bound to each body `Input`, in id order (`Err` holds
    /// the name of an input that is not carried).
    inputs: Vec<Result<usize, String>>,
    /// The carried port each body `Output` feeds, in id order (`None` for a
    /// name that is not carried: its value is dropped).
    outputs: Vec<Option<usize>>,
    /// The carried ports the condition reads, with their condition input
    /// names; `None` when the condition reads memory or a name that is not
    /// carried, so it can never be decided here.
    cond_reads: Option<Vec<(usize, String)>>,
}

impl LoopPorts {
    fn of(spec: &LoopSpec) -> Self {
        let inputs = spec
            .body
            .inputs()
            .into_iter()
            .map(|(name, _)| spec.port_of(&name).ok_or(name))
            .collect();
        let outputs = spec
            .body
            .outputs()
            .into_iter()
            .map(|(name, _)| spec.port_of(&name))
            .collect();
        let cond_reads = spec
            .cond
            .inputs()
            .into_iter()
            .filter(|(_, id)| spec.cond.node(*id).is_ok_and(|n| n.fanout() > 0))
            .map(|(name, _)| match spec.port_of(&name) {
                Some(port) if name != STATE_VAR => Some((port, name)),
                _ => None,
            })
            .collect();
        LoopPorts {
            inputs,
            outputs,
            cond_reads,
        }
    }
}

impl UnrollLoops {
    /// Peels decided iterations of one loop. Returns `(iterations peeled,
    /// loop removed)`; an undecidable condition stops peeling without error
    /// (the caller decides whether leftover loops are fatal).
    fn unroll_one(
        &self,
        graph: &mut Cdfg,
        loop_node: NodeId,
    ) -> Result<(usize, bool), TransformError> {
        let NodeKind::Loop(spec) = graph.kind(loop_node)?.clone() else {
            return Ok((0, false));
        };
        let spec: LoopSpec = *spec;
        let ports = LoopPorts::of(&spec);

        // The loop node's own input edges are used as anchors for the current
        // value of every carried variable: constant folding rewires consumers
        // when it replaces nodes, so reading the wires through the loop node
        // after each folding round always yields live nodes.
        let read_vars = |graph: &Cdfg| -> Result<Vec<Endpoint>, TransformError> {
            (0..spec.arity())
                .map(|port| {
                    graph
                        .input_source(loop_node, port)
                        .ok_or(TransformError::Graph(
                            fpfa_cdfg::CdfgError::PortUnconnected {
                                node: loop_node,
                                port,
                            },
                        ))
                })
                .collect()
        };

        // Memoised constant evaluation of the peeled counter chains.  The
        // memo stays valid across peels because unrolling never rewires the
        // inputs of a pre-existing node (splices add fresh nodes; only the
        // loop node's own anchor ports are re-connected, and those are never
        // evaluated).  It is dropped when this loop finishes, before the
        // loop node's consumers are rewired.
        let mut memo: HashMap<Endpoint, Option<i64>> = HashMap::new();
        let mut stack = Vec::new();
        // Condition inputs the condition does not read keep the value 0.
        let mut bindings: HashMap<String, Value> = spec
            .cond
            .inputs()
            .into_iter()
            .map(|(name, _)| (name, Value::Word(0)))
            .collect();
        let mut iterations = 0usize;
        loop {
            let vars = read_vars(graph)?;
            // Undecidable (for now): stop peeling and keep the loop in
            // place; the iterations already peeled remain valid.
            let Some(cond_reads) = &ports.cond_reads else {
                return Ok((iterations, false));
            };
            for (port, name) in cond_reads {
                let Some(value) = eval_wire(graph, vars[*port], &mut memo, &mut stack) else {
                    return Ok((iterations, false));
                };
                bindings.insert(name.clone(), Value::Word(value));
            }
            if !evaluate_condition(&spec, &bindings)? {
                break;
            }
            if iterations >= self.budget {
                return Err(TransformError::UnrollBudgetExceeded {
                    budget: self.budget,
                });
            }
            let next = splice_body(graph, &spec, &ports, &vars)?;
            // Re-anchor the loop node's inputs on the values produced by the
            // iteration that was just spliced.
            for (port, wire) in next.iter().enumerate() {
                let edge = graph
                    .node(loop_node)?
                    .input_edge(port)
                    .expect("loop inputs stay connected");
                graph.disconnect(edge)?;
                graph.connect(wire.node, wire.port_index(), loop_node, port)?;
            }
            iterations += 1;
        }

        // The loop is finished: route its outputs to the final variable wires
        // and remove it.
        let vars = read_vars(graph)?;
        for (port, wire) in vars.iter().enumerate() {
            graph.replace_uses(loop_node, port, wire.node, wire.port_index())?;
        }
        graph.remove_node(loop_node)?;
        Ok((iterations, true))
    }
}

/// Evaluates the pure-constant cone feeding an output endpoint, memoised.
///
/// Returns `None` for anything that is not compile-time decidable: inputs,
/// statespace operations, loops, or arithmetic that traps (division by
/// zero stays in the graph so the runtime error is preserved, exactly like
/// the constant-folding pass).  The cone is walked with an explicit `stack`
/// (empty between calls): it can be as deep as the iterations already
/// peeled, deeper than a thread stack allows recursion to go.
fn eval_wire(
    graph: &Cdfg,
    at: Endpoint,
    memo: &mut HashMap<Endpoint, Option<i64>>,
    stack: &mut Vec<Endpoint>,
) -> Option<i64> {
    stack.push(at);
    while let Some(&top) = stack.last() {
        if memo.contains_key(&top) {
            stack.pop();
            continue;
        }
        match eval_step(graph, top, memo) {
            Ok(value) => {
                memo.insert(top, value);
                stack.pop();
            }
            Err(operand) => stack.push(operand),
        }
    }
    memo[&at]
}

/// The value at `at` once every operand it needs is memoised; otherwise the
/// first operand still to evaluate.  Operands are read lazily: a `BinOp`
/// whose first operand is unknown and a `Mux`'s unselected input are never
/// evaluated.
fn eval_step(
    graph: &Cdfg,
    at: Endpoint,
    memo: &HashMap<Endpoint, Option<i64>>,
) -> Result<Option<i64>, Endpoint> {
    let operand = |port: usize| match graph.input_source(at.node, port) {
        Some(src) => memo.get(&src).copied().ok_or(src),
        None => Ok(None),
    };
    Ok(match graph.kind(at.node) {
        Ok(NodeKind::Const(v)) => Some(*v),
        Ok(NodeKind::BinOp(op)) => match operand(0)? {
            Some(a) => operand(1)?.and_then(|b| op.eval(a, b)),
            None => None,
        },
        Ok(NodeKind::UnOp(op)) => operand(0)?.map(|a| op.eval(a)),
        Ok(NodeKind::Mux) => match operand(0)? {
            Some(sel) => operand(if sel != 0 { 1 } else { 2 })?,
            None => None,
        },
        Ok(NodeKind::Copy) => operand(0)?,
        _ => None,
    })
}

/// Evaluates the loop condition on `bindings` (every condition input).
fn evaluate_condition(
    spec: &LoopSpec,
    bindings: &HashMap<String, Value>,
) -> Result<bool, TransformError> {
    let mut evaluations = 0;
    let outputs = eval_graph(&spec.cond, bindings, 1, &mut evaluations)?;
    let cond =
        outputs
            .get(LoopSpec::COND_OUTPUT)
            .ok_or_else(|| TransformError::UnresolvableLoop {
                detail: "condition graph produced no %cond output".into(),
            })?;
    Ok(cond.is_truthy())
}

/// Splices one iteration of the loop body into `graph` on the current
/// variable wires and returns the next ones, in carried-variable order.
fn splice_body(
    graph: &mut Cdfg,
    spec: &LoopSpec,
    ports: &LoopPorts,
    vars: &[Endpoint],
) -> Result<Vec<Endpoint>, TransformError> {
    let bound = ports
        .inputs
        .iter()
        .map(|port| match port {
            Ok(port) => Ok(vars[*port]),
            Err(name) => Err(TransformError::UnresolvableLoop {
                detail: format!("body reads `{name}` which is not loop carried"),
            }),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let produced = graph.splice(&spec.body, &bound)?;
    let mut next = vec![None; spec.arity()];
    for (port, value) in ports.outputs.iter().zip(produced) {
        if let Some(port) = port {
            next[*port] = value;
        }
    }
    next.into_iter()
        .enumerate()
        .map(|(port, wire)| {
            wire.ok_or_else(|| TransformError::UnresolvableLoop {
                detail: format!("body does not produce `{}`", spec.vars[port]),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::Pipeline;
    use fpfa_cdfg::interp::Interpreter;
    use fpfa_cdfg::{BinOp, GraphStats, StateSpace};

    /// Builds `sum = 0; i = 0; while (i < n_const) { sum += i; i += 1 }` with
    /// a literal bound, as a hand-constructed loop node.
    fn counted_sum_graph(bound: i64) -> Cdfg {
        let mut cond = Cdfg::new("cond");
        let i = cond.add_node(NodeKind::Input("i".into()));
        let _s = cond.add_node(NodeKind::Input("sum".into()));
        let n = cond.add_node(NodeKind::Const(bound));
        let lt = cond.add_node(NodeKind::BinOp(BinOp::Lt));
        let out = cond.add_node(NodeKind::Output(LoopSpec::COND_OUTPUT.into()));
        cond.connect(i, 0, lt, 0).unwrap();
        cond.connect(n, 0, lt, 1).unwrap();
        cond.connect(lt, 0, out, 0).unwrap();

        let mut body = Cdfg::new("body");
        let bi = body.add_node(NodeKind::Input("i".into()));
        let bs = body.add_node(NodeKind::Input("sum".into()));
        let one = body.add_node(NodeKind::Const(1));
        let inc = body.add_node(NodeKind::BinOp(BinOp::Add));
        let acc = body.add_node(NodeKind::BinOp(BinOp::Add));
        let oi = body.add_node(NodeKind::Output("i".into()));
        let os = body.add_node(NodeKind::Output("sum".into()));
        body.connect(bi, 0, inc, 0).unwrap();
        body.connect(one, 0, inc, 1).unwrap();
        body.connect(bs, 0, acc, 0).unwrap();
        body.connect(bi, 0, acc, 1).unwrap();
        body.connect(inc, 0, oi, 0).unwrap();
        body.connect(acc, 0, os, 0).unwrap();

        let spec = LoopSpec {
            vars: vec!["i".into(), "sum".into()],
            cond,
            body,
        };

        let mut g = Cdfg::new("sum");
        let i0 = g.add_node(NodeKind::Const(0));
        let s0 = g.add_node(NodeKind::Const(0));
        let lp = g.add_node(NodeKind::Loop(Box::new(spec)));
        let out = g.add_node(NodeKind::Output("sum".into()));
        g.connect(i0, 0, lp, 0).unwrap();
        g.connect(s0, 0, lp, 1).unwrap();
        g.connect(lp, 1, out, 0).unwrap();
        g
    }

    #[test]
    fn unrolls_counted_loop_completely() {
        let mut g = counted_sum_graph(5);
        let changes = UnrollLoops::default().apply(&mut g).unwrap();
        assert!(changes >= 5);
        assert_eq!(GraphStats::of(&g).loops, 0);
        // Behaviour is preserved: sum of 0..5 = 10.
        let result = Interpreter::new(&g).run().unwrap();
        assert_eq!(result.word("sum"), Some(10));
    }

    #[test]
    fn zero_trip_loops_collapse_to_initial_values() {
        let mut g = counted_sum_graph(0);
        UnrollLoops::default().apply(&mut g).unwrap();
        assert_eq!(GraphStats::of(&g).loops, 0);
        assert_eq!(Interpreter::new(&g).run().unwrap().word("sum"), Some(0));
    }

    #[test]
    fn budget_overrun_is_reported() {
        let mut g = counted_sum_graph(100);
        let err = UnrollLoops::default()
            .with_budget(10)
            .apply(&mut g)
            .unwrap_err();
        assert!(matches!(err, TransformError::UnrollBudgetExceeded { .. }));
    }

    /// A loop whose bound is a runtime input cannot be unrolled.
    fn unbounded_graph() -> Cdfg {
        let mut cond = Cdfg::new("cond");
        let i = cond.add_node(NodeKind::Input("i".into()));
        let n = cond.add_node(NodeKind::Input("n".into()));
        let lt = cond.add_node(NodeKind::BinOp(BinOp::Lt));
        let out = cond.add_node(NodeKind::Output(LoopSpec::COND_OUTPUT.into()));
        cond.connect(i, 0, lt, 0).unwrap();
        cond.connect(n, 0, lt, 1).unwrap();
        cond.connect(lt, 0, out, 0).unwrap();

        let mut body = Cdfg::new("body");
        let bi = body.add_node(NodeKind::Input("i".into()));
        let bn = body.add_node(NodeKind::Input("n".into()));
        let one = body.add_node(NodeKind::Const(1));
        let inc = body.add_node(NodeKind::BinOp(BinOp::Add));
        let oi = body.add_node(NodeKind::Output("i".into()));
        let on = body.add_node(NodeKind::Output("n".into()));
        body.connect(bi, 0, inc, 0).unwrap();
        body.connect(one, 0, inc, 1).unwrap();
        body.connect(inc, 0, oi, 0).unwrap();
        body.connect(bn, 0, on, 0).unwrap();

        let spec = LoopSpec {
            vars: vec!["i".into(), "n".into()],
            cond,
            body,
        };
        let mut g = Cdfg::new("dyn");
        let i0 = g.add_node(NodeKind::Const(0));
        let n_in = g.add_node(NodeKind::Input("n".into()));
        let lp = g.add_node(NodeKind::Loop(Box::new(spec)));
        let out = g.add_node(NodeKind::Output("i".into()));
        g.connect(i0, 0, lp, 0).unwrap();
        g.connect(n_in, 0, lp, 1).unwrap();
        g.connect(lp, 0, out, 0).unwrap();
        g
    }

    #[test]
    fn dynamic_bounds_are_reported_in_strict_mode() {
        let mut g = unbounded_graph();
        let err = UnrollLoops::default().apply(&mut g).unwrap_err();
        assert!(matches!(err, TransformError::UnresolvableLoop { .. }));
    }

    #[test]
    fn dynamic_bounds_are_kept_in_lenient_mode() {
        let mut g = unbounded_graph();
        let changes = UnrollLoops::lenient().apply(&mut g).unwrap();
        assert_eq!(changes, 0);
        assert_eq!(GraphStats::of(&g).loops, 1);
    }

    #[test]
    fn frontend_fir_unrolls_and_matches_reference() {
        let src = r#"
            void main() {
                int a[5];
                int c[5];
                int sum;
                int i;
                sum = 0; i = 0;
                while (i < 5) {
                    sum = sum + a[i] * c[i]; i = i + 1;
                }
            }
        "#;
        let program = fpfa_frontend::compile(src).unwrap();
        let mut unrolled = program.cdfg.clone();
        Pipeline::standard().run(&mut unrolled).unwrap();
        assert_eq!(GraphStats::of(&unrolled).loops, 0);
        // The unrolled FIR has exactly 5 multiplications (one per tap).
        assert_eq!(GraphStats::of(&unrolled).multiplies, 5);

        // Behaviour matches the loop version.
        let a = [3, 1, 4, 1, 5];
        let c = [2, 7, 1, 8, 2];
        let expected: i64 = a.iter().zip(c.iter()).map(|(x, y)| x * y).sum();
        let state = StateSpace::from_tuples(
            a.iter()
                .enumerate()
                .map(|(i, v)| (i as i64, *v))
                .chain(c.iter().enumerate().map(|(i, v)| (5 + i as i64, *v))),
        );
        let mut interp = Interpreter::new(&unrolled);
        interp.bind("mem", Value::State(state));
        assert_eq!(interp.run().unwrap().word("sum"), Some(expected));
    }

    /// A nested multiply-accumulate: `acc` grows one node per inner
    /// iteration across the whole nest, and the outer condition never
    /// reads it.
    fn nested_mac(n: usize) -> Cdfg {
        let src = format!(
            r#"
            void main() {{
                int a[{n}];
                int b[{n}];
                int acc;
                int i;
                int j;
                acc = 0;
                for (i = 0; i < {n}; i = i + 1) {{
                    for (j = 0; j < {n}; j = j + 1) {{
                        acc = acc + a[i] * b[j];
                    }}
                }}
            }}
        "#
        );
        fpfa_frontend::compile(&src).unwrap().cdfg
    }

    #[test]
    fn long_accumulator_chains_unroll_on_a_small_stack() {
        let mut g = nested_mac(64);
        let worker = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                UnrollLoops::default().apply(&mut g).unwrap();
                g
            })
            .unwrap();
        let g = worker.join().unwrap();
        assert_eq!(GraphStats::of(&g).loops, 0);
        assert_eq!(GraphStats::of(&g).multiplies, 64 * 64);
    }

    #[test]
    fn unrolling_leaves_one_hole_per_removed_loop() {
        // The registry's `matmul10`: 1 + 10 + 100 loop nodes are unrolled
        // and removed; no interface node of a spliced body is ever copied.
        let src = r#"
            void main() {
                int a[100];
                int b[100];
                int c[100];
                int i;
                int j;
                int k;
                int acc;
                for (i = 0; i < 10; i = i + 1) {
                    for (j = 0; j < 10; j = j + 1) {
                        acc = 0;
                        for (k = 0; k < 10; k = k + 1) {
                            acc = acc + a[i * 10 + k] * b[k * 10 + j];
                        }
                        c[i * 10 + j] = acc;
                    }
                }
            }
        "#;
        let mut g = fpfa_frontend::compile(src).unwrap().cdfg;
        let holes_before = g.node_bound() - g.node_count();
        UnrollLoops::default().apply(&mut g).unwrap();
        assert_eq!(GraphStats::of(&g).loops, 0);
        assert_eq!(g.node_bound() - g.node_count() - holes_before, 111);
    }

    #[test]
    fn nested_frontend_loops_unroll() {
        let src = r#"
            void main() {
                int total;
                int i;
                int j;
                total = 0;
                i = 0;
                while (i < 3) {
                    j = 0;
                    while (j < 2) {
                        total = total + i * j;
                        j = j + 1;
                    }
                    i = i + 1;
                }
            }
        "#;
        let program = fpfa_frontend::compile(src).unwrap();
        let mut g = program.cdfg.clone();
        Pipeline::standard().run(&mut g).unwrap();
        assert_eq!(GraphStats::of(&g).loops, 0);
        let mut interp = Interpreter::new(&g);
        interp.bind("mem", Value::State(StateSpace::new()));
        // total = 0 + 0 + 0 + 1 + 0 + 2
        assert_eq!(interp.run().unwrap().word("total"), Some(3));
    }
}
