//! Reference interpreter for CDFGs.
//!
//! The interpreter executes a CDFG directly on [`Value`]s, including the
//! statespace primitives and structured loops. It is the behavioural oracle
//! used throughout the workspace:
//!
//! * the transformation engine checks that every pass preserves the
//!   interpreter's results;
//! * the tile simulator checks that a mapped program computes the same
//!   outputs as the original graph.

use crate::error::CdfgError;
use crate::graph::Cdfg;
use crate::ids::NodeId;
use crate::node::{LoopSpec, NodeKind};
use crate::statespace::StateSpace;
use crate::value::Value;
use std::collections::HashMap;

/// Default maximum number of iterations the interpreter will execute for a
/// single structured loop before reporting [`CdfgError::LoopBudgetExceeded`].
pub const DEFAULT_LOOP_BUDGET: usize = 1 << 16;

/// The outputs produced by one interpreter run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RunResult {
    values: HashMap<String, Value>,
    /// Number of node evaluations performed (including loop body re-runs).
    pub evaluations: usize,
}

impl RunResult {
    /// Value of the named output, if produced.
    pub fn value(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// Word value of the named output, if produced and a word.
    pub fn word(&self, name: &str) -> Option<i64> {
        self.values.get(name).and_then(Value::as_word)
    }

    /// Statespace value of the named output, if produced and a statespace.
    pub fn state(&self, name: &str) -> Option<&StateSpace> {
        self.values.get(name).and_then(Value::as_state)
    }

    /// All `(name, value)` pairs sorted by name.
    pub fn sorted(&self) -> Vec<(&str, &Value)> {
        let mut v: Vec<_> = self
            .values
            .iter()
            .map(|(k, val)| (k.as_str(), val))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Number of outputs produced.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no output was produced.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Interpreter over a borrowed CDFG.
#[derive(Debug)]
pub struct Interpreter<'g> {
    graph: &'g Cdfg,
    bindings: HashMap<String, Value>,
    loop_budget: usize,
}

impl<'g> Interpreter<'g> {
    /// Creates an interpreter for `graph` with no input bindings.
    pub fn new(graph: &'g Cdfg) -> Self {
        Interpreter {
            graph,
            bindings: HashMap::new(),
            loop_budget: DEFAULT_LOOP_BUDGET,
        }
    }

    /// Binds a named graph input to a value.
    pub fn bind(&mut self, name: impl Into<String>, value: Value) -> &mut Self {
        self.bindings.insert(name.into(), value);
        self
    }

    /// Binds several inputs at once.
    pub fn bind_all<I, S>(&mut self, bindings: I) -> &mut Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        for (name, value) in bindings {
            self.bind(name, value);
        }
        self
    }

    /// Overrides the per-loop iteration budget.
    pub fn with_loop_budget(mut self, budget: usize) -> Self {
        self.loop_budget = budget;
        self
    }

    /// Executes the graph and collects its outputs.
    ///
    /// # Errors
    /// Returns [`CdfgError`] for unbound inputs, cycles, type mismatches,
    /// division by zero, unbound statespace addresses or exhausted loop
    /// budgets.
    pub fn run(&mut self) -> Result<RunResult, CdfgError> {
        let mut evaluations = 0usize;
        let values = eval_graph(
            self.graph,
            &self.bindings,
            self.loop_budget,
            &mut evaluations,
        )?;
        Ok(RunResult {
            values,
            evaluations,
        })
    }
}

/// Evaluates `graph` with the given input bindings and returns the values of
/// its `Output` nodes keyed by name.
pub fn eval_graph(
    graph: &Cdfg,
    bindings: &HashMap<String, Value>,
    loop_budget: usize,
    evaluations: &mut usize,
) -> Result<HashMap<String, Value>, CdfgError> {
    let order = graph.topo_order()?;
    // Value produced at each (node, output port).
    let mut produced: HashMap<(NodeId, usize), Value> = HashMap::new();
    let mut outputs = HashMap::new();

    for id in order {
        let node = graph.node(id)?;
        *evaluations += 1;
        // Gather input values.
        let mut ins: Vec<Value> = Vec::with_capacity(node.input_count());
        for port in 0..node.input_count() {
            let src = graph
                .input_source(id, port)
                .ok_or(CdfgError::PortUnconnected { node: id, port })?;
            let value = produced
                .get(&(src.node, src.port_index()))
                .cloned()
                .ok_or_else(|| CdfgError::Invalid(format!("value for {src} not yet produced")))?;
            ins.push(value);
        }

        match &node.kind {
            NodeKind::Const(c) => {
                produced.insert((id, 0), Value::Word(*c));
            }
            NodeKind::Input(name) => {
                let value = bindings
                    .get(name.as_str())
                    .cloned()
                    .ok_or_else(|| CdfgError::UnboundInput(name.to_string()))?;
                produced.insert((id, 0), value);
            }
            NodeKind::Output(name) => {
                outputs.insert(name.to_string(), ins.remove(0));
            }
            NodeKind::BinOp(op) => {
                let a = expect_word(id, &ins[0])?;
                let b = expect_word(id, &ins[1])?;
                let r = op.eval(a, b).ok_or(CdfgError::DivisionByZero(id))?;
                produced.insert((id, 0), Value::Word(r));
            }
            NodeKind::UnOp(op) => {
                let a = expect_word(id, &ins[0])?;
                produced.insert((id, 0), Value::Word(op.eval(a)));
            }
            NodeKind::Mux => {
                let cond = expect_word(id, &ins[0])?;
                let chosen = if cond != 0 {
                    ins[1].clone()
                } else {
                    ins[2].clone()
                };
                produced.insert((id, 0), chosen);
            }
            NodeKind::Store => {
                let mut state = expect_state(id, &ins[0])?.clone();
                let address = expect_word(id, &ins[1])?;
                let data = expect_word(id, &ins[2])?;
                state.store(address, data);
                produced.insert((id, 0), Value::State(state));
            }
            NodeKind::Fetch => {
                let state = expect_state(id, &ins[0])?;
                let address = expect_word(id, &ins[1])?;
                let data = state
                    .fetch(address)
                    .ok_or(CdfgError::UnboundAddress { node: id, address })?;
                produced.insert((id, 0), Value::Word(data));
            }
            NodeKind::Delete => {
                let mut state = expect_state(id, &ins[0])?.clone();
                let address = expect_word(id, &ins[1])?;
                if state.delete(address).is_none() {
                    return Err(CdfgError::UnboundAddress { node: id, address });
                }
                produced.insert((id, 0), Value::State(state));
            }
            NodeKind::Copy => {
                produced.insert((id, 0), ins.remove(0));
            }
            NodeKind::Loop(spec) => {
                let results = eval_loop(id, spec, ins, loop_budget, evaluations)?;
                for (port, value) in results.into_iter().enumerate() {
                    produced.insert((id, port), value);
                }
            }
        }
    }
    Ok(outputs)
}

fn eval_loop(
    id: NodeId,
    spec: &LoopSpec,
    initial: Vec<Value>,
    loop_budget: usize,
    evaluations: &mut usize,
) -> Result<Vec<Value>, CdfgError> {
    if initial.len() != spec.arity() {
        return Err(CdfgError::MalformedLoop {
            node: id,
            reason: format!(
                "loop has {} carried variables but received {} inputs",
                spec.arity(),
                initial.len()
            ),
        });
    }
    let mut vars: Vec<Value> = initial;
    for _ in 0..loop_budget {
        // Evaluate the condition graph on the current variable values.
        let cond_bindings: HashMap<String, Value> = spec
            .vars
            .iter()
            .cloned()
            .zip(vars.iter().cloned())
            .collect();
        let cond_out = eval_graph(&spec.cond, &cond_bindings, loop_budget, evaluations)?;
        let cond = cond_out
            .get(LoopSpec::COND_OUTPUT)
            .ok_or_else(|| CdfgError::MalformedLoop {
                node: id,
                reason: format!("condition graph has no `{}` output", LoopSpec::COND_OUTPUT),
            })?;
        if !cond.is_truthy() {
            return Ok(vars);
        }
        // Evaluate the body and collect the next values of the carried vars.
        let body_bindings: HashMap<String, Value> = spec
            .vars
            .iter()
            .cloned()
            .zip(vars.iter().cloned())
            .collect();
        let body_out = eval_graph(&spec.body, &body_bindings, loop_budget, evaluations)?;
        let mut next = Vec::with_capacity(spec.arity());
        for var in &spec.vars {
            let value = body_out
                .get(var)
                .cloned()
                .ok_or_else(|| CdfgError::MalformedLoop {
                    node: id,
                    reason: format!("body graph does not produce output `{var}`"),
                })?;
            next.push(value);
        }
        vars = next;
    }
    Err(CdfgError::LoopBudgetExceeded {
        node: id,
        budget: loop_budget,
    })
}

fn expect_word(node: NodeId, value: &Value) -> Result<i64, CdfgError> {
    value.as_word().ok_or(CdfgError::TypeMismatch {
        node,
        expected: "word",
        found: value.kind_name(),
    })
}

fn expect_state(node: NodeId, value: &Value) -> Result<&StateSpace, CdfgError> {
    value.as_state().ok_or(CdfgError::TypeMismatch {
        node,
        expected: "statespace",
        found: value.kind_name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{BinOp, UnOp};

    fn word(v: i64) -> Value {
        Value::Word(v)
    }

    #[test]
    fn evaluates_arithmetic_dag() {
        let mut g = Cdfg::new("t");
        let a = g.add_node(NodeKind::Input("a".into()));
        let b = g.add_node(NodeKind::Input("b".into()));
        let add = g.add_node(NodeKind::BinOp(BinOp::Add));
        let neg = g.add_node(NodeKind::UnOp(UnOp::Neg));
        let out = g.add_node(NodeKind::Output("r".into()));
        g.connect(a, 0, add, 0).unwrap();
        g.connect(b, 0, add, 1).unwrap();
        g.connect(add, 0, neg, 0).unwrap();
        g.connect(neg, 0, out, 0).unwrap();

        let mut interp = Interpreter::new(&g);
        interp.bind("a", word(3)).bind("b", word(4));
        let result = interp.run().unwrap();
        assert_eq!(result.word("r"), Some(-7));
        assert_eq!(result.len(), 1);
        assert!(result.evaluations >= 5);
    }

    #[test]
    fn unbound_input_is_reported() {
        let mut g = Cdfg::new("t");
        let a = g.add_node(NodeKind::Input("a".into()));
        let out = g.add_node(NodeKind::Output("r".into()));
        g.connect(a, 0, out, 0).unwrap();
        let err = Interpreter::new(&g).run().unwrap_err();
        assert_eq!(err, CdfgError::UnboundInput("a".into()));
    }

    #[test]
    fn mux_selects_by_condition() {
        let mut g = Cdfg::new("t");
        let c = g.add_node(NodeKind::Input("c".into()));
        let t = g.add_node(NodeKind::Const(10));
        let e = g.add_node(NodeKind::Const(20));
        let mux = g.add_node(NodeKind::Mux);
        let out = g.add_node(NodeKind::Output("r".into()));
        g.connect(c, 0, mux, 0).unwrap();
        g.connect(t, 0, mux, 1).unwrap();
        g.connect(e, 0, mux, 2).unwrap();
        g.connect(mux, 0, out, 0).unwrap();

        let run = |cv: i64| {
            let mut interp = Interpreter::new(&g);
            interp.bind("c", word(cv));
            interp.run().unwrap().word("r").unwrap()
        };
        assert_eq!(run(1), 10);
        assert_eq!(run(0), 20);
        assert_eq!(run(-3), 10);
    }

    #[test]
    fn statespace_primitives_round_trip() {
        // ss' = ST(ss, 5, 99); r = FE(ss', 5); ss'' = DEL(ss', 5)
        let mut g = Cdfg::new("t");
        let ss = g.add_node(NodeKind::Input("mem".into()));
        let ad = g.add_node(NodeKind::Const(5));
        let da = g.add_node(NodeKind::Const(99));
        let st = g.add_node(NodeKind::Store);
        let fe = g.add_node(NodeKind::Fetch);
        let del = g.add_node(NodeKind::Delete);
        let out_r = g.add_node(NodeKind::Output("r".into()));
        let out_mem = g.add_node(NodeKind::Output("mem".into()));
        g.connect(ss, 0, st, 0).unwrap();
        g.connect(ad, 0, st, 1).unwrap();
        g.connect(da, 0, st, 2).unwrap();
        g.connect(st, 0, fe, 0).unwrap();
        g.connect(ad, 0, fe, 1).unwrap();
        g.connect(st, 0, del, 0).unwrap();
        g.connect(ad, 0, del, 1).unwrap();
        g.connect(fe, 0, out_r, 0).unwrap();
        g.connect(del, 0, out_mem, 0).unwrap();

        let mut interp = Interpreter::new(&g);
        interp.bind("mem", Value::State(StateSpace::new()));
        let result = interp.run().unwrap();
        assert_eq!(result.word("r"), Some(99));
        assert!(result.state("mem").unwrap().is_empty());
    }

    #[test]
    fn fetch_of_missing_address_fails() {
        let mut g = Cdfg::new("t");
        let ss = g.add_node(NodeKind::Input("mem".into()));
        let ad = g.add_node(NodeKind::Const(7));
        let fe = g.add_node(NodeKind::Fetch);
        let out = g.add_node(NodeKind::Output("r".into()));
        g.connect(ss, 0, fe, 0).unwrap();
        g.connect(ad, 0, fe, 1).unwrap();
        g.connect(fe, 0, out, 0).unwrap();
        let mut interp = Interpreter::new(&g);
        interp.bind("mem", Value::State(StateSpace::new()));
        let err = interp.run().unwrap_err();
        assert_eq!(
            err,
            CdfgError::UnboundAddress {
                node: fe,
                address: 7
            }
        );
    }

    #[test]
    fn division_by_zero_is_reported() {
        let mut g = Cdfg::new("t");
        let a = g.add_node(NodeKind::Const(10));
        let z = g.add_node(NodeKind::Const(0));
        let div = g.add_node(NodeKind::BinOp(BinOp::Div));
        let out = g.add_node(NodeKind::Output("r".into()));
        g.connect(a, 0, div, 0).unwrap();
        g.connect(z, 0, div, 1).unwrap();
        g.connect(div, 0, out, 0).unwrap();
        let err = Interpreter::new(&g).run().unwrap_err();
        assert_eq!(err, CdfgError::DivisionByZero(div));
    }

    #[test]
    fn type_mismatch_is_reported() {
        let mut g = Cdfg::new("t");
        let ss = g.add_node(NodeKind::Input("mem".into()));
        let one = g.add_node(NodeKind::Const(1));
        let add = g.add_node(NodeKind::BinOp(BinOp::Add));
        let out = g.add_node(NodeKind::Output("r".into()));
        g.connect(ss, 0, add, 0).unwrap();
        g.connect(one, 0, add, 1).unwrap();
        g.connect(add, 0, out, 0).unwrap();
        let mut interp = Interpreter::new(&g);
        interp.bind("mem", Value::State(StateSpace::new()));
        let err = interp.run().unwrap_err();
        assert!(matches!(err, CdfgError::TypeMismatch { .. }));
    }

    /// Builds the loop node for `while (i < n) { acc = acc + i; i = i + 1 }`.
    fn counting_loop() -> (Cdfg, NodeId) {
        // Condition graph: %cond = i < n
        let mut cond = Cdfg::new("cond");
        let i = cond.add_node(NodeKind::Input("i".into()));
        let n = cond.add_node(NodeKind::Input("n".into()));
        let _acc_in = cond.add_node(NodeKind::Input("acc".into()));
        let lt = cond.add_node(NodeKind::BinOp(BinOp::Lt));
        let c = cond.add_node(NodeKind::Output(LoopSpec::COND_OUTPUT.into()));
        cond.connect(i, 0, lt, 0).unwrap();
        cond.connect(n, 0, lt, 1).unwrap();
        cond.connect(lt, 0, c, 0).unwrap();

        // Body graph: acc = acc + i; i = i + 1; n = n
        let mut body = Cdfg::new("body");
        let bi = body.add_node(NodeKind::Input("i".into()));
        let bn = body.add_node(NodeKind::Input("n".into()));
        let bacc = body.add_node(NodeKind::Input("acc".into()));
        let one = body.add_node(NodeKind::Const(1));
        let addi = body.add_node(NodeKind::BinOp(BinOp::Add));
        let addacc = body.add_node(NodeKind::BinOp(BinOp::Add));
        let oi = body.add_node(NodeKind::Output("i".into()));
        let on = body.add_node(NodeKind::Output("n".into()));
        let oacc = body.add_node(NodeKind::Output("acc".into()));
        body.connect(bi, 0, addi, 0).unwrap();
        body.connect(one, 0, addi, 1).unwrap();
        body.connect(bacc, 0, addacc, 0).unwrap();
        body.connect(bi, 0, addacc, 1).unwrap();
        body.connect(addi, 0, oi, 0).unwrap();
        body.connect(bn, 0, on, 0).unwrap();
        body.connect(addacc, 0, oacc, 0).unwrap();

        let spec = LoopSpec {
            vars: vec!["i".into(), "n".into(), "acc".into()],
            cond,
            body,
        };

        let mut g = Cdfg::new("sum");
        let i0 = g.add_node(NodeKind::Const(0));
        let n_in = g.add_node(NodeKind::Input("n".into()));
        let acc0 = g.add_node(NodeKind::Const(0));
        let lp = g.add_node(NodeKind::Loop(Box::new(spec)));
        let out = g.add_node(NodeKind::Output("sum".into()));
        g.connect(i0, 0, lp, 0).unwrap();
        g.connect(n_in, 0, lp, 1).unwrap();
        g.connect(acc0, 0, lp, 2).unwrap();
        g.connect(lp, 2, out, 0).unwrap();
        (g, lp)
    }

    #[test]
    fn structured_loop_executes() {
        let (g, _lp) = counting_loop();
        let mut interp = Interpreter::new(&g);
        interp.bind("n", word(5));
        let result = interp.run().unwrap();
        // 0 + 1 + 2 + 3 + 4 = 10
        assert_eq!(result.word("sum"), Some(10));
    }

    #[test]
    fn loop_with_zero_iterations() {
        let (g, _lp) = counting_loop();
        let mut interp = Interpreter::new(&g);
        interp.bind("n", word(0));
        assert_eq!(interp.run().unwrap().word("sum"), Some(0));
    }

    #[test]
    fn loop_budget_is_enforced() {
        let (g, lp) = counting_loop();
        let mut interp = Interpreter::new(&g).with_loop_budget(3);
        interp.bind("n", word(100));
        let err = interp.run().unwrap_err();
        assert_eq!(
            err,
            CdfgError::LoopBudgetExceeded {
                node: lp,
                budget: 3
            }
        );
    }
}
