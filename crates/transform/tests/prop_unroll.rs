//! Splice order of complete loop unrolling.
//!
//! `UnrollLoops` splices each iteration's body operations straight onto the
//! current variable wires, without copying the body's interface nodes.  The
//! graph it leaves must still be the one the verbatim-copy algorithm leaves
//! (copy the whole body, rewire the copied inputs to the variable wires,
//! read the next wires off the copied outputs, delete both): after
//! `compact()` the two graphs are `==` (name, node kinds, port records and
//! edge table), so node and edge order, and with them every mapped-program
//! digest, are unchanged.  The reference
//! below is that algorithm, kept only for this test.
//!
//! Kernels are generated C with one to three nested counted `for` loops:
//! trip counts 0 to 6, carried scalars that are passed through, read twice or
//! reset in an outer body, and array reads and writes.  Each unrolled graph
//! must also compute what the loop form computes, and leave one arena hole
//! per removed loop node and none for interface nodes.

// Test helpers outside `#[test]` functions are not covered by
// `allow-unwrap-in-tests`.
#![allow(clippy::unwrap_used)]

use fpfa_cdfg::interp::{eval_graph, Interpreter, RunResult};
use fpfa_cdfg::{Cdfg, CdfgError, Endpoint, LoopSpec, NodeId, NodeKind, StateSpace, Value};
use fpfa_frontend::{compile, MemoryLayout};
use fpfa_transform::unroll::UnrollLoops;
use fpfa_transform::Transform;
use proptest::prelude::*;
use std::collections::HashMap;

/// One statement of a loop body.  `IDX` is the sum of the counters of the
/// enclosing loops (at most 15, so the 16-word arrays are never overrun).
#[derive(Clone, Copy, Debug)]
enum Stmt {
    /// `s = s + a[IDX];`: an accumulator fed by an array read.
    Accumulate,
    /// `t = s + s;`: one carried input read twice.
    ReadTwice,
    /// `t = 0;`: a reset; in an outer body, every inner run restarts.
    Reset,
    /// `c[IDX] = s + u;`: an array write; `u` is never written, so every
    /// loop that reads it passes it through.
    Write,
    /// `s = s + c[IDX] * t;`: reads back what earlier iterations wrote.
    ReadBack,
}

/// One loop of the nest, outermost first.
#[derive(Clone, Debug)]
struct Level {
    trips: u8,
    /// Statements before the next inner loop.
    before: Vec<Stmt>,
    /// Statements after it.
    after: Vec<Stmt>,
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        Just(Stmt::Accumulate),
        Just(Stmt::ReadTwice),
        Just(Stmt::Reset),
        Just(Stmt::Write),
        Just(Stmt::ReadBack),
    ]
}

fn arb_level() -> impl Strategy<Value = Level> {
    (
        0u8..7,
        prop::collection::vec(arb_stmt(), 0..3),
        prop::collection::vec(arb_stmt(), 0..2),
    )
        .prop_map(|(trips, before, after)| Level {
            trips,
            before,
            after,
        })
}

fn render(stmt: Stmt, depth: usize) -> String {
    let idx = (0..=depth)
        .map(|d| format!("i{d}"))
        .collect::<Vec<_>>()
        .join(" + ");
    match stmt {
        Stmt::Accumulate => format!("s = s + a[{idx}];"),
        Stmt::ReadTwice => "t = s + s;".to_string(),
        Stmt::Reset => "t = 0;".to_string(),
        Stmt::Write => format!("c[{idx}] = s + u;"),
        Stmt::ReadBack => format!("s = s + c[{idx}] * t;"),
    }
}

fn source(levels: &[Level]) -> String {
    let mut nest = String::new();
    for (depth, level) in levels.iter().enumerate().rev() {
        let mut body: Vec<String> = level.before.iter().map(|s| render(*s, depth)).collect();
        body.push(std::mem::take(&mut nest));
        body.extend(level.after.iter().map(|s| render(*s, depth)));
        nest = format!(
            "for (i{depth} = 0; i{depth} < {trips}; i{depth} = i{depth} + 1) {{ {} }}",
            body.join(" "),
            trips = level.trips
        );
    }
    format!(
        "void main() {{ int a[16]; int b[16]; int c[16]; int s; int t; int u; \
         int i0; int i1; int i2; s = 1; t = 2; u = 3; {nest} }}"
    )
}

/// The old unroller: round by round, peel every loop of the round's
/// snapshot as far as its condition can be decided, splicing a verbatim copy
/// of the body and rewiring its interface nodes away.  Returns the number of
/// loop nodes removed.
fn reference_unroll(graph: &mut Cdfg) -> usize {
    let mut removed = 0;
    loop {
        let loops: Vec<NodeId> = graph
            .node_ids()
            .filter(|id| matches!(graph.kind(*id), Ok(NodeKind::Loop(_))))
            .collect();
        if loops.is_empty() {
            return removed;
        }
        for id in loops {
            if graph.contains_node(id) && reference_unroll_one(graph, id) {
                removed += 1;
            }
        }
    }
}

fn carried_wires(graph: &Cdfg, loop_node: NodeId, arity: usize) -> Vec<Endpoint> {
    (0..arity)
        .map(|port| {
            graph
                .input_source(loop_node, port)
                .expect("loop inputs stay connected")
        })
        .collect()
}

/// Peels one loop; returns whether it finished and was removed.  A counter
/// that runs through a not yet unrolled inner loop is undecidable until a
/// later round.
fn reference_unroll_one(graph: &mut Cdfg, loop_node: NodeId) -> bool {
    let Ok(NodeKind::Loop(spec)) = graph.kind(loop_node) else {
        unreachable!("only loop nodes are unrolled");
    };
    let spec: LoopSpec = (**spec).clone();
    loop {
        let vars = carried_wires(graph, loop_node, spec.arity());
        match condition_holds(graph, &spec, &vars) {
            None => return false,
            Some(false) => break,
            Some(true) => {}
        }
        // A verbatim copy: every node in id order, then every edge in id
        // order.
        let mut copy: HashMap<NodeId, NodeId> = HashMap::new();
        for (id, node) in spec.body.nodes() {
            copy.insert(id, graph.add_node(node.kind.clone()));
        }
        for (_, edge) in spec.body.edges() {
            graph
                .connect(
                    copy[&edge.from.node],
                    edge.from.port_index(),
                    copy[&edge.to.node],
                    edge.to.port_index(),
                )
                .unwrap();
        }
        // Rewire the copied inputs to the variable wires, read the next
        // wires off the copied outputs, and delete both.
        for (name, id) in spec.body.inputs() {
            let wire = vars[spec.port_of(&name).unwrap()];
            graph
                .replace_uses(copy[&id], 0, wire.node, wire.port_index())
                .unwrap();
            graph.remove_node(copy[&id]).unwrap();
        }
        let mut next = vars.clone();
        for (name, id) in spec.body.outputs() {
            next[spec.port_of(&name).unwrap()] = graph.input_source(copy[&id], 0).unwrap();
            graph.remove_node(copy[&id]).unwrap();
        }
        for (port, wire) in next.iter().enumerate() {
            let edge = graph.node(loop_node).unwrap().input_edge(port).unwrap();
            graph.disconnect(edge).unwrap();
            graph
                .connect(wire.node, wire.port_index(), loop_node, port)
                .unwrap();
        }
    }
    let vars = carried_wires(graph, loop_node, spec.arity());
    for (port, wire) in vars.iter().enumerate() {
        graph
            .replace_uses(loop_node, port, wire.node, wire.port_index())
            .unwrap();
    }
    graph.remove_node(loop_node).unwrap();
    true
}

/// Evaluates the condition on the constant values of the variables it
/// reads; `None` when one of them is not constant (yet).
fn condition_holds(graph: &Cdfg, spec: &LoopSpec, vars: &[Endpoint]) -> Option<bool> {
    let mut bindings: HashMap<String, Value> = HashMap::new();
    for (name, id) in spec.cond.inputs() {
        let read = spec.cond.node(id).unwrap().fanout() > 0;
        let value = if read {
            constant(graph, vars[spec.port_of(&name).unwrap()])?
        } else {
            0
        };
        bindings.insert(name.to_string(), Value::Word(value));
    }
    let outputs = eval_graph(&spec.cond, &bindings, 1, &mut 0).unwrap();
    Some(outputs[LoopSpec::COND_OUTPUT].is_truthy())
}

fn constant(graph: &Cdfg, at: Endpoint) -> Option<i64> {
    let operand = |port| constant(graph, graph.input_source(at.node, port)?);
    match graph.kind(at.node).ok()? {
        NodeKind::Const(v) => Some(*v),
        NodeKind::BinOp(op) => op.eval(operand(0)?, operand(1)?),
        NodeKind::UnOp(op) => Some(op.eval(operand(0)?)),
        NodeKind::Copy => operand(0),
        _ => None,
    }
}

fn run(graph: &Cdfg, layout: &MemoryLayout, values: &[i64]) -> Result<RunResult, CdfgError> {
    let mut words = values.iter().cycle();
    let memory = StateSpace::from_tuples(layout.arrays().iter().flat_map(|array| {
        (0..array.len as i64)
            .map(|i| (array.base + i, *words.next().unwrap_or(&1)))
            .collect::<Vec<_>>()
    }));
    let mut interp = Interpreter::new(graph);
    interp.bind("mem", Value::State(memory));
    interp.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unrolling_splices_like_a_verbatim_copy(
        levels in prop::collection::vec(arb_level(), 1..4),
        values in prop::collection::vec(-9i64..10, 1..8),
    ) {
        let src = source(&levels);
        let program = compile(&src).unwrap();
        let loop_form = program.cdfg;

        let mut ours = loop_form.clone();
        let holes_before = ours.node_bound() - ours.node_count();
        UnrollLoops::default().apply(&mut ours).unwrap();
        let mut theirs = loop_form.clone();
        let removed = reference_unroll(&mut theirs);

        prop_assert!(ours.compact().0 == theirs.compact().0, "splice order moved: {}", src);
        prop_assert_eq!(ours.node_bound() - ours.node_count(), holes_before + removed);

        let before = run(&loop_form, &program.layout, &values).unwrap();
        let after = run(&ours, &program.layout, &values).unwrap();
        prop_assert_eq!(before.sorted(), after.sorted(), "{}", src);
    }
}
