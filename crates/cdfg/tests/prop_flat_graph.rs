//! Differential property test for the flat-arena [`Cdfg`] storage.
//!
//! A straightforward reference implementation of the pre-arena semantics
//! (`Vec<Option<node>>` with per-node port lists) is driven through the *same* random primitive sequence as the real graph
//! — `add_node`, `connect`, `disconnect`, `remove_node`, `replace_uses` —
//! over node kinds that include the statespace operators and structured
//! loops.  Every observable must agree: allocated ids, per-port
//! connectivity, predecessor/successor order, the journal's touched nodes,
//! `GraphStats`, canonical signatures, and interpreter results.  A fan-out
//! primitive drives one output past the inline port capacity and then cuts
//! a consumer out of the middle, so spilled port lists and their order are
//! compared too.  A further property covers `compact` and `splice` against
//! the same reference.

// Test helpers outside `#[test]` functions are not covered by
// `allow-unwrap-in-tests`.
#![allow(clippy::unwrap_used)]

use fpfa_cdfg::canonical_signature;
use fpfa_cdfg::interp::{Interpreter, RunResult};
use fpfa_cdfg::{
    BinOp, Cdfg, CdfgError, Edge, Endpoint, GraphStats, LoopSpec, NodeId, NodeKind, UnOp, Value,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Reference implementation of the old graph semantics
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct RefEdge {
    from: (usize, usize),
    to: (usize, usize),
}

#[derive(Clone, Debug)]
struct RefNode {
    kind: NodeKind,
    /// Driving edge slot per input port.
    ins: Vec<Option<usize>>,
    /// `(output port, edge slot)` in connect order across all ports.
    outs: Vec<(usize, usize)>,
}

/// The old `Vec<Option<_>>` graph: slots freed by removal, ids handed out
/// monotonically.
struct RefGraph {
    nodes: Vec<Option<RefNode>>,
    edges: Vec<Option<RefEdge>>,
    /// The node of every change the old event journal reported, in emission
    /// order, as raw slot indices (the reference mirrors the arena's
    /// allocation order exactly, so slot index == `NodeId::index`).
    events: Vec<usize>,
}

impl RefGraph {
    fn new() -> Self {
        RefGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            events: Vec::new(),
        }
    }

    fn node(&self, id: usize) -> &RefNode {
        self.nodes[id].as_ref().expect("live reference node")
    }

    fn edge(&self, id: usize) -> RefEdge {
        self.edges[id].expect("live reference edge")
    }

    fn occupied(&self, node: usize, port: usize) -> bool {
        self.node(node).ins[port].is_some()
    }

    fn add_node(&mut self, kind: NodeKind) -> usize {
        let node = RefNode {
            ins: vec![None; kind.input_arity()],
            outs: Vec::new(),
            kind,
        };
        self.nodes.push(Some(node));
        let id = self.nodes.len() - 1;
        self.events.push(id);
        id
    }

    fn connect(&mut self, from: usize, from_port: usize, to: usize, to_port: usize) -> usize {
        let edge = RefEdge {
            from: (from, from_port),
            to: (to, to_port),
        };
        self.edges.push(Some(edge));
        let id = self.edges.len() - 1;
        self.nodes[from]
            .as_mut()
            .expect("live source")
            .outs
            .push((from_port, id));
        self.nodes[to].as_mut().expect("live sink").ins[to_port] = Some(id);
        self.events.extend([from, to]);
        id
    }

    fn disconnect(&mut self, edge: usize) {
        let RefEdge { from, to } = self.edges[edge].take().expect("live edge");
        self.nodes[from.0]
            .as_mut()
            .expect("live source")
            .outs
            .retain(|(_, e)| *e != edge);
        let ins = &mut self.nodes[to.0].as_mut().expect("live sink").ins;
        if ins[to.1] == Some(edge) {
            ins[to.1] = None;
        }
        self.events.extend([from.0, to.0]);
    }

    fn remove_node(&mut self, id: usize) {
        let node = self.node(id);
        let mut attached: Vec<usize> = node.ins.iter().flatten().copied().collect();
        attached.extend(node.outs.iter().map(|(_, e)| *e));
        // Self-edges appear on both sides; disconnect each edge exactly once,
        // in edge-id order (the order the real graph uses).
        attached.sort_unstable();
        attached.dedup();
        for edge in attached {
            self.disconnect(edge);
        }
        self.events.push(id);
        self.nodes[id] = None;
    }

    fn replace_uses(&mut self, from: usize, from_port: usize, to: usize, to_port: usize) {
        let sinks: Vec<(usize, usize)> = self
            .node(from)
            .outs
            .iter()
            .filter(|(p, _)| *p == from_port)
            .map(|(_, e)| self.edge(*e).to)
            .collect();
        for (sink, port) in sinks {
            let edge = self.node(sink).ins[port].expect("sink port is driven");
            self.disconnect(edge);
            self.connect(to, to_port, sink, port);
        }
    }

    fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    fn live_edges(&self) -> usize {
        self.edges.iter().filter(|e| e.is_some()).count()
    }
}

// ---------------------------------------------------------------------------
// Random primitive sequences
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Kind {
    Const(i64),
    Input,
    Output,
    Bin(BinOp),
    Un(UnOp),
    Mux,
    Store,
    Fetch,
    Delete,
    Copy,
    Loop(usize),
}

#[derive(Clone, Debug)]
enum Op {
    Add(Kind),
    Connect(usize, usize, usize, usize),
    Disconnect(usize, usize),
    Remove(usize),
    ReplaceUses(usize, usize, usize, usize),
    /// Connects one output to `count` fresh consumers, then disconnects the
    /// consumer at `cut % count`.
    FanOut {
        from: usize,
        port: usize,
        count: usize,
        cut: usize,
    },
}

fn arb_kind() -> impl Strategy<Value = Kind> {
    prop_oneof![
        (-8i64..8).prop_map(Kind::Const),
        Just(Kind::Input),
        Just(Kind::Output),
        prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Rem),
            Just(BinOp::Xor),
            Just(BinOp::Shl),
            Just(BinOp::Lt),
            Just(BinOp::Max),
        ]
        .prop_map(Kind::Bin),
        prop_oneof![Just(UnOp::Neg), Just(UnOp::Not), Just(UnOp::BitNot)].prop_map(Kind::Un),
        Just(Kind::Mux),
        Just(Kind::Store),
        Just(Kind::Fetch),
        Just(Kind::Delete),
        Just(Kind::Copy),
        (1usize..3).prop_map(Kind::Loop),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_kind().prop_map(Op::Add),
        (
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
            any::<usize>()
        )
            .prop_map(|(a, b, c, d)| Op::Connect(a, b, c, d)),
        (
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
            any::<usize>()
        )
            .prop_map(|(a, b, c, d)| Op::Connect(a, b, c, d)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::Disconnect(a, b)),
        any::<usize>().prop_map(Op::Remove),
        (
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
            any::<usize>()
        )
            .prop_map(|(a, b, c, d)| Op::ReplaceUses(a, b, c, d)),
        (any::<usize>(), any::<usize>(), 1usize..13, any::<usize>()).prop_map(
            |(from, port, count, cut)| Op::FanOut {
                from,
                port,
                count,
                cut
            }
        ),
    ]
}

/// A tiny well-formed loop spec: the condition iterates while the first
/// loop-carried variable is negative, and the body negates every variable,
/// so interpretation always terminates within one iteration.
fn loop_spec(arity: usize) -> LoopSpec {
    let vars: Vec<String> = (0..arity).map(|i| format!("v{i}")).collect();

    let mut cond = Cdfg::new("cond");
    let zero = cond.add_node(NodeKind::Const(0));
    let lt = cond.add_node(NodeKind::BinOp(BinOp::Lt));
    let out = cond.add_node(NodeKind::Output(LoopSpec::COND_OUTPUT.into()));
    for (i, var) in vars.iter().enumerate() {
        let input = cond.add_node(NodeKind::Input(var.as_str().into()));
        if i == 0 {
            cond.connect(input, 0, lt, 0).unwrap();
        }
    }
    cond.connect(zero, 0, lt, 1).unwrap();
    cond.connect(lt, 0, out, 0).unwrap();

    let mut body = Cdfg::new("body");
    for var in &vars {
        let input = body.add_node(NodeKind::Input(var.as_str().into()));
        let neg = body.add_node(NodeKind::UnOp(UnOp::Neg));
        let out = body.add_node(NodeKind::Output(var.as_str().into()));
        body.connect(input, 0, neg, 0).unwrap();
        body.connect(neg, 0, out, 0).unwrap();
    }

    LoopSpec { vars, cond, body }
}

// ---------------------------------------------------------------------------
// Driving both implementations through the same sequence
// ---------------------------------------------------------------------------

/// Adds `kind` to both graphs, asserting they allocate the same slot, and
/// records the slot as live.  Returns the slot.
fn add_both(
    graph: &mut Cdfg,
    reference: &mut RefGraph,
    ids: &mut Vec<NodeId>,
    live: &mut Vec<usize>,
    kind: NodeKind,
) -> usize {
    let id = graph.add_node(kind.clone());
    let slot = reference.add_node(kind);
    assert_eq!(id.index(), slot, "node allocation diverged");
    if slot == ids.len() {
        ids.push(id);
    } else {
        ids[slot] = id;
    }
    live.push(slot);
    slot
}

/// Applies `ops` to a fresh journal-enabled [`Cdfg`] and the reference model
/// in lock-step, asserting that allocated node/edge ids always agree.
/// Returns the graph, the reference, and the real id stored at each slot.
fn apply(ops: &[Op]) -> (Cdfg, RefGraph, Vec<NodeId>) {
    let mut graph = Cdfg::new("differential");
    graph.enable_journal();
    let mut reference = RefGraph::new();
    let mut ids: Vec<NodeId> = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    let mut inputs = 0usize;
    let mut outputs = 0usize;

    for op in ops {
        match op {
            Op::Add(kind) => {
                let kind = match kind {
                    Kind::Const(v) => NodeKind::Const(*v),
                    Kind::Input => {
                        inputs += 1;
                        NodeKind::Input(format!("x{inputs}").into())
                    }
                    Kind::Output => {
                        outputs += 1;
                        NodeKind::Output(format!("y{outputs}").into())
                    }
                    Kind::Bin(op) => NodeKind::BinOp(*op),
                    Kind::Un(op) => NodeKind::UnOp(*op),
                    Kind::Mux => NodeKind::Mux,
                    Kind::Store => NodeKind::Store,
                    Kind::Fetch => NodeKind::Fetch,
                    Kind::Delete => NodeKind::Delete,
                    Kind::Copy => NodeKind::Copy,
                    Kind::Loop(arity) => NodeKind::Loop(Box::new(loop_spec(*arity))),
                };
                add_both(&mut graph, &mut reference, &mut ids, &mut live, kind);
            }
            Op::Connect(a, b, c, d) => {
                if live.is_empty() {
                    continue;
                }
                let from = live[a % live.len()];
                let to = live[c % live.len()];
                let out_arity = reference.node(from).kind.output_arity();
                let in_arity = reference.node(to).kind.input_arity();
                if out_arity == 0 || in_arity == 0 {
                    continue;
                }
                let from_port = b % out_arity;
                let to_port = d % in_arity;
                let result = graph.connect(ids[from], from_port, ids[to], to_port);
                if reference.occupied(to, to_port) {
                    assert!(
                        matches!(result, Err(CdfgError::PortAlreadyDriven { .. })),
                        "expected PortAlreadyDriven, got {result:?}"
                    );
                } else {
                    let slot = reference.connect(from, from_port, to, to_port);
                    assert_eq!(result.unwrap().index(), slot, "edge allocation diverged");
                }
            }
            Op::Disconnect(a, b) => {
                if live.is_empty() {
                    continue;
                }
                let node = live[a % live.len()];
                let connected: Vec<usize> = reference
                    .node(node)
                    .ins
                    .iter()
                    .enumerate()
                    .filter_map(|(port, slot)| slot.map(|_| port))
                    .collect();
                if connected.is_empty() {
                    continue;
                }
                let port = connected[b % connected.len()];
                let eid = graph
                    .node(ids[node])
                    .unwrap()
                    .input_edge(port)
                    .expect("reference says the port is driven");
                let slot = reference.node(node).ins[port].unwrap();
                assert_eq!(eid.index(), slot, "edge ids diverged before disconnect");
                graph.disconnect(eid).unwrap();
                reference.disconnect(slot);
            }
            Op::Remove(a) => {
                if live.is_empty() {
                    continue;
                }
                let node = live[a % live.len()];
                graph.remove_node(ids[node]).unwrap();
                reference.remove_node(node);
                live.retain(|n| *n != node);
            }
            Op::ReplaceUses(a, b, c, d) => {
                if live.is_empty() {
                    continue;
                }
                let from = live[a % live.len()];
                let to = live[c % live.len()];
                let from_arity = reference.node(from).kind.output_arity();
                let to_arity = reference.node(to).kind.output_arity();
                if from_arity == 0 || to_arity == 0 {
                    continue;
                }
                let from_port = b % from_arity;
                let to_port = d % to_arity;
                graph
                    .replace_uses(ids[from], from_port, ids[to], to_port)
                    .unwrap();
                reference.replace_uses(from, from_port, to, to_port);
            }
            Op::FanOut {
                from,
                port,
                count,
                cut,
            } => {
                if live.is_empty() {
                    continue;
                }
                let from = live[from % live.len()];
                let arity = reference.node(from).kind.output_arity();
                if arity == 0 {
                    continue;
                }
                let port = port % arity;
                let mut edges = Vec::with_capacity(*count);
                for _ in 0..*count {
                    let sink = add_both(
                        &mut graph,
                        &mut reference,
                        &mut ids,
                        &mut live,
                        NodeKind::Copy,
                    );
                    let eid = graph.connect(ids[from], port, ids[sink], 0).unwrap();
                    let slot = reference.connect(from, port, sink, 0);
                    assert_eq!(eid.index(), slot, "edge allocation diverged");
                    edges.push(eid);
                }
                let eid = edges[cut % count];
                graph.disconnect(eid).unwrap();
                reference.disconnect(eid.index());
            }
        }
    }
    (graph, reference, ids)
}

// ---------------------------------------------------------------------------
// Observational equivalence checks
// ---------------------------------------------------------------------------

/// Compares counts, per-port connectivity, and traversal order slot by slot.
fn check_structure(graph: &Cdfg, reference: &RefGraph, ids: &[NodeId]) {
    assert_eq!(graph.node_count(), reference.live_nodes());
    assert_eq!(graph.edge_count(), reference.live_edges());
    assert_eq!(graph.node_bound(), reference.nodes.len());

    for (idx, slot) in reference.nodes.iter().enumerate() {
        let id = ids[idx];
        let Some(node) = slot else {
            assert!(!graph.contains_node(id), "slot {idx} should be a hole");
            continue;
        };
        assert!(graph.contains_node(id), "slot {idx} should be live");
        assert_eq!(graph.kind(id).unwrap(), &node.kind);
        let view = graph.node(id).unwrap();
        assert_eq!(view.input_count(), node.ins.len());

        for (port, driver) in node.ins.iter().enumerate() {
            let expected = driver.map(|e| reference.edge(e).from);
            let actual = graph
                .input_source(id, port)
                .map(|ep| (ep.node.index(), ep.port_index()));
            assert_eq!(actual, expected, "input {idx}:{port} diverged");
        }
        for port in 0..view.output_count() {
            let expected: Vec<(usize, usize)> = node
                .outs
                .iter()
                .filter(|(p, _)| *p == port)
                .map(|(_, e)| reference.edge(*e).to)
                .collect();
            let actual: Vec<(usize, usize)> = graph
                .output_sinks(id, port)
                .iter()
                .map(|ep| (ep.node.index(), ep.port_index()))
                .collect();
            assert_eq!(actual, expected, "sinks of {idx}:{port} diverged");
        }

        let mut expected_preds: Vec<usize> = Vec::new();
        for driver in node.ins.iter().flatten() {
            let from = reference.edge(*driver).from.0;
            if !expected_preds.contains(&from) {
                expected_preds.push(from);
            }
        }
        let actual_preds: Vec<usize> = graph.predecessors(id).iter().map(|n| n.index()).collect();
        assert_eq!(actual_preds, expected_preds, "predecessors of {idx}");

        let mut expected_succs: Vec<usize> = Vec::new();
        for port in 0..view.output_count() {
            for (p, e) in &node.outs {
                if *p == port {
                    let to = reference.edge(*e).to.0;
                    if !expected_succs.contains(&to) {
                        expected_succs.push(to);
                    }
                }
            }
        }
        let actual_succs: Vec<usize> = graph.successors(id).iter().map(|n| n.index()).collect();
        assert_eq!(actual_succs, expected_succs, "successors of {idx}");
    }
}

/// Rebuilds a fresh graph from the reference's final live structure.  The
/// canonical signature is id-numbering-invariant, so it must match the
/// mutated graph's signature exactly.
fn rebuild(reference: &RefGraph, name: &str) -> Cdfg {
    let mut out = Cdfg::new(name);
    let mut map: Vec<Option<NodeId>> = vec![None; reference.nodes.len()];
    for (idx, node) in reference.nodes.iter().enumerate() {
        if let Some(node) = node {
            map[idx] = Some(out.add_node(node.kind.clone()));
        }
    }
    for edge in reference.edges.iter().flatten() {
        out.connect(
            map[edge.from.0].expect("edge source is live"),
            edge.from.1,
            map[edge.to.0].expect("edge sink is live"),
            edge.to.1,
        )
        .expect("reference edges are well formed");
    }
    out
}

fn run(graph: &Cdfg, values: &[i64]) -> Result<RunResult, CdfgError> {
    let mut names: Vec<String> = graph
        .inputs()
        .into_iter()
        .map(|(name, _)| name.to_string())
        .collect();
    names.sort();
    let mut interp = Interpreter::new(graph);
    for (i, name) in names.into_iter().enumerate() {
        let v = values.get(i % values.len().max(1)).copied().unwrap_or(1);
        interp.bind(name, Value::Word(v));
    }
    interp.run()
}

/// Interprets both graphs; outcomes must agree.  Error payloads carry node
/// ids (which legitimately differ between the two graphs), so errors are
/// compared by discriminant only.
fn compare_runs(a: &Cdfg, b: &Cdfg, values: &[i64]) {
    match (run(a, values), run(b, values)) {
        (Ok(ra), Ok(rb)) => assert_eq!(ra.sorted(), rb.sorted()),
        (Err(ea), Err(eb)) => {
            assert_eq!(std::mem::discriminant(&ea), std::mem::discriminant(&eb));
        }
        (ra, rb) => panic!("interpreter outcomes diverged: {ra:?} vs {rb:?}"),
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every primitive: ids, connectivity, journal contents, stats,
    /// signatures, and interpretation all match the reference
    /// implementation of the old semantics.  The journal holds each node the
    /// reference's events name once, in first-touch order.
    #[test]
    fn flat_graph_matches_the_reference_semantics(
        ops in prop::collection::vec(arb_op(), 1..60),
        values in prop::collection::vec(-40i64..40, 0..8),
    ) {
        let (mut graph, reference, ids) = apply(&ops);
        check_structure(&graph, &reference, &ids);

        let mut drained = Vec::new();
        graph.drain_touched_into(&mut drained);
        let drained: Vec<usize> = drained.iter().map(|id| id.index()).collect();
        let mut first_touch = Vec::new();
        for &slot in &reference.events {
            if !first_touch.contains(&slot) {
                first_touch.push(slot);
            }
        }
        prop_assert_eq!(drained, first_touch);

        let rebuilt = rebuild(&reference, graph.name());
        prop_assert_eq!(GraphStats::of(&graph), GraphStats::of(&rebuilt));
        prop_assert_eq!(canonical_signature(&graph), canonical_signature(&rebuilt));
        compare_runs(&graph, &rebuilt, &values);
    }

    /// `compact` and `splice` preserve structure for any mutation history,
    /// including histories that left holes.  `compact` also preserves
    /// order: node order, the global edge order and every output port's
    /// sink order (edge ids grow in connect order).
    #[test]
    fn compact_and_splice_preserve_the_reference_structure(
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let (graph, reference, ids) = apply(&ops);

        let (compacted, remap) = graph.compact();
        prop_assert_eq!(compacted.node_count(), graph.node_count());
        prop_assert_eq!(compacted.edge_count(), graph.edge_count());
        prop_assert_eq!(compacted.node_bound(), compacted.node_count());
        for (idx, slot) in reference.nodes.iter().enumerate() {
            if let Some(node) = slot {
                prop_assert_eq!(compacted.kind(remap[ids[idx]]).unwrap(), &node.kind);
            }
        }
        prop_assert_eq!(canonical_signature(&compacted), canonical_signature(&graph));

        let new_ids: Vec<NodeId> = remap.iter().map(|(_, new)| new).collect();
        prop_assert!(new_ids.windows(2).all(|pair| pair[0] < pair[1]));
        let moved = |end: Endpoint| Endpoint::new(remap[end.node], end.port_index());
        let original_edges: Vec<Edge> = graph
            .edges()
            .map(|(_, edge)| Edge::new(moved(edge.from), moved(edge.to)))
            .collect();
        let compacted_edges: Vec<Edge> = compacted.edges().map(|(_, edge)| *edge).collect();
        prop_assert_eq!(compacted_edges, original_edges);
        for (id, node) in graph.nodes() {
            for port in 0..node.output_count() {
                let sinks: Vec<Endpoint> = graph.output_sinks_iter(id, port).map(moved).collect();
                prop_assert_eq!(compacted.output_sinks(remap[id], port), sinks);
            }
        }

        // Splicing binds each input to a fresh host input of the same name;
        // what each output carries then drives a host output of that name,
        // which rebuilds the same structure.
        let mut spliced = Cdfg::new(graph.name());
        let bound: Vec<Endpoint> = compacted
            .inputs()
            .into_iter()
            .map(|(name, _)| Endpoint::new(spliced.add_node(NodeKind::Input(name)), 0))
            .collect();
        let produced = spliced.splice(&compacted, &bound).unwrap();
        for ((name, _), value) in compacted.outputs().into_iter().zip(produced) {
            let out = spliced.add_node(NodeKind::Output(name));
            if let Some(src) = value {
                spliced.connect(src.node, src.port_index(), out, 0).unwrap();
            }
        }
        prop_assert_eq!(spliced.node_count(), compacted.node_count());
        prop_assert_eq!(spliced.edge_count(), compacted.edge_count());
        prop_assert_eq!(canonical_signature(&spliced), canonical_signature(&compacted));
    }
}
