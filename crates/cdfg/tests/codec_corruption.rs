//! Corrupt encodings never decode into a graph that panics.
//!
//! Every byte of each encoding below is flipped (`^ 0x5A`) in turn.  Each
//! flip must either fail with a typed error or decode into a graph on which
//! the topological sort, validation, the canonical signature, the
//! neighbour queries and `remove_node` of every node all return without
//! panicking, that re-encodes to the same bytes, and on which growing the
//! graph recycles only holes.  The graphs cover the arena features the
//! codec carries: an 8-tap FIR in frontend form (a structured loop with
//! nested condition and body graphs), the same kernel unrolled as the
//! minimiser leaves it (a statespace input fanned out past the inline port
//! capacity, holes from removed nodes), and a graph with id reuse and
//! non-empty free lists.

// Test helpers outside `#[test]` functions are not covered by
// `allow-unwrap-in-tests`.
#![allow(clippy::unwrap_used)]

use fpfa_cdfg::validate::validate_all;
use fpfa_cdfg::{canonical_signature, BinOp, Cdfg, CdfgBuilder, LoopSpec, NodeId, NodeKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

const TAPS: i64 = 8;

/// `sum += a[i] * c[i]` over `TAPS` iterations, as a structured loop over
/// the statespace `mem` (`a` at addresses `0..TAPS`, `c` after it).
fn fir_frontend() -> Cdfg {
    let vars: Vec<String> = ["i", "sum", "mem"].map(String::from).to_vec();

    let mut cond = CdfgBuilder::new("cond");
    let i = cond.input("i");
    let taps = cond.constant(TAPS);
    let lt = cond.binop(BinOp::Lt, i, taps);
    cond.output(LoopSpec::COND_OUTPUT, lt);

    let mut body = CdfgBuilder::new("body");
    let i = body.input("i");
    let sum = body.input("sum");
    let mem = body.input("mem");
    let a = body.fetch(mem, i);
    let offset = body.constant(TAPS);
    let c_addr = body.add(i, offset);
    let c = body.fetch(mem, c_addr);
    let product = body.mul(a, c);
    let next_sum = body.add(sum, product);
    let one = body.constant(1);
    let next_i = body.add(i, one);
    body.output("i", next_i);
    body.output("sum", next_sum);
    body.output("mem", mem);

    let spec = LoopSpec {
        vars,
        cond: cond.finish().unwrap(),
        body: body.finish().unwrap(),
    };
    let mut outer = CdfgBuilder::new("fir");
    let mem = outer.input("mem");
    let zero = outer.constant(0);
    let finals = outer.loop_node(spec, &[zero, zero, mem]);
    outer.output("sum", finals[1]);
    outer.output("mem", finals[2]);
    outer.finish().unwrap()
}

/// The FIR fully unrolled and folded, plus a store of the result, with the
/// holes a rewrite leaves behind (dead nodes removed without id reuse).
fn fir_simplified() -> Cdfg {
    let mut b = CdfgBuilder::new("fir");
    let mem = b.input("mem");
    let mut sum = b.constant(0);
    let mut dead = Vec::new();
    for k in 0..TAPS {
        let a_addr = b.constant(k);
        let a = b.fetch(mem, a_addr);
        let c_addr = b.constant(TAPS + k);
        let c = b.fetch(mem, c_addr);
        let product = b.mul(a, c);
        sum = b.add(sum, product);
        dead.push(b.constant(-k).node);
    }
    let slot = b.constant(2 * TAPS);
    let stored = b.store(mem, slot, sum);
    b.output("sum", sum);
    b.output("mem", stored);
    let mut graph = b.finish().unwrap();
    for id in dead {
        graph.remove_node(id).unwrap();
    }
    graph
}

/// A graph rewritten under id reuse: recycled slots, holes and both free
/// lists non-empty.
fn recycled() -> Cdfg {
    let mut graph = fir_simplified();
    graph.enable_id_reuse();
    let victims: Vec<NodeId> = graph
        .nodes()
        .filter(|(_, n)| matches!(n.kind, NodeKind::BinOp(BinOp::Mul)))
        .map(|(id, _)| id)
        .take(3)
        .collect();
    for &id in &victims {
        graph.remove_node(id).unwrap();
    }
    let fresh = graph.add_node(NodeKind::Const(5));
    assert!(victims.contains(&fresh), "a freed slot is recycled");
    let (to, port) = graph
        .nodes()
        .find_map(|(id, n)| {
            (0..n.input_count())
                .find(|p| n.input_edge(*p).is_none())
                .map(|p| (id, p))
        })
        .unwrap();
    graph.connect(fresh, 0, to, port).unwrap();
    graph
}

/// Runs every read-side query on `graph`, re-encodes it, grows a copy
/// through its free lists, and removes each node of another copy: a
/// consistent arena ends empty.  `encoded` is the encoding `graph` was
/// decoded from; the decoder checks every field it does not rebuild from,
/// so the graph re-encodes to exactly those bytes.
fn exercise(graph: &Cdfg, encoded: &[u8]) {
    let _ = graph.topo_order();
    let _ = validate_all(graph);
    let _ = canonical_signature(graph);
    let ids: Vec<NodeId> = graph.node_ids().collect();
    for &id in &ids {
        let _ = graph.successors(id);
        let _ = graph.predecessors(id);
        let outputs = graph.node(id).map_or(0, |n| n.output_count());
        for port in 0..outputs {
            let _ = graph.output_sinks(id, port);
        }
    }
    let mut bytes = Vec::new();
    graph.encode_into(&mut bytes);
    assert!(bytes == encoded, "the decoded graph re-encodes differently");
    // Growing the graph drains its free lists (under id reuse): every
    // recycled id must be a distinct hole, or the counts drift.
    let mut grown = graph.clone();
    for i in 0..16 {
        let value = grown.add_node(NodeKind::Const(i));
        let sink = grown.add_node(NodeKind::Output(format!("grown{i}")));
        grown.connect(value, 0, sink, 0).unwrap();
    }
    assert_eq!(grown.node_count(), grown.nodes().count());
    assert_eq!(grown.edge_count(), grown.edges().count());
    let mut emptied = graph.clone();
    for id in ids {
        emptied.remove_node(id).unwrap();
    }
    assert_eq!((emptied.node_count(), emptied.edge_count()), (0, 0));
}

/// Flips every byte of `encoded` in turn and returns the offsets whose
/// decode, or whose decoded graph, failed [`exercise`] by panicking.
fn failing_flips(encoded: &[u8]) -> Vec<usize> {
    (0..encoded.len())
        .filter(|&at| {
            let mut flipped = encoded.to_vec();
            flipped[at] ^= 0x5A;
            catch_unwind(AssertUnwindSafe(|| {
                let mut rest = flipped.as_slice();
                if let Ok(decoded) = Cdfg::decode_from(&mut rest) {
                    let consumed = flipped.len() - rest.len();
                    exercise(&decoded, &flipped[..consumed]);
                }
            }))
            .is_err()
        })
        .collect()
}

#[test]
fn every_single_byte_flip_is_an_error_or_a_consistent_graph() {
    for (what, graph) in [
        ("frontend", fir_frontend()),
        ("simplified", fir_simplified()),
        ("recycled", recycled()),
    ] {
        let mut encoded = Vec::new();
        graph.encode_into(&mut encoded);
        let decoded = Cdfg::decode_from(&mut encoded.as_slice()).unwrap();
        assert_eq!(decoded, graph);
        exercise(&decoded, &encoded);
        let failed = failing_flips(&encoded);
        assert!(
            failed.is_empty(),
            "{what}: {} flip(s) failed, first at byte offsets {:?}",
            failed.len(),
            &failed[..failed.len().min(8)]
        );
    }
}
