//! If-conversion merges the scalars the two branches change in declaration
//! order, so a kernel lowers to the same CDFG on every call, whatever order
//! the branches assign in.

use fpfa_cdfg::NodeKind;
use fpfa_frontend::compile;

/// Both branches of one `if`/`else` update four scalars.
const THRESHOLD: &str = include_str!("../../../examples/kernels/threshold.c");

#[test]
fn a_four_scalar_merge_lowers_to_equal_programs_on_every_call() {
    let first = compile(THRESHOLD).expect("the threshold kernel compiles");
    for call in 1..20 {
        let again = compile(THRESHOLD).expect("the threshold kernel compiles");
        assert!(again == first, "call {call} lowered a different program");
    }
}

#[test]
fn merge_multiplexers_follow_declaration_order_not_assignment_order() {
    let program = compile(
        "void main() { int c; int b; int a; b = 1; a = 2; \
         if (c) { a = 3; b = 4; } else { a = 5; b = 6; } }",
    )
    .expect("compiles");
    let graph = &program.cdfg;
    // The constant each multiplexer takes when the condition holds, in
    // node order: `b` (declared first) merges before `a`.
    let taken: Vec<i64> = graph
        .nodes()
        .filter(|(_, node)| matches!(node.kind, NodeKind::Mux))
        .map(|(id, _)| {
            let source = graph.input_source(id, 1).expect("port 1 is driven");
            match graph.kind(source.node) {
                Ok(NodeKind::Const(value)) => *value,
                other => panic!("expected a constant, found {other:?}"),
            }
        })
        .collect();
    assert_eq!(taken, [4, 3]);
}
