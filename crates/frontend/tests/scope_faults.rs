//! Kernels whose meaning depends on which declaration a name occurrence
//! names, run through the CDFG interpreter with explicit inputs.  Each one
//! was lowered wrongly, or refused, while scoping was keyed by name: two
//! arrays of one name shared a base, two branches reading one unassigned
//! scalar made two inputs of its name, a loop did not carry a scalar it
//! declared again in a nested branch, and a parameter first read inside a
//! branch was dropped after it.  Two parameter declarations of one name
//! made two inputs of that name until the lowering bound both to one.

use fpfa_cdfg::interp::{Interpreter, RunResult};
use fpfa_cdfg::{StateSpace, Value};
use fpfa_frontend::compile;
use fpfa_frontend::lower::STATE_NAME;

/// Runs `source` with `scalars` bound and the words `memory` at addresses
/// 0, 1, ... of the statespace.
fn run(source: &str, scalars: &[(&str, i64)], memory: &[i64]) -> RunResult {
    let program = compile(source).unwrap_or_else(|e| panic!("{source}: {e}"));
    let state = StateSpace::from_tuples((0..).zip(memory.iter().copied()));
    let mut interp = Interpreter::new(&program.cdfg);
    interp.bind(STATE_NAME, Value::State(state));
    for (name, value) in scalars {
        interp.bind(*name, Value::Word(*value));
    }
    interp.run().unwrap_or_else(|e| panic!("{source}: {e}"))
}

#[test]
fn an_array_declared_again_after_a_branch_has_its_own_base() {
    let again = "void main() { int c; int t; t = 0; if (c) { int a[2]; t = a[0]; } \
                 int a[3]; t = t + a[1]; }";
    let renamed = "void main() { int c; int t; t = 0; if (c) { int a[2]; t = a[0]; } \
                   int b[3]; t = t + b[1]; }";
    for c in [0, 1] {
        let memory = [10, 20, 30, 40, 50];
        let t = run(again, &[("c", c)], &memory).word("t");
        assert_eq!(t, run(renamed, &[("c", c)], &memory).word("t"), "c = {c}");
        // The second array starts after the first: its `[1]` is address 3.
        assert_eq!(t, Some(if c != 0 { 10 + 40 } else { 40 }), "c = {c}");
    }
}

#[test]
fn two_branches_reading_one_parameter_share_its_input() {
    let source = "void main() { int n; int c; int y; if (c) { y = n; } else { y = n + 1; } }";
    for (c, y) in [(1, 7), (5, 7), (0, 8)] {
        assert_eq!(run(source, &[("n", 7), ("c", c)], &[]).word("y"), Some(y));
    }
}

#[test]
fn a_loop_carries_a_scalar_that_a_nested_branch_declares_again() {
    let source = "void main() { int x; int i; int c; x = 1; i = 0; \
                  while (i < 2) { if (c) { int x; x = 2; } i = i + x; } }";
    for c in [0, 1] {
        let result = run(source, &[("c", c)], &[]);
        assert_eq!(result.word("i"), Some(2), "c = {c}");
        assert_eq!(result.word("x"), Some(1), "c = {c}");
    }
}

#[test]
fn a_parameter_first_read_in_a_branch_keeps_its_value_after_it() {
    let source = "void main() { int n; int c; int y; int z; if (c) { y = n; } z = n; }";
    for c in [0, 1] {
        let result = run(source, &[("n", 7), ("c", c)], &[]);
        assert_eq!(result.word("z"), Some(7), "c = {c}");
        assert_eq!(result.word("n"), Some(7), "c = {c}");
    }
}

#[test]
fn parameter_declarations_of_one_name_share_one_input() {
    let both_branches = "void main() { int c; int y; \
                         if (c) { int n; y = n; } else { int n; y = n + 1; } }";
    let branch_then_after = "void main() { int c; int y; int z; \
                             if (c) { int n; y = n; } int n; z = n; }";
    for source in [both_branches, branch_then_after] {
        let inputs = compile(source).unwrap().cdfg.inputs();
        let named_n = inputs.iter().filter(|(name, _)| name == "n").count();
        assert_eq!(named_n, 1, "{source}");
    }
    for (c, y) in [(1, 7), (5, 7), (0, 8)] {
        assert_eq!(
            run(both_branches, &[("n", 7), ("c", c)], &[]).word("y"),
            Some(y)
        );
    }
    for c in [0, 1] {
        let result = run(branch_then_after, &[("n", 7), ("c", c)], &[]);
        assert_eq!(result.word("z"), Some(7), "c = {c}");
        if c != 0 {
            assert_eq!(result.word("y"), Some(7));
        }
    }
}
