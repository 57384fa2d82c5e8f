//! Integration tests for degenerate and boundary kernels.

use fpfa::core::pipeline::Mapper;
use fpfa::core::program_digest;
use fpfa::sim::{SimInputs, Simulator};

#[test]
fn kernel_with_no_operations_maps_to_an_empty_program() {
    // Everything folds to constants: no ALU work remains.
    let mapping = Mapper::new()
        .map_source("void main() { int x; int y; x = 3; y = x * 2 + 1; }")
        .unwrap();
    assert_eq!(mapping.report.operations, 0);
    assert_eq!(mapping.report.clusters, 0);
    assert_eq!(mapping.program.cycle_count(), 0);
    // The outputs are still available (as constants).
    let outcome = Simulator::new(&mapping.program)
        .run(&SimInputs::new())
        .unwrap();
    assert_eq!(outcome.scalar("x"), Some(3));
    assert_eq!(outcome.scalar("y"), Some(7));
}

#[test]
fn kernel_with_a_single_operation_uses_one_cycle_of_alu_work() {
    let mapping = Mapper::new()
        .map_source("void main() { int a[2]; int r; r = a[0] * a[1]; }")
        .unwrap();
    assert_eq!(mapping.report.operations, 1);
    assert_eq!(mapping.report.clusters, 1);
    assert_eq!(mapping.report.levels, 1);
    let inputs = SimInputs::new().array(0, &[-3, 9]);
    let outcome = Simulator::new(&mapping.program).run(&inputs).unwrap();
    assert_eq!(outcome.scalar("r"), Some(-27));
}

#[test]
fn zero_trip_loops_disappear_entirely() {
    let mapping = Mapper::new()
        .map_source(
            "void main() { int a[4]; int s; int i; s = 7; i = 0; \
             while (i < 0) { s = s + a[i]; i = i + 1; } }",
        )
        .unwrap();
    assert_eq!(mapping.report.operations, 0);
    let outcome = Simulator::new(&mapping.program)
        .run(&SimInputs::new())
        .unwrap();
    assert_eq!(outcome.scalar("s"), Some(7));
}

#[test]
fn constant_array_writes_reach_the_final_statespace() {
    let mapping = Mapper::new()
        .map_source("void main() { int a[3]; a[0] = 11; a[1] = 22; a[2] = 33; }")
        .unwrap();
    let outcome = Simulator::new(&mapping.program)
        .run(&SimInputs::new())
        .unwrap();
    assert_eq!(outcome.final_statespace.fetch(0), Some(11));
    assert_eq!(outcome.final_statespace.fetch(1), Some(22));
    assert_eq!(outcome.final_statespace.fetch(2), Some(33));
}

#[test]
fn constant_array_writes_map_identically_on_every_run() {
    // Each constant final write gets a memory word of its own; the words are
    // handed out in address order, never in hash-map order, so re-mapping
    // the kernel in one process yields the same program every time.
    let source = "void main() { int y[6]; \
                  y[0] = 1; y[1] = 2; y[2] = 3; y[3] = 4; y[4] = 5; y[5] = 6; }";
    for tiles in [1, 2] {
        let mapper = Mapper::new().with_tiles(tiles);
        let first = mapper.map_source(source).unwrap();
        for run in 1..20 {
            let again = mapper.map_source(source).unwrap();
            assert_eq!(again.program, first.program, "{tiles} tile(s), run {run}");
            assert_eq!(again.multi, first.multi, "{tiles} tile(s), run {run}");
        }
    }
}

#[test]
fn a_four_scalar_branch_merge_maps_to_one_digest_on_every_run() {
    // Both branches of the kernel's if/else update four scalars; the
    // frontend merges them in declaration order, never in hash-map order,
    // so every in-process map of it gives the same program.
    let source = include_str!("../examples/kernels/threshold.c");
    for tiles in [1, 4] {
        let digests: Vec<u64> = (0..20)
            .map(|_| program_digest(&Mapper::new().with_tiles(tiles).map_source(source).unwrap()))
            .collect();
        assert!(
            digests.iter().all(|&digest| digest == digests[0]),
            "{tiles} tile(s): {digests:#x?}"
        );
    }
}

#[test]
fn overwritten_array_elements_keep_the_last_value() {
    let mapping = Mapper::new()
        .map_source("void main() { int a[1]; int b[1]; a[0] = 5; a[0] = b[0] * 2; }")
        .unwrap();
    let inputs = SimInputs::new().array(1, &[21]);
    let outcome = Simulator::new(&mapping.program).run(&inputs).unwrap();
    assert_eq!(outcome.final_statespace.fetch(0), Some(42));
}

#[test]
fn deep_expression_chains_split_over_many_levels() {
    // A 16-deep multiply chain cannot fit the 2-deep ALU data-path, so the
    // schedule must have at least 8 levels.
    let mut expr = String::from("a[0]");
    for i in 1..16 {
        expr = format!("({expr} * a[{}])", i % 4);
    }
    let source = format!("void main() {{ int a[4]; int r; r = {expr}; }}");
    let mapping = Mapper::new().map_source(&source).unwrap();
    assert!(mapping.report.levels >= 8);
    let inputs = SimInputs::new().array(0, &[1, 2, 1, 2]);
    let outcome = Simulator::new(&mapping.program).run(&inputs).unwrap();
    assert_eq!(outcome.scalar("r"), Some(2i64.pow(8)));
}

#[test]
fn narrow_crossbar_still_produces_correct_programs() {
    let config = fpfa::arch::TileConfig::paper().with_crossbar_buses(1);
    let kernel = fpfa::workloads::fir(8);
    let mapping = Mapper::new()
        .with_config(config)
        .map_source(&kernel.source)
        .unwrap();
    for cycle in mapping.program.cycles() {
        let buses = cycle.moves.iter().filter(|m| m.via_crossbar).count()
            + cycle.writebacks.iter().filter(|w| w.via_crossbar).count();
        assert!(buses <= 1);
    }
}
