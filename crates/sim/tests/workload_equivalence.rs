//! Cross-crate integration tests: every workload kernel, mapped by every
//! mapper variant, must execute on the simulator with exactly the semantics
//! of the CDFG reference interpreter, and the simulator's event counts must
//! be internally consistent.

use fpfa_core::baseline;
use fpfa_core::pipeline::Mapper;
use fpfa_sim::{check_against_cdfg, SimInputs, Simulator};
use fpfa_workloads::Kernel;

fn inputs_for(kernel: &Kernel, mapping: &fpfa_core::MappingResult) -> SimInputs {
    let mut inputs = SimInputs::new();
    for (name, values) in &kernel.arrays {
        let sym = mapping.layout.array(name).expect("array in layout");
        inputs.statespace.store_array(sym.base, values);
    }
    for (name, value) in &kernel.scalars {
        inputs.scalars.insert(name.clone(), *value);
    }
    inputs
}

#[test]
fn simulator_event_counts_are_consistent_with_the_program() {
    for kernel in fpfa_workloads::registry() {
        let mapping = Mapper::new().map_source(&kernel.source).unwrap();
        let inputs = inputs_for(&kernel, &mapping);
        let outcome = Simulator::new(&mapping.program).run(&inputs).unwrap();

        // The simulator executes exactly the cycles of the program.
        assert_eq!(
            outcome.counts.cycles as usize,
            mapping.program.cycle_count()
        );
        // Every ALU micro-op of the program is executed exactly once.
        let program_ops: usize = mapping
            .program
            .cycles()
            .flat_map(|c| c.alus.iter())
            .map(|a| a.micro_op_count())
            .sum();
        assert_eq!(outcome.counts.alu_ops as usize, program_ops);
        // Moves and write-backs match the memory traffic.
        let moves: usize = mapping.program.cycles().map(|c| c.moves.len()).sum();
        let writebacks: usize = mapping.program.cycles().map(|c| c.writebacks.len()).sum();
        assert_eq!(outcome.counts.mem_reads as usize, moves);
        assert_eq!(outcome.counts.mem_writes as usize, writebacks);
        assert_eq!(outcome.counts.reg_writes as usize, moves);
        // The allocator's own counters agree with the emitted program.
        assert_eq!(mapping.program.stats.register_misses, moves);
        assert_eq!(mapping.program.stats.mem_writebacks, writebacks);
    }
}

#[test]
fn unclustered_and_sequential_variants_stay_equivalent_for_every_kernel() {
    for kernel in fpfa_workloads::registry() {
        for mapping in [
            baseline::unclustered(&kernel.source).unwrap(),
            baseline::sequential(&kernel.source).unwrap(),
        ] {
            let inputs = inputs_for(&kernel, &mapping);
            let report =
                check_against_cdfg(&mapping.simplified, &mapping.program, &inputs).unwrap();
            assert!(report.is_equivalent(), "{}: {report}", kernel.name);
        }
    }
}

#[test]
fn narrower_tiles_remain_functionally_correct() {
    // Shrinking the tile (fewer PPs, fewer buses, shallow ALU) must never
    // change results — only the cycle count.
    let kernel = fpfa_workloads::dct4(2);
    let configs = [
        fpfa_arch::TileConfig::paper().with_num_pps(2),
        fpfa_arch::TileConfig::paper().with_crossbar_buses(2),
        fpfa_arch::TileConfig::paper().with_alu(fpfa_arch::AluCapability::single_op()),
    ];
    let mut cycles = Vec::new();
    for config in configs {
        let mapping = Mapper::new()
            .with_config(config)
            .map_source(&kernel.source)
            .unwrap();
        let inputs = inputs_for(&kernel, &mapping);
        let report = check_against_cdfg(&mapping.simplified, &mapping.program, &inputs).unwrap();
        assert!(report.is_equivalent(), "{report}");
        cycles.push(mapping.report.cycles);
    }
    // The paper tile is at least as fast as any of the degraded variants.
    let full = Mapper::new().map_source(&kernel.source).unwrap();
    assert!(cycles.iter().all(|c| *c >= full.report.cycles));
}
