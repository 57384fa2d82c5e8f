//! End-to-end integration tests: C source → CDFG → transformations →
//! clustering → scheduling → allocation → cycle-accurate simulation, checked
//! against the CDFG reference interpreter for every workload kernel.

use fpfa::core::baseline;
use fpfa::core::pipeline::Mapper;
use fpfa::sim::{check_against_cdfg, SimInputs};
use fpfa::workloads::{self, Kernel};

/// Builds the simulator inputs for a kernel using the frontend's layout.
fn inputs_for(kernel: &Kernel, mapping: &fpfa::core::MappingResult) -> SimInputs {
    let mut inputs = SimInputs::new();
    for (name, values) in &kernel.arrays {
        let sym = mapping
            .layout
            .array(name)
            .unwrap_or_else(|| panic!("{}: array `{name}` missing from layout", kernel.name));
        inputs.statespace.store_array(sym.base, values);
    }
    for (name, value) in &kernel.scalars {
        inputs.scalars.insert(name.clone(), *value);
    }
    inputs
}

#[test]
fn every_workload_kernel_maps_and_matches_the_reference_semantics() {
    for kernel in workloads::registry() {
        let mapping = Mapper::new()
            .map_source(&kernel.source)
            .unwrap_or_else(|e| panic!("{} failed to map: {e}", kernel.name));
        let inputs = inputs_for(&kernel, &mapping);
        let report = check_against_cdfg(&mapping.simplified, &mapping.program, &inputs)
            .unwrap_or_else(|e| panic!("{} failed to execute: {e}", kernel.name));
        assert!(
            report.is_equivalent(),
            "{}: mapped program diverges from the CDFG: {report}",
            kernel.name
        );
    }
}

#[test]
fn every_workload_kernel_respects_the_tile_limits() {
    for kernel in workloads::registry() {
        let mapping = Mapper::new().map_source(&kernel.source).unwrap();
        let config = mapping.program.config;
        assert!(
            mapping.report.alus_used <= config.num_pps,
            "{}",
            kernel.name
        );
        for cycle in mapping.program.cycles() {
            assert!(cycle.busy_alus() <= config.num_pps);
            let crossbar = cycle.moves.iter().filter(|m| m.via_crossbar).count()
                + cycle.writebacks.iter().filter(|w| w.via_crossbar).count();
            assert!(crossbar <= config.crossbar_buses, "{}", kernel.name);
        }
    }
}

#[test]
fn clustered_five_alu_mapping_beats_the_sequential_baseline() {
    // The headline claim of experiment T1: the mapped kernels finish in fewer
    // cycles than a single-ALU, one-op-per-cycle execution.
    for kernel in workloads::registry() {
        let mapped = Mapper::new().map_source(&kernel.source).unwrap();
        let sequential = baseline::sequential(&kernel.source).unwrap();
        assert!(
            mapped.report.cycles <= sequential.report.cycles,
            "{}: mapped {} cycles vs sequential {} cycles",
            kernel.name,
            mapped.report.cycles,
            sequential.report.cycles
        );
    }
}

#[test]
fn locality_allocator_never_reads_memory_more_than_the_baseline() {
    for kernel in workloads::registry() {
        let with = Mapper::new().map_source(&kernel.source).unwrap();
        let without = baseline::no_locality(&kernel.source).unwrap();
        assert!(
            with.report.register_misses <= without.report.register_misses,
            "{}: locality allocator should not need more memory reads",
            kernel.name
        );
    }
}

#[test]
fn baselines_compute_the_same_results_as_the_full_mapper() {
    // The baselines are slower, never wrong.
    for kernel in [workloads::fir(8), workloads::fft_butterfly_stage(2)] {
        for mapping in [
            baseline::sequential(&kernel.source).unwrap(),
            baseline::unclustered(&kernel.source).unwrap(),
            baseline::no_locality(&kernel.source).unwrap(),
        ] {
            let inputs = inputs_for(&kernel, &mapping);
            let report =
                check_against_cdfg(&mapping.simplified, &mapping.program, &inputs).unwrap();
            assert!(report.is_equivalent(), "{}: {report}", kernel.name);
        }
    }
}

#[test]
fn sweeping_the_number_of_alus_is_monotone_for_the_fir_kernel() {
    let kernel = workloads::fir(16);
    let mut previous = usize::MAX;
    for pps in [1usize, 2, 3, 5, 8] {
        let config = fpfa::arch::TileConfig::paper().with_num_pps(pps);
        let mapping = Mapper::new()
            .with_config(config)
            .map_source(&kernel.source)
            .unwrap();
        assert!(
            mapping.report.cycles <= previous,
            "more ALUs should never increase the cycle count ({pps} PPs)"
        );
        previous = mapping.report.cycles;
    }
}

#[test]
fn undersized_tiles_produce_typed_errors() {
    let kernel = workloads::fir(16);
    // A tile with almost no memory cannot hold the kernel's inputs.
    let tiny_memory = fpfa::arch::TileConfig::paper().with_memories(1, 2);
    let err = Mapper::new()
        .with_config(tiny_memory)
        .map_source(&kernel.source)
        .unwrap_err();
    assert!(matches!(err, fpfa::core::MapError::CapacityExceeded { .. }));
}

#[test]
fn tiles_wider_than_the_program_records_are_refused() {
    // Memory and register references store PP, register and word indices
    // in one or two bytes; a tile past those widths is a typed error at 1
    // and 4 tiles, never a panic or a truncated reference.
    let kernel = workloads::fir(16);
    let paper = fpfa::arch::TileConfig::paper();
    for config in [
        paper.with_num_pps(256),
        paper.with_register_files(4, 256),
        paper.with_memories(2, 65_536),
    ] {
        for tiles in [1, 4] {
            let err = Mapper::new()
                .with_config(config)
                .with_tiles(tiles)
                .map_source(&kernel.source)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    fpfa::core::MapError::Arch(fpfa::arch::ArchError::InvalidConfig(_))
                ),
                "{err}"
            );
        }
    }
}

#[test]
fn dynamic_loop_bounds_are_rejected_with_a_transform_error() {
    let source = r#"
        void main() {
            int a[8];
            int n;
            int s;
            int i;
            s = 0; i = 0;
            while (i < n) { s = s + a[i]; i = i + 1; }
        }
    "#;
    let err = Mapper::new().map_source(source).unwrap_err();
    assert!(matches!(err, fpfa::core::MapError::Transform(_)));
}

#[test]
fn mapping_reports_are_internally_consistent() {
    for kernel in workloads::registry() {
        let mapping = Mapper::new().map_source(&kernel.source).unwrap();
        let r = &mapping.report;
        assert!(r.clusters <= r.operations.max(1), "{}", kernel.name);
        assert!(r.levels >= r.critical_path, "{}", kernel.name);
        assert!(r.cycles >= r.levels, "{}", kernel.name);
        assert_eq!(r.cycles, mapping.program.cycle_count(), "{}", kernel.name);
        assert!(
            r.alu_utilization > 0.0 && r.alu_utilization <= 1.0,
            "{}",
            kernel.name
        );
    }
}

#[test]
fn map_many_matches_single_kernel_mapping_for_every_workload() {
    let specs: Vec<fpfa::core::KernelSpec> = workloads::registry()
        .into_iter()
        .map(|k| fpfa::core::KernelSpec::new(k.name.clone(), k.source.clone()))
        .collect();
    let mapper = Mapper::new();
    let batch = mapper.map_many(&specs);

    assert_eq!(batch.failed(), 0, "all registry kernels must map: {batch}");
    assert_eq!(batch.entries.len(), specs.len());

    for (spec, entry) in specs.iter().zip(&batch.entries) {
        assert_eq!(spec.name, entry.name);
        let batched = entry.outcome.as_ref().expect("kernel mapped");
        let single = mapper.map_source(&spec.source).expect("kernel maps alone");
        // The mapping flow is deterministic: mapping in a batch must produce
        // exactly the same program and statistics as mapping alone.
        assert_eq!(batched.program, single.program, "{}", spec.name);
        assert_eq!(batched.schedule, single.schedule, "{}", spec.name);
        assert_eq!(batched.report.cycles, single.report.cycles, "{}", spec.name);
        assert_eq!(batched.report.levels, single.report.levels, "{}", spec.name);
        assert_eq!(
            batched.report.operations, single.report.operations,
            "{}",
            spec.name
        );
    }
}

#[test]
fn batch_reports_expose_per_stage_timings_for_every_stage() {
    let specs: Vec<fpfa::core::KernelSpec> = workloads::registry()
        .into_iter()
        .map(|k| fpfa::core::KernelSpec::new(k.name.clone(), k.source.clone()))
        .collect();
    let batch = Mapper::new().map_many(&specs);
    assert_eq!(batch.failed(), 0);

    // Every mapping stage appears in the aggregate with every kernel counted.
    for stage in [
        "frontend",
        "transform",
        "extract",
        "cluster",
        "schedule",
        "allocate",
    ] {
        let total = batch
            .stage_totals()
            .into_iter()
            .find(|t| t.stage == stage)
            .unwrap_or_else(|| panic!("stage `{stage}` missing from batch totals"));
        assert_eq!(total.kernels, specs.len(), "{stage}");
    }
    // And per kernel, the trace covers the full flow.
    for entry in &batch.entries {
        let mapping = entry.outcome.as_ref().expect("mapped");
        for stage in ["frontend", "transform", "cluster", "schedule", "allocate"] {
            assert!(
                mapping.trace.wall_of(stage).is_some(),
                "{}: stage `{stage}` not timed",
                entry.name
            );
        }
    }
}

#[test]
fn map_many_is_deterministic_across_thread_counts() {
    let specs: Vec<fpfa::core::KernelSpec> = workloads::registry()
        .into_iter()
        .map(|k| fpfa::core::KernelSpec::new(k.name.clone(), k.source.clone()))
        .collect();
    let wide = Mapper::new().map_many(&specs);
    let narrow = Mapper::new().with_batch_threads(1).map_many(&specs);
    for (a, b) in wide.entries.iter().zip(&narrow.entries) {
        let (a, b) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        assert_eq!(a.program, b.program);
    }
}
