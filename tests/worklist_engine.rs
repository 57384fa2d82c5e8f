//! Acceptance tests for the worklist-driven incremental rewrite engine: on
//! every registry kernel the new engine, alone and inside the mapper, must
//! minimise to a graph structurally identical to the output of the
//! full-scan reference `Pipeline`, and the mapped programs must stay
//! equivalent to the CDFG reference semantics on both single-tile and
//! multi-tile flows.

use fpfa::cdfg::{canonical_signature, GraphStats};
use fpfa::core::pipeline::Mapper;
use fpfa::sim::{check_against_cdfg, check_multi_against_cdfg, SimInputs};
use fpfa::transform::{Pipeline, WorklistDriver};
use fpfa::workloads::{self, Kernel};

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
fn every_registry_kernel_minimises_identically_on_both_engines() {
    for kernel in workloads::registry() {
        let program = fpfa::frontend::compile(&kernel.source)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", kernel.name));

        let mut legacy = program.cdfg.clone();
        let legacy_report = Pipeline::standard()
            .run(&mut legacy)
            .unwrap_or_else(|e| panic!("{}: legacy pipeline failed: {e}", kernel.name));

        let mut incremental = program.cdfg.clone();
        let outcome = WorklistDriver::new()
            .run_standard(&mut incremental)
            .unwrap_or_else(|e| panic!("{}: worklist engine failed: {e}", kernel.name));

        assert_eq!(
            canonical_signature(&legacy),
            canonical_signature(&incremental),
            "{}: engines minimised to different structures",
            kernel.name
        );
        assert_eq!(
            GraphStats::of(&legacy),
            GraphStats::of(&incremental),
            "{}: engines disagree on graph statistics",
            kernel.name
        );
        assert_eq!(
            legacy_report.total_changes(),
            outcome.report.total_changes(),
            "{}: engines did different amounts of work",
            kernel.name
        );
        // The engine is output-sensitive: its instrumentation must be there.
        assert!(!outcome.round_stats.is_empty(), "{}", kernel.name);
    }
}

#[test]
fn every_registry_kernel_maps_equivalently_through_the_new_engine() {
    for kernel in workloads::registry() {
        let incremental = Mapper::new()
            .map_source(&kernel.source)
            .unwrap_or_else(|e| panic!("{} failed to map: {e}", kernel.name));
        let mut reference = fpfa::frontend::compile(&kernel.source)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", kernel.name))
            .cdfg;
        Pipeline::standard()
            .run(&mut reference)
            .unwrap_or_else(|e| panic!("{}: reference pipeline failed: {e}", kernel.name));

        // The mapper minimised to the reference pipeline's structure...
        assert_eq!(
            canonical_signature(&reference),
            canonical_signature(&incremental.simplified),
            "{}: the mapper's minimised CDFG differs from the reference pipeline's",
            kernel.name
        );
        // ...and the incremental mapping stays faithful to the semantics.
        let inputs = inputs_for(&kernel, &incremental);
        let report = check_against_cdfg(&incremental.simplified, &incremental.program, &inputs)
            .unwrap_or_else(|e| panic!("{} failed to execute: {e}", kernel.name));
        assert!(
            report.is_equivalent(),
            "{}: mapped program diverges from the CDFG: {report}",
            kernel.name
        );
        // The minimiser instrumentation surfaced into the mapping report.
        assert!(
            incremental.report.transform_visited_nodes > 0,
            "{}: missing minimiser stats",
            kernel.name
        );
    }
}

#[test]
fn multi_tile_mappings_stay_equivalent_through_the_new_engine() {
    for kernel in workloads::multi_tile_registry() {
        let mapping = Mapper::new()
            .with_tiles(4)
            .map_source(&kernel.source)
            .unwrap_or_else(|e| panic!("{} failed to map on 4 tiles: {e}", kernel.name));
        let multi = mapping
            .multi
            .as_ref()
            .unwrap_or_else(|| panic!("{}: no multi-tile mapping", kernel.name));
        let inputs = inputs_for(&kernel, &mapping);
        let report = check_multi_against_cdfg(&mapping.simplified, &multi.program, &inputs)
            .unwrap_or_else(|e| panic!("{} failed to execute: {e}", kernel.name));
        assert!(
            report.is_equivalent(),
            "{}: multi-tile program diverges from the CDFG: {report}",
            kernel.name
        );
    }
}
