//! Acceptance tests for the worklist-driven incremental rewrite engine: on
//! every registry kernel the new engine, alone and inside the mapper, must
//! minimise to a graph structurally identical to the output of the
//! full-scan reference `Pipeline` while visiting at most half the nodes the
//! reference scans, and the mapped programs must stay equivalent to the
//! CDFG reference semantics on both single-tile and multi-tile flows.

use fpfa::cdfg::{canonical_signature, Cdfg, GraphStats};
use fpfa::core::pipeline::Mapper;
use fpfa::sim::{check_against_cdfg, check_multi_against_cdfg, SimInputs};
use fpfa::transform::{standard_passes, Pipeline, Transform, TransformError, WorklistDriver};
use fpfa::workloads::{self, Kernel};
use std::cell::Cell;
use std::rc::Rc;

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

/// A reference pass that first adds the live node count of the graph it is
/// handed to a running sum: the nodes a full-scan pass looks at.
struct Scanned {
    pass: Box<dyn Transform + Send + Sync>,
    nodes: Rc<Cell<usize>>,
}

impl Transform for Scanned {
    fn name(&self) -> &'static str {
        self.pass.name()
    }

    fn apply(&self, graph: &mut Cdfg) -> Result<usize, TransformError> {
        self.nodes.set(self.nodes.get() + graph.node_count());
        self.pass.apply(graph)
    }
}

#[test]
fn every_registry_kernel_minimises_identically_on_both_engines() {
    for kernel in workloads::registry() {
        let program = fpfa::frontend::compile(&kernel.source)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", kernel.name));

        let scanned = Rc::new(Cell::new(0));
        let reference = standard_passes()
            .into_iter()
            .fold(Pipeline::new(), |pipeline, pass| {
                pipeline.with(Scanned {
                    pass,
                    nodes: Rc::clone(&scanned),
                })
            });
        let mut legacy = program.cdfg.clone();
        let legacy_report = reference
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
        // The engine is output-sensitive: its instrumentation must be there,
        // and it re-examines only what rewrites touched, so it visits at most
        // half the nodes the full-scan reference looks at.
        assert!(!outcome.round_stats.is_empty(), "{}", kernel.name);
        assert!(
            2 * outcome.visited_total() <= scanned.get(),
            "{}: the worklist engine visited {} nodes, more than half of the {} \
             the reference scanned",
            kernel.name,
            outcome.visited_total(),
            scanned.get()
        );
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
