//! Property-based tests on the mapper phases: clustering, scheduling and
//! allocation invariants over random task graphs and random kernels.

use fpfa_arch::{AluCapability, TileConfig};
use fpfa_core::allocate::Allocator;
use fpfa_core::cluster::{ClusteredGraph, Clusterer};
use fpfa_core::dfg::MappingGraph;
use fpfa_core::schedule::Scheduler;
use fpfa_workloads::straight_line_kernel;
use proptest::prelude::*;
use std::collections::HashMap;

// ----------------------------------------------------------------------
// Random cluster DAGs for the scheduler.
// ----------------------------------------------------------------------

/// A random DAG over `n` clusters: every edge goes from a lower to a higher
/// index, so the graph is acyclic by construction.
fn arb_dag(max_nodes: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..max_nodes).prop_flat_map(|n| {
        let edges = prop::collection::vec((0usize..n, 0usize..n), 0..n * 2).prop_map(move |raw| {
            raw.into_iter()
                .filter_map(|(a, b)| {
                    if a == b {
                        None
                    } else {
                        Some((a.min(b), a.max(b)))
                    }
                })
                .collect::<Vec<_>>()
        });
        (Just(n), edges)
    })
}

// ----------------------------------------------------------------------
// Random straight-line kernels for clustering + allocation.
// ----------------------------------------------------------------------

fn mapping_graph(source: &str) -> MappingGraph {
    let program = fpfa_frontend::compile(source).expect("random kernels compile");
    let mut g = program.cdfg;
    fpfa_transform::WorklistDriver::new()
        .run_standard(&mut g)
        .expect("the worklist engine converges");
    MappingGraph::from_cdfg(&g).expect("random kernels are mappable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // ------------------------------------------------------------------
    // Scheduler invariants on abstract task graphs.
    // ------------------------------------------------------------------
    #[test]
    fn schedule_respects_dependences_and_capacity(
        (n, edges) in arb_dag(40),
        alus in 1usize..7,
    ) {
        let clustered = ClusteredGraph::from_dependencies(n, &edges);
        let schedule = Scheduler::new(alus).schedule(&clustered).unwrap();
        // Capacity: at most `alus` clusters per level.
        prop_assert!(schedule.max_parallelism() <= alus);
        // Completeness: every cluster appears exactly once.
        let total: usize = schedule.levels().iter().map(Vec::len).sum();
        prop_assert_eq!(total, n);
        // Dependences: predecessors are strictly earlier.
        for id in clustered.ids() {
            for pred in clustered.predecessors(id) {
                prop_assert!(schedule.level_of(*pred).unwrap() < schedule.level_of(id).unwrap());
            }
        }
        // Lower bounds: critical path and ceil(n / alus).
        prop_assert!(schedule.level_count() >= clustered.critical_path());
        prop_assert!(schedule.level_count() >= n.div_ceil(alus));
    }

    #[test]
    fn more_alus_never_lengthen_the_schedule(
        (n, edges) in arb_dag(30),
    ) {
        let clustered = ClusteredGraph::from_dependencies(n, &edges);
        let mut previous = usize::MAX;
        for alus in 1..=6 {
            let schedule = Scheduler::new(alus).schedule(&clustered).unwrap();
            prop_assert!(schedule.level_count() <= previous);
            previous = schedule.level_count();
        }
    }

    // ------------------------------------------------------------------
    // Clustering invariants on random kernels.
    // ------------------------------------------------------------------
    #[test]
    fn clustering_partitions_operations_and_respects_the_capability(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..14),
    ) {
        let graph = mapping_graph(&straight_line_kernel(&ops));
        let capability = AluCapability::paper();
        let clustered = Clusterer::new(capability).cluster(&graph).unwrap();

        // Partition: every op in exactly one cluster.
        let mut seen = HashMap::new();
        for id in clustered.ids() {
            for op in &clustered.cluster(id).ops {
                prop_assert!(seen.insert(*op, id).is_none(), "op assigned twice");
            }
            let shape = clustered.shape(&graph, id);
            prop_assert!(capability
                .check(shape.inputs, shape.depth, shape.ops, shape.multiplies, shape.outputs.max(1), 0)
                .is_none(), "cluster violates the ALU capability: {shape:?}");
        }
        prop_assert_eq!(seen.len(), graph.op_count());

        // Clustering never hurts the critical path compared to no clustering.
        let unclustered = Clusterer::disabled(capability).cluster(&graph).unwrap();
        prop_assert!(clustered.critical_path() <= unclustered.critical_path());
    }

    // ------------------------------------------------------------------
    // Allocation invariants on random kernels.
    // ------------------------------------------------------------------
    #[test]
    fn allocation_respects_ports_and_produces_consistent_stats(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..12),
        locality in any::<bool>(),
    ) {
        let graph = mapping_graph(&straight_line_kernel(&ops));
        let config = TileConfig::paper();
        let clustered = Clusterer::new(config.alu).cluster(&graph).unwrap();
        let schedule = Scheduler::new(config.num_pps).schedule(&clustered).unwrap();
        let allocator = if locality {
            Allocator::new(config)
        } else {
            Allocator::new(config).without_locality()
        };
        let program = allocator.allocate(&graph, &clustered, &schedule).unwrap();

        prop_assert_eq!(program.stats.cycles, program.cycle_count());
        prop_assert_eq!(program.stats.alu_ops, graph.op_count());
        for cycle in program.cycles() {
            // One cluster per PP.
            let mut pps: Vec<_> = cycle.alus.iter().map(|a| a.pp).collect();
            let len = pps.len();
            pps.sort_unstable();
            pps.dedup();
            prop_assert_eq!(pps.len(), len);
            // Memory ports.
            let mut per_mem = HashMap::new();
            for mv in cycle.moves {
                *per_mem.entry((mv.src.pp, mv.src.mem)).or_insert(0usize) += 1;
            }
            for wb in cycle.writebacks {
                *per_mem.entry((wb.dest.pp, wb.dest.mem)).or_insert(0usize) += 1;
            }
            for used in per_mem.values() {
                prop_assert!(*used <= config.mem_ports);
            }
            // Crossbar.
            let buses = cycle.moves.iter().filter(|m| m.via_crossbar).count()
                + cycle.writebacks.iter().filter(|w| w.via_crossbar).count();
            prop_assert!(buses <= config.crossbar_buses);
        }
    }
}
