//! Property-based tests for the multi-tile partitioner invariants:
//!
//! * every cluster is assigned exactly one tile;
//! * no tile exceeds its per-level ALU budget (5 data-paths on the paper's
//!   tile) in the multi-tile schedule;
//! * every inter-tile edge appears in the traffic report exactly once, and
//!   the report matches the cut implied by the assignment.

use fpfa_arch::{ArrayConfig, TileConfig};
use fpfa_core::cluster::Clusterer;
use fpfa_core::dfg::MappingGraph;
use fpfa_core::multi::{MultiScheduler, MultiTileAllocator};
use fpfa_core::partition::Partitioner;
use fpfa_workloads::straight_line_kernel;
use proptest::prelude::*;
use std::collections::HashSet;

fn mapping_graph(source: &str) -> MappingGraph {
    let program = fpfa_frontend::compile(source).expect("random kernels compile");
    let mut g = program.cdfg;
    fpfa_transform::WorklistDriver::new()
        .run_standard(&mut g)
        .expect("the worklist engine converges");
    MappingGraph::from_cdfg(&g).expect("random kernels are mappable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_cluster_gets_exactly_one_tile(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 4..40),
        num_tiles in 2usize..5,
    ) {
        let graph = mapping_graph(&straight_line_kernel(&ops));
        let clustered = Clusterer::default().cluster(&graph).expect("clusterable");
        let assignment = Partitioner::new(num_tiles)
            .partition(&graph, &clustered)
            .expect("partitionable");

        prop_assert_eq!(assignment.len(), clustered.len());
        prop_assert_eq!(assignment.num_tiles(), num_tiles);
        // tile_of is total and in range; clusters_on partitions the ids.
        let mut seen = HashSet::new();
        for tile in 0..num_tiles {
            for cluster in assignment.clusters_on(tile) {
                prop_assert!(assignment.tile_of(cluster) == tile);
                prop_assert!(seen.insert(cluster), "cluster {} on two tiles", cluster);
            }
        }
        prop_assert_eq!(seen.len(), clustered.len());
    }

    #[test]
    fn no_tile_exceeds_its_alu_budget_per_level(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 4..40),
        num_tiles in 2usize..5,
    ) {
        let config = TileConfig::paper();
        let array = ArrayConfig::with_tiles(num_tiles);
        let graph = mapping_graph(&straight_line_kernel(&ops));
        let clustered = Clusterer::default().cluster(&graph).expect("clusterable");
        let assignment = Partitioner::new(num_tiles)
            .partition(&graph, &clustered)
            .expect("partitionable");
        let schedule = MultiScheduler::new(config.num_pps, array.hop_latency)
            .schedule(&clustered, &assignment)
            .expect("schedulable");

        // Every cluster scheduled exactly once, on its assigned tile.
        prop_assert_eq!(schedule.cluster_count(), clustered.len());
        for id in clustered.ids() {
            let (tile, _) = schedule.placement_of(id).expect("scheduled");
            prop_assert_eq!(tile, assignment.tile_of(id));
        }
        // At most five ALU data-paths per tile per level.
        for tile in 0..num_tiles {
            for level in 0..schedule.level_count() {
                prop_assert!(
                    schedule.tile(tile).level(level).len() <= config.num_pps,
                    "tile {} level {} holds {} clusters",
                    tile, level, schedule.tile(tile).level(level).len()
                );
            }
        }
    }

    #[test]
    fn traffic_report_lists_every_inter_tile_edge_exactly_once(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 4..32),
        num_tiles in 2usize..5,
    ) {
        let config = TileConfig::paper();
        let array = ArrayConfig::with_tiles(num_tiles);
        let graph = mapping_graph(&straight_line_kernel(&ops));
        let clustered = Clusterer::default().cluster(&graph).expect("clusterable");
        let assignment = Partitioner::new(num_tiles)
            .partition(&graph, &clustered)
            .expect("partitionable");
        let schedule = MultiScheduler::new(config.num_pps, array.hop_latency)
            .schedule(&clustered, &assignment)
            .expect("schedulable");
        let program = MultiTileAllocator::new(config, array)
            .allocate(&graph, &clustered, &assignment, &schedule)
            .expect("allocatable");

        // The report's edge list is exactly the assignment's cut, each
        // (value, consuming tile) pair appearing once.
        let expected = assignment.cut_edges(&graph, &clustered);
        prop_assert_eq!(&program.traffic.edges, &expected);
        let mut seen = HashSet::new();
        for edge in &program.traffic.edges {
            prop_assert!(edge.from != edge.to);
            prop_assert!(
                seen.insert((edge.op, edge.to)),
                "edge {:?} listed twice", edge
            );
        }
        // One scheduled transfer per edge, and the aggregate counters agree
        // (the totals additionally count pre-execution input broadcasts).
        let broadcasts = program.traffic.input_broadcasts.len();
        prop_assert_eq!(program.transfers.len(), expected.len());
        prop_assert_eq!(
            program.stats.inter_tile_transfers,
            expected.len() + broadcasts
        );
        let per_pair_total: usize = program.traffic.per_pair.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(per_pair_total, expected.len() + broadcasts);
        // Input broadcasts never duplicate a (value, destination) pair.
        let mut seen_broadcasts = HashSet::new();
        for broadcast in &program.traffic.input_broadcasts {
            prop_assert!(broadcast.from != broadcast.to);
            prop_assert!(
                seen_broadcasts.insert((broadcast.value, broadcast.to)),
                "broadcast {:?} listed twice", broadcast
            );
        }
    }
}
