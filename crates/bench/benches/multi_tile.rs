//! Criterion benches: multi-tile partitioning and allocation cost, and the
//! cycle-count payoff of spreading an oversized kernel across a tile array.
//!
//! Two series:
//!
//! * `map/…` — wall-clock of the whole mapping flow for the multi-tile
//!   acceptance kernels at 1 and 4 tiles (the 4-tile runs add the partition
//!   stage and the inter-tile transfer scheduling);
//! * `partition/…` — wall-clock of the partitioner alone (greedy seeding +
//!   Kernighan–Lin-style refinement) at growing cluster counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpfa_core::cluster::Clusterer;
use fpfa_core::dfg::MappingGraph;
use fpfa_core::partition::Partitioner;
use fpfa_core::pipeline::Mapper;
use std::hint::black_box;

fn prepared(source: &str) -> (MappingGraph, fpfa_core::ClusteredGraph) {
    let program = fpfa_frontend::compile(source).expect("kernel compiles");
    let mut graph = program.cdfg;
    fpfa_transform::WorklistDriver::new()
        .run_standard(&mut graph)
        .expect("the worklist engine converges");
    let mapping = MappingGraph::from_cdfg(&graph).expect("kernel is mappable");
    let clustered = Clusterer::default().cluster(&mapping).expect("clusterable");
    (mapping, clustered)
}

fn bench_multi_tile_mapping(c: &mut Criterion) {
    let mut group = c.benchmark_group("map");
    group.sample_size(10);
    for kernel in fpfa_workloads::multi_tile_registry() {
        for tiles in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(&kernel.name, format!("{tiles}t")),
                &tiles,
                |b, &tiles| {
                    b.iter(|| {
                        let mapping = Mapper::new()
                            .with_tiles(tiles)
                            .map_source(black_box(&kernel.source))
                            .expect("kernel maps");
                        black_box(mapping.report.cycles)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_partitioner(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    group.sample_size(10);
    for taps in [16usize, 32, 64] {
        let source = format!(
            r#"
            void main() {{
                int a[{taps}];
                int c[{taps}];
                int sum;
                int i;
                sum = 0; i = 0;
                while (i < {taps}) {{ sum = sum + a[i] * c[i]; i = i + 1; }}
            }}
            "#
        );
        let (mapping, clustered) = prepared(&source);
        group.bench_with_input(
            BenchmarkId::new("fir", clustered.len()),
            &clustered,
            |b, clustered| {
                b.iter(|| {
                    let assignment = Partitioner::new(4)
                        .partition(black_box(&mapping), black_box(clustered))
                        .expect("partitionable");
                    black_box(assignment.cut_size(&mapping, clustered))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_multi_tile_mapping, bench_partitioner);
criterion_main!(benches);
