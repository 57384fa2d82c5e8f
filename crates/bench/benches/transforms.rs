//! Criterion benches: CDFG simplification on the flow's worklist engine (loop
//! unrolling, constant folding, CSE, DCE) on FIR kernels of growing tap
//! count (experiment FIG3's cost as the kernel scales).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpfa_transform::WorklistDriver;
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplify_fir");
    group.sample_size(20);
    for taps in [4usize, 8, 16, 32] {
        let kernel = fpfa_workloads::fir(taps);
        let program = fpfa_frontend::compile(&kernel.source).expect("FIR compiles");
        group.bench_with_input(
            BenchmarkId::from_parameter(taps),
            &program.cdfg,
            |b, cdfg| {
                b.iter(|| {
                    let mut graph = cdfg.clone();
                    WorklistDriver::new()
                        .run_standard(black_box(&mut graph))
                        .expect("the worklist engine converges");
                    black_box(graph.node_count())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
