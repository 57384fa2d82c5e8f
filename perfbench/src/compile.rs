//! The `compile` workload: the paper's one-shot setting.  A thread maps each
//! kernel of a seeded set with a fresh `Mapper::map_source` — no cache, no
//! server — so the seven flow stages do all of the work.  For steadier
//! timings every kernel is mapped several times, by one such thread per CPU
//! in each of several passes, and its fastest run counts.

use crate::gen::{self, Draw};
use crate::loadgen::Pinned;
use crate::oracle::{self, Quality, Reference};
use crate::stats::{loglog_slope, median, quantile, ratio, Report};
use crate::Tally;
use fpfa_core::flow::{
    AllocateStage, ClusterStage, ExtractStage, FlowDriver, FrontendStage, PartitionStage,
    ScheduleStage, SourceInput, TransformStage,
};
use fpfa_core::pipeline::{Mapper, MappingResult};
use std::time::{Duration, Instant};

/// The seven flow stages, in flow order.
pub const STAGES: [&str; 7] = [
    "frontend",
    "transform",
    "extract",
    "cluster",
    "partition",
    "schedule",
    "allocate",
];

/// Kernels drawn per requested second: [`PASSES`] passes over the set take
/// about `--seconds` on a 2-core host.
const KERNELS_PER_SECOND: usize = 15;
/// The set size is a multiple of this: both the 1-tile and the 4-tile share
/// cover every one of the 11 families equally.
const SET_BLOCK: usize = 44;
/// Timed passes over the set, every other one backwards so that a kernel's
/// runs lie far apart in time.  Each pass runs on [`REPLICAS`] threads at
/// once, each pinned to its own CPU and mapping the whole set on its own.
/// A kernel's latency is its fastest run: on a shared virtual host a
/// hypervisor stall, or a neighbour's load slowing one CPU for a few
/// seconds, rarely covers every run of a kernel.
const PASSES: usize = 3;
const REPLICAS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.  A set-up takes tens of
/// milliseconds, so one host stall moves a single reading by half.
const SETUPS: usize = 7;

struct Prepared {
    draws: Vec<Draw>,
    references: Vec<Reference>,
}

fn prepare(seed: u64, count: usize) -> Result<Prepared, String> {
    let draws = gen::compile_set(seed, count);
    let references = draws
        .iter()
        .map(|d| Reference::of(&d.kernel, &d.kernel.source))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared { draws, references })
}

/// One kernel's stage-by-stage run: each stage through `FlowDriver::run`
/// with a timer around it.
struct Traced {
    stage_us: [f64; 7],
    wall_us: f64,
    visited_nodes: usize,
    peak_graph_nodes: usize,
}

fn map_traced(source: &str, tiles: usize, untraced: &MappingResult) -> Result<Traced, String> {
    let mapper = Mapper::new().with_tiles(tiles);
    let driver = FlowDriver::new();
    let mut cx = mapper.flow_context();
    let mut stage_us = [0.0; 7];
    let started = Instant::now();
    let mut timed = |slot: usize, since: Instant| stage_us[slot] = micros(since.elapsed());
    let t = Instant::now();
    let k = driver.run(&FrontendStage, SourceInput::new(source), &mut cx);
    timed(0, t);
    let t = Instant::now();
    let k = driver.run(
        &TransformStage::standard(),
        k.map_err(|e| e.to_string())?,
        &mut cx,
    );
    timed(1, t);
    let t = Instant::now();
    let k = driver.run(&ExtractStage, k.map_err(|e| e.to_string())?, &mut cx);
    timed(2, t);
    let t = Instant::now();
    let k = driver.run(&ClusterStage, k.map_err(|e| e.to_string())?, &mut cx);
    timed(3, t);
    let t = Instant::now();
    let k = driver.run(&PartitionStage, k.map_err(|e| e.to_string())?, &mut cx);
    timed(4, t);
    let t = Instant::now();
    let k = driver.run(&ScheduleStage, k.map_err(|e| e.to_string())?, &mut cx);
    timed(5, t);
    let t = Instant::now();
    let allocated = driver
        .run(&AllocateStage, k.map_err(|e| e.to_string())?, &mut cx)
        .map_err(|e| e.to_string())?;
    timed(6, t);
    let wall_us = micros(started.elapsed());
    // The staged run must reproduce the one-call mapping exactly.
    let same = match (&allocated.multi, &untraced.multi) {
        (Some(a), Some(b)) => a.program == b.program,
        (None, None) => allocated.program == *untraced.program,
        _ => false,
    };
    if !same {
        return Err("stage-by-stage run produced a different program".to_string());
    }
    let stats = cx.transform_stats.unwrap_or_default();
    Ok(Traced {
        stage_us,
        wall_us,
        visited_nodes: stats.visited_nodes,
        peak_graph_nodes: stats.peak_graph_nodes,
    })
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One timed `map_source` call.
struct Timed {
    wall_us: f64,
    cpu_us: f64,
    digest: u64,
    ops: usize,
    /// The oracle's verdict, on the runs that are checked.
    checked: Option<Result<Quality, String>>,
    /// The stage-by-stage run, on traced runs of every other kernel.
    traced: Option<Result<Traced, String>>,
}

/// Maps the kernels of `order` once each on the calling thread, a fresh
/// `Mapper` per kernel; `check` also runs the oracle on every mapping.
fn time_pass(
    draws: &[Draw],
    references: &[Reference],
    order: &[usize],
    check: bool,
    trace: bool,
) -> Vec<(usize, Result<Timed, String>)> {
    // Warm the allocator and code paths so the first timed kernel is not
    // penalised.
    let _ = Mapper::new().map_source(&fpfa_workloads::fir(8).source);
    order
        .iter()
        .map(|&index| {
            let draw = &draws[index];
            let cpu_before = crate::procfs::thread_cpu_us();
            let started = Instant::now();
            let mapped = Mapper::new()
                .with_tiles(draw.tiles)
                .map_source(&draw.kernel.source);
            let wall_us = micros(started.elapsed());
            let cpu_us = crate::procfs::thread_cpu_us() - cpu_before;
            let timed = mapped
                .map_err(|e| format!("failed to map: {e}"))
                .map(|mapping| Timed {
                    wall_us,
                    cpu_us,
                    digest: fpfa_server::program_digest(&mapping),
                    ops: mapping.report.operations,
                    checked: check.then(|| oracle::check(&references[index], &mapping)),
                    traced: (trace && index % 2 == 0)
                        .then(|| map_traced(&draw.kernel.source, draw.tiles, &mapping)),
                });
            (index, timed)
        })
        .collect()
}

pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) -> Result<Tally, String> {
    let count = (KERNELS_PER_SECOND * seconds as usize).div_ceil(SET_BLOCK) * SET_BLOCK;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        prepared = Some(prepare(seed, count)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let Prepared { draws, references } = prepared.expect("at least one set-up");
    eprintln!(
        "compile: {} kernels ({} at 4 tiles), seed {seed}",
        draws.len(),
        draws.iter().filter(|d| d.tiles > 1).count()
    );
    let replicas = crate::loadgen::cpus().min(REPLICAS);
    let mut tally = Tally::default();
    // Per kernel: the fastest run's wall and CPU time, the first run's
    // program digest and mapped operations, and whether any run failed.
    let mut best_wall = vec![f64::INFINITY; draws.len()];
    let mut best_cpu = vec![f64::INFINITY; draws.len()];
    let mut first: Vec<Option<(u64, usize)>> = vec![None; draws.len()];
    let mut failed = vec![false; draws.len()];
    let mut qualities: Vec<Quality> = Vec::with_capacity(draws.len());
    // Traced run: every other kernel is also mapped stage by stage in each
    // run; its fastest staged run counts.
    let mut traced: Vec<Option<Traced>> = (0..draws.len()).map(|_| None).collect();
    for pass in 0..PASSES {
        let mut order: Vec<usize> = (0..draws.len()).filter(|&i| !failed[i]).collect();
        if pass % 2 == 1 {
            order.reverse();
        }
        let runs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..replicas)
                .map(|replica| {
                    let (draws, references, order) = (&draws, &references, &order);
                    let check = pass == 0 && replica == 0;
                    scope.spawn(move || {
                        let _pinned = Pinned::to(replica);
                        time_pass(draws, references, order, check, trace)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join())
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|_| "a mapping thread panicked".to_string())?;
        for (index, timed) in runs.into_iter().flatten() {
            let name = &draws[index].kernel.name;
            tally.attempted += 1;
            let timed = match timed {
                Ok(timed) => timed,
                Err(e) => {
                    eprintln!("compile: {name}: {e}");
                    tally.fail_wrong();
                    failed[index] = true;
                    continue;
                }
            };
            best_wall[index] = best_wall[index].min(timed.wall_us);
            best_cpu[index] = best_cpu[index].min(timed.cpu_us);
            match first[index] {
                None => first[index] = Some((timed.digest, timed.ops)),
                Some((digest, _)) if digest != timed.digest => {
                    eprintln!("compile: {name} mapped to different programs in two runs");
                    tally.fail_wrong();
                }
                Some(_) => {}
            }
            match timed.checked {
                Some(Ok(quality)) => qualities.push(quality),
                Some(Err(e)) => {
                    eprintln!("compile: {name}: {e}");
                    tally.fail_wrong();
                }
                None => {}
            }
            if let Some(staged) = timed.traced {
                tally.attempted += 1;
                match staged {
                    Ok(run) => {
                        let slot = &mut traced[index];
                        if slot.as_ref().is_none_or(|t| run.wall_us < t.wall_us) {
                            *slot = Some(run);
                        }
                    }
                    Err(e) => {
                        eprintln!("compile: {name} traced: {e}");
                        tally.fail_wrong();
                    }
                }
            }
        }
    }

    let mapped: Vec<usize> = (0..draws.len())
        .filter(|&i| !failed[i] && first[i].is_some())
        .collect();
    let mut latency_us: Vec<f64> = mapped.iter().map(|&i| best_wall[i]).collect();
    let ops_total: usize = mapped
        .iter()
        .filter_map(|&i| first[i])
        .map(|(_, ops)| ops)
        .sum();
    let map_wall: f64 = latency_us.iter().sum();
    let map_cpu: f64 = mapped.iter().map(|&i| best_cpu[i]).sum();
    let p50 = quantile(&mut latency_us, 0.5);
    let p99 = quantile(&mut latency_us, 0.99);
    report.put("setup_s", median(&mut setup_s), "s");
    report.put("latency_p50_us", p50, "us");
    report.put("latency_p99_us", p99, "us");
    // Mapped operations per CPU-second of a mapping thread, each kernel at
    // its fastest run: the flow's speed without the host's stalls (wall
    // time follows as `compile_ops_per_s`).
    report.put(
        "ops_per_cpu_s",
        ratio(ops_total as f64, map_cpu / 1e6),
        "1/s",
    );
    // The process holds the set, its references and one mapping in flight
    // per replica.
    report.put("rss_peak_mb", crate::procfs::peak_rss_mb("self")?, "MiB");
    oracle::quality_metrics(report, &qualities);
    // Every call maps a kernel never seen before: a miss in serving terms.
    report.put("miss_latency_p50_us", p50, "us");
    report.put("miss_latency_p99_us", p99, "us");
    report.put(
        "compile_ops_per_s",
        ratio(ops_total as f64, map_wall / 1e6),
        "ops/s",
    );

    if trace {
        let traced: Vec<TracedKernel> = mapped
            .iter()
            .filter_map(|&i| {
                let stages = traced[i].take()?;
                Some(TracedKernel {
                    tiles: draws[i].tiles,
                    ops: first[i]?.1,
                    untraced_us: best_wall[i],
                    stages,
                })
            })
            .collect();
        traced_metrics(&traced, report);
    }
    Ok(tally)
}

struct TracedKernel {
    tiles: usize,
    ops: usize,
    untraced_us: f64,
    stages: Traced,
}

fn traced_metrics(traced: &[TracedKernel], report: &mut Report) {
    for (slot, stage) in STAGES.iter().enumerate() {
        let total: f64 = traced.iter().map(|k| k.stages.stage_us[slot]).sum();
        report.put(&format!("{stage}.self_ms"), total / 1e3, "ms");
    }
    // Growth exponents: stage time against mapped ops.  Partition is only
    // non-trivial on the 4-tile kernels; the others are fitted at 1 tile.
    for (stage, slot, tiles) in [
        ("transform", 1, 1),
        ("cluster", 3, 1),
        ("partition", 4, 4),
        ("allocate", 6, 1),
    ] {
        let points: Vec<(f64, f64)> = traced
            .iter()
            .filter(|k| k.tiles == tiles)
            .map(|k| (k.ops as f64, k.stages.stage_us[slot]))
            .collect();
        report.put(&format!("{stage}.exponent"), loglog_slope(&points), "slope");
    }
    let visits: usize = traced.iter().map(|k| k.stages.visited_nodes).sum();
    let peak: usize = traced.iter().map(|k| k.stages.peak_graph_nodes).sum();
    report.put(
        "transform.visits_per_node",
        ratio(visits as f64, peak as f64),
        "visits/node",
    );
    let untraced: f64 = traced.iter().map(|k| k.untraced_us).sum();
    let stage_sum: f64 = traced
        .iter()
        .map(|k| k.stages.stage_us.iter().sum::<f64>())
        .sum();
    let traced_wall: f64 = traced.iter().map(|k| k.stages.wall_us).sum();
    report.put(
        "flow.unaccounted_share",
        ratio(untraced - stage_sum, untraced),
        "ratio",
    );
    report.put(
        "obs.trace_overhead",
        ratio(traced_wall, untraced) - 1.0,
        "ratio",
    );
    // Acceptance evidence: which stage dominates the 4-tile mappings.
    let mut four = [0.0; 7];
    for kernel in traced.iter().filter(|k| k.tiles > 1) {
        for (slot, us) in kernel.stages.stage_us.iter().enumerate() {
            four[slot] += us;
        }
    }
    let total: f64 = four.iter().sum();
    let shares: Vec<String> = STAGES
        .iter()
        .zip(four)
        .map(|(stage, us)| format!("{stage} {:.3}", ratio(us, total)))
        .collect();
    println!("compile: 4-tile stage shares: {}", shares.join(", "));
}
