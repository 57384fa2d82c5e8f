//! Independent output checks: every mapping is simulated on the tile model
//! and compared with the reference interpreter running the frontend's
//! unsimplified CDFG, and every served digest is compared with a one-shot
//! `Mapper::map_source` of the same source.

use fpfa_arch::EnergyModel;
use fpfa_cdfg::Cdfg;
use fpfa_core::pipeline::{Mapper, MappingResult};
use fpfa_sim::SimInputs;
use fpfa_workloads::Kernel;

/// The reference side of a kernel: its unsimplified CDFG and its inputs.
pub struct Reference {
    pub cdfg: Cdfg,
    pub inputs: SimInputs,
}

impl Reference {
    /// Runs the frontend on `source`; `kernel` supplies the array data.
    pub fn of(kernel: &Kernel, source: &str) -> Result<Reference, String> {
        let program =
            fpfa_frontend::compile(source).map_err(|e| format!("{}: {e}", kernel.name))?;
        let inputs = crate::gen::sim_inputs(kernel, &program.layout);
        Ok(Reference {
            cdfg: program.cdfg,
            inputs,
        })
    }
}

/// What one checked mapping contributes to the quality metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quality {
    pub digest: u64,
    pub ops: usize,
    pub clusters: usize,
    pub tiles: usize,
    /// Simulated clock cycles.
    pub sim_cycles: f64,
    /// `EnergyModel::default_model` energy of the same simulation.
    pub energy: f64,
    pub stall_cycles: usize,
    pub report_cycles: usize,
    pub register_hits: usize,
    pub register_misses: usize,
    pub inter_tile_transfers: usize,
}

/// Simulates `mapping` and compares it with the reference interpreter.
///
/// # Errors
/// A description of the first failure or mismatch.
pub fn check(reference: &Reference, mapping: &MappingResult) -> Result<Quality, String> {
    let report = match &mapping.multi {
        Some(multi) => {
            fpfa_sim::check_multi_against_cdfg(&reference.cdfg, &multi.program, &reference.inputs)
        }
        None => fpfa_sim::check_against_cdfg(&reference.cdfg, &mapping.program, &reference.inputs),
    }
    .map_err(|e| e.to_string())?;
    if !report.is_equivalent() {
        return Err(format!("not equivalent: {report}"));
    }
    let counts = report.outcome.counts;
    let r = &mapping.report;
    Ok(Quality {
        digest: fpfa_server::program_digest(mapping),
        ops: r.operations,
        clusters: r.clusters,
        tiles: r.tiles.max(1),
        sim_cycles: counts.cycles as f64,
        energy: EnergyModel::default_model().total(&counts),
        stall_cycles: r.stall_cycles,
        report_cycles: r.cycles,
        register_hits: r.register_hits,
        register_misses: r.register_misses,
        inter_tile_transfers: r.inter_tile_transfers,
    })
}

/// One-shot mapping of `source` (no cache anywhere): its digest, and with
/// `simulate` also the simulation check and quality numbers.
pub fn one_shot(kernel: &Kernel, source: &str, simulate: bool) -> Result<Quality, String> {
    let mapping = Mapper::new()
        .map_source(source)
        .map_err(|e| format!("{}: {e}", kernel.name))?;
    if !simulate {
        return Ok(Quality {
            digest: fpfa_server::program_digest(&mapping),
            ..Quality::default()
        });
    }
    let reference = Reference::of(kernel, source)?;
    check(&reference, &mapping).map_err(|e| format!("{}: {e}", kernel.name))
}

/// Applies `f` to `0..count` on two threads (the host's core count is the
/// benchmark's assumption), results in index order.
pub fn on_two_threads<T: Send>(count: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    let (even, odd) = std::thread::scope(|scope| {
        let odd = scope.spawn(move || (1..count).step_by(2).map(f).collect::<Vec<T>>());
        let even: Vec<T> = (0..count).step_by(2).map(f).collect();
        (even, odd.join().expect("oracle worker panicked"))
    });
    let mut out = Vec::with_capacity(count);
    let (mut even, mut odd) = (even.into_iter(), odd.into_iter());
    for i in 0..count {
        out.extend(if i % 2 == 0 { even.next() } else { odd.next() });
    }
    out
}

/// Aggregate mapping quality over a set of checked mappings.
pub fn quality_metrics(report: &mut crate::stats::Report, qualities: &[Quality]) {
    use crate::stats::{geomean, ratio};
    let sum = |f: fn(&Quality) -> usize| qualities.iter().map(f).sum::<usize>() as f64;
    let cycles: Vec<f64> = qualities.iter().map(|q| q.sim_cycles).collect();
    let energy: Vec<f64> = qualities.iter().map(|q| q.energy).collect();
    report.put("cycles_geomean", geomean(&cycles), "cycles");
    report.put("energy_geomean", geomean(&energy), "units");
    report.put(
        "cluster.ops_per_cluster",
        ratio(sum(|q| q.ops), sum(|q| q.clusters)),
        "ops/cluster",
    );
    report.put(
        "allocate.stall_share",
        ratio(sum(|q| q.stall_cycles), sum(|q| q.report_cycles)),
        "ratio",
    );
    report.put(
        "allocate.register_hit_rate",
        ratio(
            sum(|q| q.register_hits),
            sum(|q| q.register_hits + q.register_misses),
        ),
        "ratio",
    );
    let multi: Vec<&Quality> = qualities.iter().filter(|q| q.tiles > 1).collect();
    report.put(
        "partition.transfers_per_op",
        ratio(
            multi.iter().map(|q| q.inter_tile_transfers).sum::<usize>() as f64,
            multi.iter().map(|q| q.ops).sum::<usize>() as f64,
        ),
        "transfers/op",
    );
}
