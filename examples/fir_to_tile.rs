//! Walk through the four phases of the mapping flow step by step on an FIR
//! filter, printing the intermediate artefacts of every phase (CDFG census
//! before and after simplification, clustering, schedule, allocation, and
//! finally simulation with an energy estimate).
//!
//! ```text
//! cargo run --example fir_to_tile
//! ```

use fpfa::arch::EnergyModel;
use fpfa::cdfg::GraphStats;
use fpfa::core::allocate::Allocator;
use fpfa::core::cluster::Clusterer;
use fpfa::core::dfg::MappingGraph;
use fpfa::core::schedule::Scheduler;
use fpfa::sim::{SimInputs, Simulator};
use fpfa::transform::WorklistDriver;
use fpfa_arch::TileConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = fpfa::workloads::fir(8);
    println!("kernel: {kernel}");

    // Phase 0: C source -> CDFG.
    let program = fpfa::frontend::compile(&kernel.source)?;
    println!("\n-- CDFG as produced by the frontend --");
    println!("{}", GraphStats::of(&program.cdfg));

    // Phase 0b: behaviour-preserving minimisation (loop unrolling, constant
    // folding, CSE, dead-code elimination, ...).
    let mut simplified = program.cdfg.clone();
    let outcome = WorklistDriver::new().run_standard(&mut simplified)?;
    println!(
        "\n-- after full simplification ({} rounds) --",
        outcome.report.rounds
    );
    println!("{}", GraphStats::of(&simplified));

    // Phase 1: clustering / ALU data-path mapping.
    let config = TileConfig::paper();
    let mapping_graph = MappingGraph::from_cdfg(&simplified)?;
    let clustered = Clusterer::new(config.alu).cluster(&mapping_graph)?;
    println!(
        "\n-- clustering: {} operations -> {} clusters (critical path {}) --",
        mapping_graph.op_count(),
        clustered.len(),
        clustered.critical_path()
    );

    // Phase 2: level scheduling on the 5 ALUs.
    let schedule = Scheduler::new(config.num_pps).schedule(&clustered)?;
    println!("\n-- schedule ({} levels) --", schedule.level_count());
    print!("{schedule}");

    // Phase 3: resource allocation (Fig. 5 heuristic).
    let tile_program = Allocator::new(config).allocate(&mapping_graph, &clustered, &schedule)?;
    println!(
        "\n-- allocation: {} cycles ({} stalls), register hit rate {:?} --",
        tile_program.cycle_count(),
        tile_program.stats.stall_cycles,
        tile_program.stats.register_hit_rate()
    );

    // Execute and estimate energy.
    let a_base = program.layout.array("a").expect("array a").base;
    let c_base = program.layout.array("c").expect("array c").base;
    let inputs = SimInputs::new()
        .array(a_base, &kernel.arrays[0].1)
        .array(c_base, &kernel.arrays[1].1);
    let outcome = Simulator::new(&tile_program).run(&inputs)?;
    println!("\n-- simulation --");
    println!("sum = {:?}", outcome.scalar("sum"));
    println!("{}", outcome.energy(&EnergyModel::default_model()));
    Ok(())
}
