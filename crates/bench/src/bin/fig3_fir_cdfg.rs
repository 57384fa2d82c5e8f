//! Experiment FIG3 — the FIR CDFG after complete loop unrolling and full
//! simplification.
//!
//! Compiles the paper's Section V FIR code, prints the node census before and
//! after the transformation pipeline, and compares the simplified graph with
//! the structure of Fig. 3: one `FE` per array element (a##i and c##i), one
//! multiply per tap, an addition tree for `sum`, no surviving loop or control
//! nodes, and the loop counter folded to a constant.

use fpfa_cdfg::GraphStats;
use fpfa_core::dfg::MappingGraph;
use fpfa_transform::WorklistDriver;

const TAPS: usize = 5;

fn main() {
    let kernel = fpfa_workloads::fir(TAPS);
    let program = fpfa_frontend::compile(&kernel.source).expect("FIR compiles");

    let before = GraphStats::of(&program.cdfg);
    let mut simplified = program.cdfg.clone();
    let outcome = WorklistDriver::new()
        .run_standard(&mut simplified)
        .expect("the worklist engine converges");
    let after = GraphStats::of(&simplified);

    println!("FIG3 — FIR ({TAPS} taps) CDFG before / after full unrolling and simplification");
    println!("\n-- as produced by the frontend (loop still structured) --");
    println!("{before}");
    println!("\n-- after {} rewrite rounds --", outcome.report.rounds);
    println!("{after}");

    // The shape of Fig. 3.
    println!("\n-- comparison with the figure --");
    println!("{:<34} {:>8} {:>8}", "feature", "paper", "measured");
    let rows = [
        ("FE fetches (a[i], c[i])", 2 * TAPS, after.fetches),
        ("multiplications", TAPS, after.multiplies),
        ("additions (sum tree)", TAPS - 1, after.additions),
        ("loop nodes", 0, after.loops),
        ("multiplexers", 0, after.muxes),
    ];
    for (label, paper, measured) in rows {
        println!("{label:<34} {paper:>8} {measured:>8}");
    }

    let mapping = MappingGraph::from_cdfg(&simplified).expect("FIR maps");
    let i_out = mapping
        .scalar_outputs
        .iter()
        .find(|(name, _)| *name == "i")
        .expect("i is an output");
    println!(
        "loop counter `i` folded to {:?} (the figure stores the constant 4+1 bound)",
        i_out.1
    );

    assert_eq!(after.fetches, 2 * TAPS);
    assert_eq!(after.multiplies, TAPS);
    assert_eq!(after.loops, 0);
}
