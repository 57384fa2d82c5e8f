//! `test_inputs` fills only the statespace words a mapped program pre-loads,
//! and simulates every registry kernel exactly as a fill of every declared
//! array word does.

use fpfa_core::pipeline::{Mapper, MappingResult};
use fpfa_sim::{simulate, test_inputs, SimInputs};

/// The reference: every word of every declared array holds the test signal,
/// the `i`-th declared array at phase `i`, and every scalar input is 1.
fn full_fill(mapping: &MappingResult) -> SimInputs {
    let mut inputs = SimInputs::new();
    for (phase, sym) in mapping.layout.arrays().iter().enumerate() {
        inputs.statespace.store_array(
            sym.base,
            &fpfa_workloads::test_signal(sym.len, phase as i64),
        );
    }
    for name in mapping.program.scalar_input_names.iter() {
        inputs.scalars.insert(name.to_string(), 1);
    }
    inputs
}

#[test]
fn registry_kernels_simulate_as_with_every_array_word_filled() {
    for tiles in [1, 4] {
        let mapper = Mapper::new().with_tiles(tiles);
        for kernel in fpfa_workloads::registry() {
            let mapping = mapper.map_source(&kernel.source).unwrap();
            let inputs = test_inputs(&mapping);
            let reference = full_fill(&mapping);
            assert!(
                inputs.statespace.len() <= reference.statespace.len(),
                "{} at {tiles} tile(s)",
                kernel.name
            );
            assert_eq!(inputs.scalars, reference.scalars);
            let got = simulate(&mapping, &inputs).unwrap();
            let want = simulate(&mapping, &reference).unwrap();
            assert_eq!(
                got.scalars, want.scalars,
                "{} at {tiles} tile(s)",
                kernel.name
            );
            assert_eq!(
                got.counts, want.counts,
                "{} at {tiles} tile(s)",
                kernel.name
            );
        }
    }
}

/// A 100-million-word declaration read once costs one word, not gigabytes.
#[test]
fn a_huge_array_read_once_costs_one_word() {
    let mapping = Mapper::new()
        .map_source("void main() { int a[100000000]; int x; x = a[5]; }")
        .unwrap();
    let inputs = test_inputs(&mapping);
    assert_eq!(
        inputs.statespace.to_tuples(),
        vec![(5, fpfa_workloads::test_signal_at(5, 0))]
    );
    let outcome = simulate(&mapping, &inputs).unwrap();
    assert_eq!(
        outcome.scalar("x"),
        Some(fpfa_workloads::test_signal_at(5, 0))
    );
}
