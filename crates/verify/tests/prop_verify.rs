//! Property tests for the verifier: random kernels verify clean on every
//! path the flow can produce them (cold and cache-served, one tile and
//! four), and every applicable mutation class is detected on random
//! kernels, not just the hand-picked FIR of the kill suite.

use fpfa_core::pipeline::Mapper;
use fpfa_core::service::MappingService;
use fpfa_verify::{Mutation, Verifier};
use fpfa_workloads::straight_line_kernel;
use proptest::prelude::*;

fn arb_ops() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..12)
}

fn arb_tiles() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(4usize)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_kernels_verify_clean_cold_and_cached(
        ops in arb_ops(),
        tiles in arb_tiles(),
    ) {
        let source = straight_line_kernel(&ops);
        let mapper = Mapper::new().with_tiles(tiles);
        let verifier = Verifier::for_mapper(&mapper);
        let service = MappingService::new(mapper);

        let cold = service.map_source(&source).expect("random kernels map");
        let report = verifier.verify(&cold);
        prop_assert!(
            report.is_clean(),
            "cold {tiles}-tile mapping failed verification:\n{report}"
        );

        // The cache-served repeat must verify identically: a cache that
        // hands back anything the verifier would reject is a cache bug.
        let cached = service.map_source(&source).expect("cached repeat maps");
        let report = verifier.verify(&cached);
        prop_assert!(
            report.is_clean(),
            "cache-served {tiles}-tile mapping failed verification:\n{report}"
        );
    }

    #[test]
    fn applicable_mutations_are_detected_on_random_kernels(
        ops in arb_ops(),
        tiles in arb_tiles(),
    ) {
        let source = straight_line_kernel(&ops);
        let mapper = Mapper::new().with_tiles(tiles);
        let result = mapper.map_source(&source).expect("random kernels map");
        let verifier = Verifier::for_mapper(&mapper);
        prop_assert!(verifier.verify(&result).is_clean());

        for &mutation in Mutation::all() {
            let mut mutant = result.clone();
            // Small random kernels legitimately dodge some mutations (no
            // adjacent-level dependence to swap, too few clusters to
            // oversubscribe); `apply` says so and leaves the result alone.
            if mutation.apply(&mut mutant).is_err() {
                continue;
            }
            let report = verifier.verify(&mutant);
            prop_assert!(
                report.has_rule(mutation.expected_rule()),
                "{mutation:?} survived on a random {tiles}-tile kernel \
                 (expected {}):\n{report}\nsource:\n{source}",
                mutation.expected_rule()
            );
        }
    }
}
