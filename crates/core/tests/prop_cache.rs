//! Property and concurrency tests for the content-addressed mapping cache:
//!
//! * a cached mapping is identical to a cold mapping of the same kernel
//!   (canonical signature, report, program), for random kernels and tile
//!   counts, whether the map kept its full mapping or only its summary;
//! * the LRU evicts exactly the least-recently-used entry at capacity;
//! * concurrent `map_many` workers share one cache without losing hits.

use fpfa_cdfg::canonical_signature;
use fpfa_core::cache::{CacheOutcome, MappingCache, Retain};
use fpfa_core::flow::KernelSpec;
use fpfa_core::pipeline::{Mapper, MappingResult};
use fpfa_core::service::MappingService;
use fpfa_workloads::straight_line_kernel;
use proptest::prelude::*;
use std::sync::Arc;

/// A distinct trivial kernel per index (for filling the cache).
fn numbered_kernel(index: usize) -> String {
    format!(
        "void main() {{ int a[{}]; int r; r = a[0] + a[1]; }}",
        index + 2
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cached_and_cold_mappings_are_identical(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 4..24),
        tiles in 1usize..5,
    ) {
        let source = straight_line_kernel(&ops);
        let mapper = Mapper::new().with_tiles(tiles);
        let cold = mapper.map_source(&source).expect("random kernels map");

        let service = MappingService::new(mapper.clone());
        let miss = service.map_source(&source).expect("maps through service");
        let hit = service.map_source(&source).expect("maps from cache");
        prop_assert_eq!(miss.report.cache, CacheOutcome::Miss);
        prop_assert_eq!(hit.report.cache, CacheOutcome::MappingHit);

        // A map that keeps only its summary leaves the repeat to the
        // post-transform level, which must serve the same program.
        let summaries = MappingService::new(mapper);
        let mut kept = Vec::new();
        for expected in [CacheOutcome::Miss, CacheOutcome::PostTransformHit] {
            let (shared, outcome) = summaries
                .map_source_shared(&source, Retain::Summary)
                .expect("maps through a summary-only service");
            prop_assert_eq!(outcome, expected);
            kept.push(MappingResult::clone(&shared));
        }
        prop_assert_eq!(summaries.stats().mapping_entries, 0);

        for warm in [&miss, &hit].into_iter().chain(&kept) {
            prop_assert_eq!(
                canonical_signature(&cold.simplified),
                canonical_signature(&warm.simplified)
            );
            prop_assert!(
                cold.report.same_mapping(&warm.report),
                "cold {:?} vs warm {:?}", cold.report, warm.report
            );
            prop_assert_eq!(&cold.program, &warm.program);
            prop_assert_eq!(&cold.multi, &warm.multi);
            prop_assert_eq!(&cold.schedule, &warm.schedule);
            prop_assert_eq!(&cold.clustered, &warm.clustered);
        }
    }
}

#[test]
fn lru_evicts_the_least_recently_used_mapping_at_capacity() {
    // One shard and capacity two make the whole cache one exact LRU.
    let cache = Arc::new(MappingCache::with_capacity_and_shards(2, 1));
    let service = MappingService::with_cache(Mapper::new(), Arc::clone(&cache));
    let (a, b, c) = (numbered_kernel(0), numbered_kernel(1), numbered_kernel(2));

    service.map_source(&a).unwrap();
    service.map_source(&b).unwrap();
    // Touch `a` so `b` becomes the LRU entry, then insert `c` over capacity.
    assert_eq!(
        service.map_source(&a).unwrap().report.cache,
        CacheOutcome::MappingHit
    );
    service.map_source(&c).unwrap();
    let evicted_so_far = cache.stats().evictions;
    assert!(
        evicted_so_far >= 1,
        "inserting over capacity must evict: {:?}",
        cache.stats()
    );

    // `a` (recently used) and `c` (just inserted) are resident; `b` is not.
    assert_eq!(
        service.map_source(&a).unwrap().report.cache,
        CacheOutcome::MappingHit
    );
    assert_eq!(
        service.map_source(&c).unwrap().report.cache,
        CacheOutcome::MappingHit
    );
    let stats_before_b = cache.stats();
    let b_again = service.map_source(&b).unwrap();
    assert_ne!(
        b_again.report.cache,
        CacheOutcome::MappingHit,
        "evicted entry must not hit the full-mapping cache"
    );
    assert_eq!(
        cache.stats().mapping_misses,
        stats_before_b.mapping_misses + 1
    );
    // The capacity bound held throughout: never more than two resident
    // mappings (the post-transform level is bounded the same way).
    assert!(cache.stats().entries <= 4, "{:?}", cache.stats());
}

#[test]
fn concurrent_map_many_workers_share_the_cache() {
    let specs: Vec<KernelSpec> = fpfa_workloads::registry()
        .into_iter()
        .map(|kernel| KernelSpec::new(kernel.name, kernel.source))
        .collect();
    let service = MappingService::new(Mapper::new().with_batch_threads(4));

    let cold = service.map_many(&specs);
    assert_eq!(cold.failed(), 0);
    let after_cold = service.stats();
    assert_eq!(after_cold.mapping_hits, 0);
    assert_eq!(after_cold.mapping_misses as usize, specs.len());

    // Second pass: four workers hitting the shared cache concurrently.
    let warm = service.map_many(&specs);
    assert_eq!(warm.failed(), 0);
    for entry in &warm.entries {
        assert_eq!(
            entry.outcome.as_ref().unwrap().report.cache,
            CacheOutcome::MappingHit,
            "{}",
            entry.name
        );
    }
    let after_warm = service.stats();
    assert_eq!(after_warm.mapping_hits as usize, specs.len());
    assert_eq!(after_warm.mapping_misses as usize, specs.len());
}
