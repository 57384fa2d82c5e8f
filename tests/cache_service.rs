//! Acceptance tests for the content-addressed mapping cache and the
//! long-lived `MappingService`: re-mapping the full workload registry
//! through a warm service must run no stage, hand back the very artifacts
//! the cold pass built and return results identical to the cold mapping,
//! with the hit/miss/eviction stats visible in the batch report.

use fpfa::cdfg::canonical_signature;
use fpfa::core::pipeline::Mapper;
use fpfa::core::{CacheOutcome, KernelSpec, MappingService};
use std::sync::Arc;

fn registry_specs() -> Vec<KernelSpec> {
    fpfa::workloads::registry()
        .into_iter()
        .map(|kernel| KernelSpec::new(kernel.name, kernel.source))
        .collect()
}

#[test]
fn warm_registry_remap_shares_the_cold_artifacts_and_is_identical() {
    let specs = registry_specs();
    let service = MappingService::new(Mapper::new());

    let cold = service.map_many(&specs);
    assert_eq!(cold.failed(), 0, "every registry kernel maps");

    let warm = service.map_many(&specs);
    assert_eq!(warm.failed(), 0);

    // 100% hit rate on the second pass: every kernel was served from the
    // full-mapping cache.
    for entry in &warm.entries {
        let mapping = entry.outcome.as_ref().expect("warm entry maps");
        assert_eq!(
            mapping.report.cache,
            CacheOutcome::MappingHit,
            "{} was not served from the cache",
            entry.name
        );
    }
    let stats = warm.cache.expect("service batches carry cache stats");
    assert_eq!(stats.mapping_hits as usize, specs.len());
    assert_eq!(stats.mapping_misses as usize, specs.len()); // the cold pass

    // No stage ran on the warm pass, so it reports no stage time.
    assert!(warm.stage_totals().is_empty(), "{:?}", warm.stage_totals());
    assert_eq!(warm.cpu_time(), std::time::Duration::ZERO);
    assert!(!cold.stage_totals().is_empty());
    // The warm pass did no mapping work at all: every warm entry hands back
    // the artifacts its cold entry built, not equal copies rebuilt.
    for (cold_entry, warm_entry) in cold.entries.iter().zip(&warm.entries) {
        let cold_mapping = cold_entry.outcome.as_ref().expect("cold entry maps");
        let warm_mapping = warm_entry.outcome.as_ref().expect("warm entry maps");
        let name = &cold_entry.name;
        assert!(
            Arc::ptr_eq(&cold_mapping.simplified, &warm_mapping.simplified),
            "{name}: simplified"
        );
        assert!(
            Arc::ptr_eq(&cold_mapping.mapping_graph, &warm_mapping.mapping_graph),
            "{name}: mapping graph"
        );
        assert!(
            Arc::ptr_eq(&cold_mapping.clustered, &warm_mapping.clustered),
            "{name}: clustering"
        );
        assert!(
            Arc::ptr_eq(&cold_mapping.schedule, &warm_mapping.schedule),
            "{name}: schedule"
        );
        assert!(
            Arc::ptr_eq(&cold_mapping.program, &warm_mapping.program),
            "{name}: program"
        );
    }

    // Warm results are identical to the cold mapping, kernel by kernel.
    for (cold_entry, warm_entry) in cold.entries.iter().zip(&warm.entries) {
        assert_eq!(cold_entry.name, warm_entry.name);
        let cold_mapping = cold_entry.outcome.as_ref().expect("cold entry maps");
        let warm_mapping = warm_entry.outcome.as_ref().expect("warm entry maps");
        assert_eq!(
            canonical_signature(&cold_mapping.simplified),
            canonical_signature(&warm_mapping.simplified),
            "{}",
            cold_entry.name
        );
        assert!(
            cold_mapping.report.same_mapping(&warm_mapping.report),
            "{}: cold {:?} vs warm {:?}",
            cold_entry.name,
            cold_mapping.report,
            warm_mapping.report
        );
        assert_eq!(
            cold_mapping.program, warm_mapping.program,
            "{}",
            cold_entry.name
        );
        assert_eq!(
            cold_mapping.multi, warm_mapping.multi,
            "{}",
            cold_entry.name
        );
        assert_eq!(
            cold_mapping.schedule, warm_mapping.schedule,
            "{}",
            cold_entry.name
        );
        assert_eq!(
            cold_mapping.layout, warm_mapping.layout,
            "{}",
            cold_entry.name
        );
    }

    // The stats are visible in the human-readable batch report.
    let text = warm.to_string();
    assert!(text.contains("cache: mapping 15/30 hit(s)"), "{text}");
}

#[test]
fn multi_tile_mappings_are_cached_separately_per_tile_count() {
    let specs = registry_specs();
    let service_1 = MappingService::new(Mapper::new());
    let service_4 = MappingService::with_cache(
        Mapper::new().with_tiles(4),
        std::sync::Arc::clone(service_1.cache()),
    );

    let single = service_1.map_many(&specs);
    let four = service_4.map_many(&specs);
    assert_eq!(single.failed(), 0);
    assert_eq!(four.failed(), 0);
    // Same sources, different config fingerprints: no cross-talk.
    for entry in &four.entries {
        let mapping = entry.outcome.as_ref().expect("maps");
        assert_eq!(mapping.report.cache, CacheOutcome::Miss, "{}", entry.name);
        assert_eq!(mapping.report.tiles, 4, "{}", entry.name);
    }
    // A warm repeat of the 4-tile batch hits.
    let four_warm = service_4.map_many(&specs);
    for entry in &four_warm.entries {
        let mapping = entry.outcome.as_ref().expect("maps");
        assert_eq!(
            mapping.report.cache,
            CacheOutcome::MappingHit,
            "{}",
            entry.name
        );
    }
}
