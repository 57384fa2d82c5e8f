//! A long-lived mapping front door that reuses work across calls.
//!
//! [`Mapper`] maps every request from scratch;
//! [`MappingService`] wraps a mapper together with a shared
//! [`MappingCache`] so repeated requests — the common case for a mapping
//! server handling real traffic — are answered from the cache:
//!
//! * a byte-identical resubmission returns a clone of the cached
//!   [`MappingResult`] without running any stage (*mapping hit*);
//! * a structurally identical kernel (reformatted source, or a rewrite the
//!   minimiser folds to the same graph) re-runs only the cheap frontend +
//!   transform stages and reuses the
//!   clustering/partitioning/scheduling/allocation work
//!   (*post-transform hit*);
//! * a request for a kernel that another request is mapping at that moment
//!   waits for that run and shares its result (also a *mapping hit*), so
//!   concurrent duplicates map once.
//!
//! Every call keeps the mapping it produced, so the next request for the
//! same source is a mapping hit; [`map_source_shared`] with
//! [`Retain::Summary`] keeps only the post-transform artifacts and the
//! summary, for a caller that answers repeats from the cache's summary
//! level ([`MappingCache::summary`]).
//!
//! [`map_source_shared`]: MappingService::map_source_shared
//!
//! The service is [`Sync`]: one instance can serve many threads, and its
//! [`map_many`](MappingService::map_many) distributes a batch over the
//! mapper's worker pool with every worker sharing the same cache.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fpfa_core::pipeline::Mapper;
//! use fpfa_core::service::MappingService;
//!
//! let source = r#"
//!     void main() {
//!         int a[4]; int c[4]; int sum; int i;
//!         sum = 0; i = 0;
//!         while (i < 4) { sum = sum + a[i] * c[i]; i = i + 1; }
//!     }
//! "#;
//! let service = MappingService::new(Mapper::new());
//! let cold = service.map_source(source)?;
//! let warm = service.map_source(source)?; // served from the cache
//! assert_eq!(cold.program, warm.program);
//! assert_eq!(service.stats().mapping_hits, 1);
//! # Ok(())
//! # }
//! ```

use crate::cache::{CacheOutcome, CacheStats, MappingCache, Retain};
use crate::error::MapError;
use crate::flow::{BatchReport, KernelSpec};
use crate::pipeline::{Mapper, MappingResult};
use std::sync::Arc;

/// A reusable mapping endpoint: a [`Mapper`] plus a shared [`MappingCache`]
/// that persists across calls.
#[derive(Clone, Debug)]
pub struct MappingService {
    mapper: Mapper,
    cache: Arc<MappingCache>,
}

impl MappingService {
    /// Wraps a mapper with a fresh cache of the default capacity.
    pub fn new(mapper: Mapper) -> Self {
        Self::with_cache(mapper, Arc::new(MappingCache::new()))
    }

    /// Wraps a mapper with a fresh cache bounded to `capacity` entries per
    /// level (the `fpfa-map --cache-capacity` / `fpfa-serve` tuning knob).
    pub fn with_capacity(mapper: Mapper, capacity: usize) -> Self {
        Self::with_cache(mapper, Arc::new(MappingCache::with_capacity(capacity)))
    }

    /// Wraps a mapper with an explicit (possibly shared) cache.
    pub fn with_cache(mapper: Mapper, cache: Arc<MappingCache>) -> Self {
        MappingService { mapper, cache }
    }

    /// Wraps a mapper with a cache of `capacity` entries per level backed by
    /// a persistent disk tier under `cache_dir` (the `--cache-dir` knob of
    /// `fpfa-map` and `fpfa-serve`).  The directory is created if missing
    /// and warm-started from any segment files already present — a restarted
    /// service answers previously mapped kernels from their persisted
    /// summaries, and rebuilds a mapping it needs in full by running only
    /// frontend and transform over the persisted post-transform record.
    ///
    /// # Errors
    /// Only I/O errors creating or listing the directory; corrupt cache
    /// *contents* are skipped (and counted) instead of failing the open.
    pub fn with_cache_dir(
        mapper: Mapper,
        capacity: usize,
        cache_dir: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<Self> {
        let tier = crate::persist::DiskTier::open(cache_dir)?;
        let cache = MappingCache::with_capacity(capacity).with_disk_tier(tier);
        Ok(Self::with_cache(mapper, Arc::new(cache)))
    }

    /// Derives a service targeting a different mapper configuration while
    /// sharing this service's cache (configs never alias: the cache key
    /// fingerprints the configuration).
    pub fn with_mapper(&self, mapper: Mapper) -> Self {
        Self::with_cache(mapper, Arc::clone(&self.cache))
    }

    /// Drops every cached entry, keeping the hit/miss history.  Returns how
    /// many entries were dropped.
    pub fn clear_cache(&self) -> usize {
        self.cache.clear()
    }

    /// The wrapped mapper.
    pub fn mapper(&self) -> &Mapper {
        &self.mapper
    }

    /// The shared cache (clone the [`Arc`] to share it with another
    /// service targeting a different configuration).
    pub fn cache(&self) -> &Arc<MappingCache> {
        &self.cache
    }

    /// A snapshot of the cache's hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Maps a C-subset source string, consulting the cache first.
    ///
    /// The returned result records how it was obtained in
    /// [`MappingReport::cache`](crate::report::MappingReport::cache).
    ///
    /// # Errors
    /// Propagates frontend, transformation and mapping errors (errors are
    /// never cached: a failing kernel is retried in full on every call).
    pub fn map_source(&self, source: &str) -> Result<MappingResult, MapError> {
        self.mapper.map_source_cached(source, &self.cache)
    }

    /// Like [`map_source`](Self::map_source), but returns the cache's shared
    /// [`Arc`] without deep-cloning the result — the server's warm path,
    /// where the caller only summarizes the mapping and moves on.  `retain`
    /// says what the cache keeps: [`Retain::Mapping`] keeps the mapping, as
    /// [`map_source`](Self::map_source) does; with [`Retain::Summary`] the
    /// full mapping stays out of the full-mapping level (its summary and its
    /// post-transform artifacts are kept), for a caller that answers repeats
    /// from the summary level.
    ///
    /// The [`CacheOutcome`] is returned
    /// alongside because the shared
    /// result's embedded report keeps the flavor it was created with (a warm
    /// hit must not mutate state shared with other readers).
    ///
    /// # Errors
    /// Propagates frontend, transformation and mapping errors exactly as
    /// [`map_source`](Self::map_source) does.
    pub fn map_source_shared(
        &self,
        source: &str,
        retain: Retain,
    ) -> Result<(Arc<MappingResult>, CacheOutcome), MapError> {
        self.mapper
            .map_source_cached_shared(source, &self.cache, retain)
    }

    /// Maps a batch of kernels in parallel through the shared cache.
    ///
    /// On top of [`Mapper::map_many`]'s in-batch deduplication, every worker
    /// consults the service cache, so kernels seen in *earlier* batches are
    /// also served from the cache.  The returned report carries a
    /// [`CacheStats`] snapshot taken after the batch.
    pub fn map_many(&self, kernels: &[KernelSpec]) -> BatchReport {
        self.mapper.map_many_cached(kernels, Some(&self.cache))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIR: &str = r#"
        void main() {
            int a[5];
            int c[5];
            int sum;
            int i;
            sum = 0; i = 0;
            while (i < 5) { sum = sum + a[i] * c[i]; i = i + 1; }
        }
    "#;

    /// FIR reformatted (different whitespace and statement layout): a
    /// different source hash but the same canonical structure.
    const FIR_REFORMATTED: &str = r#"
void main() {
    int a[5]; int c[5];
    int sum; int i;
    sum = 0;
    i = 0;
    while (i < 5) {
        sum = sum + a[i] * c[i];
        i = i + 1;
    }
}
"#;

    #[test]
    fn identical_resubmission_is_a_mapping_hit() {
        let service = MappingService::new(Mapper::new());
        let cold = service.map_source(FIR).unwrap();
        assert_eq!(cold.report.cache, CacheOutcome::Miss);
        let warm = service.map_source(FIR).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::MappingHit);
        assert_eq!(cold.program, warm.program);
        assert_eq!(cold.simplified, warm.simplified);
        let stats = service.stats();
        assert_eq!(stats.mapping_hits, 1);
        assert_eq!(stats.mapping_misses, 1);
    }

    #[test]
    fn structurally_identical_kernel_is_a_post_transform_hit() {
        let service = MappingService::new(Mapper::new());
        let cold = service.map_source(FIR).unwrap();
        let warm = service.map_source(FIR_REFORMATTED).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::PostTransformHit);
        // The mapped program is shared verbatim.
        assert_eq!(cold.program, warm.program);
        // The re-run transform stage still hands on a dense graph.
        assert_eq!(warm.simplified.node_bound(), warm.simplified.node_count());
        assert_eq!(
            fpfa_cdfg::canonical_signature(&cold.simplified),
            fpfa_cdfg::canonical_signature(&warm.simplified)
        );
        let stats = service.stats();
        assert_eq!(stats.post_transform_hits, 1);
    }

    #[test]
    fn different_configurations_do_not_alias() {
        let cache = Arc::new(MappingCache::new());
        let five = MappingService::with_cache(Mapper::new(), Arc::clone(&cache));
        let one = MappingService::with_cache(
            Mapper::new().with_config(fpfa_arch::TileConfig::single_alu()),
            Arc::clone(&cache),
        );
        let wide = five.map_source(FIR).unwrap();
        let narrow = one.map_source(FIR).unwrap();
        assert_eq!(narrow.report.cache, CacheOutcome::Miss);
        assert!(narrow.report.cycles >= wide.report.cycles);
        assert_eq!(narrow.report.alus_used, 1);
    }

    #[test]
    fn summary_only_maps_keep_the_artifacts_but_not_the_mapping() {
        let service = MappingService::new(Mapper::new());
        let (cold, outcome) = service.map_source_shared(FIR, Retain::Summary).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let stats = service.stats();
        assert_eq!((stats.mapping_entries, stats.post_entries), (0, 1));
        // A repeat re-runs frontend and transform and shares the rest.
        let (again, outcome) = service.map_source_shared(FIR, Retain::Summary).unwrap();
        assert_eq!(outcome, CacheOutcome::PostTransformHit);
        assert!(Arc::ptr_eq(&cold.program, &again.program));
        // A request that keeps the mapping makes the next one a mapping hit.
        service.map_source_shared(FIR, Retain::Mapping).unwrap();
        assert_eq!(service.stats().mapping_entries, 1);
        let (_, outcome) = service.map_source_shared(FIR, Retain::Summary).unwrap();
        assert_eq!(outcome, CacheOutcome::MappingHit);
    }

    #[test]
    fn errors_are_not_cached() {
        let service = MappingService::new(Mapper::new());
        for _ in 0..2 {
            let err = service.map_source("void main() { x = 1; }").unwrap_err();
            assert!(matches!(err, MapError::Frontend(_)));
        }
        let stats = service.stats();
        assert_eq!(stats.mapping_hits, 0);
        assert_eq!(stats.entries, 0);
    }
}
