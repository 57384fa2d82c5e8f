//! End-to-end mapping pipeline: C source → CDFG → transformations →
//! clustering → scheduling → allocation, assembled from the staged flow
//! engine of [`crate::flow`].

use crate::cache::{
    config_fingerprint, CacheOutcome, Joined, MappingCache, MappingKey, PostTransformArtifacts,
    PostTransformKey, Retain,
};
use crate::cluster::ClusteredGraph;
use crate::dfg::MappingGraph;
use crate::error::MapError;
use crate::flow::stages::{
    AllocateStage, AllocatedKernel, ClusterStage, CompiledKernel, ExtractStage, FrontendStage,
    PartitionStage, ScheduleStage, SimplifiedKernel, SourceInput, TransformStage,
};
use crate::flow::{
    BatchEntry, BatchReport, FlowContext, FlowDriver, FlowToggles, FlowTrace, KernelSpec, StageExt,
};
use crate::multi::MultiTileMapping;
use crate::program::TileProgram;
use crate::report::MappingReport;
use crate::schedule::Schedule;
use fpfa_arch::{ArrayConfig, TileConfig};
use fpfa_cdfg::Cdfg;
use fpfa_frontend::MemoryLayout;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Everything produced by one mapping run.
///
/// The heavy artifacts (graphs, schedule, programs) are held behind [`Arc`]s
/// so cache hits and [`PostTransformArtifacts`] captures are reference-count
/// bumps, never deep clones; callers that need to mutate an artifact clone
/// the inner value explicitly (clone-on-write).  The per-run pieces (report,
/// layout, trace) stay owned.
#[derive(Clone, PartialEq, Debug)]
pub struct MappingResult {
    /// The CDFG after the transformation pipeline.
    pub simplified: Arc<Cdfg>,
    /// The extracted mapping IR.
    pub mapping_graph: Arc<MappingGraph>,
    /// The clustering of phase 1.
    pub clustered: Arc<ClusteredGraph>,
    /// The level schedule of phase 2.
    pub schedule: Arc<Schedule>,
    /// The allocated tile program of phase 3 (tile 0's program for
    /// multi-tile mappings; `multi` holds the whole array).
    pub program: Arc<TileProgram>,
    /// The multi-tile mapping (partition, per-tile schedules, array program
    /// and traffic report) when the mapper targeted more than one tile.
    pub multi: Option<Arc<MultiTileMapping>>,
    /// Headline statistics.
    pub report: MappingReport,
    /// Statespace layout of the source program's arrays (empty for mappings
    /// that started from a hand-built CDFG).
    pub layout: MemoryLayout,
    /// Per-stage wall-clock timings and diagnostics of the flow run (empty
    /// for a mapping hit handed out by a
    /// [`MappingService`](crate::service::MappingService), which ran no
    /// stage).
    pub trace: FlowTrace,
    /// [`config_fingerprint`] of the configuration this result was produced
    /// under.  Rehydrated results carry the fingerprint *stored with the
    /// cached artifacts*, so a verifier can detect a stale or corrupted
    /// cache entry served to a differently-configured request.
    pub config_fingerprint: u64,
}

/// The configurable end-to-end mapper.
#[derive(Clone, Debug)]
pub struct Mapper {
    config: TileConfig,
    array: ArrayConfig,
    toggles: FlowToggles,
    batch_threads: Option<usize>,
}

impl Mapper {
    /// Creates a mapper targeting the paper's five-PP tile with all
    /// optimisations enabled.
    pub fn new() -> Self {
        Mapper {
            config: TileConfig::paper(),
            array: ArrayConfig::single_tile(),
            toggles: FlowToggles::default(),
            batch_threads: None,
        }
    }

    /// Targets a different tile configuration.
    pub fn with_config(mut self, config: TileConfig) -> Self {
        self.config = config;
        self
    }

    /// Targets an array of `num_tiles` tiles with the default interconnect
    /// (kernels are partitioned across the tiles).
    pub fn with_tiles(mut self, num_tiles: usize) -> Self {
        self.array = ArrayConfig::with_tiles(num_tiles.max(1));
        self
    }

    /// Targets a tile array with an explicit interconnect configuration.
    pub fn with_array(mut self, array: ArrayConfig) -> Self {
        self.array = array;
        self
    }

    /// Disables phase-1 clustering (one operation per cluster) — ablation A1.
    pub fn without_clustering(mut self) -> Self {
        self.toggles.clustering = false;
        self
    }

    /// Disables locality of reference in the allocator — experiment T2
    /// baseline.
    pub fn without_locality(mut self) -> Self {
        self.toggles.locality = false;
        self
    }

    /// Skips the CDFG simplification pipeline (the graph must already be
    /// loop-free).
    pub fn without_simplification(mut self) -> Self {
        self.toggles.simplify = false;
        self
    }

    /// Overrides the worker-pool width used by [`Mapper::map_many`]
    /// (default: one thread per available core).
    pub fn with_batch_threads(mut self, threads: usize) -> Self {
        self.batch_threads = Some(threads.max(1));
        self
    }

    /// Requests static verification of every produced mapping.
    ///
    /// The toggle is advisory: the core crate cannot depend on the
    /// `fpfa-verify` crate, so callers that honour it (the CLI bins, the
    /// server) run the verifier themselves.  It deliberately does not enter
    /// the cache fingerprint — verification observes a mapping, it never
    /// changes one.
    pub fn with_verify(mut self) -> Self {
        self.toggles.verify = true;
        self
    }

    /// The tile configuration this mapper targets.
    pub fn config(&self) -> &TileConfig {
        &self.config
    }

    /// The tile-array configuration this mapper targets.
    pub fn array(&self) -> &ArrayConfig {
        &self.array
    }

    /// The feature toggles of this mapper.
    pub fn toggles(&self) -> FlowToggles {
        self.toggles
    }

    /// A fresh flow context targeting this mapper's configuration.
    pub fn flow_context(&self) -> FlowContext {
        FlowContext::new(self.config)
            .with_array(self.array)
            .with_toggles(self.toggles)
    }

    /// Maps a C-subset source string.
    ///
    /// # Errors
    /// Propagates frontend, transformation and mapping errors.
    pub fn map_source(&self, source: &str) -> Result<MappingResult, MapError> {
        let mut cx = self.flow_context();
        let flow = FrontendStage
            .then(TransformStage::standard())
            .then(ExtractStage)
            .then(ClusterStage)
            .then(PartitionStage)
            .then(ScheduleStage)
            .then(AllocateStage);
        let allocated = FlowDriver::new().run(&flow, SourceInput::new(source), &mut cx)?;
        Ok(finish(allocated, cx))
    }

    /// Maps an already-built CDFG.
    ///
    /// # Errors
    /// Propagates transformation and mapping errors.
    pub fn map_cdfg(&self, cdfg: &Cdfg) -> Result<MappingResult, MapError> {
        self.map_cdfg_with_layout(cdfg, MemoryLayout::new())
    }

    /// Maps independent kernels in parallel and aggregates per-stage
    /// timings across the batch.
    ///
    /// Kernels are distributed over a scoped worker pool (one thread per
    /// available core unless [`Mapper::with_batch_threads`] overrides it);
    /// results come back in input order.  A kernel that fails to map records
    /// its error in the corresponding [`BatchEntry`] without aborting the
    /// rest of the batch.
    ///
    /// Two batch-level normalisations apply before any kernel is mapped:
    ///
    /// * **In-batch deduplication** — specs with byte-identical sources are
    ///   mapped once and the result is fanned out to every matching entry
    ///   ([`BatchReport::deduped`] counts the duplicates).
    /// * **Name disambiguation** — specs sharing a name are renamed
    ///   `name`, `name#2`, `name#3`, … so
    ///   [`BatchReport::result_of`] can never alias two different kernels.
    pub fn map_many(&self, kernels: &[KernelSpec]) -> BatchReport {
        self.map_many_cached(kernels, None)
    }

    /// [`Mapper::map_many`] with an optional shared cache consulted by every
    /// worker (the engine behind
    /// [`MappingService::map_many`](crate::service::MappingService::map_many)).
    pub(crate) fn map_many_cached(
        &self,
        kernels: &[KernelSpec],
        cache: Option<&MappingCache>,
    ) -> BatchReport {
        let threads = self
            .batch_threads
            .unwrap_or_else(crate::flow::batch::default_threads);
        let started = Instant::now();
        let names = crate::flow::batch::disambiguate_names(kernels);

        // In-batch dedup: map each distinct source once, fan the result out.
        let mut slot_of: Vec<usize> = Vec::with_capacity(kernels.len());
        let mut unique: Vec<&KernelSpec> = Vec::new();
        {
            let mut first_of: HashMap<&str, usize> = HashMap::new();
            for spec in kernels {
                let next = unique.len();
                let slot = *first_of.entry(spec.source.as_str()).or_insert(next);
                if slot == next {
                    unique.push(spec);
                }
                slot_of.push(slot);
            }
        }

        let outcomes = crate::flow::batch::parallel_map(&unique, threads, |spec| match cache {
            Some(cache) => self.map_source_cached(&spec.source, cache),
            None => self.map_source(&spec.source),
        });
        let entries = names
            .into_iter()
            .enumerate()
            .map(|(index, name)| BatchEntry {
                outcome: outcomes[slot_of[index]].clone().map(|mut mapping| {
                    mapping.report.kernel = name.clone();
                    mapping
                }),
                name,
            })
            .collect();
        BatchReport {
            entries,
            wall: started.elapsed(),
            threads: crate::flow::batch::effective_threads(threads, unique.len()),
            deduped: kernels.len() - unique.len(),
            cache: cache.map(MappingCache::stats),
        }
    }

    /// Maps a source string, consulting (and feeding) a two-level
    /// [`MappingCache`]: a byte-identical source under the same
    /// configuration is a *mapping hit* (no stage runs, so its trace is
    /// empty); a structurally identical simplified CDFG is a
    /// *post-transform hit* (only frontend + transform run).  See
    /// [`crate::cache`] for the key definitions.
    pub(crate) fn map_source_cached(
        &self,
        source: &str,
        cache: &MappingCache,
    ) -> Result<MappingResult, MapError> {
        let (shared, outcome) = self.map_source_cached_shared(source, cache, Retain::Mapping)?;
        let mut result = (*shared).clone();
        result.report.cache = outcome;
        if outcome == CacheOutcome::MappingHit {
            // No stage ran: the trace of the run that built the cached
            // mapping is not this call's.
            result.trace = FlowTrace::default();
        }
        Ok(result)
    }

    /// Fingerprint of every knob that influences the produced mapping — the
    /// `config` half of a [`MappingKey`].  Two mappers with equal
    /// fingerprints produce identical mappings for identical sources.
    pub fn cache_fingerprint(&self) -> u64 {
        config_fingerprint(&self.config, &self.array, &self.toggles)
    }

    /// Like [`map_source_cached`](Self::map_source_cached), but returns the
    /// cache's shared [`Arc`] instead of deep-cloning the result — the warm
    /// serving path — and keeps the mapping as `retain` says.  The outcome is
    /// returned alongside because the shared result's embedded report keeps
    /// the flavor it was *created* with.
    ///
    /// A request that misses the full-mapping level while the same key is
    /// being mapped follows that run: it runs no stage and is answered with
    /// the leader's result as a [`CacheOutcome::MappingHit`], or with the
    /// leader's error.
    pub(crate) fn map_source_cached_shared(
        &self,
        source: &str,
        cache: &MappingCache,
        retain: Retain,
    ) -> Result<(Arc<MappingResult>, CacheOutcome), MapError> {
        let key = MappingKey::new(source, self.cache_fingerprint());
        if let Some(hit) = cache.get_mapping(&key) {
            return Ok((hit, CacheOutcome::MappingHit));
        }
        let lead = match cache.join_flight(&key) {
            Joined::Leader(lead) => lead,
            Joined::Follower(outcome) => {
                let shared = outcome?;
                if retain == Retain::Mapping {
                    cache.insert_mapping_arc(key, Arc::clone(&shared));
                }
                return Ok((shared, CacheOutcome::MappingHit));
            }
        };
        #[cfg(test)]
        tests::on_lead(source, cache);
        let outcome = self.map_source_lead(source, cache, key.config);
        if let Ok((shared, _)) = &outcome {
            cache.keep_mapping(key, shared, retain);
        }
        lead.publish(
            outcome
                .as_ref()
                .map(|(shared, _)| Arc::clone(shared))
                .map_err(Clone::clone),
        );
        outcome
    }

    /// The leader's run: frontend and transform, then the post-transform
    /// level or the rest of the flow (whose artifacts it keeps).
    fn map_source_lead(
        &self,
        source: &str,
        cache: &MappingCache,
        fingerprint: u64,
    ) -> Result<(Arc<MappingResult>, CacheOutcome), MapError> {
        let mut cx = self.flow_context();
        let front = FrontendStage.then(TransformStage::standard());
        let simplified: SimplifiedKernel =
            FlowDriver::new().run(&front, SourceInput::new(source), &mut cx)?;
        let post_key = PostTransformKey::new(&simplified, fingerprint);
        let (mut result, outcome) = match cache.get_post_transform(&post_key) {
            Some(artifacts) => {
                // Rehydration is pure reference-count traffic: the cached
                // artifacts stay shared and only the per-run pieces (CDFG,
                // layout, report, trace) are fresh.
                let SimplifiedKernel {
                    simplified: cdfg,
                    layout,
                } = simplified;
                let mut result = finish_parts(
                    Arc::new(cdfg),
                    layout,
                    Arc::clone(&artifacts.graph),
                    Arc::clone(&artifacts.clustered),
                    Arc::clone(&artifacts.schedule),
                    Arc::clone(&artifacts.program),
                    artifacts.multi.clone(),
                    cx,
                );
                // Rehydrated results carry the fingerprint stored with the
                // artifacts, not the requester's: a verifier comparing it
                // against the requesting configuration then catches entries
                // served across a config boundary (rule FV013).
                result.config_fingerprint = artifacts.fingerprint;
                (result, CacheOutcome::PostTransformHit)
            }
            None => {
                let back = ExtractStage
                    .then(ClusterStage)
                    .then(PartitionStage)
                    .then(ScheduleStage)
                    .then(AllocateStage);
                let allocated = FlowDriver::new().run(&back, simplified, &mut cx)?;
                let result = finish(allocated, cx);
                cache.insert_post_transform(post_key, PostTransformArtifacts::of(&result));
                (result, CacheOutcome::Miss)
            }
        };
        result.report.cache = outcome;
        Ok((Arc::new(result), outcome))
    }

    fn map_cdfg_with_layout(
        &self,
        cdfg: &Cdfg,
        layout: MemoryLayout,
    ) -> Result<MappingResult, MapError> {
        let mut cx = self.flow_context();
        let flow = TransformStage::standard()
            .then(ExtractStage)
            .then(ClusterStage)
            .then(PartitionStage)
            .then(ScheduleStage)
            .then(AllocateStage);
        let input = CompiledKernel {
            cdfg: cdfg.clone(),
            layout,
        };
        let allocated = FlowDriver::new().run(&flow, input, &mut cx)?;
        Ok(finish(allocated, cx))
    }
}

/// Builds the [`MappingResult`] (headline report + flow trace) once the
/// allocate stage has produced the tile program.
fn finish(allocated: AllocatedKernel, cx: FlowContext) -> MappingResult {
    let AllocatedKernel {
        simplified,
        layout,
        graph,
        clustered,
        schedule,
        program,
        multi,
    } = allocated;
    finish_parts(
        Arc::new(simplified),
        layout,
        Arc::new(graph),
        Arc::new(clustered),
        Arc::new(schedule),
        Arc::new(program),
        multi.map(Arc::new),
        cx,
    )
}

/// [`finish`] over already shared artifacts — the post-transform hit path,
/// where the heavy pieces come straight from the cache.
#[allow(clippy::too_many_arguments)]
fn finish_parts(
    simplified: Arc<Cdfg>,
    layout: MemoryLayout,
    graph: Arc<MappingGraph>,
    clustered: Arc<ClusteredGraph>,
    schedule: Arc<Schedule>,
    program: Arc<TileProgram>,
    multi: Option<Arc<MultiTileMapping>>,
    cx: FlowContext,
) -> MappingResult {
    // Preserve the historical meaning of `mapping_time_us`: the time spent
    // in the mapping phases (clustering + partitioning + scheduling +
    // allocation; partitioning is a no-op on single-tile flows).
    let mapping_time_us = ["cluster", "partition", "schedule", "allocate"]
        .iter()
        .filter_map(|stage| cx.wall_of(stage))
        .map(|wall| wall.as_micros())
        .sum();

    let (levels, tiles, allocation) = match &multi {
        Some(multi) => (
            multi.schedule.level_count(),
            multi.program.tiles.as_slice(),
            &multi.program.stats,
        ),
        None => (
            schedule.level_count(),
            std::slice::from_ref(&*program),
            &program.stats,
        ),
    };
    let mut report = MappingReport {
        kernel: graph.name.clone(),
        operations: graph.op_count(),
        clusters: clustered.len(),
        critical_path: clustered.critical_path(),
        levels,
        mapping_time_us,
        ..MappingReport::default()
    };
    if let Some(stats) = cx.transform_stats {
        report.transform_rounds = stats.rounds;
        report.transform_visited_nodes = stats.visited_nodes;
        report.transform_peak_graph_nodes = stats.peak_graph_nodes;
    }
    report.absorb_tiles(tiles, allocation);

    let config_fingerprint = config_fingerprint(&cx.config, &cx.array, &cx.toggles);
    MappingResult {
        simplified,
        mapping_graph: graph,
        clustered,
        schedule,
        program,
        multi,
        report,
        layout,
        trace: cx.into_trace(),
        config_fingerprint,
    }
}

impl Default for Mapper {
    fn default() -> Self {
        Mapper::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};
    use std::time::{Duration, Instant};

    /// What a request runs once it leads a source's in-flight entry,
    /// before its flow starts.
    type LeadHook = fn(&MappingCache);
    /// What one thread's cached map returned, or its panic.
    type ThreadOutcome = std::thread::Result<Result<(Arc<MappingResult>, CacheOutcome), MapError>>;

    /// Hooks armed by tests, each for one exact source.
    static ON_LEAD: Mutex<Vec<(&str, LeadHook)>> = Mutex::new(Vec::new());

    pub(super) fn on_lead(source: &str, cache: &MappingCache) {
        let hooks = ON_LEAD.lock().unwrap_or_else(PoisonError::into_inner);
        let hook = hooks.iter().find(|(armed, _)| *armed == source);
        if let Some(&(_, hook)) = hook {
            drop(hooks);
            hook(cache);
        }
    }

    fn arm(source: &'static str, hook: LeadHook) {
        ON_LEAD
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((source, hook));
    }

    fn disarm(source: &str) {
        ON_LEAD
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(armed, _)| *armed != source);
    }

    /// Holds a leader until seven requests follow it, so every one of eight
    /// threads joins the same run whatever the core count.
    fn hold_for_seven_followers(cache: &MappingCache) {
        let started = Instant::now();
        while cache.stats().coalesced < 7 {
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "followers never joined: {:?}",
                cache.stats()
            );
            std::thread::yield_now();
        }
    }

    /// Maps `source` from eight threads at once through one cache.
    fn map_from_eight_threads(source: &str, cache: &MappingCache) -> Vec<ThreadOutcome> {
        let mapper = Mapper::new();
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| mapper.map_source_cached_shared(source, cache, Retain::Mapping))
                })
                .collect();
            threads.into_iter().map(|thread| thread.join()).collect()
        })
    }

    #[test]
    fn concurrent_requests_for_one_kernel_run_the_flow_once() {
        const SOURCE: &str = "void main() { int a[3]; int r; r = a[0] * a[1] + a[2]; }";
        arm(SOURCE, hold_for_seven_followers);
        let cache = MappingCache::new();
        let results = map_from_eight_threads(SOURCE, &cache);
        disarm(SOURCE);
        let results: Vec<_> = results
            .into_iter()
            .map(|joined| joined.expect("no thread panics").expect("the kernel maps"))
            .collect();
        let stats = cache.stats();
        assert_eq!(stats.post_transform_misses, 1, "one flow run: {stats:?}");
        assert_eq!(stats.post_transform_hits, 0, "{stats:?}");
        assert_eq!(stats.coalesced, 7, "{stats:?}");
        assert_eq!(stats.mapping_entries, 1, "{stats:?}");
        let outcomes = |want| results.iter().filter(|(_, got)| *got == want).count();
        assert_eq!(outcomes(CacheOutcome::Miss), 1);
        assert_eq!(outcomes(CacheOutcome::MappingHit), 7);
        for (shared, _) in &results {
            assert!(Arc::ptr_eq(shared, &results[0].0));
        }
    }

    #[test]
    fn followers_of_a_rejected_source_share_the_leaders_error() {
        const SOURCE: &str = "void main() { int r; r = undeclared + 1; }";
        arm(SOURCE, hold_for_seven_followers);
        let cache = MappingCache::new();
        let results = map_from_eight_threads(SOURCE, &cache);
        disarm(SOURCE);
        let errors: Vec<MapError> = results
            .into_iter()
            .map(|joined| {
                joined
                    .expect("no thread panics")
                    .expect_err("the frontend rejects it")
            })
            .collect();
        assert!(matches!(errors[0], MapError::Frontend(_)), "{}", errors[0]);
        assert!(errors.iter().all(|error| *error == errors[0]));
        let stats = cache.stats();
        assert_eq!(stats.coalesced, 7, "{stats:?}");
        assert_eq!(stats.entries, 0, "errors are not cached: {stats:?}");
    }

    #[test]
    fn a_leader_that_panics_answers_its_followers_with_a_typed_error() {
        const SOURCE: &str = "void main() { int a[2]; int r; r = a[1] - a[0]; }";
        arm(SOURCE, |cache| {
            hold_for_seven_followers(cache);
            panic!("injected panic in the leader's flow");
        });
        let cache = MappingCache::new();
        let results = map_from_eight_threads(SOURCE, &cache);
        disarm(SOURCE);
        let panicked = results.iter().filter(|joined| joined.is_err()).count();
        assert_eq!(panicked, 1, "only the leader unwinds");
        for joined in results.into_iter().flatten() {
            assert_eq!(joined.map(|_| ()), Err(MapError::Abandoned));
        }
        // The entry left the table with the leader: the next request leads
        // a run of its own and maps the kernel.
        let (_, outcome) = Mapper::new()
            .map_source_cached_shared(SOURCE, &cache, Retain::Mapping)
            .expect("the kernel maps once no leader panics");
        assert_eq!(outcome, CacheOutcome::Miss);
    }

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

    #[test]
    fn maps_the_paper_example_end_to_end() {
        let result = Mapper::new().map_source(FIR).unwrap();
        assert_eq!(result.mapping_graph.multiply_count(), 5);
        assert!(result.report.clusters <= result.report.operations);
        assert!(result.report.levels >= result.report.critical_path);
        assert!(result.report.cycles >= result.report.levels);
        assert!(result.report.alus_used <= 5);
        assert!(result.layout.array("a").is_some());
        // The transform stage hands on a dense graph: no holes left by
        // unrolling and folding.
        let simplified = &result.simplified;
        assert_eq!(simplified.node_bound(), simplified.node_count());
    }

    #[test]
    fn transform_stats_report_the_arena_high_water() {
        let driver = FlowDriver::new();
        let mut cx = Mapper::new().flow_context();
        let compiled = driver
            .run(&FrontendStage, SourceInput::new(FIR), &mut cx)
            .unwrap();
        let frontend_slots = compiled.cdfg.node_bound();
        let simplified = driver
            .run(&TransformStage::standard(), compiled, &mut cx)
            .unwrap();
        let stats = cx.transform_stats.unwrap();
        // The loop unrolls inside round 1, so the arena outgrows every
        // round-start live count; ids are never reused, so it still holds a
        // slot for every node the frontend or the stage allocated.
        assert!(stats.arena_slots > stats.peak_graph_nodes);
        assert!(stats.arena_slots >= frontend_slots.max(simplified.simplified.node_count()));
        let summary = cx
            .diagnostics()
            .iter()
            .rfind(|d| d.stage == "transform")
            .unwrap();
        assert!(
            summary
                .message
                .contains(&format!("{} arena slots", stats.arena_slots)),
            "{summary}"
        );
    }

    #[test]
    fn clustering_ablation_increases_levels_or_keeps_them() {
        let with = Mapper::new().map_source(FIR).unwrap();
        let without = Mapper::new().without_clustering().map_source(FIR).unwrap();
        assert!(without.report.clusters >= with.report.clusters);
        assert!(without.report.levels >= with.report.levels);
    }

    #[test]
    fn single_alu_configuration_is_slower() {
        let five = Mapper::new().map_source(FIR).unwrap();
        let one = Mapper::new()
            .with_config(fpfa_arch::TileConfig::single_alu())
            .map_source(FIR)
            .unwrap();
        assert!(one.report.cycles >= five.report.cycles);
        assert_eq!(one.report.alus_used, 1);
    }

    #[test]
    fn frontend_errors_are_propagated() {
        let err = Mapper::new()
            .map_source("void main() { x = 1; }")
            .unwrap_err();
        assert!(matches!(err, MapError::Frontend(_)));
    }

    #[test]
    fn unresolvable_loops_are_reported() {
        let src = "void main() { int n; int s; int i; s = 0; i = 0; while (i < n) { s = s + i; i = i + 1; } }";
        let err = Mapper::new().map_source(src).unwrap_err();
        assert!(matches!(err, MapError::Transform(_)));
    }

    #[test]
    fn every_stage_is_timed() {
        let result = Mapper::new().map_source(FIR).unwrap();
        for stage in [
            "frontend",
            "transform",
            "extract",
            "cluster",
            "schedule",
            "allocate",
        ] {
            assert!(
                result.trace.wall_of(stage).is_some(),
                "stage `{stage}` missing from the trace: {:?}",
                result.trace.timings
            );
        }
        // The transform stage simplified the FIR loop away, so it changed
        // the graph.
        let transform = result
            .trace
            .timings
            .iter()
            .find(|t| t.stage == "transform")
            .unwrap();
        assert!(transform.changes > 0);
    }

    #[test]
    fn map_cdfg_skips_the_frontend_stage() {
        let program = fpfa_frontend::compile(FIR).unwrap();
        let result = Mapper::new().map_cdfg(&program.cdfg).unwrap();
        assert!(result.trace.wall_of("frontend").is_none());
        assert!(result.trace.wall_of("allocate").is_some());
    }
}
