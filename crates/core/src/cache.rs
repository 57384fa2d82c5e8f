//! Content-addressed caching of mapping work.
//!
//! The paper's flow maps every kernel from scratch, but real workloads
//! resubmit the same kernels constantly.  This module lets a long-lived
//! [`MappingService`](crate::service::MappingService) skip work it has
//! already done, on two levels:
//!
//! 1. **Full-mapping cache** — keyed on the *content* of the request: a hash
//!    of the source text plus a fingerprint of everything that influences the
//!    mapping (tile configuration, array configuration incl. the tile count,
//!    and the feature toggles).  A hit returns a clone of the complete
//!    [`MappingResult`] without running any stage.
//! 2. **Post-transform cache** — keyed on the
//!    [`canonical_signature`](fpfa_cdfg::canonical_signature) of the
//!    *simplified* CDFG (plus the statespace layout and the same config
//!    fingerprint).  Structurally identical kernels — e.g. the same kernel
//!    reformatted, or rewritten in a way the minimiser folds to the same
//!    graph — share the clustering, partitioning, scheduling and allocation
//!    work even though their source hashes differ; only the cheap frontend +
//!    transform stages re-run.  (The signature covers the kernel interface,
//!    so renaming an *output* scalar is a different kernel, as it must be.)
//!
//! Both levels live in a sharded, capacity-bounded LRU: keys are spread over
//! independently locked shards (so concurrent
//! [`map_many`](crate::pipeline::Mapper::map_many) workers rarely contend)
//! and each shard evicts its least-recently-used entry when it outgrows its
//! share of the capacity.  Hit/miss/eviction counters are kept in atomics and
//! surface in [`CacheStats`].
//!
//! Beside them sits one **summary level**: config fingerprint → kernel
//! source → the [`MappingSummary`] a finished mapping serves, bounded at
//! [`SUMMARY_CAPACITY`] entries over the whole table with the same exact
//! least-recently-used policy.  Every successful map fills it, and
//! [`summary`](MappingCache::summary) answers from it with one probe that
//! builds no key and allocates nothing, so every I/O shard and worker of
//! the daemon reads the same table.  Each answer counts as a full-mapping
//! hit.
//!
//! Every map keeps its summary and its post-transform artifacts, but only a
//! map that asks for it ([`Retain::Mapping`]) keeps its full mapping: the
//! daemon answers a plain repeat from the summary level, so its plain maps
//! keep only the summary ([`Retain::Summary`]), while verification,
//! simulation and library callers keep the mapping as before.
//!
//! A kernel is mapped once however many requests for it arrive together:
//! an in-flight table keyed by [`MappingKey`] (Go's `singleflight`) lets the
//! first request that misses the full-mapping level lead the run while
//! later ones follow it, waiting for the leader's shared result (or its
//! error) instead of running any stage themselves.  The leader fills the
//! summary level before it leaves the table.
//!
//! An optional [`DiskTier`] sits below the cache and survives restarts.  It
//! keeps a full mapping as its served summary only, which the summary level
//! takes over when the tier is attached, and the post-transform artifacts
//! in full, in files of their own that the disk tier first reads when a
//! post-transform lookup falls through to it.  So after a restart a
//! request that needs the mapping itself runs frontend and transform and is
//! a post-transform hit: the costly phases do not re-run.

use crate::cluster::ClusteredGraph;
use crate::dfg::MappingGraph;
use crate::error::MapError;
use crate::flow::stages::SimplifiedKernel;
use crate::flow::FlowToggles;
use crate::multi::MultiTileMapping;
use crate::persist::{DiskTier, PersistStats};
use crate::pipeline::MappingResult;
use crate::program::TileProgram;
use crate::schedule::Schedule;
use crate::summary::{Fnv, MappingSummary};
use fpfa_arch::{AluCapability, ArrayConfig, TileConfig};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------------
// Keys and fingerprints
// ---------------------------------------------------------------------------

/// Fingerprints every mapper knob that influences the produced mapping:
/// the tile configuration (including the ALU capability), the array
/// configuration (including the tile count) and the feature toggles.  Two
/// mappers with equal fingerprints produce identical mappings for identical
/// inputs.
///
/// Disk records are keyed by the fingerprint, so it is FNV-1a over every
/// field in a fixed order: Rust promises no stable output for
/// `DefaultHasher` or derived `Hash` impls, and a toolchain upgrade must not
/// turn the disk tier into misses.  The structs are destructured, so a
/// field added to any of them does not compile here until it is hashed.
pub fn config_fingerprint(config: &TileConfig, array: &ArrayConfig, toggles: &FlowToggles) -> u64 {
    let TileConfig {
        num_pps,
        banks_per_pp,
        regs_per_bank,
        mems_per_pp,
        mem_words,
        crossbar_buses,
        mem_ports,
        regbank_write_ports,
        input_move_window,
        alu:
            AluCapability {
                max_inputs,
                max_depth,
                max_ops,
                max_multiplies,
                max_outputs,
                max_memory_ops,
            },
    } = *config;
    let ArrayConfig {
        num_tiles,
        links_per_cycle,
        hop_latency,
    } = *array;
    // `verify` stays out: the verifier only observes a mapping, so a
    // verified and an unverified request share cache entries.
    let FlowToggles {
        clustering,
        locality,
        simplify,
        verify: _,
    } = *toggles;
    let mut fnv = Fnv::new();
    for value in [
        num_pps,
        banks_per_pp,
        regs_per_bank,
        mems_per_pp,
        mem_words,
        crossbar_buses,
        mem_ports,
        regbank_write_ports,
        input_move_window,
        max_inputs,
        max_depth,
        max_ops,
        max_multiplies,
        max_outputs,
        max_memory_ops,
        num_tiles,
        links_per_cycle,
        hop_latency,
    ] {
        fnv.usize(value);
    }
    for flag in [clustering, locality, simplify] {
        fnv.byte(u8::from(flag));
    }
    fnv.finish()
}

/// Key of the full-mapping cache: the source content plus the config
/// fingerprint.  The full source is retained so a (vanishingly unlikely)
/// hash collision can never alias two different kernels.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MappingKey {
    /// Hash of the source text (pre-computed so shard selection is cheap).
    pub source_hash: u64,
    /// Fingerprint of the mapper configuration ([`config_fingerprint`]).
    pub config: u64,
    /// The source text itself, for exact comparison.
    source: Arc<str>,
}

impl MappingKey {
    /// Builds the key for one `(source, configuration)` request.
    pub fn new(source: &str, config: u64) -> Self {
        let mut hasher = DefaultHasher::new();
        source.hash(&mut hasher);
        MappingKey {
            source_hash: hasher.finish(),
            config,
            source: Arc::from(source),
        }
    }

    fn shard_hash(&self) -> u64 {
        self.source_hash ^ self.config.rotate_left(32)
    }

    /// The full source text (the disk tier stores it alongside the summary
    /// so a hash collision can never alias two kernels on disk either).
    pub(crate) fn source(&self) -> &str {
        &self.source
    }
}

/// Key of the post-transform cache: the canonical structural signature of
/// the simplified CDFG, the statespace layout, and the config fingerprint.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PostTransformKey {
    /// Fingerprint of the mapper configuration ([`config_fingerprint`]).
    pub config: u64,
    /// Canonical signature of the simplified CDFG plus a rendering of the
    /// statespace layout — everything the post-transform stages consume.
    detail: Arc<str>,
}

impl PostTransformKey {
    /// Builds the key for a simplified kernel under one configuration.
    pub fn new(simplified: &SimplifiedKernel, config: u64) -> Self {
        let mut detail = fpfa_cdfg::canonical_signature(&simplified.simplified);
        detail.push_str("layout:");
        for sym in simplified.layout.arrays() {
            detail.push_str(&format!(" {}@{}+{}", sym.name, sym.base, sym.len));
        }
        PostTransformKey {
            config,
            detail: Arc::from(detail.as_str()),
        }
    }

    fn shard_hash(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.detail.hash(&mut hasher);
        hasher.finish() ^ self.config
    }

    /// The full structural detail string (stored on disk for exact
    /// comparison, like [`MappingKey::source`]).
    pub(crate) fn detail(&self) -> &str {
        &self.detail
    }
}

// ---------------------------------------------------------------------------
// Cached values
// ---------------------------------------------------------------------------

/// The post-transform share of a mapping: everything the extract, cluster,
/// partition, schedule and allocate stages produced.  Reused wholesale when a
/// structurally identical kernel arrives.
///
/// The artifacts are shared [`Arc`]s into the [`MappingResult`] they were
/// captured from, so capturing and rehydrating are reference-count bumps —
/// no mapping data is ever deep-cloned by the cache.
#[derive(Clone, PartialEq, Debug)]
pub struct PostTransformArtifacts {
    /// The extracted mapping IR.
    pub graph: Arc<MappingGraph>,
    /// The phase-1 clustering.
    pub clustered: Arc<ClusteredGraph>,
    /// The phase-2 level schedule (tile 0's schedule for multi-tile flows).
    pub schedule: Arc<Schedule>,
    /// The phase-3 tile program (tile 0's program for multi-tile flows).
    pub program: Arc<TileProgram>,
    /// The multi-tile mapping, when the flow targeted more than one tile.
    pub multi: Option<Arc<MultiTileMapping>>,
    /// [`config_fingerprint`] of the configuration the artifacts were
    /// produced under.  Rehydration copies it into the served
    /// [`MappingResult`], so a verifier can cross-check that a cache entry
    /// (in particular one loaded from the disk tier) matches the requesting
    /// configuration.
    pub fingerprint: u64,
}

impl PostTransformArtifacts {
    /// Captures the post-transform share of a finished mapping by sharing
    /// its artifacts.
    pub fn of(result: &MappingResult) -> Self {
        PostTransformArtifacts {
            graph: Arc::clone(&result.mapping_graph),
            clustered: Arc::clone(&result.clustered),
            schedule: Arc::clone(&result.schedule),
            program: Arc::clone(&result.program),
            multi: result.multi.clone(),
            fingerprint: result.config_fingerprint,
        }
    }
}

/// How one mapping request interacted with the cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CacheOutcome {
    /// The request never consulted a cache (plain [`Mapper`] entry points).
    ///
    /// [`Mapper`]: crate::pipeline::Mapper
    #[default]
    Uncached,
    /// Both cache levels missed; the full flow ran.
    Miss,
    /// The full-mapping cache hit, or the request followed another
    /// request's run of the same key; no stage ran.
    MappingHit,
    /// The post-transform cache hit; only frontend + transform ran.
    PostTransformHit,
}

impl fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheOutcome::Uncached => "uncached",
            CacheOutcome::Miss => "miss",
            CacheOutcome::MappingHit => "mapping hit",
            CacheOutcome::PostTransformHit => "post-transform hit",
        };
        f.write_str(s)
    }
}

/// What a cached map keeps of the mapping it produced.  Every map keeps its
/// summary and its post-transform artifacts; this chooses whether the full
/// mapping is kept too.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Retain {
    /// The full mapping goes into the full-mapping level, for callers that
    /// use it again: verification, simulation and library callers.
    Mapping,
    /// Only the mapping's summary is kept: for callers that answer repeats
    /// from the summary level, as the daemon's plain maps do.
    Summary,
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of the cache counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Full-mapping cache hits.
    pub mapping_hits: u64,
    /// Full-mapping cache misses.
    pub mapping_misses: u64,
    /// Post-transform cache hits.
    pub post_transform_hits: u64,
    /// Post-transform cache misses.
    pub post_transform_misses: u64,
    /// Requests that found their kernel already being mapped and waited for
    /// that run instead of running the flow themselves.
    pub coalesced: u64,
    /// Entries evicted (both levels) to stay within capacity.
    pub evictions: u64,
    /// Full mappings currently resident.
    pub mapping_entries: u64,
    /// Post-transform artifacts currently resident.
    pub post_entries: u64,
    /// Entries currently resident (both artifact levels).
    pub entries: u64,
    /// Summaries currently resident in the summary level.
    pub summary_entries: u64,
}

impl CacheStats {
    /// Total lookups across both levels.
    pub fn lookups(&self) -> u64 {
        self.mapping_hits
            + self.mapping_misses
            + self.post_transform_hits
            + self.post_transform_misses
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mapping {}/{} hit(s), post-transform {}/{} hit(s), {} eviction(s), {} resident entries",
            self.mapping_hits,
            self.mapping_hits + self.mapping_misses,
            self.post_transform_hits,
            self.post_transform_hits + self.post_transform_misses,
            self.evictions,
            self.entries,
        )
    }
}

#[derive(Debug, Default)]
struct Counters {
    mapping_hits: AtomicU64,
    mapping_misses: AtomicU64,
    post_hits: AtomicU64,
    post_misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    mapping_entries: AtomicU64,
    post_entries: AtomicU64,
}

// ---------------------------------------------------------------------------
// LRU shards
// ---------------------------------------------------------------------------

/// One independently locked LRU shard: a hash map plus a recency tick per
/// entry.  Eviction removes the entry with the smallest tick, which is the
/// exact least-recently-used entry of the shard.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Slot<V>>,
    tick: u64,
    capacity: usize,
}

#[derive(Debug)]
struct Slot<V> {
    value: Arc<V>,
    last_used: u64,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::new(),
            tick: 0,
            capacity,
        }
    }

    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.last_used = tick;
            Arc::clone(&slot.value)
        })
    }

    /// Inserts (or refreshes) an entry; returns whether the key was new to
    /// the shard and how many entries were evicted to make room.
    fn insert(&mut self, key: K, value: Arc<V>) -> (bool, usize) {
        self.tick += 1;
        let tick = self.tick;
        let fresh = self
            .map
            .insert(
                key,
                Slot {
                    value,
                    last_used: tick,
                },
            )
            .is_none();
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            self.map.remove(&oldest);
            evicted += 1;
        }
        (fresh, evicted)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) -> usize {
        let removed = self.map.len();
        self.map.clear();
        removed
    }
}

/// The summary level: config fingerprint → kernel source → the served
/// summary of its finished mapping and the recency tick of its last use.
/// One exact least-recently-used order spans every fingerprint.
#[derive(Debug, Default)]
struct Summaries {
    by_config: HashMap<u64, HashMap<Arc<str>, (MappingSummary, u64)>>,
    len: usize,
    tick: u64,
}

impl Summaries {
    fn get(&mut self, fingerprint: u64, source: &str) -> Option<MappingSummary> {
        let slot = self.by_config.get_mut(&fingerprint)?.get_mut(source)?;
        self.tick += 1;
        slot.1 = self.tick;
        Some(slot.0)
    }

    /// Stores `summary` as the most recently used entry, evicting the least
    /// recently used one past [`SUMMARY_CAPACITY`]; returns the summary it
    /// replaced.
    fn insert(
        &mut self,
        fingerprint: u64,
        source: &Arc<str>,
        summary: MappingSummary,
    ) -> Option<MappingSummary> {
        self.tick += 1;
        let slot = (summary, self.tick);
        let table = self.by_config.entry(fingerprint).or_default();
        if let Some(held) = table.get_mut(&**source) {
            return Some(std::mem::replace(held, slot).0);
        }
        table.insert(Arc::clone(source), slot);
        self.len += 1;
        if self.len > SUMMARY_CAPACITY {
            self.evict_least_recent();
        }
        None
    }

    /// Fills an empty level with the summaries a disk tier's open found,
    /// oldest record first.  It reads them newest first, so the newest
    /// record of a pair answers for it and the newest [`SUMMARY_CAPACITY`]
    /// pairs are kept without an eviction; a record's position is its
    /// recency tick, so the newest pairs are the most recently used.
    fn fill(&mut self, found: Vec<(u64, Arc<str>, MappingSummary)>) {
        self.tick = found.len() as u64;
        for (index, (fingerprint, source, summary)) in found.into_iter().enumerate().rev() {
            if self.len == SUMMARY_CAPACITY {
                break;
            }
            let table = self.by_config.entry(fingerprint).or_default();
            if let Entry::Vacant(slot) = table.entry(source) {
                slot.insert((summary, index as u64 + 1));
                self.len += 1;
            }
        }
    }

    fn evict_least_recent(&mut self) {
        let oldest = self
            .by_config
            .iter()
            .flat_map(|(&fingerprint, table)| {
                table.values().map(move |&(_, used)| (used, fingerprint))
            })
            .min();
        if let Some((used, fingerprint)) = oldest {
            let table = self.by_config.get_mut(&fingerprint).expect("its table");
            // Ticks are unique, so this drops exactly one entry.
            table.retain(|_, slot| slot.1 != used);
            if table.is_empty() {
                self.by_config.remove(&fingerprint);
            }
            self.len -= 1;
        }
    }
}

fn lock_shard<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding a shard's lock can only leave a stale recency
    // tick behind, never a torn entry, and the in-flight table's lock is
    // never held across a flow run, so a poisoned lock stays usable.
    shard
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Single-flight
// ---------------------------------------------------------------------------

/// What one run of the flow produced, as its followers receive it.
type FlightOutcome = Result<Arc<MappingResult>, MapError>;

/// How a request joined the in-flight table ([`MappingCache::join_flight`]).
pub(crate) enum Joined<'a> {
    /// No run of the key was in flight: this request leads one.
    Leader(FlightLead<'a>),
    /// Another request led the run of the key; this is what it produced.
    Follower(FlightOutcome),
}

/// A leader's hold on its key's in-flight entry.  Dropping it removes the
/// entry; a leader that drops it without [`publish`](Self::publish)ing,
/// which happens only when the flow unwinds, answers every follower
/// [`MapError::Abandoned`], so none waits forever.
pub(crate) struct FlightLead<'a> {
    cache: &'a MappingCache,
    key: MappingKey,
    flight: Arc<OnceLock<FlightOutcome>>,
}

impl FlightLead<'_> {
    /// Hands the run's outcome to every follower, then leaves the table.
    pub(crate) fn publish(self, outcome: FlightOutcome) {
        let _ = self.flight.set(outcome);
    }
}

impl Drop for FlightLead<'_> {
    fn drop(&mut self) {
        let _ = self.flight.set(Err(MapError::Abandoned));
        lock_shard(&self.cache.flights).remove(&self.key);
    }
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// The two-level, sharded, capacity-bounded mapping cache, with its summary
/// level.
///
/// Thread-safe: shards are individually locked and the counters are atomics,
/// so it is shared freely between
/// [`map_many`](crate::pipeline::Mapper::map_many) worker threads (wrap it in
/// an [`Arc`], as [`MappingService`](crate::service::MappingService) does).
#[derive(Debug)]
pub struct MappingCache {
    mapping_shards: Vec<Mutex<Shard<MappingKey, MappingResult>>>,
    post_shards: Vec<Mutex<Shard<PostTransformKey, PostTransformArtifacts>>>,
    per_shard_capacity: usize,
    /// The served summary of every finished mapping, bounded over the whole
    /// table.  Its lock is held for one probe or insert, never across disk
    /// I/O or a flow stage.
    summaries: Mutex<Summaries>,
    counters: Counters,
    /// The runs of the flow in progress, by content key: a request that
    /// misses the full-mapping level while its key is here waits for the
    /// run's outcome instead of starting another.
    flights: Mutex<HashMap<MappingKey, Arc<OnceLock<FlightOutcome>>>>,
    /// Optional persistent tier below the in-memory LRU: every new summary
    /// and every post-transform insert store through to it, post-transform
    /// misses fall through to it, and disk hits are promoted back into
    /// memory.  See [`crate::persist`].
    disk: Option<DiskTier>,
}

/// Default capacity per cache level, in entries.
pub const DEFAULT_CAPACITY: usize = 256;
/// Default number of shards per cache level.
pub const DEFAULT_SHARDS: usize = 8;
/// Bound of the summary level, in `(fingerprint, source)` pairs over the
/// whole table.
pub const SUMMARY_CAPACITY: usize = 4096;

impl MappingCache {
    /// The nominal capacity of each cache level, in entries (the per-shard
    /// shares summed back up; at least the requested capacity).
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.mapping_shards.len()
    }

    /// Drops every resident entry (all three levels) and zeroes the
    /// residency gauges, leaving the hit/miss/eviction counters untouched —
    /// the server's cache-reset path.  When a disk tier is attached it is
    /// truncated too, so a reset really is cold: nothing can warm-hit from
    /// disk afterwards.  Returns how many entries of the two artifact levels
    /// were dropped.
    pub fn clear(&self) -> usize {
        let mut mappings = 0usize;
        for shard in &self.mapping_shards {
            mappings += lock_shard(shard).clear();
        }
        let mut posts = 0usize;
        for shard in &self.post_shards {
            posts += lock_shard(shard).clear();
        }
        self.counters
            .mapping_entries
            .fetch_sub(mappings as u64, Ordering::Relaxed);
        self.counters
            .post_entries
            .fetch_sub(posts as u64, Ordering::Relaxed);
        *lock_shard(&self.summaries) = Summaries::default();
        if let Some(tier) = &self.disk {
            tier.clear();
        }
        mappings + posts
    }

    /// A cache with the default capacity ([`DEFAULT_CAPACITY`] entries per
    /// level) and sharding ([`DEFAULT_SHARDS`]).
    pub fn new() -> Self {
        Self::with_capacity_and_shards(DEFAULT_CAPACITY, DEFAULT_SHARDS)
    }

    /// A cache bounded to `capacity` entries per level, spread over the
    /// default number of shards.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache bounded to `capacity` entries per level over `shards`
    /// independently locked shards.
    ///
    /// The capacity is divided evenly over the shards and each shard evicts
    /// its own least-recently-used entry when it outgrows its share; with a
    /// single shard the whole cache behaves as one exact LRU.  Zero values
    /// are clamped to one.
    pub fn with_capacity_and_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.max(1).div_ceil(shards);
        MappingCache {
            mapping_shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            post_shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            per_shard_capacity: per_shard,
            summaries: Mutex::new(Summaries::default()),
            counters: Counters::default(),
            flights: Mutex::new(HashMap::new()),
            disk: None,
        }
    }

    /// Attaches a persistent [`DiskTier`] below the in-memory LRU (builder
    /// style, before the cache is shared).  The summary level takes over
    /// the summaries the tier's open found (the newest
    /// [`SUMMARY_CAPACITY`] of them), post-transform lookups that miss in
    /// memory fall through to disk, inserts store through, and
    /// [`clear`](Self::clear) truncates the disk tier too.
    pub fn with_disk_tier(mut self, mut tier: DiskTier) -> Self {
        lock_shard(&self.summaries).fill(tier.take_summaries());
        self.disk = Some(tier);
        self
    }

    /// The attached persistent tier, if any (the disk tier's tests read its
    /// internals through a cache).
    #[cfg(test)]
    pub(crate) fn disk_tier(&self) -> Option<&DiskTier> {
        self.disk.as_ref()
    }

    /// A snapshot of the persistent tier's counters (all zero when no disk
    /// tier is attached).
    pub fn persist_stats(&self) -> PersistStats {
        self.disk
            .as_ref()
            .map(|tier| tier.stats())
            .unwrap_or_default()
    }

    /// Looks up a full mapping by content key in memory, refreshing its
    /// recency.  The disk tier holds no full mappings, only their summaries:
    /// after a restart a miss here runs frontend and transform, and
    /// [`get_post_transform`](Self::get_post_transform) loads the rest.
    pub fn get_mapping(&self, key: &MappingKey) -> Option<Arc<MappingResult>> {
        let shard = &self.mapping_shards[key.shard_hash() as usize % self.mapping_shards.len()];
        let found = lock_shard(shard).get(key);
        match &found {
            Some(_) => self.counters.mapping_hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.mapping_misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// The summary level's answer for `source` under the configuration
    /// `fingerprint`, refreshing its recency: the summary of a finished
    /// mapping of exactly this source text, with no key built and nothing
    /// allocated.  An answer counts as a full-mapping hit, so the hit ratio
    /// of [`stats`](Self::stats) covers requests that never reach
    /// [`get_mapping`](Self::get_mapping); a miss counts nothing.
    pub fn summary(&self, fingerprint: u64, source: &str) -> Option<MappingSummary> {
        let found = lock_shard(&self.summaries).get(fingerprint, source);
        if found.is_some() {
            self.counters.mapping_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Keeps a finished mapping as `retain` says: its summary goes to the
    /// summary level either way, and the mapping itself into the
    /// full-mapping level only for [`Retain::Mapping`].
    pub(crate) fn keep_mapping(
        &self,
        key: MappingKey,
        result: &Arc<MappingResult>,
        retain: Retain,
    ) {
        self.keep_summary(&key, MappingSummary::of(result));
        if retain == Retain::Mapping {
            let shard = &self.mapping_shards[key.shard_hash() as usize % self.mapping_shards.len()];
            let (fresh, evicted) = lock_shard(shard).insert(key, Arc::clone(result));
            self.note_insert(&self.counters.mapping_entries, fresh, evicted);
        }
    }

    /// Puts `summary` into the summary level and stores it through to the
    /// disk tier unless the level already held this very summary, which is
    /// the case of every mapping a restarted service rebuilds from a
    /// persisted post-transform record.
    pub(crate) fn keep_summary(&self, key: &MappingKey, summary: MappingSummary) {
        let replaced = lock_shard(&self.summaries).insert(key.config, &key.source, summary);
        if replaced != Some(summary) {
            if let Some(tier) = &self.disk {
                tier.store_summary(key, summary);
            }
        }
    }

    /// Joins the in-flight run of `key`: the first request for a key leads
    /// it, and a request that finds the key in flight follows it, blocking
    /// until the leader publishes (counted as coalesced).
    pub(crate) fn join_flight(&self, key: &MappingKey) -> Joined<'_> {
        let mut flights = lock_shard(&self.flights);
        if let Some(flight) = flights.get(key) {
            let flight = Arc::clone(flight);
            drop(flights);
            self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            return Joined::Follower(flight.wait().clone());
        }
        let flight = Arc::new(OnceLock::new());
        flights.insert(key.clone(), Arc::clone(&flight));
        Joined::Leader(FlightLead {
            cache: self,
            key: key.clone(),
            flight,
        })
    }

    /// Looks up post-transform artifacts by structural key, refreshing their
    /// recency.  On a memory miss the lookup falls through to the disk tier
    /// (when one is attached); a disk hit is promoted back into memory and
    /// counts as a post-transform hit.
    pub fn get_post_transform(
        &self,
        key: &PostTransformKey,
    ) -> Option<Arc<PostTransformArtifacts>> {
        let shard = &self.post_shards[key.shard_hash() as usize % self.post_shards.len()];
        let mut found = lock_shard(shard).get(key);
        if found.is_none() {
            if let Some(loaded) = self
                .disk
                .as_ref()
                .and_then(|tier| tier.load_post_transform(key))
            {
                let promoted = Arc::new(loaded);
                let (fresh, evicted) = lock_shard(shard).insert(key.clone(), Arc::clone(&promoted));
                self.note_insert(&self.counters.post_entries, fresh, evicted);
                found = Some(promoted);
            }
        }
        match &found {
            Some(_) => self.counters.post_hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.post_misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores post-transform artifacts under their structural key, storing
    /// through to the disk tier when one is attached.
    pub fn insert_post_transform(&self, key: PostTransformKey, artifacts: PostTransformArtifacts) {
        if let Some(tier) = &self.disk {
            tier.store_post_transform(&key, &artifacts);
        }
        let shard = &self.post_shards[key.shard_hash() as usize % self.post_shards.len()];
        let (fresh, evicted) = lock_shard(shard).insert(key, Arc::new(artifacts));
        self.note_insert(&self.counters.post_entries, fresh, evicted);
    }

    /// Maintains one level's residency gauge incrementally from one
    /// insert's outcome, so concurrent workers never serialize on a
    /// whole-cache sweep (the shards stay independently locked).
    fn note_insert(&self, entries: &AtomicU64, fresh: bool, evicted: usize) {
        self.counters
            .evictions
            .fetch_add(evicted as u64, Ordering::Relaxed);
        if fresh {
            entries.fetch_add(1, Ordering::Relaxed);
        }
        if evicted > 0 {
            entries.fetch_sub(evicted as u64, Ordering::Relaxed);
        }
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        let mapping_entries = self.counters.mapping_entries.load(Ordering::Relaxed);
        let post_entries = self.counters.post_entries.load(Ordering::Relaxed);
        CacheStats {
            mapping_hits: self.counters.mapping_hits.load(Ordering::Relaxed),
            mapping_misses: self.counters.mapping_misses.load(Ordering::Relaxed),
            post_transform_hits: self.counters.post_hits.load(Ordering::Relaxed),
            post_transform_misses: self.counters.post_misses.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            mapping_entries,
            post_entries,
            entries: mapping_entries + post_entries,
            summary_entries: lock_shard(&self.summaries).len as u64,
        }
    }

    /// Resets the hit/miss/eviction counters (resident entries are kept).
    pub fn reset_stats(&self) {
        self.counters.mapping_hits.store(0, Ordering::Relaxed);
        self.counters.mapping_misses.store(0, Ordering::Relaxed);
        self.counters.post_hits.store(0, Ordering::Relaxed);
        self.counters.post_misses.store(0, Ordering::Relaxed);
        self.counters.coalesced.store(0, Ordering::Relaxed);
        self.counters.evictions.store(0, Ordering::Relaxed);
        self.counters
            .mapping_entries
            .store(resident(&self.mapping_shards), Ordering::Relaxed);
        self.counters
            .post_entries
            .store(resident(&self.post_shards), Ordering::Relaxed);
    }
}

/// Entries resident over one level's shards.
fn resident<K: Hash + Eq + Clone, V>(shards: &[Mutex<Shard<K, V>>]) -> u64 {
    shards.iter().map(|s| lock_shard(s).len() as u64).sum()
}

impl Default for MappingCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::MappingSummary;

    fn key(s: &str) -> MappingKey {
        MappingKey::new(s, 7)
    }

    #[test]
    fn shard_evicts_the_exact_lru_entry() {
        let mut shard: Shard<MappingKey, u32> = Shard::new(2);
        assert_eq!(shard.insert(key("a"), Arc::new(1)), (true, 0));
        assert_eq!(shard.insert(key("b"), Arc::new(2)), (true, 0));
        // Touch `a` so `b` becomes the least recently used.
        assert!(shard.get(&key("a")).is_some());
        assert_eq!(shard.insert(key("c"), Arc::new(3)), (true, 1));
        assert!(shard.get(&key("a")).is_some());
        assert!(shard.get(&key("b")).is_none());
        assert!(shard.get(&key("c")).is_some());
    }

    #[test]
    fn reinserting_a_resident_key_does_not_evict() {
        let mut shard: Shard<MappingKey, u32> = Shard::new(2);
        shard.insert(key("a"), Arc::new(1));
        shard.insert(key("b"), Arc::new(2));
        assert_eq!(shard.insert(key("a"), Arc::new(9)), (false, 0));
        assert_eq!(*shard.get(&key("a")).unwrap(), 9);
        assert_eq!(shard.len(), 2);
    }

    #[test]
    fn keys_distinguish_source_and_config() {
        assert_eq!(key("x"), key("x"));
        assert_ne!(key("x"), key("y"));
        assert_ne!(MappingKey::new("x", 1), MappingKey::new("x", 2));
    }

    #[test]
    fn config_fingerprint_covers_tiles_and_toggles() {
        let config = TileConfig::paper();
        let toggles = FlowToggles::default();
        let one = config_fingerprint(&config, &ArrayConfig::single_tile(), &toggles);
        let four = config_fingerprint(&config, &ArrayConfig::with_tiles(4), &toggles);
        assert_ne!(one, four);
        let no_locality = FlowToggles {
            locality: false,
            ..toggles
        };
        assert_ne!(
            one,
            config_fingerprint(&config, &ArrayConfig::single_tile(), &no_locality)
        );
        // Verification only observes a mapping: it shares the fingerprint.
        let verified = FlowToggles {
            verify: true,
            ..toggles
        };
        assert_eq!(
            one,
            config_fingerprint(&config, &ArrayConfig::single_tile(), &verified)
        );
        let small = config.with_num_pps(3);
        assert_ne!(
            one,
            config_fingerprint(&small, &ArrayConfig::single_tile(), &toggles)
        );
        // Deterministic for equal inputs.
        assert_eq!(
            one,
            config_fingerprint(&config, &ArrayConfig::single_tile(), &toggles)
        );
    }

    #[test]
    fn config_fingerprint_is_pinned_across_toolchains() {
        // Disk records are keyed by this value: it must never drift with the
        // compiler or the standard library's hasher.  It is FNV-1a over the
        // 18 configuration words (little-endian u64s) and the three toggle
        // bytes, in declaration order.
        let fingerprint = config_fingerprint(
            &TileConfig::paper(),
            &ArrayConfig::with_tiles(4),
            &FlowToggles::default(),
        );
        assert_eq!(fingerprint, 0xf527_46e5_97ec_6118);
    }

    #[test]
    fn clear_drops_entries_and_keeps_counters() {
        let cache = MappingCache::with_capacity_and_shards(8, 2);
        assert_eq!(cache.capacity(), 8);
        let mapper = crate::pipeline::Mapper::new();
        let source = "void main() { int a[2]; int r; r = a[0] + a[1]; }";
        mapper.map_source_cached(source, &cache).unwrap();
        // One full-mapping entry plus one post-transform entry are resident.
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.clear(), 2);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        // The lookup history survives; only residency is reset.
        assert_eq!(stats.mapping_misses, 1);
        // The next request is a cold miss again.
        let remapped = mapper.map_source_cached(source, &cache).unwrap();
        assert_eq!(remapped.report.cache, CacheOutcome::Miss);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.clear(), 2);
        assert_eq!(cache.clear(), 0);
    }

    #[test]
    fn disk_tier_warm_starts_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!("fpfa-cache-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mapper = crate::pipeline::Mapper::new();
        // A loop, so the rebuild after the restart re-runs unrolling and
        // folding.
        let source = "void main() { int a[4]; int r; int i; r = 0; i = 0; \
                      while (i < 4) { r = r + a[i] * a[i]; i = i + 1; } }";
        let cold = {
            let cache =
                MappingCache::with_capacity(8).with_disk_tier(DiskTier::open(&dir).unwrap());
            let result = mapper.map_source_cached(source, &cache).unwrap();
            assert_eq!(result.report.cache, CacheOutcome::Miss);
            // The miss stored through: one mapping + one post-transform record.
            assert_eq!(cache.persist_stats().stores, 2);
            result
        };
        // A brand-new process (fresh cache over the same directory) rebuilds
        // the same mapping from disk without running phases 1-3.
        let cache = MappingCache::with_capacity(8).with_disk_tier(DiskTier::open(&dir).unwrap());
        // The open handed the persisted summary to the summary level, which
        // answers without decoding anything; taking it over counts no
        // lookup, and each answer counts one mapping hit.
        assert_eq!(cache.stats().lookups(), 0);
        assert_eq!(cache.stats().summary_entries, 1);
        let fingerprint = mapper.cache_fingerprint();
        let summary = MappingSummary::of(&cold);
        assert_eq!(cache.summary(fingerprint, source), Some(summary));
        assert_eq!(cache.summary(fingerprint, "void main() {}"), None);
        assert_eq!(cache.persist_stats().loads, 0);
        assert_eq!(cache.stats().mapping_hits, 1);
        // The mapping itself is not on disk: frontend and transform re-run
        // and the persisted post-transform record supplies the rest.
        let warm = mapper.map_source_cached(source, &cache).unwrap();
        assert_eq!(warm.report.cache, CacheOutcome::PostTransformHit);
        assert_eq!(warm.program, cold.program);
        assert_eq!(warm.multi, cold.multi);
        assert_eq!(warm.layout, cold.layout);
        assert_eq!(MappingSummary::of(&warm), summary);
        let stages: Vec<&str> = warm.trace.timings.iter().map(|t| t.stage).collect();
        assert_eq!(stages, ["frontend", "transform"]);
        assert_eq!(cache.persist_stats().loads, 1);
        // The open indexed the summary; this first post-transform load
        // scanned the post-transform record's file and indexed it too.
        assert_eq!(cache.persist_stats().warm_start_entries, 2);
        // The summary level already holds this summary: the rebuild appends
        // nothing.
        assert_eq!(cache.persist_stats().stores, 0);
        assert_eq!(cache.summary(fingerprint, source), Some(summary));
        // The rebuilt mapping now lives in memory: the next lookup is a
        // mapping hit that does not touch disk again.
        let again = mapper.map_source_cached(source, &cache).unwrap();
        assert_eq!(again.report.cache, CacheOutcome::MappingHit);
        assert_eq!(cache.persist_stats().loads, 1);
        // clear() empties the summary level and truncates the disk tier too:
        // cold again everywhere.
        cache.clear();
        assert_eq!(cache.summary(fingerprint, source), None);
        assert_eq!(cache.stats().summary_entries, 0);
        let reset = mapper.map_source_cached(source, &cache).unwrap();
        assert_eq!(reset.report.cache, CacheOutcome::Miss);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A summary whose fields all read `n`.
    fn numbered_summary(n: u64) -> MappingSummary {
        MappingSummary {
            digest: n,
            operations: n,
            clusters: n,
            levels: n,
            cycles: n,
            tiles: n,
            inter_tile_transfers: n,
        }
    }

    #[test]
    fn the_summary_level_evicts_exactly_the_least_recent_pair_past_its_bound() {
        let cache = MappingCache::new();
        let sources: Vec<String> = (0..=SUMMARY_CAPACITY)
            .map(|i| format!("void main() {{ int r; r = {i}; }}"))
            .collect();
        // Two fingerprints share the one bound and the one recency order.
        let fingerprint = |i: usize| 7 + (i % 2) as u64;
        for (i, source) in sources[..SUMMARY_CAPACITY].iter().enumerate() {
            cache.keep_summary(
                &MappingKey::new(source, fingerprint(i)),
                numbered_summary(i as u64),
            );
        }
        assert_eq!(cache.stats().summary_entries, SUMMARY_CAPACITY as u64);
        // Touch the oldest pair, so the second oldest is the least recent.
        assert_eq!(
            cache.summary(fingerprint(0), &sources[0]),
            Some(numbered_summary(0))
        );
        let newest = SUMMARY_CAPACITY;
        cache.keep_summary(
            &MappingKey::new(&sources[newest], fingerprint(newest)),
            numbered_summary(newest as u64),
        );
        assert_eq!(cache.stats().summary_entries, SUMMARY_CAPACITY as u64);
        for (i, source) in sources.iter().enumerate() {
            let expected = (i != 1).then(|| numbered_summary(i as u64));
            assert_eq!(cache.summary(fingerprint(i), source), expected, "pair {i}");
        }
        // The source is compared under its own fingerprint only.
        assert_eq!(cache.summary(fingerprint(1), &sources[0]), None);
    }

    #[test]
    fn a_warm_start_keeps_the_newest_summaries() {
        // What an open lists, oldest record first: one kernel more than the
        // level holds, then records that supersede kernel 1's and the
        // newest kernel's.
        let source = |i: usize| Arc::<str>::from(format!("void main() {{ int r; r = {i}; }}"));
        let newest = SUMMARY_CAPACITY;
        let mut found: Vec<_> = (0..=newest)
            .map(|i| (7, source(i), numbered_summary(i as u64)))
            .collect();
        found.push((7, source(1), numbered_summary(0)));
        found.push((7, source(newest), numbered_summary(1)));
        let mut level = Summaries::default();
        level.fill(found);
        // A superseded record takes no room: every kernel but the least
        // recent one is resident.
        assert_eq!(level.len, SUMMARY_CAPACITY);
        assert_eq!(level.get(7, &source(0)), None);
        // Record order is recency order: the next insert evicts kernel 2,
        // whose only record is the oldest one read.
        level.insert(7, &source(newest + 1), numbered_summary(9));
        assert_eq!(level.get(7, &source(2)), None);
        assert_eq!(level.get(7, &source(3)), Some(numbered_summary(3)));
        // The newest record of a kernel answers for it.
        assert_eq!(level.get(7, &source(1)), Some(numbered_summary(0)));
        assert_eq!(level.get(7, &source(newest)), Some(numbered_summary(1)));
    }

    #[test]
    fn stats_display() {
        let stats = CacheStats {
            mapping_hits: 3,
            mapping_misses: 1,
            ..CacheStats::default()
        };
        assert!(stats.to_string().contains("mapping 3/4"));
    }
}
