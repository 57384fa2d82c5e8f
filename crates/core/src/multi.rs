//! Mapping onto an FPFA tile array: scheduling, allocation and traffic
//! reporting for a kernel partitioned across any number of tiles.
//!
//! These are the flow's only scheduler and allocator. The paper's setting is
//! the one-tile array ([`ArrayConfig::single_tile`]): its schedule is tile
//! 0's, and the flow folds its [`MultiTileProgram`] into one [`TileProgram`].
//! On more tiles the flow ends in the [`MultiTileProgram`] itself — one
//! per-cycle program per tile, all on a *shared global timeline*, plus the
//! [`TransferJob`]s that move values between tiles over the inter-tile
//! interconnect.
//!
//! * [`MultiScheduler`] — level scheduling with at most `num_pps` clusters
//!   per tile per level (Fig. 4); a dependence crossing tiles separates the
//!   endpoint levels by an extra [`ArrayConfig::hop_latency`] levels so the
//!   transfer has time to arrive.
//! * [`MultiTileAllocator`] — runs the Fig. 5 allocation heuristic per tile,
//!   level by level, keeping the tiles cycle-aligned; after every level it
//!   schedules one transfer per `(value, consuming tile)` cut edge, subject
//!   to the interconnect's per-cycle link budget.
//! * [`TrafficReport`] — every inter-tile edge exactly once, with per-pair
//!   word counts and the energy the transfers cost under an
//!   [`EnergyModel`].
//!
//! `fpfa-sim` executes the resulting program with the transfer latency
//! modeled, so the functional-equivalence check covers the partitioned flow
//! end to end.

use crate::allocate::{AllocState, LevelAllocator, PRELOADED};
use crate::cluster::{ClusterId, ClusteredGraph};
use crate::dfg::{MappingGraph, Named, OpId, ValueRef};
use crate::error::MapError;
use crate::partition::{CutEdge, TileAssignment};
use crate::program::{AllocationStats, Location, TileProgram};
use crate::schedule::{alap_levels, asap_levels, find_free_level, mark_full, Schedule};
use fpfa_arch::{ArrayConfig, EnergyModel, MemRef, TileConfig, TileId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

// ---------------------------------------------------------------------------
// Multi-tile schedule
// ---------------------------------------------------------------------------

/// Per-tile level schedules on one shared global level timeline.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MultiSchedule {
    per_tile: Vec<Schedule>,
    level_count: usize,
}

impl MultiSchedule {
    /// Rebuilds a multi-schedule from its serialized parts (the binary
    /// codec's decode path).
    pub(crate) fn from_parts(per_tile: Vec<Schedule>, level_count: usize) -> Self {
        MultiSchedule {
            per_tile,
            level_count,
        }
    }

    /// Wraps a single-tile schedule as a one-tile multi-schedule.
    pub fn from_single(schedule: Schedule) -> Self {
        let level_count = schedule.level_count();
        MultiSchedule {
            per_tile: vec![schedule],
            level_count,
        }
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.per_tile.len()
    }

    /// Number of global levels (the longest tile's schedule).
    pub fn level_count(&self) -> usize {
        self.level_count
    }

    /// The schedule of one tile.
    ///
    /// # Panics
    /// Panics when the tile index is out of range.
    pub fn tile(&self, tile: TileId) -> &Schedule {
        &self.per_tile[tile]
    }

    /// All per-tile schedules.
    pub fn tiles(&self) -> &[Schedule] {
        &self.per_tile
    }

    /// The `(tile, level)` a cluster was scheduled at.
    pub fn placement_of(&self, cluster: ClusterId) -> Option<(TileId, usize)> {
        self.per_tile
            .iter()
            .enumerate()
            .find_map(|(tile, schedule)| schedule.level_of(cluster).map(|level| (tile, level)))
    }

    /// The largest number of clusters sharing one level on one tile.
    pub fn max_parallelism_per_tile(&self) -> usize {
        self.per_tile
            .iter()
            .map(Schedule::max_parallelism)
            .max()
            .unwrap_or(0)
    }

    /// Total clusters scheduled across all tiles.
    pub fn cluster_count(&self) -> usize {
        self.per_tile
            .iter()
            .map(|s| s.levels().iter().map(Vec::len).sum::<usize>())
            .sum()
    }
}

impl fmt::Display for MultiSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for level in 0..self.level_count {
            write!(f, "level {level}:")?;
            for (tile, schedule) in self.per_tile.iter().enumerate() {
                let clusters = schedule.level(level);
                if clusters.is_empty() {
                    continue;
                }
                let names: Vec<String> = clusters.iter().map(|c| c.to_string()).collect();
                write!(f, "  tile{tile}[{}]", names.join(" "))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The multi-tile level scheduler.
#[derive(Clone, Copy, Debug)]
pub struct MultiScheduler {
    /// Number of physical ALUs per tile.
    pub num_alus: usize,
    /// Extra levels separating cross-tile dependences (the interconnect's
    /// hop latency).
    pub hop_latency: usize,
}

impl MultiScheduler {
    /// Creates a scheduler for tiles with `num_alus` PPs and the given hop
    /// latency.
    pub fn new(num_alus: usize, hop_latency: usize) -> Self {
        MultiScheduler {
            num_alus,
            hop_latency,
        }
    }

    /// Schedules the partitioned cluster graph level by level: each cluster
    /// goes to the earliest level on its tile that satisfies its dependences
    /// (cross-tile predecessors finish `hop_latency` levels earlier) and
    /// still has a free ALU — when every level in that range is full, a new
    /// level is appended (the "insert a new level when necessary" rule of
    /// Fig. 4).
    ///
    /// # Errors
    /// [`MapError::AllocationFailed`] when `num_alus` is zero.
    pub fn schedule(
        &self,
        clustered: &ClusteredGraph,
        assignment: &TileAssignment,
    ) -> Result<MultiSchedule, MapError> {
        if self.num_alus == 0 {
            return Err(MapError::AllocationFailed {
                reason: "cannot schedule on a tile with zero ALUs".into(),
            });
        }
        let num_tiles = assignment.num_tiles().max(1);
        // Process clusters level by level: order by ASAP level, breaking ties
        // by criticality (lower mobility first) so critical clusters keep
        // their level and movable ones fill the gaps or get pushed down.
        let order = clustered.topo_order();
        let asap = asap_levels(clustered, &order);
        let alap = alap_levels(clustered, &order);
        let mut sorted: Vec<ClusterId> = order;
        sorted.sort_by_key(|c| {
            let mobility = alap[c].saturating_sub(asap[c]);
            (asap[c], mobility, c.index())
        });

        let mut per_tile: Vec<Schedule> = vec![Schedule::default(); num_tiles];
        // `next_free[t][l]` points at the first level >= l of tile `t` that
        // may still have a free ALU (a union-find style skip list with path
        // compression), so the whole schedule is built in time linear in the
        // number of clusters — the complexity the paper claims for this
        // phase.
        let mut next_free: Vec<Vec<usize>> = vec![Vec::new(); num_tiles];
        let mut level_of: HashMap<ClusterId, usize> = HashMap::new();

        for cluster in sorted {
            let tile = assignment.tile_of(cluster);
            let earliest = clustered
                .predecessors(cluster)
                .iter()
                .map(|p| {
                    let sep = if assignment.tile_of(*p) == tile {
                        1
                    } else {
                        1 + self.hop_latency
                    };
                    level_of
                        .get(p)
                        .copied()
                        .expect("predecessors are scheduled before successors")
                        + sep
                })
                .max()
                .unwrap_or(0);
            let level = find_free_level(&mut next_free[tile], earliest);
            per_tile[tile].place(cluster, level);
            level_of.insert(cluster, level);
            if per_tile[tile].level(level).len() >= self.num_alus {
                // The level is now full: future searches skip past it.
                mark_full(&mut next_free[tile], level);
            }
        }

        let level_count = per_tile
            .iter()
            .map(Schedule::level_count)
            .max()
            .unwrap_or(0);
        for schedule in &mut per_tile {
            schedule.pad_levels(level_count);
        }
        Ok(MultiSchedule {
            per_tile,
            level_count,
        })
    }
}

// ---------------------------------------------------------------------------
// Transfers and the traffic report
// ---------------------------------------------------------------------------

/// One value moved between two tiles over the inter-tile interconnect.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TransferJob {
    /// The operation whose result is moved.
    pub op: OpId,
    /// Source tile.
    pub from: TileId,
    /// Source memory word on the source tile.
    pub src: MemRef,
    /// Destination tile.
    pub to: TileId,
    /// Destination memory word on the destination tile.
    pub dst: MemRef,
    /// Global cycle in which the word leaves the source tile.
    pub depart: usize,
    /// Global cycle in which the word is written at the destination (readable
    /// from `arrive + 1` on).
    pub arrive: usize,
}

impl fmt::Display for TransferJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: tile{}.{} -> tile{}.{} (depart {}, arrive {})",
            self.op, self.from, self.src, self.to, self.dst, self.depart, self.arrive
        )
    }
}

/// One kernel-input word replicated from its home tile to another consumer
/// tile before execution starts.
///
/// Every kernel input (statespace word or scalar input) is *homed* on its
/// majority-consumer tile; consumer tiles other than the home receive a
/// pre-execution copy over the inter-tile interconnect.  Those copies do not
/// occupy link cycles during execution (they happen while the statespace is
/// loaded), but they move words between tiles all the same, so the traffic
/// report accounts them — the numbers used to silently under-count this
/// input distribution traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InputBroadcast {
    /// The kernel input being replicated ([`ValueRef::MemWord`] or
    /// [`ValueRef::ScalarInput`]).
    pub value: ValueRef,
    /// The input's home tile (its majority consumer).
    pub from: TileId,
    /// The consumer tile receiving the copy.
    pub to: TileId,
}

impl fmt::Display for InputBroadcast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: tile{} -> tile{} (preload)",
            self.value, self.from, self.to
        )
    }
}

/// Inter-tile traffic summary of one multi-tile mapping.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TrafficReport {
    /// Every value crossing a tile boundary during execution, exactly once
    /// per `(value, consuming tile)` pair.
    pub edges: Vec<CutEdge>,
    /// Every kernel input replicated from its home tile to another consumer
    /// tile before execution.
    pub input_broadcasts: Vec<InputBroadcast>,
    /// Words moved per ordered tile pair (execution transfers and input
    /// broadcasts combined), sorted by pair.
    pub per_pair: Vec<((TileId, TileId), usize)>,
    /// Largest number of transfers departing in one cycle (link pressure).
    pub max_link_pressure: usize,
}

impl TrafficReport {
    /// Builds the report from the cut edges, the scheduled transfers and the
    /// pre-execution input broadcasts.
    pub fn new(
        mut edges: Vec<CutEdge>,
        transfers: &[TransferJob],
        mut input_broadcasts: Vec<InputBroadcast>,
    ) -> Self {
        edges.shrink_to_fit();
        input_broadcasts.shrink_to_fit();
        let mut per_pair: HashMap<(TileId, TileId), usize> = HashMap::new();
        for edge in &edges {
            *per_pair.entry((edge.from, edge.to)).or_insert(0) += 1;
        }
        for broadcast in &input_broadcasts {
            *per_pair.entry((broadcast.from, broadcast.to)).or_insert(0) += 1;
        }
        let mut per_pair: Vec<_> = per_pair.into_iter().collect();
        per_pair.sort_unstable();
        let mut departures: HashMap<usize, usize> = HashMap::new();
        for transfer in transfers {
            *departures.entry(transfer.depart).or_insert(0) += 1;
        }
        let max_link_pressure = departures.values().copied().max().unwrap_or(0);
        TrafficReport {
            edges,
            input_broadcasts,
            per_pair,
            max_link_pressure,
        }
    }

    /// Total number of words moved between tiles (execution transfers plus
    /// input broadcasts).
    pub fn total_transfers(&self) -> usize {
        self.edges.len() + self.input_broadcasts.len()
    }

    /// Energy the transfers cost under the given model (input broadcasts
    /// cross the same interconnect, so they cost the same per word).
    pub fn energy(&self, model: &EnergyModel) -> f64 {
        model.inter_tile_transfer * self.total_transfers() as f64
    }
}

impl fmt::Display for TrafficReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Energy is model-dependent, so `Display` sticks to the counts;
        // callers with an `EnergyModel` in scope print `energy(&model)`.
        writeln!(
            f,
            "inter-tile traffic: {} transfer(s) ({} input broadcast(s)), peak {} departure(s)/cycle",
            self.total_transfers(),
            self.input_broadcasts.len(),
            self.max_link_pressure,
        )?;
        for ((from, to), words) in &self.per_pair {
            writeln!(f, "  tile{from} -> tile{to}: {words} word(s)")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The multi-tile program
// ---------------------------------------------------------------------------

/// A fully allocated program for a whole FPFA tile array: one per-cycle
/// [`TileProgram`] per tile (all the same length, on one global timeline)
/// plus the inter-tile transfers.
#[derive(Clone, PartialEq, Debug)]
pub struct MultiTileProgram {
    /// The array configuration the program was allocated for.
    pub array: ArrayConfig,
    /// Per-tile programs; `tiles[t].cycle(c)` is tile `t`'s job in global
    /// cycle `c`. The per-tile scalar output and statespace tables are empty
    /// — the array-level tables below are authoritative.
    pub tiles: Vec<TileProgram>,
    /// Inter-tile transfers in departure order.
    pub transfers: Vec<TransferJob>,
    /// Where (on which tile, in which word) each scalar output can be read
    /// after the last cycle.
    pub scalar_outputs: Named<(TileId, Location)>,
    /// Physical location of every statespace address the kernel touches,
    /// sorted by address.
    pub statespace_map: Vec<(i64, (TileId, MemRef))>,
    /// Statespace addresses written by the kernel.
    pub written_addresses: Vec<i64>,
    /// Aggregated allocation counters (summed over tiles; `cycles` is the
    /// global cycle count, not a sum).
    pub stats: AllocationStats,
    /// The inter-tile traffic summary.
    pub traffic: TrafficReport,
}

impl MultiTileProgram {
    /// Number of global clock cycles.
    pub fn cycle_count(&self) -> usize {
        self.tiles
            .first()
            .map(TileProgram::cycle_count)
            .unwrap_or(0)
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Average busy-ALU fraction across the whole array.
    pub fn alu_utilization(&self) -> f64 {
        if self.tiles.is_empty() {
            return 0.0;
        }
        self.tiles
            .iter()
            .map(TileProgram::alu_utilization)
            .sum::<f64>()
            / self.tiles.len() as f64
    }

    /// The program of a one-tile array as one [`TileProgram`]: tile 0 with
    /// the array-level scalar outputs, statespace map and written addresses
    /// folded into it, the shape a single-tile mapping reports.
    pub(crate) fn into_one_tile(self) -> TileProgram {
        debug_assert_eq!(self.tiles.len(), 1, "only a one-tile array folds");
        let mut program = self
            .tiles
            .into_iter()
            .next()
            .expect("an array has at least one tile");
        program.scalar_outputs = self
            .scalar_outputs
            .iter()
            .map(|(name, (_, location))| (name, location))
            .collect();
        program.statespace_map = self
            .statespace_map
            .iter()
            .map(|&(addr, (_, home))| (addr, home))
            .collect();
        program.written_addresses = self.written_addresses;
        program
    }

    /// Human-readable per-tile listing plus the transfer schedule.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (tile, program) in self.tiles.iter().enumerate() {
            out.push_str(&format!("== tile {tile} ==\n"));
            out.push_str(&program.listing());
        }
        if !self.transfers.is_empty() {
            out.push_str("== inter-tile transfers ==\n");
            for transfer in &self.transfers {
                out.push_str(&format!("  {transfer}\n"));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The multi-tile allocator
// ---------------------------------------------------------------------------

/// Resource allocation across a tile array: the Fig. 5 heuristic per tile on
/// a shared global timeline, plus inter-tile transfer scheduling.
#[derive(Clone, Copy, Debug)]
pub struct MultiTileAllocator {
    config: TileConfig,
    array: ArrayConfig,
    locality: bool,
}

impl MultiTileAllocator {
    /// Creates an allocator for the given tile and array configurations.
    pub fn new(config: TileConfig, array: ArrayConfig) -> Self {
        MultiTileAllocator {
            config,
            array,
            locality: true,
        }
    }

    /// Disables locality of reference in the per-tile allocation.
    pub fn without_locality(mut self) -> Self {
        self.locality = false;
        self
    }

    /// Allocates a partitioned, scheduled graph onto the array.
    ///
    /// # Errors
    /// Propagates per-tile allocation failures ([`MapError::CapacityExceeded`]
    /// / [`MapError::AllocationFailed`]) and configuration errors.
    pub fn allocate(
        &self,
        graph: &MappingGraph,
        clustered: &ClusteredGraph,
        assignment: &TileAssignment,
        schedule: &MultiSchedule,
    ) -> Result<MultiTileProgram, MapError> {
        self.config.validate()?;
        self.array.validate()?;
        let num_tiles = self.array.num_tiles;
        let levels = LevelAllocator {
            config: self.config,
            locality: self.locality,
            // One tile keeps the paper's budget; across tiles an operand may
            // legitimately wait out a transfer delayed by link contention.
            stall_budget: if num_tiles == 1 {
                self.config.input_move_window + 4
            } else {
                self.config.input_move_window + self.array.hop_latency + 64
            },
        };
        let mut states: Vec<AllocState> = (0..num_tiles)
            .map(|_| AllocState::new(self.config))
            .collect();

        // --- Which kernel inputs each tile reads --------------------------
        // The kernel inputs are the statespace words read (`mem_reads`,
        // sorted) followed by the scalar inputs. Input `i` owns row `i` of
        // per-tile operand-read counts: a tile with a non-zero count needs
        // the input, and the counts pick its home tile.
        let row_of = |value: ValueRef| -> Option<usize> {
            match value {
                ValueRef::MemWord(addr) => graph.mem_reads.binary_search(&addr).ok(),
                ValueRef::ScalarInput(index) => {
                    let index = index as usize;
                    (index < graph.scalar_inputs.len()).then(|| graph.mem_reads.len() + index)
                }
                _ => None,
            }
        };
        let inputs = graph.mem_reads.len() + graph.scalar_inputs.len();
        let mut reads = vec![0usize; inputs * num_tiles];
        for cluster in clustered.ids() {
            let tile = assignment.tile_of(cluster);
            for &op in &clustered.cluster(cluster).ops {
                for &input in graph.op(op).inputs {
                    if let Some(row) = row_of(input) {
                        reads[row * num_tiles + tile] += 1;
                    }
                }
            }
        }
        // Inputs flowing straight to an output or statespace write without
        // passing through an operation are needed on tile 0.
        let passthrough = graph
            .scalar_outputs
            .values()
            .iter()
            .copied()
            .chain(graph.mem_writes.iter().map(|write| write.value));
        for row in passthrough.filter_map(row_of) {
            let counts = &mut reads[row * num_tiles..(row + 1) * num_tiles];
            if counts.iter().all(|&count| count == 0) {
                counts[0] = 1;
            }
        }

        // --- Pre-load: each tile holds the inputs its clusters read -------
        // Each consumer tile keeps a pre-loaded copy (so execution never
        // waits on the interconnect), but exactly one tile is the input's
        // *home*: the one reading it most often (ties to the lowest tile).
        // The home anchors the statespace read-back map, and every non-home
        // copy is accounted as an inter-tile input broadcast in the traffic
        // report — these words cross the interconnect during statespace
        // loading and used to be invisible in the traffic/energy numbers.
        let mut input_home: Vec<Option<TileId>> = vec![None; inputs];
        let mut broadcasts: Vec<InputBroadcast> = Vec::new();
        for (row, counts) in reads.chunks_exact(num_tiles).enumerate() {
            if counts.iter().all(|&count| count == 0) {
                continue;
            }
            let value = match graph.mem_reads.get(row) {
                Some(&addr) => ValueRef::MemWord(addr),
                None => ValueRef::ScalarInput((row - graph.mem_reads.len()) as u32),
            };
            let home = counts
                .iter()
                .enumerate()
                .max_by_key(|(tile, count)| (**count, std::cmp::Reverse(*tile)))
                .map_or(0, |(tile, _)| tile);
            input_home[row] = Some(home);
            for (tile, state) in states.iter_mut().enumerate() {
                if counts[tile] == 0 {
                    continue;
                }
                if tile != home {
                    broadcasts.push(InputBroadcast {
                        value,
                        from: home,
                        to: tile,
                    });
                }
                let word = match value {
                    ValueRef::MemWord(addr) => state.home_for_address(addr)?,
                    _ => state.fresh_scratch(0)?,
                };
                state.set_home(value, word, PRELOADED);
                state.preload.push((value, word));
            }
        }

        // --- Cut edges grouped by producing operation ---------------------
        let cut = assignment.cut_edges(graph, clustered);
        let mut consumers_of: HashMap<OpId, Vec<TileId>> = HashMap::new();
        for edge in &cut {
            consumers_of.entry(edge.op).or_default().push(edge.to);
        }

        // --- Level-by-level allocation on a global timeline ---------------
        let mut transfers: Vec<TransferJob> = Vec::new();
        let mut link_used: HashMap<usize, usize> = HashMap::new();
        // Spread arriving words round-robin over the destination tile's PPs
        // so consumers don't all contend for pp0's memory ports.
        let mut arrival_rr: Vec<usize> = vec![0; num_tiles];
        for level in 0..schedule.level_count() {
            for (tile, state) in states.iter_mut().enumerate() {
                let clusters = schedule.tile(tile).level(level);
                levels.allocate_level(graph, clustered, clusters, state)?;
            }
            // Keep the tiles cycle-aligned after every level so transfer
            // cycles mean the same instant everywhere.
            let boundary = states
                .iter()
                .map(AllocState::cycle_count)
                .max()
                .unwrap_or(0);
            for state in &mut states {
                state.pad_to(boundary);
            }
            // Schedule the transfers for every cross-tile value produced at
            // this level.
            for tile in 0..num_tiles {
                for &cluster in schedule.tile(tile).level(level) {
                    for &op in &clustered.cluster(cluster).ops {
                        let Some(destinations) = consumers_of.get(&op) else {
                            continue;
                        };
                        let value = ValueRef::Op(op);
                        let src = states[tile].home_of(value).ok_or_else(|| {
                            MapError::AllocationFailed {
                                reason: format!(
                                    "cross-tile value {op} was never written back on tile {tile}"
                                ),
                            }
                        })?;
                        let ready = states[tile].avail_of(value).max(0) as usize;
                        for &destination in destinations {
                            let mut depart = ready + 1;
                            while link_used.get(&depart).copied().unwrap_or(0)
                                >= self.array.links_per_cycle
                            {
                                depart += 1;
                            }
                            *link_used.entry(depart).or_insert(0) += 1;
                            let arrive = depart + self.array.hop_latency;
                            let prefer_pp = arrival_rr[destination] % self.config.num_pps;
                            arrival_rr[destination] += 1;
                            let dst = states[destination].fresh_scratch(prefer_pp)?;
                            states[destination].set_home(value, dst, arrive as i64);
                            transfers.push(TransferJob {
                                op,
                                from: tile,
                                src,
                                to: destination,
                                dst,
                                depart,
                                arrive,
                            });
                        }
                    }
                }
            }
        }

        // --- Scalar outputs ----------------------------------------------
        let home_tile_of = |states: &[AllocState], value: ValueRef| -> Option<(TileId, MemRef)> {
            match value {
                ValueRef::Op(op) => {
                    let tile = assignment.tile_of(clustered.owner_of(op));
                    states[tile].home_of(value).map(|home| (tile, home))
                }
                // Kernel inputs resolve to their designated home tile (the
                // majority consumer), falling back to any tile holding a
                // copy for values without a recorded home.
                _ => row_of(value)
                    .and_then(|row| input_home[row])
                    .and_then(|tile| states[tile].home_of(value).map(|home| (tile, home)))
                    .or_else(|| {
                        states
                            .iter()
                            .enumerate()
                            .find_map(|(tile, state)| state.home_of(value).map(|home| (tile, home)))
                    }),
            }
        };
        let mut scalar_outputs = Vec::with_capacity(graph.scalar_outputs.len());
        for (name, value) in graph.scalar_outputs.iter() {
            let (tile, location) = match value {
                ValueRef::Const(c) => (0, Location::Constant(c)),
                other => {
                    let (tile, home) =
                        home_tile_of(&states, other).ok_or_else(|| MapError::AllocationFailed {
                            reason: format!("scalar output `{name}` has no memory home"),
                        })?;
                    (tile, Location::Mem(home))
                }
            };
            scalar_outputs.push((name, (tile, location)));
        }

        // --- Statespace map ----------------------------------------------
        // Reads point at their pre-load homes; for written addresses only the
        // last write (highest seq) is observable, and its final value resides
        // wherever that value's home is.
        let mut statespace_map: BTreeMap<i64, (TileId, MemRef)> = BTreeMap::new();
        for &addr in &graph.mem_reads {
            let value = ValueRef::MemWord(addr);
            let (tile, home) = match home_tile_of(&states, value) {
                Some(found) => found,
                None => {
                    // Read but consumed nowhere (dead read): give it a home
                    // on tile 0 so the final statespace read-back works.
                    let home = states[0].home_for_address(addr)?;
                    states[0].set_home(value, home, PRELOADED);
                    states[0].preload.push((value, home));
                    (0, home)
                }
            };
            statespace_map.insert(addr, (tile, home));
        }
        let mut last_write: HashMap<i64, (usize, ValueRef)> = HashMap::new();
        for write in &graph.mem_writes {
            let entry = last_write
                .entry(write.address)
                .or_insert((write.seq, write.value));
            if write.seq >= entry.0 {
                *entry = (write.seq, write.value);
            }
        }
        // Addresses in order, so constant words are homed the same way on
        // every run.
        let mut written_addresses: Vec<i64> = last_write.keys().copied().collect();
        written_addresses.sort_unstable();
        for &addr in &written_addresses {
            let (_, value) = last_write[&addr];
            let (tile, home) = match value {
                ValueRef::Const(c) => {
                    // A constant final value never exists at run time as an
                    // ALU result; give it a dedicated memory word that the
                    // pre-load image fills with the constant.
                    let home = states[0].fresh_scratch(0)?;
                    states[0].preload.push((ValueRef::Const(c), home));
                    (0, home)
                }
                other => {
                    home_tile_of(&states, other).ok_or_else(|| MapError::AllocationFailed {
                        reason: format!("statespace write to {addr} has no materialised value"),
                    })?
                }
            };
            statespace_map.insert(addr, (tile, home));
        }

        // --- Finalise: align all tiles past the last arrival --------------
        let last_arrival = transfers.iter().map(|t| t.arrive + 1).max().unwrap_or(0);
        let total_cycles = states
            .iter()
            .map(AllocState::cycle_count)
            .max()
            .unwrap_or(0)
            .max(last_arrival);
        for state in &mut states {
            state.pad_to(total_cycles);
        }

        let mut aggregate = AllocationStats {
            cycles: total_cycles,
            inter_tile_transfers: transfers.len() + broadcasts.len(),
            ..AllocationStats::default()
        };
        let mut tiles = Vec::with_capacity(num_tiles);
        for state in states {
            let mut stats = state.stats;
            stats.cycles = total_cycles;
            aggregate.stall_cycles += stats.stall_cycles;
            aggregate.alu_ops += stats.alu_ops;
            aggregate.register_hits += stats.register_hits;
            aggregate.register_misses += stats.register_misses;
            aggregate.mem_writebacks += stats.mem_writebacks;
            aggregate.crossbar_transfers += stats.crossbar_transfers;
            tiles.push(state.into_program(graph.scalar_inputs.clone(), stats));
        }

        let traffic = TrafficReport::new(cut, &transfers, broadcasts);
        transfers.shrink_to_fit();
        Ok(MultiTileProgram {
            array: self.array,
            tiles,
            transfers,
            scalar_outputs: scalar_outputs.into_iter().collect(),
            statespace_map: statespace_map.into_iter().collect(),
            written_addresses,
            stats: aggregate,
            traffic,
        })
    }
}

// ---------------------------------------------------------------------------
// The finished multi-tile mapping (flow-level bundle)
// ---------------------------------------------------------------------------

/// Everything the multi-tile flow produced beyond the single-tile fields of a
/// [`MappingResult`](crate::pipeline::MappingResult).
#[derive(Clone, PartialEq, Debug)]
pub struct MultiTileMapping {
    /// The array configuration the mapping targets.
    pub array: ArrayConfig,
    /// Which tile each cluster was assigned to.
    pub partition: TileAssignment,
    /// The per-tile level schedules.
    pub schedule: MultiSchedule,
    /// The allocated array program.
    pub program: MultiTileProgram,
}

impl MultiTileMapping {
    /// The inter-tile traffic summary.
    pub fn traffic(&self) -> &TrafficReport {
        &self.program.traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clusterer;
    use crate::partition::Partitioner;
    use fpfa_transform::WorklistDriver;

    fn clustered(src: &str) -> (MappingGraph, ClusteredGraph) {
        let program = fpfa_frontend::compile(src).unwrap();
        let mut g = program.cdfg;
        WorklistDriver::new().run_standard(&mut g).unwrap();
        let m = MappingGraph::from_cdfg(&g).unwrap();
        let c = Clusterer::default().cluster(&m).unwrap();
        (m, c)
    }

    fn fir(taps: usize) -> (MappingGraph, ClusteredGraph) {
        clustered(&format!(
            r#"
            void main() {{
                int a[{taps}];
                int c[{taps}];
                int sum;
                int i;
                sum = 0; i = 0;
                while (i < {taps}) {{ sum = sum + a[i] * c[i]; i = i + 1; }}
            }}
            "#
        ))
    }

    fn mapped_multi(
        taps: usize,
        num_tiles: usize,
    ) -> (
        MappingGraph,
        ClusteredGraph,
        TileAssignment,
        MultiSchedule,
        MultiTileProgram,
    ) {
        let (m, c) = fir(taps);
        let array = ArrayConfig::with_tiles(num_tiles);
        let assignment = Partitioner::new(num_tiles).partition(&m, &c).unwrap();
        let schedule = MultiScheduler::new(TileConfig::paper().num_pps, array.hop_latency)
            .schedule(&c, &assignment)
            .unwrap();
        let program = MultiTileAllocator::new(TileConfig::paper(), array)
            .allocate(&m, &c, &assignment, &schedule)
            .unwrap();
        (m, c, assignment, schedule, program)
    }

    #[test]
    fn multi_schedule_respects_dependences_and_alu_limits() {
        let (_, c, assignment, schedule, _) = mapped_multi(16, 4);
        assert!(schedule.max_parallelism_per_tile() <= 5);
        assert_eq!(schedule.cluster_count(), c.len());
        for id in c.ids() {
            let (tile, level) = schedule.placement_of(id).unwrap();
            assert_eq!(tile, assignment.tile_of(id));
            for pred in c.predecessors(id) {
                let (pred_tile, pred_level) = schedule.placement_of(*pred).unwrap();
                let separation = if pred_tile == tile {
                    1
                } else {
                    1 + ArrayConfig::with_tiles(4).hop_latency
                };
                assert!(
                    pred_level + separation <= level,
                    "{pred} (tile {pred_tile}, level {pred_level}) too close to {id} (tile {tile}, level {level})"
                );
            }
        }
    }

    #[test]
    fn all_tiles_share_one_global_timeline() {
        let (_, _, _, _, program) = mapped_multi(16, 4);
        let lengths: Vec<usize> = program.tiles.iter().map(TileProgram::cycle_count).collect();
        assert!(lengths.windows(2).all(|w| w[0] == w[1]), "{lengths:?}");
        assert_eq!(program.cycle_count(), lengths[0]);
    }

    #[test]
    fn transfers_depart_after_writeback_and_respect_link_budget() {
        let (_, _, _, _, program) = mapped_multi(24, 4);
        assert!(!program.transfers.is_empty());
        let mut per_cycle: HashMap<usize, usize> = HashMap::new();
        for transfer in &program.transfers {
            assert_eq!(transfer.arrive, transfer.depart + program.array.hop_latency);
            assert!(transfer.arrive < program.cycle_count());
            *per_cycle.entry(transfer.depart).or_insert(0) += 1;
            // The source word is written by some write-back strictly before
            // the departure cycle.
            let wrote = program.tiles[transfer.from]
                .cycles()
                .take(transfer.depart)
                .any(|cycle| {
                    cycle
                        .writebacks
                        .iter()
                        .any(|wb| wb.op == transfer.op && wb.dest == transfer.src)
                });
            assert!(wrote, "transfer {transfer} departs before its write-back");
        }
        for (cycle, used) in per_cycle {
            assert!(
                used <= program.array.links_per_cycle,
                "cycle {cycle} uses {used} links"
            );
        }
    }

    #[test]
    fn traffic_report_matches_the_cut_exactly_once() {
        let (m, c, assignment, _, program) = mapped_multi(24, 4);
        let expected = assignment.cut_edges(&m, &c);
        let broadcasts = program.traffic.input_broadcasts.len();
        assert_eq!(program.traffic.edges, expected);
        assert_eq!(
            program.traffic.total_transfers(),
            expected.len() + broadcasts
        );
        assert_eq!(program.transfers.len(), expected.len());
        assert_eq!(
            program.stats.inter_tile_transfers,
            expected.len() + broadcasts
        );
        assert!(program.traffic.energy(&EnergyModel::default_model()) > 0.0);
        assert!(program.traffic.to_string().contains("inter-tile traffic"));
    }

    #[test]
    fn shared_inputs_are_homed_on_their_majority_consumer() {
        // The scalar `s` is read by every multiply; partitioned across four
        // tiles, its consumers spread out, so every non-home consumer tile
        // must show up as an accounted input broadcast.
        let (m, c) = clustered(
            r#"
            void main() {
                int a[16];
                int sum;
                int s;
                int i;
                sum = 0; i = 0;
                while (i < 16) { sum = sum + a[i] * s; i = i + 1; }
            }
            "#,
        );
        let array = ArrayConfig::with_tiles(4);
        let assignment = Partitioner::new(4).partition(&m, &c).unwrap();
        let schedule = MultiScheduler::new(TileConfig::paper().num_pps, array.hop_latency)
            .schedule(&c, &assignment)
            .unwrap();
        let program = MultiTileAllocator::new(TileConfig::paper(), array)
            .allocate(&m, &c, &assignment, &schedule)
            .unwrap();

        // Re-derive per-tile read counts for every kernel input.
        let mut counts: HashMap<ValueRef, Vec<usize>> = HashMap::new();
        for id in m.op_ids() {
            let tile = assignment.tile_of(c.owner_of(id));
            for input in m.op(id).inputs {
                if matches!(input, ValueRef::MemWord(_) | ValueRef::ScalarInput(_)) {
                    counts.entry(*input).or_insert_with(|| vec![0; 4])[tile] += 1;
                }
            }
        }
        let shared = counts
            .values()
            .filter(|tiles| tiles.iter().filter(|&&n| n > 0).count() > 1)
            .count();
        assert!(shared > 0, "test premise: some input is read on >1 tile");

        let broadcasts = &program.traffic.input_broadcasts;
        assert!(!broadcasts.is_empty());
        for broadcast in broadcasts {
            assert_ne!(broadcast.from, broadcast.to, "{broadcast}");
            let per_tile = &counts[&broadcast.value];
            // The home is a majority consumer...
            assert!(
                per_tile[broadcast.from] >= per_tile[broadcast.to],
                "{broadcast}: home reads {} < destination reads {}",
                per_tile[broadcast.from],
                per_tile[broadcast.to]
            );
            // ...and copies only go to tiles that actually read the value.
            assert!(per_tile[broadcast.to] > 0, "{broadcast}");
        }
        // An input read on k tiles is broadcast to exactly k - 1 of them.
        for (value, per_tile) in &counts {
            let consumers = per_tile.iter().filter(|&&n| n > 0).count();
            let copies = broadcasts.iter().filter(|b| b.value == *value).count();
            assert_eq!(copies, consumers.saturating_sub(1), "{value}");
        }
        // The accounted totals include the broadcasts.
        assert_eq!(
            program.stats.inter_tile_transfers,
            program.transfers.len() + broadcasts.len()
        );
        let pair_words: usize = program.traffic.per_pair.iter().map(|(_, n)| n).sum();
        assert_eq!(pair_words, program.traffic.total_transfers());
    }

    #[test]
    fn single_tile_array_produces_no_transfers() {
        let (_, _, _, _, program) = mapped_multi(8, 1);
        assert!(program.transfers.is_empty());
        assert_eq!(program.traffic.total_transfers(), 0);
        assert_eq!(program.tile_count(), 1);
    }

    #[test]
    fn scalar_outputs_point_at_a_valid_tile() {
        let (_, _, _, _, program) = mapped_multi(16, 4);
        assert!(!program.scalar_outputs.is_empty());
        for (_, (tile, _)) in program.scalar_outputs.iter() {
            assert!(tile < 4);
        }
        for (_, (tile, _)) in &program.statespace_map {
            assert!(*tile < 4);
        }
    }

    #[test]
    fn listing_mentions_every_tile_and_the_transfers() {
        let (_, _, _, _, program) = mapped_multi(16, 2);
        let listing = program.listing();
        assert!(listing.contains("== tile 0 =="));
        assert!(listing.contains("== tile 1 =="));
        if !program.transfers.is_empty() {
            assert!(listing.contains("inter-tile transfers"));
        }
    }
}
