//! Phase 3: heuristic resource allocation (Fig. 5 of the paper).
//!
//! The allocator turns a level schedule into the per-cycle job of the tile:
//!
//! ```text
//! function Allocate(currentLevel) {
//!     Allocate ALUs of the current clock cycle
//!     for each output do store it to a memory;
//!     for each input of current level
//!         do try to move it to proper register at the clock cycle which is
//!            four steps before; If failed, do it three steps before; then two
//!            steps before; one step before.
//!     if some inputs are not moved successfully
//!     then insert one or more clock cycles before the current one to load inputs
//! }
//! ```
//!
//! Locality of reference is exploited in two ways: operands that already sit
//! in a register of the chosen processing part are reused without a new
//! memory access, and clusters are placed on the processing part that already
//! holds most of their operands (registers first, local memories second).
//! Both levers can be disabled ([`Allocator::without_locality`]) to obtain
//! the memory-only baseline of experiment T2.
//!
//! This module holds the per-level heuristic and the per-tile resource
//! state. The level loop, the input pre-load and the homing of outputs and
//! statespace writes live in [`MultiTileAllocator`], which allocates a tile
//! array of any size; the paper's single tile is an array of one.
//! [`Allocator`] is the one-tile entry point the experiment binaries and
//! examples call.

use crate::cluster::{ClusterId, ClusteredGraph};
use crate::dfg::{MappingGraph, Names, OpId, ValueRef};
use crate::error::MapError;
use crate::multi::{MultiSchedule, MultiTileAllocator};
use crate::partition::TileAssignment;
use crate::program::{
    AllocationStats, AluJob, CycleBuilder, MoveJob, OperandSource, TileProgram, WritebackJob,
};
use crate::schedule::Schedule;
use fpfa_arch::{ArrayConfig, MemId, MemRef, PpId, RegBankName, RegRef, TileConfig};
use std::collections::HashMap;

/// Sentinel meaning "reserved for the level currently being allocated".
const LIVE_NOW: usize = usize::MAX;

/// The resource allocator of one tile.
#[derive(Clone, Copy, Debug)]
pub struct Allocator {
    config: TileConfig,
    locality: bool,
}

impl Allocator {
    /// Creates an allocator for the given tile configuration.
    pub fn new(config: TileConfig) -> Self {
        Allocator {
            config,
            locality: true,
        }
    }

    /// Disables locality of reference: every operand is re-loaded from memory
    /// and clusters are placed round-robin.
    pub fn without_locality(mut self) -> Self {
        self.locality = false;
        self
    }

    /// Allocates a scheduled, clustered graph onto the tile: the array
    /// allocator ([`MultiTileAllocator`]) on a one-tile array.
    ///
    /// # Errors
    /// * [`MapError::CapacityExceeded`] when the kernel needs more memory
    ///   words than the tile provides;
    /// * [`MapError::AllocationFailed`] for configurations on which no
    ///   feasible placement exists (for example zero crossbar buses with
    ///   multi-PP traffic).
    pub fn allocate(
        &self,
        graph: &MappingGraph,
        clustered: &ClusteredGraph,
        schedule: &Schedule,
    ) -> Result<TileProgram, MapError> {
        let mut allocator = MultiTileAllocator::new(self.config, ArrayConfig::single_tile());
        if !self.locality {
            allocator = allocator.without_locality();
        }
        let one_tile = TileAssignment::single_tile(clustered.len());
        let schedule = MultiSchedule::from_single(schedule.clone());
        Ok(allocator
            .allocate(graph, clustered, &one_tile, &schedule)?
            .into_one_tile())
    }
}

/// The Fig. 5 heuristic for the clusters of one level on one tile: the array
/// allocator runs it for every tile, level by level.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LevelAllocator {
    pub(crate) config: TileConfig,
    pub(crate) locality: bool,
    /// Maximum number of stall cycles one operand may insert before the
    /// allocation is declared infeasible.
    pub(crate) stall_budget: usize,
}

impl LevelAllocator {
    pub(crate) fn allocate_level(
        &self,
        graph: &MappingGraph,
        clustered: &ClusteredGraph,
        clusters: &[ClusterId],
        state: &mut AllocState,
    ) -> Result<(), MapError> {
        if clusters.is_empty() {
            return Ok(());
        }
        // The execution cycle of this level is appended at the end of the
        // program; stall insertion may push it further down.
        let mut exec = state.push_cycle();

        // --- ALU assignment (locality-aware placement) -------------------
        let assignments = self.assign_pps(graph, clustered, clusters, state);

        // --- Operand staging ---------------------------------------------
        for &(cluster_id, pp) in &assignments {
            let cluster = clustered.cluster(cluster_id);
            // Distinct external (non-constant, non-internal) input values in
            // first-use order.
            let mut externals: Vec<ValueRef> = Vec::new();
            for &op in &cluster.ops {
                for input in graph.op(op).inputs {
                    match input {
                        ValueRef::Const(_) => {}
                        ValueRef::Op(p) if cluster.ops.contains(p) => {}
                        other => {
                            if !externals.contains(other) {
                                externals.push(*other);
                            }
                        }
                    }
                }
            }

            let mut operand_regs: HashMap<ValueRef, RegRef> = HashMap::new();
            for value in externals {
                let reg = self.stage_operand(value, pp, &mut exec, state)?;
                operand_regs.insert(value, reg);
            }

            // --- Emit the ALU job ----------------------------------------
            let mut job = state.jobs.open_alu(pp_u8(pp), cluster_id);
            for &op in &cluster.ops {
                let mapped = graph.op(op);
                state.jobs.push_micro_op(&mut job, op, mapped.kind);
                for input in mapped.inputs {
                    let operand = match input {
                        ValueRef::Const(c) => OperandSource::Immediate(*c),
                        ValueRef::Op(p) if cluster.ops.contains(p) => {
                            let position = cluster
                                .ops
                                .iter()
                                .position(|o| o == p)
                                .expect("internal producer is a member");
                            OperandSource::Internal(position)
                        }
                        other => OperandSource::Register(operand_regs[other]),
                    };
                    let pushed = state.jobs.push_operand(operand);
                    debug_assert!(pushed, "a graph operation has at most three inputs");
                }
            }
            state.stats.alu_ops += job.micro_op_count();
            state.cycles[exec].alus.push(job);
        }

        // Registers reserved for this level become evictable after it.
        state.seal_reservations(exec);

        // --- Write-backs ("for each output do store it to a memory") ------
        for &(cluster_id, pp) in &assignments {
            let cluster = clustered.cluster(cluster_id);
            for &op in &cluster.ops {
                let consumed_elsewhere =
                    graph.consumers(op).iter().any(|c| !cluster.ops.contains(c));
                if !consumed_elsewhere && !graph.is_externally_used(op) {
                    continue;
                }
                self.write_back(op, pp, exec, state)?;
            }
        }
        Ok(())
    }

    /// Chooses a processing part for every cluster of the level.
    fn assign_pps(
        &self,
        graph: &MappingGraph,
        clustered: &ClusteredGraph,
        clusters: &[ClusterId],
        state: &AllocState,
    ) -> Vec<(ClusterId, PpId)> {
        let mut free: Vec<PpId> = (0..self.config.num_pps).collect();
        let mut assignments = Vec::with_capacity(clusters.len());
        for &cluster_id in clusters {
            let pp = if !self.locality {
                free.remove(0)
            } else {
                // Affinity: registers already holding operands count double,
                // local memory homes count once.
                let cluster = clustered.cluster(cluster_id);
                let mut best = (0usize, free[0]);
                for &candidate in &free {
                    let mut score = 0usize;
                    for &op in &cluster.ops {
                        for input in graph.op(op).inputs {
                            if input.is_const() {
                                continue;
                            }
                            if state.register_holding(candidate, *input).is_some() {
                                score += 2;
                            } else if let Some(home) = state.home_of(*input) {
                                if home.pp_index() == candidate {
                                    score += 1;
                                }
                            }
                        }
                    }
                    if score > best.0 {
                        best = (score, candidate);
                    }
                }
                let chosen = best.1;
                free.retain(|p| *p != chosen);
                chosen
            };
            assignments.push((cluster_id, pp));
        }
        assignments
    }

    /// Makes sure `value` sits in a register of `pp` before cycle `exec`.
    fn stage_operand(
        &self,
        value: ValueRef,
        pp: PpId,
        exec: &mut usize,
        state: &mut AllocState,
    ) -> Result<RegRef, MapError> {
        // Register hit: the operand is already on this PP.
        if self.locality {
            if let Some(reg) = state.register_holding(pp, value) {
                state.stats.register_hits += 1;
                state.reserve(reg);
                return Ok(reg);
            }
        }
        state.stats.register_misses += 1;
        let home = state
            .home_of(value)
            .ok_or_else(|| MapError::AllocationFailed {
                reason: format!("operand {value} has no memory home"),
            })?;
        let available = state.avail_of(value);

        let mut inserted = 0usize;
        loop {
            // "Four steps before; if failed three; two; one" — earliest first
            // within the look-back window.
            let window_start = exec.saturating_sub(self.config.input_move_window);
            let candidates: Vec<usize> = (window_start..*exec).collect();
            let mut placed = None;
            for m in candidates {
                if (m as i64) <= available {
                    continue;
                }
                if !state.mem_port_free(m, home) {
                    continue;
                }
                let crosses = home.pp_index() != pp;
                if crosses && !state.bus_free(m) {
                    continue;
                }
                let Some(reg) = state.pick_register(pp, m) else {
                    continue;
                };
                // Commit the move.
                state.cycles[m].moves.push(MoveJob {
                    value,
                    src: home,
                    dst: reg,
                    via_crossbar: crosses,
                });
                state.use_mem_port(m, home);
                state.use_bank_port(m, reg);
                if crosses {
                    state.use_bus(m);
                    state.stats.crossbar_transfers += 1;
                }
                state.bind_register(reg, value);
                placed = Some(reg);
                break;
            }
            if let Some(reg) = placed {
                return Ok(reg);
            }
            // "Insert one or more clock cycles before the current one."
            if inserted > self.stall_budget {
                return Err(MapError::AllocationFailed {
                    reason: format!(
                        "could not stage operand {value} for pp{pp} even after {inserted} inserted cycles"
                    ),
                });
            }
            state.insert_stall(*exec);
            *exec += 1;
            inserted += 1;
        }
    }

    /// Stores the result of `op` (produced on `pp` at cycle `exec`) to a
    /// local memory.
    fn write_back(
        &self,
        op: OpId,
        pp: PpId,
        exec: usize,
        state: &mut AllocState,
    ) -> Result<(), MapError> {
        let value = ValueRef::Op(op);
        if state.home_of(value).is_some() {
            // Already written back (an op may appear in several write paths).
            return Ok(());
        }
        let dest = state.fresh_scratch(pp)?;
        // Earliest cycle at or after execution with a free port (and bus when
        // the destination is on another PP).
        let mut cycle = exec;
        loop {
            if cycle >= state.cycles.len() {
                state.push_cycle();
            }
            let crosses = dest.pp_index() != pp;
            if state.mem_port_free(cycle, dest) && (!crosses || state.bus_free(cycle)) {
                state.cycles[cycle].writebacks.push(WritebackJob {
                    op,
                    src_pp: pp_u8(pp),
                    dest,
                    via_crossbar: crosses,
                });
                state.use_mem_port(cycle, dest);
                if crosses {
                    state.use_bus(cycle);
                    state.stats.crossbar_transfers += 1;
                }
                state.stats.mem_writebacks += 1;
                state.set_home(value, dest, cycle as i64);
                return Ok(());
            }
            cycle += 1;
            if cycle > exec + 64 {
                return Err(MapError::AllocationFailed {
                    reason: format!("no free memory port found to write back {op}"),
                });
            }
        }
    }
}

/// Cycle index meaning "present before execution starts".
pub(crate) const PRELOADED: i64 = -1;

/// A processing-part index in the width of the program records.
fn pp_u8(pp: PpId) -> u8 {
    u8::try_from(pp).expect("TileConfig::validate bounds the PP count")
}

/// One cycle of the program under allocation.  Operand staging adds moves
/// to earlier cycles and write-backs to later ones, and stalls are inserted
/// between cycles, so the cycles stay growable until
/// [`AllocState::into_program`] freezes them.
#[derive(Default)]
struct StagedCycle {
    moves: Vec<MoveJob>,
    alus: Vec<AluJob>,
    writebacks: Vec<WritebackJob>,
}

struct CycleUsage {
    mem_access: HashMap<(PpId, MemId), usize>,
    bank_writes: HashMap<(PpId, RegBankName), usize>,
    buses: usize,
}

impl CycleUsage {
    fn new() -> Self {
        CycleUsage {
            mem_access: HashMap::new(),
            bank_writes: HashMap::new(),
            buses: 0,
        }
    }
}

#[derive(Clone, Copy)]
struct RegSlot {
    value: ValueRef,
    live_until: usize,
}

pub(crate) struct AllocState {
    config: TileConfig,
    cycles: Vec<StagedCycle>,
    /// The program's flat arrays: the micro-operations of every ALU job
    /// staged so far, and at the freeze all the cycles.
    jobs: CycleBuilder,
    usage: Vec<CycleUsage>,
    regs: HashMap<RegRef, RegSlot>,
    value_home: HashMap<ValueRef, MemRef>,
    value_avail: HashMap<ValueRef, i64>,
    next_free: HashMap<(PpId, MemId), usize>,
    round_robin: usize,
    pub(crate) preload: Vec<(ValueRef, MemRef)>,
    pub(crate) stats: AllocationStats,
}

impl AllocState {
    pub(crate) fn new(config: TileConfig) -> Self {
        AllocState {
            config,
            cycles: Vec::new(),
            jobs: CycleBuilder::default(),
            usage: Vec::new(),
            regs: HashMap::new(),
            value_home: HashMap::new(),
            value_avail: HashMap::new(),
            next_free: HashMap::new(),
            round_robin: 0,
            preload: Vec::new(),
            stats: AllocationStats::default(),
        }
    }

    fn push_cycle(&mut self) -> usize {
        self.cycles.push(StagedCycle::default());
        self.usage.push(CycleUsage::new());
        self.cycles.len() - 1
    }

    fn insert_stall(&mut self, at: usize) {
        self.cycles.insert(at, StagedCycle::default());
        self.usage.insert(at, CycleUsage::new());
        self.stats.stall_cycles += 1;
    }

    pub(crate) fn set_home(&mut self, value: ValueRef, home: MemRef, available: i64) {
        self.value_home.insert(value, home);
        self.value_avail.insert(value, available);
    }

    pub(crate) fn home_of(&self, value: ValueRef) -> Option<MemRef> {
        self.value_home.get(&value).copied()
    }

    pub(crate) fn avail_of(&self, value: ValueRef) -> i64 {
        self.value_avail.get(&value).copied().unwrap_or(PRELOADED)
    }

    /// Appends empty cycles until the program is `len` cycles long (used to
    /// keep the tiles of a multi-tile allocation on one global timeline).
    pub(crate) fn pad_to(&mut self, len: usize) {
        while self.cycles.len() < len {
            self.push_cycle();
        }
    }

    /// Number of cycles allocated so far.
    pub(crate) fn cycle_count(&self) -> usize {
        self.cycles.len()
    }

    /// Freezes the staged cycles and the pre-load image into a tile program
    /// with no output tables: the allocator's one freeze step.
    pub(crate) fn into_program(
        self,
        scalar_input_names: Names,
        stats: AllocationStats,
    ) -> TileProgram {
        let mut jobs = self.jobs;
        for cycle in self.cycles {
            jobs.moves.extend(cycle.moves);
            jobs.alus.extend(cycle.alus);
            jobs.writebacks.extend(cycle.writebacks);
            jobs.end_cycle();
        }
        let mut preload = self.preload;
        preload.shrink_to_fit();
        TileProgram {
            config: self.config,
            jobs: jobs.finish(),
            preload,
            scalar_input_names,
            scalar_outputs: Default::default(),
            statespace_map: Vec::new(),
            written_addresses: Vec::new(),
            stats,
        }
    }

    /// A register of `pp` currently holding `value`, if any.
    fn register_holding(&self, pp: PpId, value: ValueRef) -> Option<RegRef> {
        self.regs
            .iter()
            .find(|(reg, slot)| reg.pp_index() == pp && slot.value == value)
            .map(|(reg, _)| *reg)
    }

    fn reserve(&mut self, reg: RegRef) {
        if let Some(slot) = self.regs.get_mut(&reg) {
            slot.live_until = LIVE_NOW;
        }
    }

    fn bind_register(&mut self, reg: RegRef, value: ValueRef) {
        self.regs.insert(
            reg,
            RegSlot {
                value,
                live_until: LIVE_NOW,
            },
        );
    }

    /// Marks registers reserved for the just-allocated level as evictable
    /// after `exec`.
    fn seal_reservations(&mut self, exec: usize) {
        for slot in self.regs.values_mut() {
            if slot.live_until == LIVE_NOW {
                slot.live_until = exec;
            }
        }
    }

    /// Picks a register of `pp` writable at cycle `m`: a free slot, or one
    /// whose value was last needed before `m`.
    fn pick_register(&self, pp: PpId, m: usize) -> Option<RegRef> {
        for bank_index in 0..self.config.banks_per_pp {
            let bank = RegBankName::from_index(bank_index % 4);
            let writes = self.usage[m]
                .bank_writes
                .get(&(pp, bank))
                .copied()
                .unwrap_or(0);
            if writes >= self.config.regbank_write_ports {
                continue;
            }
            for index in 0..self.config.regs_per_bank {
                let reg = RegRef::new(pp, bank, index);
                match self.regs.get(&reg) {
                    None => return Some(reg),
                    Some(slot) if slot.live_until != LIVE_NOW && slot.live_until < m => {
                        return Some(reg)
                    }
                    _ => {}
                }
            }
        }
        None
    }

    fn mem_port_free(&self, cycle: usize, mem: MemRef) -> bool {
        let used = self.usage[cycle]
            .mem_access
            .get(&(mem.pp_index(), mem.mem))
            .copied()
            .unwrap_or(0);
        used < self.config.mem_ports
    }

    fn use_mem_port(&mut self, cycle: usize, mem: MemRef) {
        *self.usage[cycle]
            .mem_access
            .entry((mem.pp_index(), mem.mem))
            .or_insert(0) += 1;
    }

    fn bus_free(&self, cycle: usize) -> bool {
        self.usage[cycle].buses < self.config.crossbar_buses
    }

    fn use_bus(&mut self, cycle: usize) {
        self.usage[cycle].buses += 1;
    }

    fn use_bank_port(&mut self, cycle: usize, reg: RegRef) {
        *self.usage[cycle]
            .bank_writes
            .entry((reg.pp_index(), reg.bank))
            .or_insert(0) += 1;
    }

    /// Allocates a fresh scratch memory word, preferring the given PP.
    pub(crate) fn fresh_scratch(&mut self, prefer_pp: PpId) -> Result<MemRef, MapError> {
        let mems_per_pp = self.config.mems_per_pp.min(2);
        // Candidate order: the preferred PP's memories first, then the rest
        // round-robin.
        let mut candidates: Vec<(PpId, MemId)> = Vec::new();
        for m in 0..mems_per_pp {
            candidates.push((prefer_pp, MemId::from_index(m)));
        }
        for offset in 0..self.config.num_pps {
            let pp = (self.round_robin + offset) % self.config.num_pps;
            if pp == prefer_pp {
                continue;
            }
            for m in 0..mems_per_pp {
                candidates.push((pp, MemId::from_index(m)));
            }
        }
        self.round_robin = (self.round_robin + 1) % self.config.num_pps;
        for (pp, mem) in candidates {
            let next = self.next_free.entry((pp, mem)).or_insert(0);
            if *next < self.config.mem_words {
                let offset = *next;
                *next += 1;
                return Ok(MemRef::new(pp, mem, offset));
            }
        }
        Err(MapError::CapacityExceeded {
            resource: "local memory words".into(),
            needed: 1,
            available: 0,
        })
    }

    /// Allocates the physical home of a statespace address.
    pub(crate) fn home_for_address(&mut self, address: i64) -> Result<MemRef, MapError> {
        // Spread statespace addresses over all processing parts so that
        // parallel clusters can read their operands from different memories.
        let slots = self.config.num_pps * self.config.mems_per_pp.min(2);
        let slot = (address.rem_euclid(slots as i64)) as usize;
        let prefer_pp = slot / self.config.mems_per_pp.min(2);
        self.fresh_scratch(prefer_pp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clusterer;
    use crate::schedule::Scheduler;
    use fpfa_transform::WorklistDriver;

    fn mapped(src: &str, config: TileConfig, locality: bool) -> TileProgram {
        let program = fpfa_frontend::compile(src).unwrap();
        let mut g = program.cdfg;
        WorklistDriver::new().run_standard(&mut g).unwrap();
        let m = MappingGraph::from_cdfg(&g).unwrap();
        let clustered = Clusterer::new(config.alu).cluster(&m).unwrap();
        let schedule = Scheduler::new(config.num_pps).schedule(&clustered).unwrap();
        let allocator = if locality {
            Allocator::new(config)
        } else {
            Allocator::new(config).without_locality()
        };
        allocator.allocate(&m, &clustered, &schedule).unwrap()
    }

    const FIR8: &str = r#"
        void main() {
            int a[8];
            int c[8];
            int sum;
            int i;
            sum = 0; i = 0;
            while (i < 8) { sum = sum + a[i] * c[i]; i = i + 1; }
        }
    "#;

    #[test]
    fn produces_a_non_empty_program() {
        let program = mapped(FIR8, TileConfig::paper(), true);
        assert!(program.cycle_count() > 0);
        assert!(program.stats.alu_ops >= 15);
        assert!(!program.scalar_outputs.is_empty());
        assert!(program.listing().contains("alu"));
    }

    #[test]
    fn respects_memory_port_limits_per_cycle() {
        let program = mapped(FIR8, TileConfig::paper(), true);
        for cycle in program.cycles() {
            let mut per_mem: HashMap<(u8, MemId), usize> = HashMap::new();
            for mv in cycle.moves {
                *per_mem.entry((mv.src.pp, mv.src.mem)).or_insert(0) += 1;
            }
            for wb in cycle.writebacks {
                *per_mem.entry((wb.dest.pp, wb.dest.mem)).or_insert(0) += 1;
            }
            for count in per_mem.values() {
                assert!(*count <= program.config.mem_ports);
            }
        }
    }

    #[test]
    fn respects_crossbar_width_per_cycle() {
        let program = mapped(FIR8, TileConfig::paper(), true);
        for cycle in program.cycles() {
            let transfers = cycle.moves.iter().filter(|m| m.via_crossbar).count()
                + cycle.writebacks.iter().filter(|w| w.via_crossbar).count();
            assert!(transfers <= program.config.crossbar_buses);
        }
    }

    #[test]
    fn at_most_one_cluster_per_pp_per_cycle() {
        let program = mapped(FIR8, TileConfig::paper(), true);
        for cycle in program.cycles() {
            let mut pps: Vec<u8> = cycle.alus.iter().map(|a| a.pp).collect();
            let before = pps.len();
            pps.sort_unstable();
            pps.dedup();
            assert_eq!(pps.len(), before);
            assert!(before <= program.config.num_pps);
        }
    }

    #[test]
    fn moves_precede_their_consuming_cycle() {
        let program = mapped(FIR8, TileConfig::paper(), true);
        // Every register read by an ALU in cycle c must have been loaded by a
        // move in some cycle < c (or be a register hit from an earlier load).
        let mut loaded: HashMap<RegRef, usize> = HashMap::new();
        for (c, cycle) in program.cycles().enumerate() {
            for alu in cycle.alus {
                for micro in cycle.micro_ops(alu) {
                    for operand in cycle.operands(micro) {
                        if let OperandSource::Register(reg) = operand {
                            let load_cycle = loaded
                                .get(reg)
                                .copied()
                                .expect("register operand was loaded at some point");
                            assert!(
                                load_cycle < c,
                                "operand loaded in cycle {load_cycle} used in cycle {c}"
                            );
                        }
                    }
                }
            }
            for mv in cycle.moves {
                loaded.insert(mv.dst, c);
            }
        }
    }

    #[test]
    fn single_alu_tile_serialises_but_still_allocates() {
        let program = mapped(FIR8, TileConfig::single_alu(), true);
        for cycle in program.cycles() {
            assert!(cycle.busy_alus() <= 1);
        }
        let five = mapped(FIR8, TileConfig::paper(), true);
        assert!(program.cycle_count() > five.cycle_count());
    }

    #[test]
    fn locality_improves_register_hits_on_reuse_heavy_kernels() {
        // A multiply chain that re-reads the same two array words at every
        // level, so consecutive levels on the same PP can reuse registers.
        let src = r#"
            void main() {
                int a[2];
                int r;
                r = ((((a[0] * a[1]) * a[0]) * a[1]) * a[0]) * a[1];
            }
        "#;
        let with = mapped(src, TileConfig::paper(), true);
        let without = mapped(src, TileConfig::paper(), false);
        assert!(with.stats.register_hits > 0);
        assert_eq!(without.stats.register_hits, 0);
        assert!(with.stats.register_misses < without.stats.register_misses);
    }

    #[test]
    fn statespace_writes_are_tracked() {
        let src = r#"
            void main() {
                int x[4];
                int y[4];
                int i;
                i = 0;
                while (i < 4) { y[i] = x[i] * x[i]; i = i + 1; }
            }
        "#;
        let program = mapped(src, TileConfig::paper(), true);
        assert_eq!(program.written_addresses.len(), 4);
        for addr in &program.written_addresses {
            assert!(program.statespace_map.iter().any(|(a, _)| a == addr));
        }
    }

    #[test]
    fn undersized_memory_is_rejected() {
        let program = fpfa_frontend::compile(FIR8).unwrap();
        let mut g = program.cdfg;
        WorklistDriver::new().run_standard(&mut g).unwrap();
        let m = MappingGraph::from_cdfg(&g).unwrap();
        let config = TileConfig::paper().with_memories(1, 1);
        let clustered = Clusterer::new(config.alu).cluster(&m).unwrap();
        let schedule = Scheduler::new(config.num_pps).schedule(&clustered).unwrap();
        let err = Allocator::new(config)
            .allocate(&m, &clustered, &schedule)
            .unwrap_err();
        assert!(matches!(err, MapError::CapacityExceeded { .. }));
    }

    #[test]
    fn stall_cycles_grow_when_the_move_window_shrinks() {
        let wide = mapped(FIR8, TileConfig::paper().with_input_move_window(4), true);
        let narrow = mapped(FIR8, TileConfig::paper().with_input_move_window(1), true);
        assert!(narrow.stats.stall_cycles >= wide.stats.stall_cycles);
        assert!(narrow.cycle_count() >= wide.cycle_count());
    }
}
