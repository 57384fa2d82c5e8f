//! The mapping verifier: translation validation of a [`MappingResult`].
//!
//! [`Verifier::verify`] re-checks a finished mapping against the dependence
//! graph and the machine description, *independently of the code that
//! produced it*: every check is a declarative rule with a stable `FV0xx` id
//! (see [`crate::diag::RULES`]). The verifier trusts only
//!
//! * the simplified CDFG and the extracted mapping graph (the semantics), and
//! * the [`TileConfig`]/[`ArrayConfig`] it was constructed with (the
//!   machine),
//!
//! and validates everything else — clustering coverage, level schedules,
//! per-cycle register/memory dataflow, port and capacity limits, inter-tile
//! transfers, traffic accounting and the headline report — bottom-up from
//! those two. A mapper bug, a corrupted cache entry or a hand-mutated
//! program therefore shows up as a deny-level [`Diagnostic`] rather than a
//! silently wrong simulation.

use crate::diag::{Diagnostic, VerifyReport};
use fpfa_arch::{ArrayConfig, EnergyModel, MemRef, RegRef, TileConfig, TileId};
use fpfa_core::cache::config_fingerprint;
use fpfa_core::program::OperandSource;
use fpfa_core::{
    ClusterId, CutEdge, FlowToggles, Mapper, MappingResult, OpId, Schedule, TileProgram,
    TransferJob, ValueRef,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The static mapping verifier.
///
/// Construct one per configuration (via [`Verifier::new`] or
/// [`Verifier::for_mapper`]) and call [`Verifier::verify`] on any number of
/// results.
#[derive(Clone, Debug)]
pub struct Verifier {
    config: TileConfig,
    array: ArrayConfig,
    toggles: FlowToggles,
}

/// A uniform view of a mapping: single-tile results are treated as a
/// one-tile array so every rule is written once.
struct View<'a> {
    multi: bool,
    tiles: Vec<&'a TileProgram>,
    schedules: Vec<&'a Schedule>,
    /// Tile each cluster was partitioned onto, indexed by cluster index.
    tile_of: Vec<TileId>,
    transfers: &'a [TransferJob],
    /// Ground-truth cut edges recomputed from the partition (sorted).
    cut: Vec<CutEdge>,
    statespace: HashMap<i64, (TileId, MemRef)>,
    written: HashSet<i64>,
}

impl<'a> View<'a> {
    fn of(result: &'a MappingResult) -> Self {
        match &result.multi {
            Some(multi) => {
                let mut tile_of = vec![0; result.clustered.len()];
                for cluster in result.clustered.ids() {
                    if cluster.index() < multi.partition.len() {
                        tile_of[cluster.index()] = multi.partition.tile_of(cluster);
                    }
                }
                View {
                    multi: true,
                    tiles: multi.program.tiles.iter().collect(),
                    schedules: multi.schedule.tiles().iter().collect(),
                    tile_of,
                    transfers: &multi.program.transfers,
                    cut: multi
                        .partition
                        .cut_edges(&result.mapping_graph, &result.clustered),
                    statespace: multi
                        .program
                        .statespace_map
                        .iter()
                        .map(|&(addr, home)| (addr, home))
                        .collect(),
                    written: multi.program.written_addresses.iter().copied().collect(),
                }
            }
            None => View {
                multi: false,
                tiles: vec![&result.program],
                schedules: vec![&result.schedule],
                tile_of: vec![0; result.clustered.len()],
                transfers: &[],
                cut: Vec::new(),
                statespace: result
                    .program
                    .statespace_map
                    .iter()
                    .map(|&(addr, home)| (addr, (0, home)))
                    .collect(),
                written: result.program.written_addresses.iter().copied().collect(),
            },
        }
    }
}

/// Cluster placements `(tile, level)` and executions `(tile, cycle, pp)`
/// gathered by the completeness pass and reused by the dataflow rules.
struct Placement {
    at: HashMap<ClusterId, (TileId, usize)>,
    exec: HashMap<ClusterId, (TileId, usize, usize)>,
    owner: HashMap<OpId, ClusterId>,
}

impl Verifier {
    /// Creates a verifier for the given machine description and flow
    /// toggles (the toggles take part in the configuration fingerprint that
    /// rule FV013 compares).
    pub fn new(config: TileConfig, array: ArrayConfig, toggles: FlowToggles) -> Self {
        Verifier {
            config,
            array,
            toggles,
        }
    }

    /// A verifier matching a mapper's configuration — results produced by
    /// `mapper` should verify clean against `Verifier::for_mapper(&mapper)`.
    pub fn for_mapper(mapper: &Mapper) -> Self {
        Verifier::new(*mapper.config(), *mapper.array(), mapper.toggles())
    }

    /// Checks every `FV0xx` rule against the result and returns all
    /// findings.
    pub fn verify(&self, result: &MappingResult) -> VerifyReport {
        let mut report = VerifyReport::new();

        // FV001: the simplified CDFG itself must be well formed.
        for error in fpfa_cdfg::validate::validate_all(&result.simplified) {
            report.push(Diagnostic::deny(
                "FV001",
                format!("simplified CDFG is malformed: {error}"),
            ));
        }

        // FV013: the result must have been produced under this exact
        // configuration (catches a stale or corrupted cache entry served to
        // a differently-configured request).
        let expected = config_fingerprint(&self.config, &self.array, &self.toggles);
        if expected != result.config_fingerprint {
            report.push(Diagnostic::deny(
                "FV013",
                format!(
                    "result carries configuration fingerprint {:#018x} but the requesting \
                     configuration fingerprints to {:#018x} (stale or corrupted cache entry?)",
                    result.config_fingerprint, expected
                ),
            ));
        }

        let view = View::of(result);
        let placement = self.check_completeness(result, &view, &mut report);
        self.check_dependences(result, &view, &placement, &mut report);
        self.check_memory_dataflow(result, &view, &placement, &mut report);
        self.check_register_dataflow(result, &view, &mut report);
        self.check_capacity(&view, &mut report);
        if view.multi {
            self.check_transfers(&view, &mut report);
            self.check_traffic(result, &view, &mut report);
        }
        self.check_input_homing(result, &view, &mut report);
        self.check_report(result, &view, &mut report);
        report
    }

    /// FV002 (plus FV004): every cluster scheduled and executed exactly
    /// once, on its assigned tile; every operation owned by exactly one
    /// cluster; levels execute in order; no level exceeds the ALU count.
    fn check_completeness(
        &self,
        result: &MappingResult,
        view: &View<'_>,
        report: &mut VerifyReport,
    ) -> Placement {
        let clustered = &result.clustered;
        let graph = &result.mapping_graph;

        // Operation coverage: the clusters partition the operation set.
        let mut owner: HashMap<OpId, ClusterId> = HashMap::new();
        let mut owners = vec![0usize; graph.op_count()];
        for cluster in clustered.ids() {
            for &op in &clustered.cluster(cluster).ops {
                if op.index() < owners.len() {
                    owners[op.index()] += 1;
                }
                owner.entry(op).or_insert(cluster);
            }
        }
        for op in graph.op_ids() {
            let count = owners[op.index()];
            if count != 1 {
                report.push(Diagnostic::deny(
                    "FV002",
                    format!("operation {op} belongs to {count} clusters (expected exactly 1)"),
                ));
            }
        }

        // Placement: every cluster on exactly one (tile, level).
        let mut at: HashMap<ClusterId, (TileId, usize)> = HashMap::new();
        let mut placed: HashMap<ClusterId, usize> = HashMap::new();
        for (tile, schedule) in view.schedules.iter().enumerate() {
            for (level, clusters) in schedule.levels().iter().enumerate() {
                if clusters.len() > self.config.num_pps {
                    report.push(
                        Diagnostic::deny(
                            "FV004",
                            format!(
                                "{} clusters share one level but the tile has {} ALUs",
                                clusters.len(),
                                self.config.num_pps
                            ),
                        )
                        .with_location(format!("tile {tile}, level {level}")),
                    );
                }
                for &cluster in clusters {
                    if cluster.index() >= clustered.len() {
                        report.push(
                            Diagnostic::deny(
                                "FV002",
                                format!("unknown cluster {cluster} is scheduled"),
                            )
                            .with_location(format!("tile {tile}, level {level}")),
                        );
                        continue;
                    }
                    *placed.entry(cluster).or_insert(0) += 1;
                    at.entry(cluster).or_insert((tile, level));
                }
            }
        }
        for cluster in clustered.ids() {
            match placed.get(&cluster).copied().unwrap_or(0) {
                0 => report.push(Diagnostic::deny(
                    "FV002",
                    format!("cluster {cluster} is never scheduled"),
                )),
                1 => {
                    if let Some(&(tile, _)) = at.get(&cluster) {
                        if tile != view.tile_of[cluster.index()] {
                            report.push(Diagnostic::deny(
                                "FV002",
                                format!(
                                    "cluster {cluster} is scheduled on tile {tile} but \
                                     partitioned onto tile {}",
                                    view.tile_of[cluster.index()]
                                ),
                            ));
                        }
                    }
                }
                n => report.push(Diagnostic::deny(
                    "FV002",
                    format!("cluster {cluster} is scheduled {n} times"),
                )),
            }
        }

        // Execution: every cluster executed by exactly one ALU job, on its
        // tile.
        let mut exec: HashMap<ClusterId, (TileId, usize, usize)> = HashMap::new();
        let mut executed: HashMap<ClusterId, usize> = HashMap::new();
        for (tile, program) in view.tiles.iter().enumerate() {
            for (cycle, job) in program.cycles().enumerate() {
                for alu in job.alus {
                    *executed.entry(alu.cluster).or_insert(0) += 1;
                    exec.entry(alu.cluster)
                        .or_insert((tile, cycle, alu.pp_index()));
                }
            }
        }
        for cluster in clustered.ids() {
            match executed.get(&cluster).copied().unwrap_or(0) {
                0 => report.push(Diagnostic::deny(
                    "FV002",
                    format!("cluster {cluster} is never executed by any ALU job"),
                )),
                1 => {
                    if let Some(&(tile, _, _)) = exec.get(&cluster) {
                        if tile != view.tile_of[cluster.index()] {
                            report.push(Diagnostic::deny(
                                "FV002",
                                format!(
                                    "cluster {cluster} executes on tile {tile} but was \
                                     partitioned onto tile {}",
                                    view.tile_of[cluster.index()]
                                ),
                            ));
                        }
                    }
                }
                n => report.push(Diagnostic::deny(
                    "FV002",
                    format!("cluster {cluster} is executed {n} times"),
                )),
            }
        }

        // Levels execute in order: every cycle of level l precedes every
        // cycle of level l+1 on the same tile.
        for (tile, schedule) in view.schedules.iter().enumerate() {
            let mut previous: Option<(usize, usize)> = None;
            for (level, clusters) in schedule.levels().iter().enumerate() {
                let cycles: Vec<usize> = clusters
                    .iter()
                    .filter_map(|c| exec.get(c))
                    .filter(|(t, _, _)| *t == tile)
                    .map(|&(_, cycle, _)| cycle)
                    .collect();
                let (Some(&first), Some(&last)) = (cycles.iter().min(), cycles.iter().max()) else {
                    continue;
                };
                if let Some((prev_level, prev_last)) = previous {
                    if first <= prev_last {
                        report.push(
                            Diagnostic::deny(
                                "FV002",
                                format!(
                                    "level {level} executes at cycle {first}, not after \
                                     level {prev_level} (which runs through cycle {prev_last})"
                                ),
                            )
                            .with_location(format!("tile {tile}")),
                        );
                    }
                }
                previous = Some((level, last));
            }
        }

        Placement { at, exec, owner }
    }

    /// FV003/FV005: every dependence edge between clusters is
    /// level-separated — by at least one level on the same tile, by
    /// `1 + hop_latency` levels across tiles.
    fn check_dependences(
        &self,
        result: &MappingResult,
        _view: &View<'_>,
        placement: &Placement,
        report: &mut VerifyReport,
    ) {
        let graph = &result.mapping_graph;
        let hop = self.array.hop_latency;
        let mut seen: HashSet<(ClusterId, ClusterId)> = HashSet::new();
        for op in graph.op_ids() {
            let Some(&consumer) = placement.owner.get(&op) else {
                continue;
            };
            for input in graph.op(op).inputs {
                let ValueRef::Op(producer_op) = input else {
                    continue;
                };
                let Some(&producer) = placement.owner.get(producer_op) else {
                    continue;
                };
                if producer == consumer || !seen.insert((producer, consumer)) {
                    continue;
                }
                let (Some(&(pt, pl)), Some(&(ct, cl))) =
                    (placement.at.get(&producer), placement.at.get(&consumer))
                else {
                    continue;
                };
                if pt == ct {
                    if cl <= pl {
                        report.push(
                            Diagnostic::deny(
                                "FV003",
                                format!(
                                    "cluster {consumer} (level {cl}) depends on cluster \
                                     {producer} (level {pl}) but is not scheduled strictly \
                                     later"
                                ),
                            )
                            .with_location(format!("tile {pt}")),
                        );
                    }
                } else if cl < pl + 1 + hop {
                    report.push(Diagnostic::deny(
                        "FV005",
                        format!(
                            "cluster {consumer} (tile {ct}, level {cl}) depends on cluster \
                             {producer} (tile {pt}, level {pl}) but the {hop}-level hop \
                             latency requires level {} or later",
                            pl + 1 + hop
                        ),
                    ));
                }
            }
        }
    }

    /// FV006: every register load reads a memory word that was stored (by
    /// the preload image, an earlier write-back or an arrived transfer)
    /// with the value the move claims; write-backs follow the producing
    /// execution on the same tile and processing part.
    fn check_memory_dataflow(
        &self,
        _result: &MappingResult,
        view: &View<'_>,
        placement: &Placement,
        report: &mut VerifyReport,
    ) {
        for (tile, program) in view.tiles.iter().enumerate() {
            // Store events per memory word: (cycle, value); the preload
            // image materialises before cycle 0.
            let mut events: HashMap<MemRef, Vec<(i64, ValueRef)>> = HashMap::new();
            for &(value, mem) in &program.preload {
                events.entry(mem).or_default().push((-1, value));
            }
            for (cycle, job) in program.cycles().enumerate() {
                for wb in job.writebacks {
                    events
                        .entry(wb.dest)
                        .or_default()
                        .push((cycle as i64, ValueRef::Op(wb.op)));
                    let produced = placement
                        .owner
                        .get(&wb.op)
                        .and_then(|cluster| placement.exec.get(cluster));
                    match produced {
                        None => report.push(
                            Diagnostic::deny(
                                "FV006",
                                format!("write-back of {} has no executing cluster", wb.op),
                            )
                            .with_location(format!("tile {tile}, cycle {cycle}")),
                        ),
                        Some(&(et, ecycle, epp)) => {
                            if et != tile || ecycle > cycle {
                                report.push(
                                    Diagnostic::deny(
                                        "FV006",
                                        format!(
                                            "write-back of {} at cycle {cycle} precedes its \
                                             execution (tile {et}, cycle {ecycle})",
                                            wb.op
                                        ),
                                    )
                                    .with_location(format!("tile {tile}, cycle {cycle}")),
                                );
                            } else if epp != usize::from(wb.src_pp) {
                                report.push(
                                    Diagnostic::deny(
                                        "FV006",
                                        format!(
                                            "write-back of {} names pp{} as its source but \
                                             the operation executed on pp{epp}",
                                            wb.op, wb.src_pp
                                        ),
                                    )
                                    .with_location(format!("tile {tile}, cycle {cycle}")),
                                );
                            }
                        }
                    }
                }
            }
            for transfer in view.transfers {
                if transfer.to == tile {
                    events
                        .entry(transfer.dst)
                        .or_default()
                        .push((transfer.arrive as i64, ValueRef::Op(transfer.op)));
                }
            }
            for stores in events.values_mut() {
                stores.sort_by_key(|&(cycle, _)| cycle);
            }
            for (cycle, job) in program.cycles().enumerate() {
                for mv in job.moves {
                    let latest = events
                        .get(&mv.src)
                        .and_then(|stores| stores.iter().rev().find(|&&(c, _)| c < cycle as i64));
                    match latest {
                        None => report.push(
                            Diagnostic::deny(
                                "FV006",
                                format!(
                                    "register load of {} reads {} before anything was stored \
                                     there",
                                    mv.value, mv.src
                                ),
                            )
                            .with_location(format!("tile {tile}, cycle {cycle}")),
                        ),
                        Some(&(_, stored)) if stored != mv.value => report.push(
                            Diagnostic::deny(
                                "FV006",
                                format!(
                                    "register load expects {} in {} but the last store there \
                                     was {stored}",
                                    mv.value, mv.src
                                ),
                            )
                            .with_location(format!("tile {tile}, cycle {cycle}")),
                        ),
                        _ => {}
                    }
                }
            }
        }
    }

    /// FV007: ALU operands match the dataflow graph — immediates equal the
    /// constant inputs, internal forwarding points at an earlier micro-op of
    /// the same cluster, and register operands were loaded (by a move in an
    /// earlier cycle) with exactly the value the graph expects.
    fn check_register_dataflow(
        &self,
        result: &MappingResult,
        view: &View<'_>,
        report: &mut VerifyReport,
    ) {
        let graph = &result.mapping_graph;
        let clustered = &result.clustered;
        for (tile, program) in view.tiles.iter().enumerate() {
            let mut regs: HashMap<RegRef, ValueRef> = HashMap::new();
            for (cycle, job) in program.cycles().enumerate() {
                let here = |pp: usize| format!("tile {tile}, cycle {cycle}, pp{pp}");
                for alu in job.alus {
                    if alu.cluster.index() >= clustered.len() {
                        continue; // FV002 already reported the unknown cluster.
                    }
                    let cluster = clustered.cluster(alu.cluster);
                    let micro_ops = job.micro_ops(alu);
                    if micro_ops.len() != cluster.ops.len() {
                        report.push(
                            Diagnostic::deny(
                                "FV007",
                                format!(
                                    "cluster {} executes {} micro-ops for {} operations",
                                    alu.cluster,
                                    micro_ops.len(),
                                    cluster.ops.len()
                                ),
                            )
                            .with_location(here(alu.pp_index())),
                        );
                        continue;
                    }
                    for (k, micro) in micro_ops.iter().enumerate() {
                        let operands = job.operands(micro);
                        let op = cluster.ops[k];
                        if micro.op != op {
                            report.push(
                                Diagnostic::deny(
                                    "FV007",
                                    format!(
                                        "micro-op {k} of cluster {} implements {} (expected \
                                         {op})",
                                        alu.cluster, micro.op
                                    ),
                                )
                                .with_location(here(alu.pp_index())),
                            );
                            continue;
                        }
                        let map_op = graph.op(op);
                        if micro.kind != map_op.kind {
                            report.push(
                                Diagnostic::deny(
                                    "FV007",
                                    format!(
                                        "micro-op {k} of cluster {} computes {} (expected {})",
                                        alu.cluster,
                                        micro.kind.mnemonic(),
                                        map_op.kind.mnemonic()
                                    ),
                                )
                                .with_location(here(alu.pp_index())),
                            );
                        }
                        if operands.len() != map_op.inputs.len() {
                            report.push(
                                Diagnostic::deny(
                                    "FV007",
                                    format!(
                                        "{op} takes {} operands but the micro-op supplies {}",
                                        map_op.inputs.len(),
                                        operands.len()
                                    ),
                                )
                                .with_location(here(alu.pp_index())),
                            );
                            continue;
                        }
                        for (port, (source, expected)) in
                            operands.iter().zip(map_op.inputs).enumerate()
                        {
                            match *source {
                                OperandSource::Immediate(value) => {
                                    if *expected != ValueRef::Const(value) {
                                        report.push(
                                            Diagnostic::deny(
                                                "FV007",
                                                format!(
                                                    "operand {port} of {op} is immediate \
                                                     {value} but the graph expects {expected}"
                                                ),
                                            )
                                            .with_location(here(alu.pp_index())),
                                        );
                                    }
                                }
                                OperandSource::Internal(position) => {
                                    let forwarded =
                                        (position < k).then(|| ValueRef::Op(cluster.ops[position]));
                                    if forwarded != Some(*expected) {
                                        report.push(
                                            Diagnostic::deny(
                                                "FV007",
                                                format!(
                                                    "operand {port} of {op} forwards micro-op \
                                                     {position} but the graph expects \
                                                     {expected}"
                                                ),
                                            )
                                            .with_location(here(alu.pp_index())),
                                        );
                                    }
                                }
                                OperandSource::Register(reg) => {
                                    if reg.pp != alu.pp {
                                        report.push(
                                            Diagnostic::deny(
                                                "FV007",
                                                format!(
                                                    "operand {port} of {op} reads {reg}, a \
                                                     register of another processing part"
                                                ),
                                            )
                                            .with_location(here(alu.pp_index())),
                                        );
                                        continue;
                                    }
                                    match regs.get(&reg) {
                                        Some(held) if held == expected => {}
                                        Some(held) => report.push(
                                            Diagnostic::deny(
                                                "FV007",
                                                format!(
                                                    "operand {port} of {op} reads {reg} \
                                                     holding {held} (expected {expected})"
                                                ),
                                            )
                                            .with_location(here(alu.pp_index())),
                                        ),
                                        None => report.push(
                                            Diagnostic::deny(
                                                "FV007",
                                                format!(
                                                    "operand {port} of {op} reads {reg} before \
                                                     any move loaded it"
                                                ),
                                            )
                                            .with_location(here(alu.pp_index())),
                                        ),
                                    }
                                }
                            }
                        }
                    }
                }
                // Moves commit at the end of the cycle: ALU jobs of the same
                // cycle must not observe them (the allocator always loads
                // strictly ahead of use).
                for mv in job.moves {
                    regs.insert(mv.dst, mv.value);
                }
            }
        }
    }

    /// FV008: references stay within the machine (processing parts,
    /// memories, register banks, memory words) and per-cycle port limits
    /// hold — memory ports, crossbar buses, register-bank write ports, one
    /// ALU job per processing part.
    fn check_capacity(&self, view: &View<'_>, report: &mut VerifyReport) {
        let cfg = &self.config;
        for (tile, program) in view.tiles.iter().enumerate() {
            let mut preloaded: HashSet<MemRef> = HashSet::new();
            for &(value, mem) in &program.preload {
                self.check_mem_ref(mem, &format!("tile {tile}, preload of {value}"), report);
                if !preloaded.insert(mem) {
                    report.push(
                        Diagnostic::deny(
                            "FV008",
                            format!("the preload image writes {mem} more than once"),
                        )
                        .with_location(format!("tile {tile}")),
                    );
                }
            }
            for (cycle, job) in program.cycles().enumerate() {
                let here = format!("tile {tile}, cycle {cycle}");
                let mut mem_accesses: BTreeMap<(u8, usize), usize> = BTreeMap::new();
                let mut bank_writes: BTreeMap<(u8, usize), usize> = BTreeMap::new();
                let mut crossbar = 0usize;
                let mut busy_pps: HashSet<u8> = HashSet::new();
                for mv in job.moves {
                    self.check_mem_ref(mv.src, &here, report);
                    self.check_reg_ref(mv.dst, &here, report);
                    *mem_accesses
                        .entry((mv.src.pp, mv.src.mem.index()))
                        .or_insert(0) += 1;
                    *bank_writes
                        .entry((mv.dst.pp, mv.dst.bank.index()))
                        .or_insert(0) += 1;
                    let crosses = mv.src.pp != mv.dst.pp;
                    if mv.via_crossbar != crosses {
                        report.push(
                            Diagnostic::deny(
                                "FV008",
                                format!(
                                    "move {} -> {} has via_crossbar = {} but {}",
                                    mv.src,
                                    mv.dst,
                                    mv.via_crossbar,
                                    if crosses {
                                        "it crosses processing parts"
                                    } else {
                                        "it stays within one processing part"
                                    }
                                ),
                            )
                            .with_location(here.clone()),
                        );
                    }
                    if crosses {
                        crossbar += 1;
                    }
                }
                for wb in job.writebacks {
                    self.check_mem_ref(wb.dest, &here, report);
                    if usize::from(wb.src_pp) >= cfg.num_pps {
                        report.push(
                            Diagnostic::deny(
                                "FV008",
                                format!(
                                    "write-back of {} comes from pp{} but the tile has {} \
                                     processing parts",
                                    wb.op, wb.src_pp, cfg.num_pps
                                ),
                            )
                            .with_location(here.clone()),
                        );
                    }
                    *mem_accesses
                        .entry((wb.dest.pp, wb.dest.mem.index()))
                        .or_insert(0) += 1;
                    let crosses = wb.src_pp != wb.dest.pp;
                    if wb.via_crossbar != crosses {
                        report.push(
                            Diagnostic::deny(
                                "FV008",
                                format!(
                                    "write-back of {} has via_crossbar = {} but {}",
                                    wb.op,
                                    wb.via_crossbar,
                                    if crosses {
                                        "it crosses processing parts"
                                    } else {
                                        "it stays within one processing part"
                                    }
                                ),
                            )
                            .with_location(here.clone()),
                        );
                    }
                    if crosses {
                        crossbar += 1;
                    }
                }
                for alu in job.alus {
                    if alu.pp_index() >= cfg.num_pps {
                        report.push(
                            Diagnostic::deny(
                                "FV008",
                                format!(
                                    "ALU job on pp{} but the tile has {} processing parts",
                                    alu.pp, cfg.num_pps
                                ),
                            )
                            .with_location(here.clone()),
                        );
                    } else if !busy_pps.insert(alu.pp) {
                        report.push(
                            Diagnostic::deny(
                                "FV008",
                                format!("two ALU jobs on pp{} in one cycle", alu.pp),
                            )
                            .with_location(here.clone()),
                        );
                    }
                }
                if crossbar > cfg.crossbar_buses {
                    report.push(
                        Diagnostic::deny(
                            "FV008",
                            format!(
                                "{crossbar} crossbar transfers in one cycle exceed the {} buses",
                                cfg.crossbar_buses
                            ),
                        )
                        .with_location(here.clone()),
                    );
                }
                for ((pp, mem), accesses) in mem_accesses {
                    if accesses > cfg.mem_ports {
                        report.push(
                            Diagnostic::deny(
                                "FV008",
                                format!(
                                    "pp{pp} memory {} is accessed {accesses} times in one \
                                     cycle (port limit {})",
                                    mem + 1,
                                    cfg.mem_ports
                                ),
                            )
                            .with_location(here.clone()),
                        );
                    }
                }
                for ((pp, bank), writes) in bank_writes {
                    if writes > cfg.regbank_write_ports {
                        report.push(
                            Diagnostic::deny(
                                "FV008",
                                format!(
                                    "register bank {bank} of pp{pp} is written {writes} times \
                                     in one cycle (write-port limit {})",
                                    cfg.regbank_write_ports
                                ),
                            )
                            .with_location(here.clone()),
                        );
                    }
                }
            }
        }
        for transfer in view.transfers {
            let here = format!("transfer of {}", transfer.op);
            if transfer.from >= view.tiles.len() || transfer.to >= view.tiles.len() {
                report.push(
                    Diagnostic::deny(
                        "FV008",
                        format!(
                            "transfer connects tile {} to tile {} but the array has {} tiles",
                            transfer.from,
                            transfer.to,
                            view.tiles.len()
                        ),
                    )
                    .with_location(here.clone()),
                );
            }
            self.check_mem_ref(transfer.src, &here, report);
            self.check_mem_ref(transfer.dst, &here, report);
        }
    }

    fn check_mem_ref(&self, mem: MemRef, location: &str, report: &mut VerifyReport) {
        let cfg = &self.config;
        if mem.pp_index() >= cfg.num_pps
            || mem.mem.index() >= cfg.mems_per_pp
            || usize::from(mem.offset) >= cfg.mem_words
        {
            report.push(
                Diagnostic::deny(
                    "FV008",
                    format!(
                        "memory reference {mem} is outside the machine ({} PPs, {} memories of \
                         {} words)",
                        cfg.num_pps, cfg.mems_per_pp, cfg.mem_words
                    ),
                )
                .with_location(location.to_string()),
            );
        }
    }

    fn check_reg_ref(&self, reg: RegRef, location: &str, report: &mut VerifyReport) {
        let cfg = &self.config;
        if reg.pp_index() >= cfg.num_pps
            || reg.bank.index() >= cfg.banks_per_pp
            || usize::from(reg.index) >= cfg.regs_per_bank
        {
            report.push(
                Diagnostic::deny(
                    "FV008",
                    format!(
                        "register reference {reg} is outside the machine ({} PPs, {} banks of \
                         {} registers)",
                        cfg.num_pps, cfg.banks_per_pp, cfg.regs_per_bank
                    ),
                )
                .with_location(location.to_string()),
            );
        }
    }

    /// FV009/FV010: the transfers realise exactly the cut edges of the
    /// partition, depart after the producing write-back, arrive one hop
    /// later and never exceed the per-cycle link budget.
    fn check_transfers(&self, view: &View<'_>, report: &mut VerifyReport) {
        // Multiset comparison against the recomputed cut edges.
        let mut balance: BTreeMap<(OpId, TileId, TileId), i64> = BTreeMap::new();
        for edge in &view.cut {
            *balance.entry((edge.op, edge.from, edge.to)).or_insert(0) += 1;
        }
        for transfer in view.transfers {
            *balance
                .entry((transfer.op, transfer.from, transfer.to))
                .or_insert(0) -= 1;
        }
        for ((op, from, to), count) in balance {
            if count > 0 {
                report.push(Diagnostic::deny(
                    "FV009",
                    format!(
                        "cut edge {op}: tile {from} -> tile {to} has no transfer job \
                         ({count} missing)"
                    ),
                ));
            } else if count < 0 {
                report.push(Diagnostic::deny(
                    "FV009",
                    format!(
                        "{} transfer(s) of {op}: tile {from} -> tile {to} beyond the single \
                         cut edge",
                        -count
                    ),
                ));
            }
        }
        for transfer in view.transfers {
            if transfer.arrive != transfer.depart + self.array.hop_latency {
                report.push(Diagnostic::deny(
                    "FV009",
                    format!(
                        "transfer of {} arrives at cycle {} (expected depart {} + hop latency \
                         {})",
                        transfer.op, transfer.arrive, transfer.depart, self.array.hop_latency
                    ),
                ));
            }
            let written = view
                .tiles
                .get(transfer.from)
                .map(|program| {
                    program.cycles().take(transfer.depart).any(|job| {
                        job.writebacks
                            .iter()
                            .any(|wb| wb.op == transfer.op && wb.dest == transfer.src)
                    })
                })
                .unwrap_or(false);
            if !written {
                report.push(Diagnostic::deny(
                    "FV009",
                    format!(
                        "transfer of {} departs tile {} at cycle {} before the value was \
                         written to {}",
                        transfer.op, transfer.from, transfer.depart, transfer.src
                    ),
                ));
            }
        }
        // FV010: per-cycle link budget.
        let mut departures: BTreeMap<usize, usize> = BTreeMap::new();
        for transfer in view.transfers {
            *departures.entry(transfer.depart).or_insert(0) += 1;
        }
        for (cycle, count) in departures {
            if count > self.array.links_per_cycle {
                report.push(
                    Diagnostic::deny(
                        "FV010",
                        format!(
                            "{count} transfers depart in one cycle but the interconnect \
                             provides {} links per cycle",
                            self.array.links_per_cycle
                        ),
                    )
                    .with_location(format!("cycle {cycle}")),
                );
            }
        }
    }

    /// FV011: the traffic report and the energy/transfer totals equal the
    /// values recomputed from the partition and the scheduled transfers.
    fn check_traffic(&self, result: &MappingResult, view: &View<'_>, report: &mut VerifyReport) {
        let Some(multi) = &result.multi else {
            return;
        };
        let traffic = &multi.program.traffic;

        let mut reported_edges = traffic.edges.clone();
        reported_edges.sort_unstable();
        if reported_edges != view.cut {
            report.push(Diagnostic::deny(
                "FV011",
                format!(
                    "traffic report lists {} cut edges but the partition implies {}",
                    traffic.edges.len(),
                    view.cut.len()
                ),
            ));
        }

        let mut per_pair: BTreeMap<(TileId, TileId), usize> = BTreeMap::new();
        for edge in &traffic.edges {
            *per_pair.entry((edge.from, edge.to)).or_insert(0) += 1;
        }
        for broadcast in &traffic.input_broadcasts {
            *per_pair.entry((broadcast.from, broadcast.to)).or_insert(0) += 1;
        }
        let recomputed: Vec<((TileId, TileId), usize)> = per_pair.into_iter().collect();
        if recomputed != traffic.per_pair {
            report.push(Diagnostic::deny(
                "FV011",
                "per-pair traffic counts do not equal the accounted edges and broadcasts"
                    .to_string(),
            ));
        }

        let mut departures: BTreeMap<usize, usize> = BTreeMap::new();
        for transfer in view.transfers {
            *departures.entry(transfer.depart).or_insert(0) += 1;
        }
        let pressure = departures.values().copied().max().unwrap_or(0);
        if pressure != traffic.max_link_pressure {
            report.push(Diagnostic::deny(
                "FV011",
                format!(
                    "traffic report claims link pressure {} but the transfers peak at \
                     {pressure} departures per cycle",
                    traffic.max_link_pressure
                ),
            ));
        }

        let accounted = view.transfers.len() + traffic.input_broadcasts.len();
        if multi.program.stats.inter_tile_transfers != accounted {
            report.push(Diagnostic::deny(
                "FV011",
                format!(
                    "stats count {} inter-tile transfers but {accounted} events are accounted \
                     (transfers plus input broadcasts)",
                    multi.program.stats.inter_tile_transfers
                ),
            ));
        }

        let model = EnergyModel::default();
        let expected =
            model.inter_tile_transfer * (view.cut.len() + traffic.input_broadcasts.len()) as f64;
        if traffic.energy(&model) != expected {
            report.push(Diagnostic::deny(
                "FV011",
                format!(
                    "traffic energy {} does not equal the accounted events' {expected}",
                    traffic.energy(&model)
                ),
            ));
        }

        let mut seen: HashSet<(ValueRef, TileId)> = HashSet::new();
        for broadcast in &traffic.input_broadcasts {
            if broadcast.from == broadcast.to {
                report.push(Diagnostic::deny(
                    "FV011",
                    format!(
                        "input broadcast of {} stays on tile {}",
                        broadcast.value, broadcast.from
                    ),
                ));
            }
            if !seen.insert((broadcast.value, broadcast.to)) {
                report.push(Diagnostic::deny(
                    "FV011",
                    format!(
                        "duplicate input broadcast of {} to tile {}",
                        broadcast.value, broadcast.to
                    ),
                ));
            }
            let delivered = view
                .tiles
                .get(broadcast.to)
                .map(|program| program.preload.iter().any(|&(v, _)| v == broadcast.value))
                .unwrap_or(false);
            if !delivered {
                report.push(Diagnostic::deny(
                    "FV011",
                    format!(
                        "input broadcast of {} to tile {} has no preload entry on the \
                         receiving tile",
                        broadcast.value, broadcast.to
                    ),
                ));
            }
        }
    }

    /// FV012: every statespace address the kernel reads is homed in the
    /// statespace map, and read-only addresses are preloaded at exactly
    /// their homed word.
    fn check_input_homing(
        &self,
        result: &MappingResult,
        view: &View<'_>,
        report: &mut VerifyReport,
    ) {
        let graph = &result.mapping_graph;
        if view.multi {
            for &addr in &graph.mem_reads {
                match view.statespace.get(&addr) {
                    None => report.push(Diagnostic::deny(
                        "FV012",
                        format!("statespace address {addr} is read but has no home"),
                    )),
                    Some(&(tile, home)) => {
                        if view.written.contains(&addr) {
                            continue;
                        }
                        let preloaded = view
                            .tiles
                            .get(tile)
                            .map(|program| {
                                program
                                    .preload
                                    .iter()
                                    .any(|&(v, m)| v == ValueRef::MemWord(addr) && m == home)
                            })
                            .unwrap_or(false);
                        if !preloaded {
                            report.push(Diagnostic::deny(
                                "FV012",
                                format!(
                                    "read-only statespace word {addr} is homed at tile \
                                     {tile}'s {home} but not preloaded there"
                                ),
                            ));
                        }
                    }
                }
            }
        } else {
            let Some(program) = view.tiles.first() else {
                return;
            };
            for &addr in &graph.mem_reads {
                let homes: Vec<MemRef> = program
                    .preload
                    .iter()
                    .filter(|&&(v, _)| v == ValueRef::MemWord(addr))
                    .map(|&(_, m)| m)
                    .collect();
                match homes.as_slice() {
                    [] => report.push(Diagnostic::deny(
                        "FV012",
                        format!("statespace word {addr} is read but never preloaded"),
                    )),
                    [home] => {
                        if view.written.contains(&addr) {
                            continue;
                        }
                        match view.statespace.get(&addr) {
                            Some(&(_, mapped)) if mapped == *home => {}
                            Some(&(_, mapped)) => report.push(Diagnostic::deny(
                                "FV012",
                                format!(
                                    "statespace map homes word {addr} at {mapped} but it is \
                                     preloaded at {home}"
                                ),
                            )),
                            None => report.push(Diagnostic::deny(
                                "FV012",
                                format!("statespace word {addr} has no statespace-map entry"),
                            )),
                        }
                    }
                    many => report.push(Diagnostic::deny(
                        "FV012",
                        format!("statespace word {addr} is preloaded {} times", many.len()),
                    )),
                }
            }
        }
    }

    /// FV014: the headline report equals the values recomputed from the
    /// artifacts (mirrors `MappingReport::absorb_tiles`).
    fn check_report(&self, result: &MappingResult, view: &View<'_>, report: &mut VerifyReport) {
        let r = &result.report;
        let graph = &result.mapping_graph;
        let clustered = &result.clustered;
        expect_count(report, "operations", r.operations, graph.op_count());
        expect_count(report, "clusters", r.clusters, clustered.len());
        expect_count(
            report,
            "critical_path",
            r.critical_path,
            clustered.critical_path(),
        );
        expect_count(report, "tiles", r.tiles, view.tiles.len());
        match &result.multi {
            Some(multi) => {
                let program = &multi.program;
                expect_count(report, "levels", r.levels, multi.schedule.level_count());
                expect_count(report, "cycles", r.cycles, program.cycle_count());
                expect_count(
                    report,
                    "stall_cycles",
                    r.stall_cycles,
                    program.stats.stall_cycles,
                );
                let alus_used = (0..program.cycle_count())
                    .map(|cycle| {
                        program
                            .tiles
                            .iter()
                            .map(|tile| tile.cycle(cycle).busy_alus())
                            .sum::<usize>()
                    })
                    .max()
                    .unwrap_or(0);
                expect_count(report, "alus_used", r.alus_used, alus_used);
                expect_count(
                    report,
                    "register_hits",
                    r.register_hits,
                    program.stats.register_hits,
                );
                expect_count(
                    report,
                    "register_misses",
                    r.register_misses,
                    program.stats.register_misses,
                );
                expect_count(
                    report,
                    "mem_writebacks",
                    r.mem_writebacks,
                    program.stats.mem_writebacks,
                );
                expect_count(
                    report,
                    "crossbar_transfers",
                    r.crossbar_transfers,
                    program.stats.crossbar_transfers,
                );
                expect_count(
                    report,
                    "inter_tile_transfers",
                    r.inter_tile_transfers,
                    program.stats.inter_tile_transfers,
                );
                if (r.alu_utilization - program.alu_utilization()).abs() > 1e-9 {
                    report.push(Diagnostic::deny(
                        "FV014",
                        format!(
                            "report.alu_utilization is {}; the program implies {}",
                            r.alu_utilization,
                            program.alu_utilization()
                        ),
                    ));
                }
            }
            None => {
                let program = &result.program;
                expect_count(report, "levels", r.levels, result.schedule.level_count());
                expect_count(report, "cycles", r.cycles, program.cycle_count());
                expect_count(
                    report,
                    "stall_cycles",
                    r.stall_cycles,
                    program.stats.stall_cycles,
                );
                let alus_used = program
                    .cycles()
                    .map(|cycle| cycle.busy_alus())
                    .max()
                    .unwrap_or(0);
                expect_count(report, "alus_used", r.alus_used, alus_used);
                expect_count(
                    report,
                    "register_hits",
                    r.register_hits,
                    program.stats.register_hits,
                );
                expect_count(
                    report,
                    "register_misses",
                    r.register_misses,
                    program.stats.register_misses,
                );
                expect_count(
                    report,
                    "mem_writebacks",
                    r.mem_writebacks,
                    program.stats.mem_writebacks,
                );
                expect_count(
                    report,
                    "crossbar_transfers",
                    r.crossbar_transfers,
                    program.stats.crossbar_transfers,
                );
                expect_count(report, "inter_tile_transfers", r.inter_tile_transfers, 0);
                if (r.alu_utilization - program.alu_utilization()).abs() > 1e-9 {
                    report.push(Diagnostic::deny(
                        "FV014",
                        format!(
                            "report.alu_utilization is {}; the program implies {}",
                            r.alu_utilization,
                            program.alu_utilization()
                        ),
                    ));
                }
            }
        }
    }
}

/// Pushes an FV014 diagnostic when a recomputed report field differs.
fn expect_count(report: &mut VerifyReport, field: &str, got: usize, want: usize) {
    if got != want {
        report.push(Diagnostic::deny(
            "FV014",
            format!("report.{field} is {got}; the program implies {want}"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIR: &str = r#"
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
    fn clean_single_tile_mapping_verifies_clean() {
        let mapper = Mapper::new();
        let result = mapper.map_source(FIR).unwrap();
        let report = Verifier::for_mapper(&mapper).verify(&result);
        assert!(report.is_clean(), "unexpected diagnostics:\n{report}");
        assert_eq!(report.warn_count(), 0);
    }

    #[test]
    fn clean_multi_tile_mapping_verifies_clean() {
        let mapper = Mapper::new().with_tiles(4);
        let result = mapper.map_source(FIR).unwrap();
        assert!(result.multi.is_some());
        let report = Verifier::for_mapper(&mapper).verify(&result);
        assert!(report.is_clean(), "unexpected diagnostics:\n{report}");
    }

    #[test]
    fn fingerprint_mismatch_is_fv013() {
        let mapper = Mapper::new();
        let mut result = mapper.map_source(FIR).unwrap();
        result.config_fingerprint ^= 1;
        let report = Verifier::for_mapper(&mapper).verify(&result);
        assert!(report.has_rule("FV013"));
    }

    #[test]
    fn differently_configured_verifier_rejects_the_result() {
        let producer = Mapper::new();
        let result = producer.map_source(FIR).unwrap();
        let consumer = Mapper::new().with_tiles(2);
        let report = Verifier::for_mapper(&consumer).verify(&result);
        assert!(report.has_rule("FV013"));
    }

    #[test]
    fn report_tampering_is_fv014() {
        let mapper = Mapper::new();
        let mut result = mapper.map_source(FIR).unwrap();
        result.report.cycles += 1;
        let report = Verifier::for_mapper(&mapper).verify(&result);
        assert!(report.has_rule("FV014"));
    }
}
