//! Versioned binary codec for the post-transform artifacts the mapping
//! cache persists.
//!
//! This is the value format of the on-disk tier's post-transform records
//! ([`crate::persist`]): the [`PostTransformArtifacts`] of a mapping (its
//! extracted graph, clustering, schedule, tile program and multi-tile
//! mapping — the output of the costly phases 1–3) are turned into a
//! self-contained, little-endian byte string and back, using only `std` —
//! no external serialization crates.  A full mapping is never encoded: the
//! disk tier keeps only its summary, and a restarted service rebuilds it by
//! running frontend and transform and reusing these artifacts.
//!
//! Properties the persistence layer relies on:
//!
//! * **Exact roundtrip** — decoded artifacts compare equal (`PartialEq`) to
//!   the encoded ones, so a rebuilt mapping carries the program, and hence
//!   the [`program_digest`], the original mapping had.
//! * **Version gated** — every payload starts with a magic tag and format
//!   version; decoders reject unknown versions with a typed error instead of
//!   misreading bytes.
//! * **Corruption is an error, never a panic** — every length is bounds
//!   checked against the remaining input before it allocates, every tag
//!   is validated, and every op reference of a mapping graph must name one
//!   of its ops, so arbitrarily corrupted bytes produce [`CodecError`],
//!   which the disk tier converts into a typed cache miss.
//!
//! [`program_digest`]: crate::summary::program_digest

use crate::cache::PostTransformArtifacts;
use crate::cluster::{Cluster, ClusterId, ClusteredGraph};
use crate::dfg::{MappingGraph, MemWrite, Named, OpEntry, OpId, OpKind, ValueRef};
use crate::multi::{
    InputBroadcast, MultiSchedule, MultiTileMapping, MultiTileProgram, TrafficReport, TransferJob,
};
use crate::partition::{CutEdge, TileAssignment};
use crate::program::{
    AllocationStats, CycleBuilder, Location, MoveJob, OperandSource, TileProgram, WritebackJob,
};
use crate::schedule::Schedule;
use fpfa_arch::{AluCapability, ArrayConfig, MemId, MemRef, RegBankName, RegRef, TileConfig};
use fpfa_cdfg::{BinOp, UnOp};
use std::fmt;
use std::sync::Arc;

/// Magic prefix of every payload produced by this module.
const MAGIC: &[u8; 4] = b"FPFM";
/// Format version; bump on any layout change below.
///
/// v2 appended the config fingerprint (for the verifier's cache-boundary
/// check); v1 records on disk decode as typed misses and are re-mapped.
const VERSION: u32 = 2;
/// Payload kind tag of [`PostTransformArtifacts`]: it stays 2 so records
/// written by earlier builds still decode.
const KIND_POST: u8 = 2;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A decode failure: the bytes are not a valid payload of this codec
/// version.  The persistence layer treats every variant as a typed cache
/// miss.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The input ended before the payload was complete.
    Truncated,
    /// A tag, length or field value is out of range.
    Malformed(&'static str),
    /// The payload does not start with this codec's magic bytes.
    BadMagic,
    /// The payload was written by an unknown format version.
    UnsupportedVersion(u32),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated payload"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
            CodecError::BadMagic => write!(f, "not a mapping codec payload"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported codec version {v}"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if input.len() < n {
        return Err(CodecError::Truncated);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

fn get_u8(input: &mut &[u8]) -> Result<u8> {
    Ok(take(input, 1)?[0])
}

fn get_bool(input: &mut &[u8]) -> Result<bool> {
    match get_u8(input)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError::Malformed("bool out of range")),
    }
}

fn get_u32(input: &mut &[u8]) -> Result<u32> {
    Ok(u32::from_le_bytes(
        take(input, 4)?.try_into().expect("take returned 4 bytes"),
    ))
}

fn get_u64(input: &mut &[u8]) -> Result<u64> {
    Ok(u64::from_le_bytes(
        take(input, 8)?.try_into().expect("take returned 8 bytes"),
    ))
}

fn get_usize(input: &mut &[u8]) -> Result<usize> {
    usize::try_from(get_u64(input)?).map_err(|_| CodecError::Malformed("usize overflow"))
}

fn get_i64(input: &mut &[u8]) -> Result<i64> {
    Ok(i64::from_le_bytes(
        take(input, 8)?.try_into().expect("take returned 8 bytes"),
    ))
}

/// Bounded element-count read: each element needs at least `min_elem_bytes`
/// encoded bytes, so a corrupt length prefix can never trigger a huge
/// allocation.
fn get_len(input: &mut &[u8], min_elem_bytes: usize) -> Result<usize> {
    let len = get_u32(input)? as usize;
    if len.saturating_mul(min_elem_bytes.max(1)) > input.len() {
        return Err(CodecError::Malformed("length prefix exceeds input"));
    }
    Ok(len)
}

fn get_str<'a>(input: &mut &'a [u8]) -> Result<&'a str> {
    let len = get_len(input, 1)?;
    std::str::from_utf8(take(input, len)?).map_err(|_| CodecError::Malformed("invalid utf-8"))
}

/// `n` strings, in order (each decoded in place, then packed once).
fn get_strs<'a>(input: &mut &'a [u8], n: usize) -> Result<Vec<&'a str>> {
    (0..n).map(|_| get_str(input)).collect()
}

/// Reads a sorted statespace map: a valid record lists each address once,
/// in ascending order.
fn get_statespace<'a, T>(
    input: &mut &'a [u8],
    min_entry_bytes: usize,
    mut entry: impl FnMut(&mut &'a [u8]) -> Result<T>,
) -> Result<Vec<(i64, T)>> {
    let n = get_len(input, min_entry_bytes)?;
    let mut map = Vec::with_capacity(n);
    for _ in 0..n {
        let address = get_i64(input)?;
        if map.last().is_some_and(|&(last, _)| last >= address) {
            return Err(CodecError::Malformed("statespace map out of order"));
        }
        map.push((address, entry(input)?));
    }
    Ok(map)
}

// ---------------------------------------------------------------------------
// Architecture types
// ---------------------------------------------------------------------------

fn put_alu(out: &mut Vec<u8>, alu: &AluCapability) {
    put_usize(out, alu.max_inputs);
    put_usize(out, alu.max_depth);
    put_usize(out, alu.max_ops);
    put_usize(out, alu.max_multiplies);
    put_usize(out, alu.max_outputs);
    put_usize(out, alu.max_memory_ops);
}

fn get_alu(input: &mut &[u8]) -> Result<AluCapability> {
    Ok(AluCapability {
        max_inputs: get_usize(input)?,
        max_depth: get_usize(input)?,
        max_ops: get_usize(input)?,
        max_multiplies: get_usize(input)?,
        max_outputs: get_usize(input)?,
        max_memory_ops: get_usize(input)?,
    })
}

fn put_tile_config(out: &mut Vec<u8>, config: &TileConfig) {
    put_usize(out, config.num_pps);
    put_usize(out, config.banks_per_pp);
    put_usize(out, config.regs_per_bank);
    put_usize(out, config.mems_per_pp);
    put_usize(out, config.mem_words);
    put_usize(out, config.crossbar_buses);
    put_usize(out, config.mem_ports);
    put_usize(out, config.regbank_write_ports);
    put_usize(out, config.input_move_window);
    put_alu(out, &config.alu);
}

fn get_tile_config(input: &mut &[u8]) -> Result<TileConfig> {
    Ok(TileConfig {
        num_pps: get_usize(input)?,
        banks_per_pp: get_usize(input)?,
        regs_per_bank: get_usize(input)?,
        mems_per_pp: get_usize(input)?,
        mem_words: get_usize(input)?,
        crossbar_buses: get_usize(input)?,
        mem_ports: get_usize(input)?,
        regbank_write_ports: get_usize(input)?,
        input_move_window: get_usize(input)?,
        alu: get_alu(input)?,
    })
}

fn put_array_config(out: &mut Vec<u8>, array: &ArrayConfig) {
    put_usize(out, array.num_tiles);
    put_usize(out, array.links_per_cycle);
    put_usize(out, array.hop_latency);
}

fn get_array_config(input: &mut &[u8]) -> Result<ArrayConfig> {
    Ok(ArrayConfig {
        num_tiles: get_usize(input)?,
        links_per_cycle: get_usize(input)?,
        hop_latency: get_usize(input)?,
    })
}

// The in-memory references are narrower than their 8-byte encodings (the
// format predates the narrowing); a decoded index that does not fit is
// malformed, never truncated.

fn get_narrow<T: TryFrom<usize>>(input: &mut &[u8], what: &'static str) -> Result<T> {
    T::try_from(get_usize(input)?).map_err(|_| CodecError::Malformed(what))
}

fn put_mem_ref(out: &mut Vec<u8>, mem: &MemRef) {
    put_usize(out, mem.pp_index());
    put_u8(out, mem.mem.index() as u8);
    put_usize(out, usize::from(mem.offset));
}

fn get_mem_ref(input: &mut &[u8]) -> Result<MemRef> {
    let pp = get_narrow(input, "PP index out of range")?;
    let mem = match get_u8(input)? {
        0 => MemId::Mem1,
        1 => MemId::Mem2,
        _ => return Err(CodecError::Malformed("mem id out of range")),
    };
    let offset = get_narrow(input, "memory offset out of range")?;
    Ok(MemRef { pp, mem, offset })
}

fn put_reg_ref(out: &mut Vec<u8>, reg: &RegRef) {
    put_usize(out, reg.pp_index());
    put_u8(out, reg.bank.index() as u8);
    put_usize(out, usize::from(reg.index));
}

fn get_reg_ref(input: &mut &[u8]) -> Result<RegRef> {
    let pp = get_narrow(input, "PP index out of range")?;
    let bank = *RegBankName::ALL
        .get(get_u8(input)? as usize)
        .ok_or(CodecError::Malformed("register bank out of range"))?;
    let index = get_narrow(input, "register index out of range")?;
    Ok(RegRef { pp, bank, index })
}

// ---------------------------------------------------------------------------
// Mapping IR
// ---------------------------------------------------------------------------

fn put_value_ref(out: &mut Vec<u8>, value: &ValueRef) {
    match value {
        ValueRef::Const(c) => {
            put_u8(out, 1);
            put_i64(out, *c);
        }
        ValueRef::ScalarInput(i) => {
            put_u8(out, 2);
            put_u32(out, *i);
        }
        ValueRef::MemWord(a) => {
            put_u8(out, 3);
            put_i64(out, *a);
        }
        ValueRef::Op(id) => {
            put_u8(out, 4);
            put_u32(out, id.index() as u32);
        }
    }
}

fn get_value_ref(input: &mut &[u8]) -> Result<ValueRef> {
    Ok(match get_u8(input)? {
        1 => ValueRef::Const(get_i64(input)?),
        2 => ValueRef::ScalarInput(get_u32(input)?),
        3 => ValueRef::MemWord(get_i64(input)?),
        4 => ValueRef::Op(OpId(get_u32(input)?)),
        _ => return Err(CodecError::Malformed("value ref tag")),
    })
}

/// Reads a value reference of a mapping graph with `op_count` operations.
/// A reference to an op at or past the end is malformed: the consumer index
/// built on decode (and every stage reading the graph) would index past the
/// op list.
fn get_graph_value_ref(input: &mut &[u8], op_count: usize) -> Result<ValueRef> {
    match get_value_ref(input)? {
        ValueRef::Op(op) if op.index() >= op_count => {
            Err(CodecError::Malformed("op reference out of range"))
        }
        value => Ok(value),
    }
}

fn op_index<T: PartialEq>(all: &[T], op: &T) -> u8 {
    let index = all
        .iter()
        .position(|o| o == op)
        .expect("every op is listed in ALL");
    index as u8
}

fn put_op_kind(out: &mut Vec<u8>, kind: &OpKind) {
    match kind {
        OpKind::Bin(op) => {
            put_u8(out, 1);
            put_u8(out, op_index(&BinOp::ALL, op));
        }
        OpKind::Un(op) => {
            put_u8(out, 2);
            put_u8(out, op_index(&UnOp::ALL, op));
        }
        OpKind::Mux => put_u8(out, 3),
    }
}

fn get_op_kind(input: &mut &[u8]) -> Result<OpKind> {
    Ok(match get_u8(input)? {
        1 => OpKind::Bin(
            *BinOp::ALL
                .get(get_u8(input)? as usize)
                .ok_or(CodecError::Malformed("binop out of range"))?,
        ),
        2 => OpKind::Un(
            *UnOp::ALL
                .get(get_u8(input)? as usize)
                .ok_or(CodecError::Malformed("unop out of range"))?,
        ),
        3 => OpKind::Mux,
        _ => return Err(CodecError::Malformed("op kind tag")),
    })
}

fn put_mapping_graph(out: &mut Vec<u8>, graph: &MappingGraph) {
    put_str(out, &graph.name);
    put_u32(out, graph.scalar_inputs.len() as u32);
    for name in graph.scalar_inputs.iter() {
        put_str(out, name);
    }
    put_u32(out, graph.op_count() as u32);
    for id in graph.op_ids() {
        let op = graph.op(id);
        put_op_kind(out, &op.kind);
        put_u32(out, op.inputs.len() as u32);
        for input in op.inputs {
            put_value_ref(out, input);
        }
    }
    put_u32(out, graph.mem_writes.len() as u32);
    for write in &graph.mem_writes {
        put_i64(out, write.address);
        put_value_ref(out, &write.value);
        put_usize(out, write.seq);
    }
    put_u32(out, graph.scalar_outputs.len() as u32);
    for (name, value) in graph.scalar_outputs.iter() {
        put_str(out, name);
        put_value_ref(out, &value);
    }
    put_u32(out, graph.mem_reads.len() as u32);
    for address in &graph.mem_reads {
        put_i64(out, *address);
    }
}

fn get_mapping_graph(input: &mut &[u8]) -> Result<MappingGraph> {
    let name = get_str(input)?.to_string();
    let n = get_len(input, 4)?;
    let scalar_inputs = get_strs(input, n)?.into_iter().collect();
    let op_count = get_len(input, 5)?;
    let mut ops = Vec::with_capacity(op_count);
    let mut inputs = Vec::new();
    for _ in 0..op_count {
        let kind = get_op_kind(input)?;
        let nin = get_len(input, 5)?;
        for _ in 0..nin {
            inputs.push(get_graph_value_ref(input, op_count)?);
        }
        ops.push(OpEntry::new(kind, inputs.len()));
    }
    let n = get_len(input, 17)?;
    let mut mem_writes = Vec::with_capacity(n);
    for _ in 0..n {
        let address = get_i64(input)?;
        let value = get_graph_value_ref(input, op_count)?;
        let seq = get_usize(input)?;
        mem_writes.push(MemWrite {
            address,
            value,
            seq,
        });
    }
    let n = get_len(input, 9)?;
    let mut scalar_outputs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(input)?;
        let value = get_graph_value_ref(input, op_count)?;
        scalar_outputs.push((name, value));
    }
    let n = get_len(input, 8)?;
    let mut mem_reads = Vec::with_capacity(n);
    for _ in 0..n {
        mem_reads.push(get_i64(input)?);
    }
    Ok(MappingGraph::from_parts(
        name,
        scalar_inputs,
        ops,
        inputs,
        mem_writes,
        scalar_outputs.into_iter().collect(),
        mem_reads,
    ))
}

fn put_cluster_list(out: &mut Vec<u8>, list: &[ClusterId]) {
    put_u32(out, list.len() as u32);
    for id in list {
        put_u32(out, id.index() as u32);
    }
}

/// Reads a list of ids of a clustering with `clusters` clusters.
fn get_cluster_list(input: &mut &[u8], clusters: usize) -> Result<Vec<ClusterId>> {
    let n = get_len(input, 4)?;
    let mut list = Vec::with_capacity(n);
    for _ in 0..n {
        let id = get_u32(input)?;
        if id as usize >= clusters {
            return Err(CodecError::Malformed("cluster reference out of range"));
        }
        list.push(ClusterId(id));
    }
    Ok(list)
}

fn put_clustered(out: &mut Vec<u8>, clustered: &ClusteredGraph) {
    put_u32(out, clustered.len() as u32);
    for id in clustered.ids() {
        let cluster = clustered.cluster(id);
        put_u32(out, cluster.ops.len() as u32);
        for op in &cluster.ops {
            put_u32(out, op.index() as u32);
        }
    }
    for deps in clustered.deps() {
        put_cluster_list(out, deps);
    }
    for succs in clustered.succs() {
        put_cluster_list(out, succs);
    }
}

/// Reads the clustering of a graph with `op_count` operations.
fn get_clustered(input: &mut &[u8], op_count: usize) -> Result<ClusteredGraph> {
    let n = get_len(input, 4)?;
    let mut clusters = Vec::with_capacity(n);
    for _ in 0..n {
        let nops = get_len(input, 4)?;
        let mut ops = Vec::with_capacity(nops);
        for _ in 0..nops {
            let op = get_u32(input)?;
            if op as usize >= op_count {
                return Err(CodecError::Malformed("op reference out of range"));
            }
            ops.push(OpId(op));
        }
        clusters.push(Cluster { ops });
    }
    let mut deps = Vec::with_capacity(n);
    for _ in 0..n {
        deps.push(get_cluster_list(input, n)?);
    }
    let mut succs = Vec::with_capacity(n);
    for _ in 0..n {
        succs.push(get_cluster_list(input, n)?);
    }
    Ok(ClusteredGraph::from_parts(clusters, deps, succs))
}

fn put_schedule(out: &mut Vec<u8>, schedule: &Schedule) {
    put_u32(out, schedule.levels().len() as u32);
    for level in schedule.levels() {
        put_cluster_list(out, level);
    }
}

/// Reads a schedule of a clustering with `clusters` clusters.
fn get_schedule(input: &mut &[u8], clusters: usize) -> Result<Schedule> {
    let nlevels = get_len(input, 4)?;
    let mut schedule = Schedule::default();
    for level in 0..nlevels {
        for cluster in get_cluster_list(input, clusters)? {
            schedule.place(cluster, level);
        }
    }
    schedule.pad_levels(nlevels);
    Ok(schedule)
}

// ---------------------------------------------------------------------------
// Tile programs
// ---------------------------------------------------------------------------

fn put_location(out: &mut Vec<u8>, location: &Location) {
    match location {
        Location::Reg(r) => {
            put_u8(out, 1);
            put_reg_ref(out, r);
        }
        Location::Mem(m) => {
            put_u8(out, 2);
            put_mem_ref(out, m);
        }
        Location::Constant(c) => {
            put_u8(out, 3);
            put_i64(out, *c);
        }
    }
}

fn get_location(input: &mut &[u8]) -> Result<Location> {
    Ok(match get_u8(input)? {
        1 => Location::Reg(get_reg_ref(input)?),
        2 => Location::Mem(get_mem_ref(input)?),
        3 => Location::Constant(get_i64(input)?),
        _ => return Err(CodecError::Malformed("location tag")),
    })
}

fn put_operand(out: &mut Vec<u8>, operand: &OperandSource) {
    match operand {
        OperandSource::Register(r) => {
            put_u8(out, 1);
            put_reg_ref(out, r);
        }
        OperandSource::Immediate(c) => {
            put_u8(out, 2);
            put_i64(out, *c);
        }
        OperandSource::Internal(i) => {
            put_u8(out, 3);
            put_usize(out, *i);
        }
    }
}

fn get_operand(input: &mut &[u8]) -> Result<OperandSource> {
    Ok(match get_u8(input)? {
        1 => OperandSource::Register(get_reg_ref(input)?),
        2 => OperandSource::Immediate(get_i64(input)?),
        3 => OperandSource::Internal(get_usize(input)?),
        _ => return Err(CodecError::Malformed("operand tag")),
    })
}

fn put_alloc_stats(out: &mut Vec<u8>, stats: &AllocationStats) {
    put_usize(out, stats.cycles);
    put_usize(out, stats.stall_cycles);
    put_usize(out, stats.alu_ops);
    put_usize(out, stats.register_hits);
    put_usize(out, stats.register_misses);
    put_usize(out, stats.mem_writebacks);
    put_usize(out, stats.crossbar_transfers);
    put_usize(out, stats.inter_tile_transfers);
}

fn get_alloc_stats(input: &mut &[u8]) -> Result<AllocationStats> {
    Ok(AllocationStats {
        cycles: get_usize(input)?,
        stall_cycles: get_usize(input)?,
        alu_ops: get_usize(input)?,
        register_hits: get_usize(input)?,
        register_misses: get_usize(input)?,
        mem_writebacks: get_usize(input)?,
        crossbar_transfers: get_usize(input)?,
        inter_tile_transfers: get_usize(input)?,
    })
}

fn put_tile_program(out: &mut Vec<u8>, program: &TileProgram) {
    put_tile_config(out, &program.config);
    put_u32(out, program.cycle_count() as u32);
    for cycle in program.cycles() {
        put_u32(out, cycle.moves.len() as u32);
        for mv in cycle.moves {
            put_value_ref(out, &mv.value);
            put_mem_ref(out, &mv.src);
            put_reg_ref(out, &mv.dst);
            put_bool(out, mv.via_crossbar);
        }
        put_u32(out, cycle.alus.len() as u32);
        for alu in cycle.alus {
            put_usize(out, alu.pp_index());
            put_u32(out, alu.cluster.index() as u32);
            let micro_ops = cycle.micro_ops(alu);
            put_u32(out, micro_ops.len() as u32);
            for micro in micro_ops {
                put_u32(out, micro.op.index() as u32);
                put_op_kind(out, &micro.kind);
                let operands = cycle.operands(micro);
                put_u32(out, operands.len() as u32);
                for operand in operands {
                    put_operand(out, operand);
                }
            }
        }
        put_u32(out, cycle.writebacks.len() as u32);
        for wb in cycle.writebacks {
            put_u32(out, wb.op.index() as u32);
            put_usize(out, usize::from(wb.src_pp));
            put_mem_ref(out, &wb.dest);
            put_bool(out, wb.via_crossbar);
        }
    }
    put_u32(out, program.preload.len() as u32);
    for (value, mem) in &program.preload {
        put_value_ref(out, value);
        put_mem_ref(out, mem);
    }
    put_u32(out, program.scalar_input_names.len() as u32);
    for name in program.scalar_input_names.iter() {
        put_str(out, name);
    }
    put_u32(out, program.scalar_outputs.len() as u32);
    for (name, location) in program.scalar_outputs.iter() {
        put_str(out, name);
        put_location(out, &location);
    }
    // Sorted by address, so equal programs encode to identical bytes
    // (content-addressed storage).
    put_u32(out, program.statespace_map.len() as u32);
    for (address, mem) in &program.statespace_map {
        put_i64(out, *address);
        put_mem_ref(out, mem);
    }
    put_u32(out, program.written_addresses.len() as u32);
    for address in &program.written_addresses {
        put_i64(out, *address);
    }
    put_alloc_stats(out, &program.stats);
}

/// Decodes a tile program straight into the flat layout.
fn get_tile_program(input: &mut &[u8]) -> Result<TileProgram> {
    let config = get_tile_config(input)?;
    let ncycles = get_len(input, 12)?;
    let mut jobs = CycleBuilder::default();
    for _ in 0..ncycles {
        let nmoves = get_len(input, 2)?;
        for _ in 0..nmoves {
            let value = get_value_ref(input)?;
            let src = get_mem_ref(input)?;
            let dst = get_reg_ref(input)?;
            let via_crossbar = get_bool(input)?;
            jobs.moves.push(MoveJob {
                value,
                src,
                dst,
                via_crossbar,
            });
        }
        let nalus = get_len(input, 16)?;
        for _ in 0..nalus {
            let pp = get_narrow(input, "PP index out of range")?;
            let mut alu = jobs.open_alu(pp, ClusterId(get_u32(input)?));
            let nmicro = get_len(input, 9)?;
            for _ in 0..nmicro {
                let op = OpId(get_u32(input)?);
                let kind = get_op_kind(input)?;
                jobs.push_micro_op(&mut alu, op, kind);
                let nops = get_len(input, 9)?;
                for _ in 0..nops {
                    if !jobs.push_operand(get_operand(input)?) {
                        return Err(CodecError::Malformed("more than three operands"));
                    }
                }
            }
            jobs.alus.push(alu);
        }
        let nwb = get_len(input, 2)?;
        for _ in 0..nwb {
            let op = OpId(get_u32(input)?);
            let src_pp = get_narrow(input, "PP index out of range")?;
            let dest = get_mem_ref(input)?;
            let via_crossbar = get_bool(input)?;
            jobs.writebacks.push(WritebackJob {
                op,
                src_pp,
                dest,
                via_crossbar,
            });
        }
        jobs.end_cycle();
    }
    let n = get_len(input, 2)?;
    let mut preload = Vec::with_capacity(n);
    for _ in 0..n {
        let value = get_value_ref(input)?;
        let mem = get_mem_ref(input)?;
        preload.push((value, mem));
    }
    let n = get_len(input, 4)?;
    let scalar_input_names = get_strs(input, n)?.into_iter().collect();
    let n = get_len(input, 5)?;
    let mut scalar_outputs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(input)?;
        let location = get_location(input)?;
        scalar_outputs.push((name, location));
    }
    let statespace_map = get_statespace(input, 25, get_mem_ref)?;
    let n = get_len(input, 8)?;
    let mut written_addresses = Vec::with_capacity(n);
    for _ in 0..n {
        written_addresses.push(get_i64(input)?);
    }
    let stats = get_alloc_stats(input)?;
    Ok(TileProgram {
        config,
        jobs: jobs.finish(),
        preload,
        scalar_input_names,
        scalar_outputs: scalar_outputs.into_iter().collect(),
        statespace_map,
        written_addresses,
        stats,
    })
}

// ---------------------------------------------------------------------------
// Multi-tile mappings
// ---------------------------------------------------------------------------

fn put_cut_edge(out: &mut Vec<u8>, edge: &CutEdge) {
    put_u32(out, edge.op.index() as u32);
    put_usize(out, edge.from);
    put_usize(out, edge.to);
}

fn get_cut_edge(input: &mut &[u8]) -> Result<CutEdge> {
    Ok(CutEdge {
        op: OpId(get_u32(input)?),
        from: get_usize(input)?,
        to: get_usize(input)?,
    })
}

fn put_traffic(out: &mut Vec<u8>, traffic: &TrafficReport) {
    put_u32(out, traffic.edges.len() as u32);
    for edge in &traffic.edges {
        put_cut_edge(out, edge);
    }
    put_u32(out, traffic.input_broadcasts.len() as u32);
    for broadcast in &traffic.input_broadcasts {
        put_value_ref(out, &broadcast.value);
        put_usize(out, broadcast.from);
        put_usize(out, broadcast.to);
    }
    put_u32(out, traffic.per_pair.len() as u32);
    for ((from, to), words) in &traffic.per_pair {
        put_usize(out, *from);
        put_usize(out, *to);
        put_usize(out, *words);
    }
    put_usize(out, traffic.max_link_pressure);
}

fn get_traffic(input: &mut &[u8]) -> Result<TrafficReport> {
    let n = get_len(input, 20)?;
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        edges.push(get_cut_edge(input)?);
    }
    let n = get_len(input, 18)?;
    let mut input_broadcasts = Vec::with_capacity(n);
    for _ in 0..n {
        let value = get_value_ref(input)?;
        let from = get_usize(input)?;
        let to = get_usize(input)?;
        input_broadcasts.push(InputBroadcast { value, from, to });
    }
    let n = get_len(input, 24)?;
    let mut per_pair = Vec::with_capacity(n);
    for _ in 0..n {
        let from = get_usize(input)?;
        let to = get_usize(input)?;
        let words = get_usize(input)?;
        per_pair.push(((from, to), words));
    }
    let max_link_pressure = get_usize(input)?;
    Ok(TrafficReport {
        edges,
        input_broadcasts,
        per_pair,
        max_link_pressure,
    })
}

fn put_multi(out: &mut Vec<u8>, multi: &MultiTileMapping) {
    put_array_config(out, &multi.array);
    let tiles = multi.partition.tiles();
    put_u32(out, tiles.len() as u32);
    for tile in tiles {
        put_usize(out, *tile);
    }
    put_usize(out, multi.partition.num_tiles());
    put_u32(out, multi.schedule.tiles().len() as u32);
    for schedule in multi.schedule.tiles() {
        put_schedule(out, schedule);
    }
    put_usize(out, multi.schedule.level_count());
    let program = &multi.program;
    put_array_config(out, &program.array);
    put_u32(out, program.tiles.len() as u32);
    for tile in &program.tiles {
        put_tile_program(out, tile);
    }
    put_u32(out, program.transfers.len() as u32);
    for transfer in &program.transfers {
        put_u32(out, transfer.op.index() as u32);
        put_usize(out, transfer.from);
        put_mem_ref(out, &transfer.src);
        put_usize(out, transfer.to);
        put_mem_ref(out, &transfer.dst);
        put_usize(out, transfer.depart);
        put_usize(out, transfer.arrive);
    }
    put_u32(out, program.scalar_outputs.len() as u32);
    for (name, (tile, location)) in program.scalar_outputs.iter() {
        put_str(out, name);
        put_usize(out, tile);
        put_location(out, &location);
    }
    put_u32(out, program.statespace_map.len() as u32);
    for (address, (tile, mem)) in &program.statespace_map {
        put_i64(out, *address);
        put_usize(out, *tile);
        put_mem_ref(out, mem);
    }
    put_u32(out, program.written_addresses.len() as u32);
    for address in &program.written_addresses {
        put_i64(out, *address);
    }
    put_alloc_stats(out, &program.stats);
    put_traffic(out, &program.traffic);
}

/// Reads a multi-tile mapping of a clustering with `clusters` clusters.
fn get_multi(input: &mut &[u8], clusters: usize) -> Result<MultiTileMapping> {
    let array = get_array_config(input)?;
    let n = get_len(input, 8)?;
    let mut tiles = Vec::with_capacity(n);
    for _ in 0..n {
        tiles.push(get_usize(input)?);
    }
    let num_tiles = get_usize(input)?;
    let partition = TileAssignment::from_parts(tiles, num_tiles);
    let n = get_len(input, 4)?;
    let mut per_tile = Vec::with_capacity(n);
    for _ in 0..n {
        per_tile.push(get_schedule(input, clusters)?);
    }
    let level_count = get_usize(input)?;
    let schedule = MultiSchedule::from_parts(per_tile, level_count);
    let program_array = get_array_config(input)?;
    let n = get_len(input, 80)?;
    let mut program_tiles = Vec::with_capacity(n);
    for _ in 0..n {
        program_tiles.push(get_tile_program(input)?);
    }
    let n = get_len(input, 54)?;
    let mut transfers = Vec::with_capacity(n);
    for _ in 0..n {
        let op = OpId(get_u32(input)?);
        let from = get_usize(input)?;
        let src = get_mem_ref(input)?;
        let to = get_usize(input)?;
        let dst = get_mem_ref(input)?;
        let depart = get_usize(input)?;
        let arrive = get_usize(input)?;
        transfers.push(TransferJob {
            op,
            from,
            src,
            to,
            dst,
            depart,
            arrive,
        });
    }
    let n = get_len(input, 13)?;
    let mut scalar_outputs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(input)?;
        let tile = get_usize(input)?;
        let location = get_location(input)?;
        scalar_outputs.push((name, (tile, location)));
    }
    let statespace_map = get_statespace(input, 33, |input| {
        let tile = get_usize(input)?;
        Ok((tile, get_mem_ref(input)?))
    })?;
    let n = get_len(input, 8)?;
    let mut written_addresses = Vec::with_capacity(n);
    for _ in 0..n {
        written_addresses.push(get_i64(input)?);
    }
    let stats = get_alloc_stats(input)?;
    let traffic = get_traffic(input)?;
    Ok(MultiTileMapping {
        array,
        partition,
        schedule,
        program: MultiTileProgram {
            array: program_array,
            tiles: program_tiles,
            transfers,
            scalar_outputs: scalar_outputs.into_iter().collect::<Named<_>>(),
            statespace_map,
            written_addresses,
            stats,
            traffic,
        },
    })
}

// ---------------------------------------------------------------------------
// Top-level payloads
// ---------------------------------------------------------------------------

fn put_header(out: &mut Vec<u8>) {
    out.extend_from_slice(MAGIC);
    put_u32(out, VERSION);
    put_u8(out, KIND_POST);
}

fn check_header(input: &mut &[u8]) -> Result<()> {
    if take(input, 4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = get_u32(input)?;
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    if get_u8(input)? != KIND_POST {
        return Err(CodecError::Malformed("payload kind mismatch"));
    }
    Ok(())
}

/// Encodes the post-transform share of a mapping.
pub fn encode_post_transform(artifacts: &PostTransformArtifacts) -> Vec<u8> {
    let mut out = Vec::with_capacity(2048);
    put_header(&mut out);
    put_mapping_graph(&mut out, &artifacts.graph);
    put_clustered(&mut out, &artifacts.clustered);
    put_schedule(&mut out, &artifacts.schedule);
    put_tile_program(&mut out, &artifacts.program);
    match &artifacts.multi {
        None => put_u8(&mut out, 0),
        Some(multi) => {
            put_u8(&mut out, 1);
            put_multi(&mut out, multi);
        }
    }
    put_u64(&mut out, artifacts.fingerprint);
    out
}

/// Decodes a payload written by [`encode_post_transform`].
///
/// # Errors
/// [`CodecError`] on any corruption; never panics.
pub fn decode_post_transform(mut input: &[u8]) -> Result<PostTransformArtifacts> {
    let input = &mut input;
    check_header(input)?;
    let graph = Arc::new(get_mapping_graph(input)?);
    let clustered = Arc::new(get_clustered(input, graph.op_count())?);
    let schedule = Arc::new(get_schedule(input, clustered.len())?);
    let program = Arc::new(get_tile_program(input)?);
    let multi = match get_u8(input)? {
        0 => None,
        1 => Some(Arc::new(get_multi(input, clustered.len())?)),
        _ => return Err(CodecError::Malformed("multi presence tag")),
    };
    let fingerprint = get_u64(input)?;
    if !input.is_empty() {
        return Err(CodecError::Malformed("trailing bytes"));
    }
    Ok(PostTransformArtifacts {
        graph,
        clustered,
        schedule,
        program,
        multi,
        fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Mapper;

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

    /// The post-transform payload of `FIR` mapped onto `tiles` tiles.
    fn post_payload(tiles: usize) -> Vec<u8> {
        let result = Mapper::new().with_tiles(tiles).map_source(FIR).unwrap();
        encode_post_transform(&PostTransformArtifacts::of(&result))
    }

    #[test]
    fn post_transform_artifacts_roundtrip() {
        let result = Mapper::new().with_tiles(2).map_source(FIR).unwrap();
        let artifacts = PostTransformArtifacts::of(&result);
        let bytes = encode_post_transform(&artifacts);
        let decoded = decode_post_transform(&bytes).unwrap();
        assert_eq!(decoded, artifacts);
    }

    /// Decodes `payload` once per byte with that byte flipped.  A flip
    /// either fails cleanly or decodes to *some* value (a flipped payload
    /// byte may still parse); it must never panic.
    fn flip_every_byte<T>(payload: &[u8], decode: impl Fn(&[u8]) -> Result<T>) {
        let mut corrupted = payload.to_vec();
        for (i, &byte) in payload.iter().enumerate() {
            corrupted[i] = byte ^ 0x5A;
            let _ = decode(&corrupted);
            corrupted[i] = byte;
        }
    }

    #[test]
    fn op_references_past_the_op_list_are_malformed() {
        // A one-op graph; `op_input`, `write` and `output` are the values its
        // op, its memory write and its scalar output read.
        let encode = |op_input: ValueRef, write: ValueRef, output: ValueRef| {
            let mut out = Vec::new();
            put_str(&mut out, "g");
            put_u32(&mut out, 0);
            put_u32(&mut out, 1);
            put_op_kind(&mut out, &OpKind::Un(UnOp::Neg));
            put_u32(&mut out, 1);
            put_value_ref(&mut out, &op_input);
            put_u32(&mut out, 1);
            put_i64(&mut out, 0);
            put_value_ref(&mut out, &write);
            put_usize(&mut out, 0);
            put_u32(&mut out, 1);
            put_str(&mut out, "r");
            put_value_ref(&mut out, &output);
            put_u32(&mut out, 0);
            out
        };
        let decode = |bytes: Vec<u8>| get_mapping_graph(&mut bytes.as_slice()).map(|_| ());
        let (op0, op1) = (ValueRef::Op(OpId(0)), ValueRef::Op(OpId(1)));
        assert_eq!(decode(encode(ValueRef::Const(1), op0, op0)), Ok(()));
        let out_of_range = Err(CodecError::Malformed("op reference out of range"));
        assert_eq!(decode(encode(op1, op0, op0)), out_of_range);
        assert_eq!(decode(encode(ValueRef::Const(1), op1, op0)), out_of_range);
        assert_eq!(decode(encode(ValueRef::Const(1), op0, op1)), out_of_range);
    }

    #[test]
    fn indices_wider_than_the_references_are_malformed() {
        let mem = |pp: usize, offset: usize| {
            let mut out = Vec::new();
            put_usize(&mut out, pp);
            put_u8(&mut out, 1);
            put_usize(&mut out, offset);
            get_mem_ref(&mut out.as_slice())
        };
        assert_eq!(mem(255, 65_535), Ok(MemRef::new(255, MemId::Mem2, 65_535)));
        let wide_pp = CodecError::Malformed("PP index out of range");
        assert_eq!(mem(256, 0), Err(wide_pp.clone()));
        assert_eq!(
            mem(0, 65_536),
            Err(CodecError::Malformed("memory offset out of range"))
        );
        let reg = |pp: usize, index: usize| {
            let mut out = Vec::new();
            put_usize(&mut out, pp);
            put_u8(&mut out, 3);
            put_usize(&mut out, index);
            get_reg_ref(&mut out.as_slice())
        };
        assert_eq!(reg(255, 255), Ok(RegRef::new(255, RegBankName::Rd, 255)));
        assert_eq!(reg(256, 0), Err(wide_pp));
        assert_eq!(
            reg(0, 256),
            Err(CodecError::Malformed("register index out of range"))
        );
    }

    #[test]
    fn corrupt_bytes_never_panic() {
        let bytes = post_payload(1);
        // Every truncation fails cleanly.
        for cut in 0..bytes.len().min(512) {
            assert!(decode_post_transform(&bytes[..cut]).is_err());
        }
        assert!(decode_post_transform(&bytes[..bytes.len() - 1]).is_err());
        // Single-byte corruptions anywhere in a one- and a four-tile payload.
        flip_every_byte(&bytes, decode_post_transform);
        flip_every_byte(&post_payload(4), decode_post_transform);
        // Wrong kind tag, version and magic are typed errors.
        let mut wrong_kind = bytes.clone();
        wrong_kind[8] = 1;
        assert_eq!(
            decode_post_transform(&wrong_kind),
            Err(CodecError::Malformed("payload kind mismatch"))
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xEE;
        assert!(matches!(
            decode_post_transform(&wrong_version),
            Err(CodecError::UnsupportedVersion(_))
        ));
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert_eq!(
            decode_post_transform(&wrong_magic),
            Err(CodecError::BadMagic)
        );
    }
}
