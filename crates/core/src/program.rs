//! The tile program: "the job of an FPFA tile for each clock cycle" (Fig. 5).
//!
//! A [`TileProgram`] is the output of the resource-allocation phase and the
//! input of the cycle-accurate simulator. Each cycle ([`CycleJob`]) lists
//!
//! * the register loads ([`MoveJob`]) that bring operands from a local memory
//!   into a register bank,
//! * the ALU work of every processing part ([`AluJob`]),
//! * the write-backs ([`WritebackJob`]) that commit ALU results to a local
//!   memory over the crossbar.
//!
//! The program also records the pre-load image (where kernel inputs and
//! statespace words live before cycle 0), where every scalar output can be
//! read after the last cycle, and the mapping from statespace addresses to
//! physical memory words.
//!
//! # Flat layout
//!
//! A finished program is frozen, once, into a few exactly sized arrays: all
//! moves, ALU jobs, micro-operations, operands and write-backs of every cycle
//! each sit in one array, a per-cycle row of end offsets says which of them
//! belong to which cycle, an ALU job names its micro-operations and a
//! micro-operation its operands by a range of the shared arrays, and the
//! statespace map is a `Vec` sorted by address.  The allocator stages the
//! cycles in growable form and freezes them once, when a tile's allocation
//! ends; the binary codec decodes straight into the flat arrays, and its
//! byte format is the nested layout's, unchanged.  Readers go through slices:
//! [`TileProgram::cycle`] gives a cycle's moves, ALU jobs and write-backs,
//! and [`CycleJob::micro_ops`] and [`CycleJob::operands`] resolve an ALU
//! job's ranges.

use crate::cluster::ClusterId;
use crate::dfg::{Named, Names, OpId, OpKind, ValueRef};
use fpfa_arch::{MemRef, RegRef, TileConfig};
use std::fmt;

/// Where a word lives on the tile.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Location {
    /// In a register.
    Reg(RegRef),
    /// In a local memory word.
    Mem(MemRef),
    /// Nowhere: the value is a compile-time constant.
    Constant(i64),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Reg(r) => write!(f, "{r}"),
            Location::Mem(m) => write!(f, "{m}"),
            Location::Constant(c) => write!(f, "#{c}"),
        }
    }
}

/// Source of one ALU operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OperandSource {
    /// Read from a register of the executing PP.
    Register(RegRef),
    /// An immediate from the configuration.
    Immediate(i64),
    /// The result of an earlier micro-operation of the same cluster (ALU
    /// internal forwarding).
    Internal(usize),
}

/// The most operands one micro-operation reads (a multiplexer's three).
pub const MAX_OPERANDS: usize = 3;

/// One operation executed inside an ALU cluster.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MicroOp {
    /// The mapping-graph operation this micro-op implements.
    pub op: OpId,
    /// What it computes.
    pub kind: OpKind,
    /// Start of its operands (in port order) in the program's operand array.
    operands_start: u32,
    /// Number of operands, at most [`MAX_OPERANDS`].
    operands_len: u8,
}

/// The work of one ALU in one cycle: a cluster of micro-operations.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AluJob {
    /// The processing part executing the cluster.
    pub pp: u8,
    /// The cluster being executed.
    pub cluster: ClusterId,
    /// Start of its micro-operations (in dependence order) in the program's
    /// micro-operation array.
    micro_start: u32,
    /// End of its micro-operations.
    micro_end: u32,
}

impl AluJob {
    /// The processing part as an index.
    pub fn pp_index(&self) -> usize {
        usize::from(self.pp)
    }

    /// Number of micro-operations the job executes.
    pub fn micro_op_count(&self) -> usize {
        (self.micro_end - self.micro_start) as usize
    }
}

/// A register load: one word moved from a local memory into a register.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MoveJob {
    /// The value being moved (for tracing).
    pub value: ValueRef,
    /// Source memory word.
    pub src: MemRef,
    /// Destination register.
    pub dst: RegRef,
    /// `true` when the move crosses processing parts and therefore occupies a
    /// crossbar bus.
    pub via_crossbar: bool,
}

/// A write-back: an ALU result committed to a local memory.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WritebackJob {
    /// The operation whose result is written.
    pub op: OpId,
    /// The processing part that produced the result.
    pub src_pp: u8,
    /// Destination memory word.
    pub dest: MemRef,
    /// `true` when the write-back crosses processing parts over the crossbar.
    pub via_crossbar: bool,
}

const _: () = assert!(std::mem::size_of::<MoveJob>() <= 32);
const _: () = assert!(std::mem::size_of::<WritebackJob>() <= 16);
const _: () = assert!(std::mem::size_of::<OperandSource>() <= 16);

/// Everything the tile does in one clock cycle: a view into the program's
/// flat arrays.
#[derive(Clone, Copy, Debug)]
pub struct CycleJob<'p> {
    /// Register loads performed this cycle.
    pub moves: &'p [MoveJob],
    /// ALU work, at most one job per processing part.
    pub alus: &'p [AluJob],
    /// Results committed to memory this cycle.
    pub writebacks: &'p [WritebackJob],
    micro_ops: &'p [MicroOp],
    operands: &'p [OperandSource],
}

impl<'p> CycleJob<'p> {
    /// `true` when the cycle does nothing (a pure stall).
    pub fn is_idle(&self) -> bool {
        self.moves.is_empty() && self.alus.is_empty() && self.writebacks.is_empty()
    }

    /// Number of ALUs busy this cycle.
    pub fn busy_alus(&self) -> usize {
        self.alus.len()
    }

    /// The micro-operations of one of this cycle's ALU jobs, in dependence
    /// order.
    pub fn micro_ops(&self, alu: &AluJob) -> &'p [MicroOp] {
        &self.micro_ops[alu.micro_start as usize..alu.micro_end as usize]
    }

    /// The operands of one of this cycle's micro-operations, in port order.
    pub fn operands(&self, micro: &MicroOp) -> &'p [OperandSource] {
        let start = micro.operands_start as usize;
        &self.operands[start..start + usize::from(micro.operands_len)]
    }
}

/// Converts an array length to a flat-layout offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a program with fewer than 2^32 jobs of each kind")
}

/// A program's flat arrays in growable form, while the codec or the
/// allocator's freeze appends cycles to them.  An ALU job's micro-operations
/// are appended (with [`CycleBuilder::open_alu`] and the two push methods)
/// before the job itself.
#[derive(Default)]
pub(crate) struct CycleBuilder {
    ends: Vec<[u32; 3]>,
    pub(crate) moves: Vec<MoveJob>,
    pub(crate) alus: Vec<AluJob>,
    micro_ops: Vec<MicroOp>,
    operands: Vec<OperandSource>,
    pub(crate) writebacks: Vec<WritebackJob>,
}

impl CycleBuilder {
    /// Opens an ALU job whose micro-operations are the ones pushed next.
    pub(crate) fn open_alu(&self, pp: u8, cluster: ClusterId) -> AluJob {
        let at = offset(self.micro_ops.len());
        AluJob {
            pp,
            cluster,
            micro_start: at,
            micro_end: at,
        }
    }

    /// Appends a micro-operation to `alu`, the job opened last; its operands
    /// are the ones pushed next.
    pub(crate) fn push_micro_op(&mut self, alu: &mut AluJob, op: OpId, kind: OpKind) {
        self.micro_ops.push(MicroOp {
            op,
            kind,
            operands_start: offset(self.operands.len()),
            operands_len: 0,
        });
        alu.micro_end = offset(self.micro_ops.len());
    }

    /// Appends an operand to the last micro-operation; `false` (and nothing
    /// appended) when it already has [`MAX_OPERANDS`].
    pub(crate) fn push_operand(&mut self, operand: OperandSource) -> bool {
        match self.micro_ops.last_mut() {
            Some(micro) if usize::from(micro.operands_len) < MAX_OPERANDS => {
                micro.operands_len += 1;
                self.operands.push(operand);
                true
            }
            _ => false,
        }
    }

    /// Closes the current cycle: the moves, ALU jobs and write-backs pushed
    /// since the last call are its jobs.
    pub(crate) fn end_cycle(&mut self) {
        self.ends.push([
            offset(self.moves.len()),
            offset(self.alus.len()),
            offset(self.writebacks.len()),
        ]);
    }

    /// The cycles closed so far, each array sized exactly.
    pub(crate) fn finish(self) -> FlatCycles {
        FlatCycles {
            ends: self.ends.into_boxed_slice(),
            moves: self.moves.into_boxed_slice(),
            alus: self.alus.into_boxed_slice(),
            micro_ops: self.micro_ops.into_boxed_slice(),
            operands: self.operands.into_boxed_slice(),
            writebacks: self.writebacks.into_boxed_slice(),
        }
    }
}

/// The per-cycle jobs of a program in the flat layout.
#[derive(Clone, PartialEq, Debug, Default)]
pub(crate) struct FlatCycles {
    /// Per cycle, where its moves, ALU jobs and write-backs end; each starts
    /// where the previous cycle's end.
    ends: Box<[[u32; 3]]>,
    moves: Box<[MoveJob]>,
    alus: Box<[AluJob]>,
    micro_ops: Box<[MicroOp]>,
    operands: Box<[OperandSource]>,
    writebacks: Box<[WritebackJob]>,
}

/// Counters filled in by the allocator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AllocationStats {
    /// Total clock cycles of the program.
    pub cycles: usize,
    /// Cycles that only load registers (inserted by the Fig. 5 rule).
    pub stall_cycles: usize,
    /// ALU operations executed (micro-operations).
    pub alu_ops: usize,
    /// Operand reads satisfied from a register already holding the value.
    pub register_hits: usize,
    /// Operand reads that required a memory-to-register move.
    pub register_misses: usize,
    /// Results written back to memory.
    pub mem_writebacks: usize,
    /// Values routed over the crossbar (moves plus write-backs that cross
    /// processing parts).
    pub crossbar_transfers: usize,
    /// Values routed over the inter-tile interconnect (always zero for
    /// single-tile programs; filled in by the multi-tile allocator).
    pub inter_tile_transfers: usize,
}

impl AllocationStats {
    /// Fraction of operand reads served by a register that already held the
    /// value (`None` when nothing was read).
    pub fn register_hit_rate(&self) -> Option<f64> {
        let total = self.register_hits + self.register_misses;
        if total == 0 {
            None
        } else {
            Some(self.register_hits as f64 / total as f64)
        }
    }
}

/// A fully allocated program for one FPFA tile, in the flat layout of the
/// module docs.
#[derive(Clone, PartialEq, Debug)]
pub struct TileProgram {
    /// The tile configuration the program was allocated for.
    pub config: TileConfig,
    /// Per-cycle jobs.
    pub(crate) jobs: FlatCycles,
    /// Values that must be present in memory before cycle 0 (kernel inputs
    /// and statespace words), with their locations.
    pub preload: Vec<(ValueRef, MemRef)>,
    /// Names of the scalar kernel inputs, indexed by
    /// [`ValueRef::ScalarInput`].
    pub scalar_input_names: Names,
    /// Where each scalar output can be read after the last cycle.
    pub scalar_outputs: Named<Location>,
    /// Physical location of every statespace address the kernel touches,
    /// sorted by address.
    pub statespace_map: Vec<(i64, MemRef)>,
    /// Statespace addresses written by the kernel.
    pub written_addresses: Vec<i64>,
    /// Allocation counters.
    pub stats: AllocationStats,
}

impl TileProgram {
    /// Number of clock cycles.
    pub fn cycle_count(&self) -> usize {
        self.jobs.ends.len()
    }

    /// The jobs of cycle `index`.
    ///
    /// # Panics
    /// Panics when `index >= self.cycle_count()`.
    pub fn cycle(&self, index: usize) -> CycleJob<'_> {
        let jobs = &self.jobs;
        let [moves, alus, writebacks] = jobs.ends[index].map(|end| end as usize);
        let [moves_start, alus_start, writebacks_start] =
            index.checked_sub(1).map_or([0; 3], |previous| {
                jobs.ends[previous].map(|end| end as usize)
            });
        CycleJob {
            moves: &jobs.moves[moves_start..moves],
            alus: &jobs.alus[alus_start..alus],
            writebacks: &jobs.writebacks[writebacks_start..writebacks],
            micro_ops: &jobs.micro_ops,
            operands: &jobs.operands,
        }
    }

    /// The jobs of every cycle, in order.
    pub fn cycles(&self) -> impl ExactSizeIterator<Item = CycleJob<'_>> + '_ {
        (0..self.cycle_count()).map(|index| self.cycle(index))
    }

    /// Name of the scalar kernel input with the given index, if any.
    pub fn scalar_input_name(&self, index: usize) -> Option<&str> {
        self.scalar_input_names.get(index)
    }

    /// Average number of busy ALUs over all cycles.
    pub fn alu_utilization(&self) -> f64 {
        if self.cycle_count() == 0 {
            return 0.0;
        }
        self.jobs.alus.len() as f64 / (self.cycle_count() * self.config.num_pps) as f64
    }

    /// Human-readable per-cycle listing (the Fig. 5 "job of an FPFA tile for
    /// each clock cycle").
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (i, cycle) in self.cycles().enumerate() {
            out.push_str(&format!("cycle {i:3}:"));
            if cycle.is_idle() {
                out.push_str(" (idle)\n");
                continue;
            }
            out.push('\n');
            for mv in cycle.moves {
                out.push_str(&format!(
                    "  move  {} -> {}   ({}{})\n",
                    mv.src,
                    mv.dst,
                    mv.value,
                    if mv.via_crossbar { ", crossbar" } else { "" }
                ));
            }
            for alu in cycle.alus {
                let ops: Vec<String> = cycle
                    .micro_ops(alu)
                    .iter()
                    .map(|m| m.kind.mnemonic())
                    .collect();
                out.push_str(&format!(
                    "  alu   pp{} executes {} [{}]\n",
                    alu.pp,
                    alu.cluster,
                    ops.join(" ")
                ));
            }
            for wb in cycle.writebacks {
                out.push_str(&format!(
                    "  store {} -> {}{}\n",
                    wb.op,
                    wb.dest,
                    if wb.via_crossbar { "   (crossbar)" } else { "" }
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpfa_arch::{MemId, RegBankName};

    #[test]
    fn cycles_are_views_into_the_flat_arrays() {
        let mut builder = CycleBuilder::default();
        builder.end_cycle();
        builder.moves.push(MoveJob {
            value: ValueRef::Const(0),
            src: MemRef::new(0, MemId::Mem1, 0),
            dst: RegRef::new(0, RegBankName::Ra, 0),
            via_crossbar: false,
        });
        let mut alu = builder.open_alu(1, ClusterId(0));
        builder.push_micro_op(&mut alu, OpId(0), OpKind::Un(fpfa_cdfg::UnOp::Neg));
        for _ in 0..MAX_OPERANDS {
            assert!(builder.push_operand(OperandSource::Immediate(4)));
        }
        assert!(!builder.push_operand(OperandSource::Immediate(5)));
        builder.alus.push(alu);
        builder.end_cycle();
        let program = TileProgram {
            config: TileConfig::paper(),
            jobs: builder.finish(),
            preload: Vec::new(),
            scalar_input_names: Names::default(),
            scalar_outputs: Named::default(),
            statespace_map: Vec::new(),
            written_addresses: Vec::new(),
            stats: AllocationStats::default(),
        };
        assert_eq!(program.cycle_count(), 2);
        assert!(program.cycle(0).is_idle());
        let cycle = program.cycle(1);
        assert_eq!((cycle.moves.len(), cycle.busy_alus()), (1, 1));
        let micro = cycle.micro_ops(&cycle.alus[0]);
        assert_eq!(micro.len(), 1);
        assert_eq!(cycle.operands(&micro[0]), [OperandSource::Immediate(4); 3]);
    }

    #[test]
    fn stats_hit_rate() {
        let stats = AllocationStats {
            register_hits: 3,
            register_misses: 1,
            ..AllocationStats::default()
        };
        assert!((stats.register_hit_rate().unwrap() - 0.75).abs() < 1e-9);
        assert_eq!(AllocationStats::default().register_hit_rate(), None);
    }

    #[test]
    fn location_display() {
        assert_eq!(Location::Constant(5).to_string(), "#5");
        assert_eq!(
            Location::Mem(MemRef::new(1, MemId::Mem2, 3)).to_string(),
            "pp1.MEM2[3]"
        );
        assert_eq!(
            Location::Reg(RegRef::new(2, RegBankName::Rb, 1)).to_string(),
            "pp2.Rb[1]"
        );
    }
}
