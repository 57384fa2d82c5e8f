//! Cycle-by-cycle execution of tile programs.
//!
//! One cycle loop executes the tile programs of an array of any size in
//! lock-step. [`Simulator`] runs one [`TileProgram`] — the paper's single
//! tile — as a one-tile view of that loop;
//! [`MultiSimulator`](crate::multi::MultiSimulator) runs a whole array
//! program.

use crate::error::SimError;
use crate::trace::{CycleTrace, Trace};
use fpfa_arch::{
    ArchError, ArrayConfig, EnergyModel, EnergyReport, EventCounts, MemRef, RegRef, Tile,
    TileArray, TileId,
};
use fpfa_cdfg::StateSpace;
use fpfa_core::multi::TransferJob;
use fpfa_core::program::{CycleJob, Location, OperandSource};
use fpfa_core::{OpId, OpKind, TileProgram, ValueRef};
use std::collections::HashMap;

/// Run-time inputs of a kernel: scalar values plus the initial statespace.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SimInputs {
    /// Values of the named scalar kernel inputs.
    pub scalars: HashMap<String, i64>,
    /// Initial statespace (array contents).
    pub statespace: StateSpace,
}

impl SimInputs {
    /// Creates empty inputs.
    pub fn new() -> Self {
        SimInputs::default()
    }

    /// Sets a scalar input.
    pub fn scalar(mut self, name: impl Into<String>, value: i64) -> Self {
        self.scalars.insert(name.into(), value);
        self
    }

    /// Loads an array at a base address of the statespace.
    pub fn array(mut self, base: i64, values: &[i64]) -> Self {
        self.statespace.store_array(base, values);
        self
    }
}

/// The result of one simulation.
#[derive(Clone, PartialEq, Debug)]
pub struct SimOutcome {
    /// Scalar outputs by name.
    pub scalars: HashMap<String, i64>,
    /// The final statespace (initial contents overlaid with every address the
    /// kernel wrote).
    pub final_statespace: StateSpace,
    /// Architectural event counts.
    pub counts: EventCounts,
    /// Per-cycle trace.
    pub trace: Trace,
}

impl SimOutcome {
    /// Value of a scalar output.
    pub fn scalar(&self, name: &str) -> Option<i64> {
        self.scalars.get(name).copied()
    }

    /// Energy estimate under the given model.
    pub fn energy(&self, model: &EnergyModel) -> EnergyReport {
        model.report(self.counts)
    }
}

/// The cycle-accurate simulator of one tile program.
#[derive(Debug)]
pub struct Simulator<'p> {
    program: &'p TileProgram,
    check_structure: bool,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for a program.
    pub fn new(program: &'p TileProgram) -> Self {
        Simulator {
            program,
            check_structure: true,
        }
    }

    /// Disables the per-cycle structural re-checks (ports, buses, ALU
    /// capability). Only useful for performance experiments on very large
    /// programs; the default re-checks everything.
    pub fn without_structural_checks(mut self) -> Self {
        self.check_structure = false;
        self
    }

    /// Executes the program: the array cycle loop on a one-tile view of it.
    ///
    /// # Errors
    /// Returns a [`SimError`] when an input is missing, a structural
    /// constraint is violated, or the program reads values that were never
    /// produced.
    pub fn run(&self, inputs: &SimInputs) -> Result<SimOutcome, SimError> {
        let program = self.program;
        ArrayView {
            array: ArrayConfig::single_tile(),
            tiles: std::slice::from_ref(program),
            transfers: &[],
            input_broadcasts: 0,
            scalar_outputs: program
                .scalar_outputs
                .iter()
                .map(|(name, location)| (name.as_str(), 0, *location))
                .collect(),
            statespace_map: program
                .statespace_map
                .iter()
                .map(|(&addr, &home)| (addr, 0, home))
                .collect(),
        }
        .run(inputs, self.check_structure)
    }
}

/// What the cycle loop executes: the per-tile programs of an array on one
/// global timeline, the transfers between the tiles, and where the outputs
/// can be read after the last cycle. A lone [`TileProgram`] is the view of a
/// one-tile array without transfers.
pub(crate) struct ArrayView<'p> {
    pub(crate) array: ArrayConfig,
    pub(crate) tiles: &'p [TileProgram],
    pub(crate) transfers: &'p [TransferJob],
    /// Kernel-input words copied to a non-home tile while the statespace is
    /// loaded.
    pub(crate) input_broadcasts: usize,
    pub(crate) scalar_outputs: Vec<(&'p str, TileId, Location)>,
    pub(crate) statespace_map: Vec<(i64, TileId, MemRef)>,
}

impl ArrayView<'_> {
    /// Runs every tile in lock-step on one global clock, in the three steps
    /// per cycle the [`multi`](crate::multi) module describes; with
    /// `check_structure` each cycle is re-checked against each tile's ports,
    /// buses and ALU capability and the interconnect's link budget.
    pub(crate) fn run(
        &self,
        inputs: &SimInputs,
        check_structure: bool,
    ) -> Result<SimOutcome, SimError> {
        let tile_config = self
            .tiles
            .first()
            .map(|tile| tile.config)
            .unwrap_or_default();
        let mut array = TileArray::new(tile_config, self.array)
            .map_err(|source| SimError::Arch { cycle: 0, source })?;
        let mut counts = EventCounts::default();
        let mut trace = Trace::default();
        let mut results: HashMap<OpId, i64> = HashMap::new();

        // ------------------------------------------------------------------
        // Pre-load every tile's kernel inputs.
        // ------------------------------------------------------------------
        // Inputs replicated beyond their home tile cross the interconnect
        // while the statespace is loaded; count those words so the
        // simulator's transfer count and energy agree with the allocator's
        // traffic report.
        counts.inter_tile_transfers += self.input_broadcasts as u64;
        for (tile_id, tile_program) in self.tiles.iter().enumerate() {
            for (value, home) in &tile_program.preload {
                let word =
                    match value {
                        ValueRef::Const(c) => *c,
                        ValueRef::MemWord(addr) => {
                            inputs.statespace.fetch(*addr).ok_or_else(|| {
                                SimError::MissingInput {
                                    what: format!("statespace word at address {addr}"),
                                }
                            })?
                        }
                        ValueRef::ScalarInput(index) => {
                            // The program keeps the kernel's scalar-input names
                            // in index order; the caller supplies values by name.
                            let name = tile_program.scalar_input_name(*index as usize).ok_or_else(
                                || SimError::MissingInput {
                                    what: format!("scalar input #{index}"),
                                },
                            )?;
                            *inputs
                                .scalars
                                .get(name)
                                .ok_or_else(|| SimError::MissingInput {
                                    what: format!("scalar input `{name}`"),
                                })?
                        }
                        ValueRef::Op(op) => {
                            return Err(SimError::MissingInput {
                                what: format!("pre-load of computed value {op}"),
                            })
                        }
                    };
                let tile = array
                    .tile_mut(tile_id)
                    .map_err(|source| SimError::Arch { cycle: 0, source })?;
                write_mem(tile, *home, word, 0)?;
            }
        }

        // Transfers grouped by departure and arrival cycle.
        let mut departing: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut arriving: HashMap<usize, Vec<usize>> = HashMap::new();
        for (index, transfer) in self.transfers.iter().enumerate() {
            departing.entry(transfer.depart).or_default().push(index);
            arriving.entry(transfer.arrive).or_default().push(index);
        }
        let mut in_flight: HashMap<usize, i64> = HashMap::new();

        // ------------------------------------------------------------------
        // Global cycle loop.
        // ------------------------------------------------------------------
        let total_cycles = self.tiles.first().map_or(0, TileProgram::cycle_count);
        for cycle_index in 0..total_cycles {
            let mut cycle_trace = CycleTrace {
                cycle: cycle_index,
                ..CycleTrace::default()
            };

            // 1. Departures: read the source words into the in-flight buffer.
            if let Some(indices) = departing.get(&cycle_index) {
                if check_structure && indices.len() > self.array.links_per_cycle {
                    return Err(SimError::Arch {
                        cycle: cycle_index,
                        source: ArchError::InterconnectOversubscribed {
                            requested: indices.len(),
                            available: self.array.links_per_cycle,
                        },
                    });
                }
                for &index in indices {
                    let transfer = &self.transfers[index];
                    let tile = array.tile(transfer.from).map_err(|source| SimError::Arch {
                        cycle: cycle_index,
                        source,
                    })?;
                    let word = read_mem(tile, transfer.src, cycle_index)?;
                    in_flight.insert(index, word);
                    counts.mem_reads += 1;
                }
            }

            // 2. Every tile executes its own jobs for this cycle.
            for (tile_id, tile_program) in self.tiles.iter().enumerate() {
                let cycle = &tile_program.cycles[cycle_index];
                if check_structure {
                    check_cycle(&tile_program.config, cycle_index, cycle)?;
                }
                let tile = array.tile_mut(tile_id).map_err(|source| SimError::Arch {
                    cycle: cycle_index,
                    source,
                })?;
                execute_cycle(
                    tile,
                    cycle_index,
                    cycle,
                    &mut results,
                    &mut counts,
                    &mut cycle_trace,
                )?;
            }

            // 3. Arrivals: commit in-flight words to the destination tiles.
            if let Some(indices) = arriving.get(&cycle_index) {
                for &index in indices {
                    let transfer = &self.transfers[index];
                    let word = in_flight.remove(&index).ok_or(SimError::MissingResult {
                        cycle: cycle_index,
                        op: transfer.op,
                    })?;
                    let tile = array
                        .tile_mut(transfer.to)
                        .map_err(|source| SimError::Arch {
                            cycle: cycle_index,
                            source,
                        })?;
                    write_mem(tile, transfer.dst, word, cycle_index)?;
                    counts.mem_writes += 1;
                    counts.inter_tile_transfers += 1;
                }
            }

            counts.cycles += 1;
            trace.cycles.push(cycle_trace);
        }

        // ------------------------------------------------------------------
        // Read back outputs.
        // ------------------------------------------------------------------
        let tile_at_end = |tile_id: TileId| {
            array.tile(tile_id).map_err(|source| SimError::Arch {
                cycle: total_cycles,
                source,
            })
        };
        let mut scalars = HashMap::new();
        for &(name, tile_id, location) in &self.scalar_outputs {
            let value = match location {
                Location::Constant(c) => c,
                Location::Mem(mem) => read_mem(tile_at_end(tile_id)?, mem, total_cycles)?,
                Location::Reg(reg) => read_reg(tile_at_end(tile_id)?, reg, total_cycles)?,
            };
            scalars.insert(name.to_string(), value);
        }

        let mut final_statespace = inputs.statespace.clone();
        for &(addr, tile_id, home) in &self.statespace_map {
            let value = read_mem(tile_at_end(tile_id)?, home, total_cycles)?;
            final_statespace.store(addr, value);
        }

        Ok(SimOutcome {
            scalars,
            final_statespace,
            counts,
            trace,
        })
    }
}

/// Executes one tile's jobs for one cycle on the given tile state.
pub(crate) fn execute_cycle(
    tile: &mut Tile,
    cycle_index: usize,
    cycle: &CycleJob,
    results: &mut HashMap<OpId, i64>,
    counts: &mut EventCounts,
    cycle_trace: &mut CycleTrace,
) -> Result<(), SimError> {
    // Register loads.
    for mv in &cycle.moves {
        let word = read_mem(tile, mv.src, cycle_index)?;
        write_reg(tile, mv.dst, word, cycle_index)?;
        counts.mem_reads += 1;
        counts.reg_writes += 1;
        if mv.via_crossbar {
            counts.crossbar_transfers += 1;
            cycle_trace.crossbar_transfers += 1;
        }
        cycle_trace.moves += 1;
    }

    // ALU execution.
    for alu in &cycle.alus {
        let mut internal: Vec<i64> = Vec::with_capacity(alu.micro_ops.len());
        for micro in &alu.micro_ops {
            let mut operands = Vec::with_capacity(micro.operands.len());
            for source in &micro.operands {
                let value = match source {
                    OperandSource::Immediate(c) => *c,
                    OperandSource::Register(reg) => {
                        counts.reg_reads += 1;
                        read_reg(tile, *reg, cycle_index)?
                    }
                    OperandSource::Internal(pos) => {
                        *internal.get(*pos).ok_or(SimError::BadInternalOperand {
                            cycle: cycle_index,
                            op: micro.op,
                        })?
                    }
                };
                operands.push(value);
            }
            let result = eval_op(micro.kind, &operands).ok_or(SimError::DivisionByZero {
                cycle: cycle_index,
                op: micro.op,
            })?;
            internal.push(result);
            results.insert(micro.op, result);
            counts.alu_ops += 1;
            cycle_trace.alu_ops += 1;
        }
        cycle_trace.busy_alus += 1;
    }

    // Write-backs.
    for wb in &cycle.writebacks {
        let value = *results.get(&wb.op).ok_or(SimError::MissingResult {
            cycle: cycle_index,
            op: wb.op,
        })?;
        write_mem(tile, wb.dest, value, cycle_index)?;
        counts.mem_writes += 1;
        if wb.via_crossbar {
            counts.crossbar_transfers += 1;
            cycle_trace.crossbar_transfers += 1;
        }
        cycle_trace.writebacks += 1;
    }
    Ok(())
}

/// Re-checks the structural constraints of one cycle against a tile
/// configuration.
pub(crate) fn check_cycle(
    config: &fpfa_arch::TileConfig,
    cycle_index: usize,
    cycle: &CycleJob,
) -> Result<(), SimError> {
    {
        // One cluster per PP.
        let mut pps_seen: Vec<usize> = Vec::new();
        for alu in &cycle.alus {
            if pps_seen.contains(&alu.pp) {
                return Err(SimError::AluConflict {
                    cycle: cycle_index,
                    pp: alu.pp,
                });
            }
            pps_seen.push(alu.pp);
            // ALU capability: count ops, multiplies, depth (approximated by
            // the number of internal dependencies on the longest chain),
            // register operands.
            let ops = alu.micro_ops.len();
            let multiplies = alu
                .micro_ops
                .iter()
                .filter(|m| m.kind.is_multiply())
                .count();
            let mut depth = vec![1usize; ops];
            for (i, micro) in alu.micro_ops.iter().enumerate() {
                for source in &micro.operands {
                    if let OperandSource::Internal(pos) = source {
                        if *pos < i {
                            depth[i] = depth[i].max(depth[*pos] + 1);
                        }
                    }
                }
            }
            let max_depth = depth.iter().copied().max().unwrap_or(0);
            let register_inputs: std::collections::HashSet<RegRef> = alu
                .micro_ops
                .iter()
                .flat_map(|m| m.operands.iter())
                .filter_map(|s| match s {
                    OperandSource::Register(r) => Some(*r),
                    _ => None,
                })
                .collect();
            if let Some(reason) = config.alu.check(
                register_inputs.len(),
                max_depth,
                ops,
                multiplies,
                config.alu.max_outputs,
                0,
            ) {
                return Err(SimError::CapabilityViolated {
                    cycle: cycle_index,
                    pp: alu.pp,
                    reason,
                });
            }
        }
        // Memory ports.
        let mut mem_accesses: HashMap<(usize, fpfa_arch::MemId), usize> = HashMap::new();
        for mv in &cycle.moves {
            *mem_accesses.entry((mv.src.pp, mv.src.mem)).or_insert(0) += 1;
        }
        for wb in &cycle.writebacks {
            *mem_accesses.entry((wb.dest.pp, wb.dest.mem)).or_insert(0) += 1;
        }
        for ((pp, mem), used) in &mem_accesses {
            if *used > config.mem_ports {
                return Err(SimError::Arch {
                    cycle: cycle_index,
                    source: ArchError::PortConflict {
                        resource: format!("pp{pp}.{mem}"),
                        requested: *used,
                        available: config.mem_ports,
                    },
                });
            }
        }
        // Crossbar buses.
        let transfers = cycle.moves.iter().filter(|m| m.via_crossbar).count()
            + cycle.writebacks.iter().filter(|w| w.via_crossbar).count();
        if transfers > config.crossbar_buses {
            return Err(SimError::Arch {
                cycle: cycle_index,
                source: ArchError::CrossbarOversubscribed {
                    requested: transfers,
                    available: config.crossbar_buses,
                },
            });
        }
        // Register-bank write ports.
        let mut bank_writes: HashMap<(usize, fpfa_arch::RegBankName), usize> = HashMap::new();
        for mv in &cycle.moves {
            *bank_writes.entry((mv.dst.pp, mv.dst.bank)).or_insert(0) += 1;
        }
        for ((pp, bank), used) in &bank_writes {
            if *used > config.regbank_write_ports {
                return Err(SimError::Arch {
                    cycle: cycle_index,
                    source: ArchError::PortConflict {
                        resource: format!("pp{pp}.{bank}"),
                        requested: *used,
                        available: config.regbank_write_ports,
                    },
                });
            }
        }
        Ok(())
    }
}

pub(crate) fn eval_op(kind: OpKind, operands: &[i64]) -> Option<i64> {
    match kind {
        OpKind::Bin(op) => op.eval(operands[0], operands[1]),
        OpKind::Un(op) => Some(op.eval(operands[0])),
        OpKind::Mux => Some(if operands[0] != 0 {
            operands[1]
        } else {
            operands[2]
        }),
    }
}

pub(crate) fn read_mem(tile: &Tile, mem: MemRef, cycle: usize) -> Result<i64, SimError> {
    tile.pp(mem.pp)
        .and_then(|pp| pp.memory(mem.mem))
        .and_then(|m| m.read(mem.offset))
        .map_err(|source| SimError::Arch { cycle, source })
}

pub(crate) fn write_mem(
    tile: &mut Tile,
    mem: MemRef,
    value: i64,
    cycle: usize,
) -> Result<(), SimError> {
    tile.pp_mut(mem.pp)
        .and_then(|pp| pp.memory_mut(mem.mem))
        .and_then(|m| m.write(mem.offset, value))
        .map_err(|source| SimError::Arch { cycle, source })
}

pub(crate) fn read_reg(tile: &Tile, reg: RegRef, cycle: usize) -> Result<i64, SimError> {
    tile.pp(reg.pp)
        .and_then(|pp| pp.bank(reg.bank))
        .and_then(|b| b.read(reg.index))
        .map_err(|source| SimError::Arch { cycle, source })
}

pub(crate) fn write_reg(
    tile: &mut Tile,
    reg: RegRef,
    value: i64,
    cycle: usize,
) -> Result<(), SimError> {
    tile.pp_mut(reg.pp)
        .and_then(|pp| pp.bank_mut(reg.bank))
        .and_then(|b| b.write(reg.index, value))
        .map_err(|source| SimError::Arch { cycle, source })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpfa_core::pipeline::Mapper;

    const FIR: &str = r#"
        void main() {
            int a[4];
            int c[4];
            int sum;
            int i;
            sum = 0; i = 0;
            while (i < 4) { sum = sum + a[i] * c[i]; i = i + 1; }
        }
    "#;

    fn fir_inputs() -> SimInputs {
        SimInputs::new()
            .array(0, &[1, 2, 3, 4])
            .array(4, &[10, 20, 30, 40])
    }

    #[test]
    fn executes_the_fir_kernel_correctly() {
        let mapping = Mapper::new().map_source(FIR).unwrap();
        let outcome = Simulator::new(&mapping.program).run(&fir_inputs()).unwrap();
        assert_eq!(outcome.scalar("sum"), Some(10 + 40 + 90 + 160));
        assert_eq!(outcome.scalar("i"), Some(4));
        assert_eq!(
            outcome.counts.cycles as usize,
            mapping.program.cycle_count()
        );
        assert!(outcome.counts.alu_ops >= 7);
        assert!(!outcome.trace.is_empty());
    }

    #[test]
    fn missing_array_data_is_reported() {
        let mapping = Mapper::new().map_source(FIR).unwrap();
        let err = Simulator::new(&mapping.program)
            .run(&SimInputs::new())
            .unwrap_err();
        assert!(matches!(err, SimError::MissingInput { .. }));
    }

    #[test]
    fn scalar_inputs_are_passed_by_name() {
        let src = "void main() { int n; int r; r = n * 3 + 1; }";
        let mapping = Mapper::new().map_source(src).unwrap();
        let outcome = Simulator::new(&mapping.program)
            .run(&SimInputs::new().scalar("n", 13))
            .unwrap();
        assert_eq!(outcome.scalar("r"), Some(40));
        let err = Simulator::new(&mapping.program)
            .run(&SimInputs::new())
            .unwrap_err();
        assert!(matches!(err, SimError::MissingInput { .. }));
    }

    #[test]
    fn statespace_writes_appear_in_the_final_state() {
        let src = r#"
            void main() {
                int x[4];
                int y[4];
                int i;
                i = 0;
                while (i < 4) { y[i] = x[i] * x[i]; i = i + 1; }
            }
        "#;
        let mapping = Mapper::new().map_source(src).unwrap();
        let inputs = SimInputs::new().array(0, &[1, 2, 3, 4]);
        let outcome = Simulator::new(&mapping.program).run(&inputs).unwrap();
        let y_base = mapping.layout.array("y").unwrap().base;
        for i in 0..4i64 {
            assert_eq!(
                outcome.final_statespace.fetch(y_base + i),
                Some((i + 1) * (i + 1))
            );
        }
        // Inputs are unchanged.
        assert_eq!(outcome.final_statespace.fetch(0), Some(1));
    }

    #[test]
    fn event_counts_feed_the_energy_model() {
        let mapping = Mapper::new().map_source(FIR).unwrap();
        let outcome = Simulator::new(&mapping.program).run(&fir_inputs()).unwrap();
        let energy = outcome.energy(&EnergyModel::default_model());
        assert!(energy.total > 0.0);
        assert!(outcome.counts.mem_reads > 0);
        assert!(outcome.counts.reg_writes >= outcome.counts.mem_reads);
    }

    #[test]
    fn structural_checks_can_be_disabled() {
        let mapping = Mapper::new().map_source(FIR).unwrap();
        let outcome = Simulator::new(&mapping.program)
            .without_structural_checks()
            .run(&fir_inputs())
            .unwrap();
        assert_eq!(outcome.scalar("sum"), Some(10 + 40 + 90 + 160));
    }
}
