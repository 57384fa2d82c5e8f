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
    ArchError, ArrayConfig, EnergyModel, EnergyReport, EventCounts, MemId, MemRef, RegBankName,
    RegRef, Tile, TileArray, TileConfig, TileId,
};
use fpfa_cdfg::StateSpace;
use fpfa_core::multi::TransferJob;
use fpfa_core::program::{CycleJob, Location, OperandSource, MAX_OPERANDS};
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
                .map(|(name, location)| (name, 0, location))
                .collect(),
            statespace_map: program
                .statespace_map
                .iter()
                .map(|&(addr, home)| (addr, 0, home))
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
        let mut internal: Vec<i64> = Vec::new();
        let mut checks: Vec<CycleCheck> = self
            .tiles
            .iter()
            .map(|tile| CycleCheck::new(tile.config))
            .collect();

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
            for ((tile_id, tile_program), check) in self.tiles.iter().enumerate().zip(&mut checks) {
                let cycle = tile_program.cycle(cycle_index);
                if check_structure {
                    check.check(cycle_index, cycle)?;
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
                    &mut internal,
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
/// `internal` is the ALU result buffer, reused by every job.
pub(crate) fn execute_cycle(
    tile: &mut Tile,
    cycle_index: usize,
    cycle: CycleJob<'_>,
    results: &mut HashMap<OpId, i64>,
    internal: &mut Vec<i64>,
    counts: &mut EventCounts,
    cycle_trace: &mut CycleTrace,
) -> Result<(), SimError> {
    // Register loads.
    for mv in cycle.moves {
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
    for alu in cycle.alus {
        internal.clear();
        for micro in cycle.micro_ops(alu) {
            let mut operands = [0i64; MAX_OPERANDS];
            let sources = cycle.operands(micro);
            for (slot, source) in operands.iter_mut().zip(sources) {
                *slot = match *source {
                    OperandSource::Immediate(c) => c,
                    OperandSource::Register(reg) => {
                        counts.reg_reads += 1;
                        read_reg(tile, reg, cycle_index)?
                    }
                    OperandSource::Internal(pos) => {
                        *internal.get(pos).ok_or(SimError::BadInternalOperand {
                            cycle: cycle_index,
                            op: micro.op,
                        })?
                    }
                };
            }
            let result = eval_op(micro.kind, &operands[..sources.len()]).ok_or(
                SimError::DivisionByZero {
                    cycle: cycle_index,
                    op: micro.op,
                },
            )?;
            internal.push(result);
            results.insert(micro.op, result);
            counts.alu_ops += 1;
            cycle_trace.alu_ops += 1;
        }
        cycle_trace.busy_alus += 1;
    }

    // Write-backs.
    for wb in cycle.writebacks {
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

/// The structural re-check of one tile's cycles: resource counters indexed
/// by processing part, memory and register bank, reused by every cycle.
pub(crate) struct CycleCheck {
    config: TileConfig,
    busy_pps: Vec<bool>,
    /// Accesses per `pp * 2 + memory`.
    mem_accesses: Vec<usize>,
    /// Writes per `pp * 4 + bank`.
    bank_writes: Vec<usize>,
    /// Micro-op depths and distinct register inputs of one ALU job.
    depth: Vec<usize>,
    registers: Vec<RegRef>,
}

impl CycleCheck {
    pub(crate) fn new(config: TileConfig) -> Self {
        CycleCheck {
            config,
            busy_pps: vec![false; config.num_pps],
            mem_accesses: vec![0; config.num_pps * MemId::ALL.len()],
            bank_writes: vec![0; config.num_pps * RegBankName::ALL.len()],
            depth: Vec::new(),
            registers: Vec::new(),
        }
    }

    /// Re-checks the structural constraints of one cycle against the tile
    /// configuration.  A reference to a PP the tile lacks is left to the
    /// execution, which reports it.
    pub(crate) fn check(
        &mut self,
        cycle_index: usize,
        cycle: CycleJob<'_>,
    ) -> Result<(), SimError> {
        let config = &self.config;
        self.busy_pps.fill(false);
        self.mem_accesses.fill(0);
        self.bank_writes.fill(0);
        for alu in cycle.alus {
            // One cluster per PP.
            let pp = alu.pp_index();
            if let Some(busy) = self.busy_pps.get_mut(pp) {
                if *busy {
                    return Err(SimError::AluConflict {
                        cycle: cycle_index,
                        pp,
                    });
                }
                *busy = true;
            }
            // ALU capability: count ops, multiplies, depth (approximated by
            // the number of internal dependencies on the longest chain),
            // register operands.
            let micro_ops = cycle.micro_ops(alu);
            let multiplies = micro_ops.iter().filter(|m| m.kind.is_multiply()).count();
            self.depth.clear();
            self.registers.clear();
            for (i, micro) in micro_ops.iter().enumerate() {
                let mut depth = 1;
                for source in cycle.operands(micro) {
                    match *source {
                        OperandSource::Internal(pos) if pos < i => {
                            depth = depth.max(self.depth[pos] + 1);
                        }
                        OperandSource::Register(reg) if !self.registers.contains(&reg) => {
                            self.registers.push(reg);
                        }
                        _ => {}
                    }
                }
                self.depth.push(depth);
            }
            let max_depth = self.depth.iter().copied().max().unwrap_or(0);
            if let Some(reason) = config.alu.check(
                self.registers.len(),
                max_depth,
                micro_ops.len(),
                multiplies,
                config.alu.max_outputs,
                0,
            ) {
                return Err(SimError::CapabilityViolated {
                    cycle: cycle_index,
                    pp,
                    reason,
                });
            }
        }
        // Memory ports.
        let memories = cycle
            .moves
            .iter()
            .map(|mv| mv.src)
            .chain(cycle.writebacks.iter().map(|wb| wb.dest));
        for mem in memories.clone() {
            if let Some(used) = self
                .mem_accesses
                .get_mut(mem.pp_index() * MemId::ALL.len() + mem.mem.index())
            {
                *used += 1;
            }
        }
        for mem in memories {
            let slot = mem.pp_index() * MemId::ALL.len() + mem.mem.index();
            let used = self.mem_accesses.get(slot).copied().unwrap_or(0);
            if used > config.mem_ports {
                return Err(SimError::Arch {
                    cycle: cycle_index,
                    source: ArchError::PortConflict {
                        resource: format!("pp{}.{}", mem.pp, mem.mem),
                        requested: used,
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
        let bank_slot = |reg: RegRef| reg.pp_index() * RegBankName::ALL.len() + reg.bank.index();
        for mv in cycle.moves {
            if let Some(writes) = self.bank_writes.get_mut(bank_slot(mv.dst)) {
                *writes += 1;
            }
        }
        for mv in cycle.moves {
            let used = self
                .bank_writes
                .get(bank_slot(mv.dst))
                .copied()
                .unwrap_or(0);
            if used > config.regbank_write_ports {
                return Err(SimError::Arch {
                    cycle: cycle_index,
                    source: ArchError::PortConflict {
                        resource: format!("pp{}.{}", mv.dst.pp, mv.dst.bank),
                        requested: used,
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
    tile.pp(mem.pp_index())
        .and_then(|pp| pp.memory(mem.mem))
        .and_then(|m| m.read(usize::from(mem.offset)))
        .map_err(|source| SimError::Arch { cycle, source })
}

pub(crate) fn write_mem(
    tile: &mut Tile,
    mem: MemRef,
    value: i64,
    cycle: usize,
) -> Result<(), SimError> {
    tile.pp_mut(mem.pp_index())
        .and_then(|pp| pp.memory_mut(mem.mem))
        .and_then(|m| m.write(usize::from(mem.offset), value))
        .map_err(|source| SimError::Arch { cycle, source })
}

pub(crate) fn read_reg(tile: &Tile, reg: RegRef, cycle: usize) -> Result<i64, SimError> {
    tile.pp(reg.pp_index())
        .and_then(|pp| pp.bank(reg.bank))
        .and_then(|b| b.read(usize::from(reg.index)))
        .map_err(|source| SimError::Arch { cycle, source })
}

pub(crate) fn write_reg(
    tile: &mut Tile,
    reg: RegRef,
    value: i64,
    cycle: usize,
) -> Result<(), SimError> {
    tile.pp_mut(reg.pp_index())
        .and_then(|pp| pp.bank_mut(reg.bank))
        .and_then(|b| b.write(usize::from(reg.index), value))
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
    fn structural_checks_name_the_resource_a_cycle_oversubscribes() {
        // A program allocated for a roomier tile, re-checked against a
        // tighter one: each tightened resource fails with its typed error
        // on the first cycle that needs more of it.
        let roomy = TileConfig {
            mem_ports: 2,
            regbank_write_ports: 2,
            ..TileConfig::paper()
        };
        let kernel = fpfa_workloads::fir(16);
        let mapping = Mapper::new()
            .with_config(roomy)
            .map_source(&kernel.source)
            .unwrap();
        let inputs = crate::flow::test_inputs(&mapping);
        let run_on = |tighten: fn(&mut TileConfig)| {
            let mut program = (*mapping.program).clone();
            tighten(&mut program.config);
            Simulator::new(&program).run(&inputs).unwrap_err()
        };
        let conflicts = [
            run_on(|c| c.mem_ports = 1),
            run_on(|c| c.regbank_write_ports = 1),
        ];
        for (err, resource) in conflicts.iter().zip(["MEM", ".R"]) {
            match err {
                SimError::Arch {
                    source:
                        ArchError::PortConflict {
                            resource: named,
                            requested,
                            available: 1,
                        },
                    ..
                } => assert!(named.contains(resource) && *requested > 1, "{err}"),
                other => panic!("{other}"),
            }
        }
        assert!(matches!(
            run_on(|c| c.crossbar_buses = 1),
            SimError::Arch {
                source: ArchError::CrossbarOversubscribed { available: 1, .. },
                ..
            }
        ));
        assert!(matches!(
            run_on(|c| c.alu.max_ops = 1),
            SimError::CapabilityViolated { .. }
        ));
        assert!(Simulator::new(&mapping.program).run(&inputs).is_ok());
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
