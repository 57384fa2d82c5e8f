//! Cycle-by-cycle execution of a multi-tile program on an FPFA tile array.
//!
//! All tiles advance in lock-step on one global clock, in the same cycle
//! loop that runs a single tile program. Each global cycle
//!
//! 1. words departing over the inter-tile interconnect are read from their
//!    source tile's memory (the allocator guarantees the write-back happened
//!    in an earlier cycle) and enter the in-flight buffer;
//! 2. every tile executes its own [`CycleJob`](fpfa_core::CycleJob) — moves,
//!    ALU clusters, write-backs;
//! 3. words whose [`TransferJob::arrive`](fpfa_core::multi::TransferJob::arrive)
//!    cycle is reached are written into their destination tile's memory
//!    (readable from the next cycle on).
//!
//! Structural checks cover each tile's ports/buses/ALU capability *and* the
//! interconnect's per-cycle link budget.

use crate::error::SimError;
use crate::exec::{ArrayView, SimInputs, SimOutcome};
use fpfa_core::multi::MultiTileProgram;

/// The cycle-accurate simulator for a whole tile array.
#[derive(Debug)]
pub struct MultiSimulator<'p> {
    program: &'p MultiTileProgram,
    check_structure: bool,
}

impl<'p> MultiSimulator<'p> {
    /// Creates a simulator for a multi-tile program.
    pub fn new(program: &'p MultiTileProgram) -> Self {
        MultiSimulator {
            program,
            check_structure: true,
        }
    }

    /// Disables the per-cycle structural re-checks.
    pub fn without_structural_checks(mut self) -> Self {
        self.check_structure = false;
        self
    }

    /// Executes the program on the array.
    ///
    /// # Errors
    /// Returns a [`SimError`] when an input is missing, a structural
    /// constraint (including the inter-tile link budget) is violated, or the
    /// program reads values that were never produced.
    pub fn run(&self, inputs: &SimInputs) -> Result<SimOutcome, SimError> {
        let program = self.program;
        ArrayView {
            array: program.array,
            tiles: &program.tiles,
            transfers: &program.transfers,
            input_broadcasts: program.traffic.input_broadcasts.len(),
            scalar_outputs: program
                .scalar_outputs
                .iter()
                .map(|(name, (tile, location))| (name, tile, location))
                .collect(),
            statespace_map: program
                .statespace_map
                .iter()
                .map(|&(addr, (tile, home))| (addr, tile, home))
                .collect(),
        }
        .run(inputs, self.check_structure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpfa_core::pipeline::Mapper;

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

    fn fir_inputs() -> SimInputs {
        SimInputs::new()
            .array(0, &[1, 2, 3, 4, 5, 6, 7, 8])
            .array(8, &[10, 20, 30, 40, 50, 60, 70, 80])
    }

    fn expected_sum() -> i64 {
        (1..=8).map(|i| i * i * 10).sum()
    }

    #[test]
    fn multi_tile_fir_computes_the_same_sum() {
        let mapping = Mapper::new().with_tiles(4).map_source(FIR).unwrap();
        let multi = mapping.multi.as_ref().expect("multi-tile mapping");
        let outcome = MultiSimulator::new(&multi.program)
            .run(&fir_inputs())
            .unwrap();
        assert_eq!(outcome.scalar("sum"), Some(expected_sum()));
        assert_eq!(outcome.counts.cycles as usize, multi.program.cycle_count());
    }

    #[test]
    fn inter_tile_transfers_are_counted_and_cost_energy() {
        let mapping = Mapper::new().with_tiles(4).map_source(FIR).unwrap();
        let multi = mapping.multi.as_ref().unwrap();
        let outcome = MultiSimulator::new(&multi.program)
            .run(&fir_inputs())
            .unwrap();
        // The simulator's count matches the allocator's accounting: one per
        // executed transfer plus one per pre-execution input broadcast.
        assert_eq!(
            outcome.counts.inter_tile_transfers as usize,
            multi.program.transfers.len() + multi.program.traffic.input_broadcasts.len()
        );
        assert_eq!(
            outcome.counts.inter_tile_transfers as usize,
            multi.program.stats.inter_tile_transfers
        );
        if multi.program.transfers.is_empty() {
            return;
        }
        // The same kernel on one tile moves nothing between tiles.
        let single = Mapper::new().map_source(FIR).unwrap();
        let single_outcome = crate::exec::Simulator::new(&single.program)
            .run(&fir_inputs())
            .unwrap();
        assert_eq!(single_outcome.counts.inter_tile_transfers, 0);
    }

    #[test]
    fn missing_inputs_are_reported() {
        let mapping = Mapper::new().with_tiles(2).map_source(FIR).unwrap();
        let multi = mapping.multi.as_ref().unwrap();
        let err = MultiSimulator::new(&multi.program)
            .run(&SimInputs::new())
            .unwrap_err();
        assert!(matches!(err, SimError::MissingInput { .. }));
    }

    #[test]
    fn structural_checks_can_be_disabled() {
        let mapping = Mapper::new().with_tiles(3).map_source(FIR).unwrap();
        let multi = mapping.multi.as_ref().unwrap();
        let outcome = MultiSimulator::new(&multi.program)
            .without_structural_checks()
            .run(&fir_inputs())
            .unwrap();
        assert_eq!(outcome.scalar("sum"), Some(expected_sum()));
    }
}
