//! The `simulate` stage: plugs the cycle-accurate simulator into the staged
//! flow engine of `fpfa-core`, so a mapping flow can end with an execution
//! on the tile model and the simulation time shows up in the same per-stage
//! instrumentation as the mapping phases.

use crate::error::SimError;
use crate::exec::{SimInputs, SimOutcome, Simulator};
use crate::multi::MultiSimulator;
use fpfa_core::flow::{FlowContext, Stage};
use fpfa_core::pipeline::MappingResult;
use fpfa_core::{MapError, TileProgram, ValueRef};

/// Simulates a finished mapping on the whole program it carries: the array
/// program of a multi-tile mapping (its `program` is only tile 0's slice),
/// the tile program otherwise.
///
/// # Errors
/// Returns a [`SimError`] when an input is missing, a structural constraint
/// is violated, or the program reads values that were never produced.
pub fn simulate(mapping: &MappingResult, inputs: &SimInputs) -> Result<SimOutcome, SimError> {
    match &mapping.multi {
        Some(multi) => MultiSimulator::new(&multi.program).run(inputs),
        None => Simulator::new(&mapping.program).run(inputs),
    }
}

/// The inputs `fpfa-map --simulate` and the daemon's `simulate` knob use:
/// every scalar input is 1, and each statespace word the program pre-loads
/// holds the [`test_signal`](fpfa_workloads::test_signal) of its array (the
/// `i`-th declared has phase `i`) at its index.  The simulator reads no
/// other word, so none is stored: the cost follows the mapped program.
pub fn test_inputs(mapping: &MappingResult) -> SimInputs {
    let mut inputs = SimInputs::new();
    let tiles: &[TileProgram] = match &mapping.multi {
        Some(multi) => &multi.program.tiles,
        None => std::slice::from_ref(&mapping.program),
    };
    // The frontend places arrays in declaration order at rising bases.
    let arrays = mapping.layout.arrays();
    for (value, _) in tiles.iter().flat_map(|tile| &tile.preload) {
        let ValueRef::MemWord(addr) = *value else {
            continue;
        };
        let Some(phase) = arrays
            .partition_point(|sym| sym.base <= addr)
            .checked_sub(1)
        else {
            continue;
        };
        let index = (addr - arrays[phase].base) as usize;
        if index < arrays[phase].len {
            inputs
                .statespace
                .store(addr, fpfa_workloads::test_signal_at(index, phase as i64));
        }
    }
    for name in mapping.program.scalar_input_names.iter() {
        inputs.scalars.insert(name.to_string(), 1);
    }
    inputs
}

/// A finished mapping together with its simulated execution.
#[derive(Clone, PartialEq, Debug)]
pub struct SimulatedMapping {
    /// The mapping the simulation ran on.
    pub mapping: MappingResult,
    /// Scalar outputs and architectural event counts of the run.
    pub outcome: SimOutcome,
}

/// Runs the allocated tile program on the cycle-accurate simulator
/// (stage `simulate`).
#[derive(Clone, Debug, Default)]
pub struct SimulateStage {
    inputs: SimInputs,
}

impl SimulateStage {
    /// Simulates with the given inputs.
    pub fn new(inputs: SimInputs) -> Self {
        SimulateStage { inputs }
    }
}

impl Stage<MappingResult, SimulatedMapping> for SimulateStage {
    fn name(&self) -> &'static str {
        "simulate"
    }

    fn run(
        &self,
        input: MappingResult,
        cx: &mut FlowContext,
    ) -> Result<SimulatedMapping, MapError> {
        let outcome = simulate(&input, &self.inputs).map_err(|error| MapError::Simulation {
            reason: error.to_string(),
        })?;
        cx.info(
            self.name(),
            format!(
                "{} cycles, {} alu ops, {}/{} mem r/w",
                outcome.counts.cycles,
                outcome.counts.alu_ops,
                outcome.counts.mem_reads,
                outcome.counts.mem_writes
            ),
        );
        Ok(SimulatedMapping {
            mapping: input,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpfa_core::flow::StageExt;
    use fpfa_core::pipeline::Mapper;

    #[test]
    fn simulate_stage_records_timing_and_matches_direct_simulation() {
        let mapper = Mapper::new();
        let mapping = mapper
            .map_source("void main() { int a[2]; int r; r = a[0] * a[1]; }")
            .unwrap();

        let inputs = SimInputs::new().array(0, &[6, 7]);
        let stage = SimulateStage::new(inputs.clone());
        let mut cx = mapper.flow_context();
        let simulated = fpfa_core::flow::run_timed(&stage, mapping.clone(), &mut cx).unwrap();

        assert_eq!(simulated.outcome.scalar("r"), Some(42));
        assert!(cx.wall_of("simulate").is_some());

        let direct = Simulator::new(&mapping.program).run(&inputs).unwrap();
        assert_eq!(direct.scalars, simulated.outcome.scalars);
    }

    #[test]
    fn simulate_stage_dispatches_multi_tile_mappings_to_the_array_simulator() {
        let source = r#"
            void main() {
                int a[8];
                int c[8];
                int sum;
                int i;
                sum = 0; i = 0;
                while (i < 8) { sum = sum + a[i] * c[i]; i = i + 1; }
            }
        "#;
        let mapper = Mapper::new().with_tiles(4);
        let mapping = mapper.map_source(source).unwrap();
        assert!(mapping.multi.is_some());

        let inputs = SimInputs::new()
            .array(0, &[1, 2, 3, 4, 5, 6, 7, 8])
            .array(8, &[1, 1, 1, 1, 1, 1, 1, 1]);
        let stage = SimulateStage::new(inputs);
        let mut cx = mapper.flow_context();
        let simulated = fpfa_core::flow::run_timed(&stage, mapping, &mut cx).unwrap();
        assert_eq!(simulated.outcome.scalar("sum"), Some(36));
        assert!(cx.wall_of("simulate").is_some());
    }

    /// A test stage mapping source to a finished mapping, so the simulate
    /// stage can be composed into a cross-crate chain.
    struct MapStage(Mapper);

    impl Stage<&'static str, MappingResult> for MapStage {
        fn name(&self) -> &'static str {
            "map"
        }
        fn run(
            &self,
            input: &'static str,
            _cx: &mut FlowContext,
        ) -> Result<MappingResult, MapError> {
            self.0.map_source(input)
        }
    }

    #[test]
    fn simulate_stage_composes_into_a_cross_crate_chain() {
        let mapper = Mapper::new();
        let flow =
            MapStage(mapper.clone()).then(SimulateStage::new(SimInputs::new().array(0, &[3, 4])));
        let mut cx = mapper.flow_context();
        let simulated = fpfa_core::flow::FlowDriver::new()
            .run(
                &flow,
                "void main() { int a[2]; int r; r = a[0] + a[1]; }",
                &mut cx,
            )
            .unwrap();
        assert_eq!(simulated.outcome.scalar("r"), Some(7));
        // Both chained stages were timed individually.
        assert!(cx.wall_of("map").is_some());
        assert!(cx.wall_of("simulate").is_some());
    }
}
