//! Cycle-accurate simulator for FPFA processor tiles.
//!
//! The paper evaluates its mapping flow on the FPFA hardware (and its VHDL
//! model), neither of which is available. This crate is the substitute
//! substrate: it executes a [`TileProgram`](fpfa_core::TileProgram) cycle by
//! cycle on the structural tile model of `fpfa-arch`,
//!
//! * re-checking every structural constraint the allocator must respect
//!   (one cluster per ALU per cycle, ALU data-path limits, memory ports,
//!   register-bank write ports, crossbar buses),
//! * counting architectural events (ALU operations, register and memory
//!   accesses, crossbar transfers) for the energy model,
//! * producing the kernel's outputs so they can be compared with the CDFG
//!   reference interpreter ([`equivalence`]).
//!
//! One cycle loop runs a tile array of any size in lock-step, inter-tile
//! transfers included: [`Simulator`] hands it the paper's single tile as an
//! array of one, [`MultiSimulator`] a whole array program, and [`simulate`]
//! picks the program a finished mapping carries.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fpfa_core::pipeline::Mapper;
//! use fpfa_sim::{SimInputs, Simulator};
//!
//! let mapping = Mapper::new().map_source(
//!     "void main() { int a[2]; int r; r = a[0] * a[1]; }",
//! )?;
//! let mut inputs = SimInputs::new();
//! inputs.statespace.store_array(0, &[6, 7]);
//! let outcome = Simulator::new(&mapping.program).run(&inputs)?;
//! assert_eq!(outcome.scalar("r"), Some(42));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod equivalence;
pub mod error;
pub mod exec;
pub mod flow;
pub mod multi;
pub mod trace;

pub use equivalence::{check_against_cdfg, check_multi_against_cdfg, EquivalenceReport};
pub use error::SimError;
pub use exec::{SimInputs, SimOutcome, Simulator};
pub use flow::{simulate, test_inputs, SimulateStage, SimulatedMapping};
pub use multi::MultiSimulator;
pub use trace::{CycleTrace, Trace};
