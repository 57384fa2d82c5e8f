//! Behaviour-preserving CDFG transformations.
//!
//! Section I of the paper: the CDFG "is minimized using a set of behaviour
//! preserving transformations such as dependency analysis, common
//! subexpression elimination, etc.", and Fig. 3 shows the FIR example "after
//! complete loop unrolling and full simplification". This crate implements
//! that minimisation step:
//!
//! * [`const_fold`] — constant folding and propagation (including
//!   multiplexers with constant select inputs);
//! * [`algebraic`] — algebraic identities (`x + 0`, `x * 1`, `x - x`, ...);
//! * [`strength`] — strength reduction (multiplication/division by powers of
//!   two become shifts);
//! * [`cse`] — common-subexpression elimination over pure operations
//!   (including `FE` fetches from the same statespace token);
//! * [`forward`] — store-to-load forwarding through the statespace;
//! * [`dead_store`] — removal of stores that are always overwritten;
//! * [`copy_prop`] — removal of `Copy` wire nodes;
//! * [`dce`] — dead-code elimination;
//! * [`unroll`] — complete unrolling of structured loops with statically
//!   decidable trip counts.
//!
//! The mapping flow runs every pass as a [`LocalRewrite`] (node-local
//! rewrite over a worklist) composed by the [`WorklistDriver`], which seeds
//! each pass once and afterwards only re-examines the neighbourhood of
//! earlier rewrites, using the change journal of `fpfa-cdfg`'s mutation
//! primitives.
//!
//! Every pass is also a [`Transform`] (whole-graph sweep), composed by the
//! scan-until-fixpoint [`Pipeline`]: [`Pipeline::standard`] is the "full
//! simplification" recipe of the paper's Fig. 3 experiment and the
//! reference the worklist engine is tested against. No mapping flow runs
//! it; both minimise a graph to the same canonical structure with the same
//! per-pass change totals (see `tests/prop_worklist.rs`).
//!
//! [`verify`] provides interpreter-based equivalence checking so that every
//! pass can be validated against the original graph.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fpfa_transform::Pipeline;
//!
//! let program = fpfa_frontend::compile(
//!     "void main() { int x; int y; x = 2 * 3; y = x + 0; }",
//! )?;
//! let mut graph = program.cdfg.clone();
//! Pipeline::standard().run(&mut graph)?;
//! // `y` is now driven by the constant 6 directly.
//! let stats = fpfa_cdfg::GraphStats::of(&graph);
//! assert_eq!(stats.binops, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebraic;
pub mod const_fold;
pub mod copy_prop;
pub mod cse;
pub mod dce;
pub mod dead_store;
pub mod driver;
pub mod error;
pub mod forward;
pub mod key;
pub mod pass;
pub mod rewrite;
pub mod strength;
pub mod unroll;
pub mod verify;

pub use driver::{standard_local_rewrites, RoundStats, WorklistDriver, WorklistOutcome};
pub use error::TransformError;
pub use key::{value_key, ValueKey};
pub use pass::{standard_passes, Pipeline, Transform, TransformReport};
pub use rewrite::{LocalRewrite, Worklist};
pub use verify::{check_equivalence, EquivalenceMismatch};
