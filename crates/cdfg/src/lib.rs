//! Control Data Flow Graph (CDFG) intermediate representation for the FPFA
//! mapping flow.
//!
//! This crate implements the intermediate representation described in
//! Sections III–V of *"Mapping Applications to an FPFA Tile"* (DATE 2003):
//!
//! * a port-indexed dataflow graph whose nodes are C-level operations
//!   ([`NodeKind`]) and whose edges carry word values or *statespace* tokens;
//! * the **statespace** abstraction of the C memory model — a set of
//!   `(address, data)` tuples manipulated through the three primitive
//!   operations `ST` (store), `FE` (fetch) and `DEL` (delete)
//!   ([`StateSpace`], [`NodeKind::Store`], [`NodeKind::Fetch`],
//!   [`NodeKind::Delete`]);
//! * structured loop nodes ([`LoopSpec`]) used by the frontend before loop
//!   unrolling;
//! * a reference interpreter ([`interp::Interpreter`]) used by the
//!   transformation engine and the simulator to check behavioural
//!   equivalence;
//! * structural analyses (topological order, ASAP/ALAP levels, critical path,
//!   mobility) used by the mapper.
//!
//! # Example
//!
//! Build the dataflow graph for `out = a * b + c` and evaluate it:
//!
//! ```
//! # fn main() -> Result<(), fpfa_cdfg::CdfgError> {
//! use fpfa_cdfg::{Cdfg, NodeKind, BinOp, interp::Interpreter, Value};
//!
//! let mut g = Cdfg::new("mac");
//! let a = g.add_node(NodeKind::Input("a".into()));
//! let b = g.add_node(NodeKind::Input("b".into()));
//! let c = g.add_node(NodeKind::Input("c".into()));
//! let mul = g.add_node(NodeKind::BinOp(BinOp::Mul));
//! let add = g.add_node(NodeKind::BinOp(BinOp::Add));
//! let out = g.add_node(NodeKind::Output("out".into()));
//! g.connect(a, 0, mul, 0)?;
//! g.connect(b, 0, mul, 1)?;
//! g.connect(mul, 0, add, 0)?;
//! g.connect(c, 0, add, 1)?;
//! g.connect(add, 0, out, 0)?;
//!
//! let mut interp = Interpreter::new(&g);
//! interp.bind("a", Value::Word(3));
//! interp.bind("b", Value::Word(4));
//! interp.bind("c", Value::Word(5));
//! let result = interp.run()?;
//! assert_eq!(result.word("out"), Some(17));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod canon;
pub mod dot;
pub mod edge;
pub mod error;
pub mod graph;
pub mod ids;
pub mod interp;
pub mod node;
pub mod observer;
pub mod statespace;
pub mod stats;
pub mod validate;
pub mod value;

pub use builder::CdfgBuilder;
pub use canon::canonical_signature;
pub use edge::{Edge, Endpoint};
pub use error::CdfgError;
pub use graph::{Cdfg, Node, TopoScratch};
pub use ids::{EdgeId, NodeId, NodeRemap};
pub use node::{BinOp, LoopSpec, NodeKind, UnOp};
pub use observer::ChangeJournal;
pub use statespace::StateSpace;
pub use stats::GraphStats;
pub use value::Value;
