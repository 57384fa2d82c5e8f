//! Ergonomic, expression-oriented construction of CDFGs.
//!
//! [`CdfgBuilder`] wraps a [`Cdfg`] and hands out [`Wire`]s — cheap handles to
//! a node's output port — so that graphs can be written the way the source
//! expression reads:
//!
//! ```
//! # fn main() -> Result<(), fpfa_cdfg::CdfgError> {
//! use fpfa_cdfg::CdfgBuilder;
//!
//! let mut b = CdfgBuilder::new("saxpy");
//! let a = b.input("a");
//! let x = b.input("x");
//! let y = b.input("y");
//! let ax = b.mul(a, x);
//! let axpy = b.add(ax, y);
//! b.output("r", axpy);
//! let graph = b.finish()?;
//! assert_eq!(graph.node_count(), 6);
//! # Ok(())
//! # }
//! ```

use crate::error::CdfgError;
use crate::graph::Cdfg;
use crate::ids::NodeId;
use crate::node::{BinOp, LoopSpec, Name, NodeKind, UnOp};
use crate::validate;

/// A handle to one output port of a node under construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Wire {
    /// Producing node.
    pub node: NodeId,
    /// Output port on that node.
    pub port: usize,
}

/// Builder producing validated [`Cdfg`]s.
#[derive(Debug)]
pub struct CdfgBuilder {
    graph: Cdfg,
}

impl CdfgBuilder {
    /// Starts building a graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CdfgBuilder {
            graph: Cdfg::new(name),
        }
    }

    /// Adds a named graph input and returns its wire.
    pub fn input(&mut self, name: impl Into<Name>) -> Wire {
        let id = self.graph.add_node(NodeKind::Input(name.into()));
        Wire { node: id, port: 0 }
    }

    /// Adds a constant and returns its wire.
    pub fn constant(&mut self, value: i64) -> Wire {
        let id = self.graph.add_node(NodeKind::Const(value));
        Wire { node: id, port: 0 }
    }

    /// Adds a named graph output driven by `value`.
    pub fn output(&mut self, name: impl Into<Name>, value: Wire) -> NodeId {
        let id = self.graph.add_node(NodeKind::Output(name.into()));
        self.graph
            .connect(value.node, value.port, id, 0)
            .expect("builder wires are always valid");
        id
    }

    /// Adds a binary operation.
    pub fn binop(&mut self, op: BinOp, a: Wire, b: Wire) -> Wire {
        let id = self.graph.add_node(NodeKind::BinOp(op));
        self.graph
            .connect(a.node, a.port, id, 0)
            .expect("builder wires are always valid");
        self.graph
            .connect(b.node, b.port, id, 1)
            .expect("builder wires are always valid");
        Wire { node: id, port: 0 }
    }

    /// Adds an addition.
    pub fn add(&mut self, a: Wire, b: Wire) -> Wire {
        self.binop(BinOp::Add, a, b)
    }

    /// Adds a subtraction.
    pub fn sub(&mut self, a: Wire, b: Wire) -> Wire {
        self.binop(BinOp::Sub, a, b)
    }

    /// Adds a multiplication.
    pub fn mul(&mut self, a: Wire, b: Wire) -> Wire {
        self.binop(BinOp::Mul, a, b)
    }

    /// Adds a unary operation.
    pub fn unop(&mut self, op: UnOp, a: Wire) -> Wire {
        let id = self.graph.add_node(NodeKind::UnOp(op));
        self.graph
            .connect(a.node, a.port, id, 0)
            .expect("builder wires are always valid");
        Wire { node: id, port: 0 }
    }

    /// Adds a `Copy` wire node forwarding `a` (a placeholder with no
    /// semantics; copy propagation removes it).
    pub fn copy(&mut self, a: Wire) -> Wire {
        let id = self.graph.add_node(NodeKind::Copy);
        self.graph
            .connect(a.node, a.port, id, 0)
            .expect("builder wires are always valid");
        Wire { node: id, port: 0 }
    }

    /// Adds a multiplexer selecting `if_true` when `cond` is non-zero.
    pub fn mux(&mut self, cond: Wire, if_true: Wire, if_false: Wire) -> Wire {
        let id = self.graph.add_node(NodeKind::Mux);
        for (port, w) in [cond, if_true, if_false].into_iter().enumerate() {
            self.graph
                .connect(w.node, w.port, id, port)
                .expect("builder wires are always valid");
        }
        Wire { node: id, port: 0 }
    }

    /// Adds a `ST` statespace store; returns the new statespace wire.
    pub fn store(&mut self, state: Wire, address: Wire, data: Wire) -> Wire {
        let id = self.graph.add_node(NodeKind::Store);
        for (port, w) in [state, address, data].into_iter().enumerate() {
            self.graph
                .connect(w.node, w.port, id, port)
                .expect("builder wires are always valid");
        }
        Wire { node: id, port: 0 }
    }

    /// Adds a `FE` statespace fetch; returns the fetched data wire.
    pub fn fetch(&mut self, state: Wire, address: Wire) -> Wire {
        let id = self.graph.add_node(NodeKind::Fetch);
        self.graph
            .connect(state.node, state.port, id, 0)
            .expect("builder wires are always valid");
        self.graph
            .connect(address.node, address.port, id, 1)
            .expect("builder wires are always valid");
        Wire { node: id, port: 0 }
    }

    /// Adds a `DEL` statespace delete; returns the new statespace wire.
    pub fn delete(&mut self, state: Wire, address: Wire) -> Wire {
        let id = self.graph.add_node(NodeKind::Delete);
        self.graph
            .connect(state.node, state.port, id, 0)
            .expect("builder wires are always valid");
        self.graph
            .connect(address.node, address.port, id, 1)
            .expect("builder wires are always valid");
        Wire { node: id, port: 0 }
    }

    /// Adds a structured loop node; `initial[i]` drives loop variable `i`.
    ///
    /// Returns one wire per loop-carried variable holding its final value.
    pub fn loop_node(&mut self, spec: LoopSpec, initial: &[Wire]) -> Vec<Wire> {
        let arity = spec.arity();
        assert_eq!(
            initial.len(),
            arity,
            "loop expects {arity} initial values, got {}",
            initial.len()
        );
        let id = self.graph.add_node(NodeKind::Loop(Box::new(spec)));
        for (port, w) in initial.iter().enumerate() {
            self.graph
                .connect(w.node, w.port, id, port)
                .expect("builder wires are always valid");
        }
        (0..arity).map(|port| Wire { node: id, port }).collect()
    }

    /// Read-only access to the graph under construction.
    pub fn graph(&self) -> &Cdfg {
        &self.graph
    }

    /// Finishes construction, validating the graph.
    ///
    /// # Errors
    /// Propagates validation failures (unconnected ports, cycles, duplicate
    /// interface names, malformed loops).
    pub fn finish(self) -> Result<Cdfg, CdfgError> {
        validate::validate(&self.graph)?;
        Ok(self.graph)
    }

    /// Finishes construction without validating (for deliberately malformed
    /// test graphs).
    pub fn finish_unchecked(self) -> Cdfg {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::statespace::StateSpace;
    use crate::value::Value;

    #[test]
    fn builds_and_validates_expression() {
        let mut b = CdfgBuilder::new("expr");
        let x = b.input("x");
        let y = b.input("y");
        let two = b.constant(2);
        let t = b.mul(x, two);
        let r = b.add(t, y);
        b.output("r", r);
        let g = b.finish().unwrap();

        let mut interp = Interpreter::new(&g);
        interp.bind("x", Value::Word(5)).bind("y", Value::Word(1));
        assert_eq!(interp.run().unwrap().word("r"), Some(11));
    }

    #[test]
    fn builds_statespace_pipeline() {
        let mut b = CdfgBuilder::new("mem");
        let mem = b.input("mem");
        let addr = b.constant(3);
        let data = b.fetch(mem, addr);
        let double = b.add(data, data);
        let mem2 = b.store(mem, addr, double);
        b.output("mem", mem2);
        let g = b.finish().unwrap();

        let mut interp = Interpreter::new(&g);
        interp.bind("mem", Value::State(StateSpace::from_tuples([(3, 21)])));
        let result = interp.run().unwrap();
        assert_eq!(result.state("mem").unwrap().fetch(3), Some(42));
    }

    #[test]
    fn mux_and_unop() {
        let mut b = CdfgBuilder::new("sel");
        let x = b.input("x");
        let zero = b.constant(0);
        let is_neg = b.binop(BinOp::Lt, x, zero);
        let neg = b.unop(UnOp::Neg, x);
        let abs = b.mux(is_neg, neg, x);
        b.output("abs", abs);
        let g = b.finish().unwrap();

        for (input, expected) in [(-7, 7), (4, 4), (0, 0)] {
            let mut interp = Interpreter::new(&g);
            interp.bind("x", Value::Word(input));
            assert_eq!(interp.run().unwrap().word("abs"), Some(expected));
        }
    }

    #[test]
    fn finish_rejects_unconnected_graph() {
        let mut b = CdfgBuilder::new("bad");
        let _dangling = b.graph.add_node(NodeKind::BinOp(BinOp::Add));
        assert!(b.finish().is_err());
    }

    #[test]
    fn finish_unchecked_allows_malformed_graphs() {
        let mut b = CdfgBuilder::new("bad");
        let _dangling = b.graph.add_node(NodeKind::BinOp(BinOp::Add));
        let g = b.finish_unchecked();
        assert_eq!(g.node_count(), 1);
    }
}
