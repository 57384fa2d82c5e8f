//! CDFG node kinds: operations, statespace primitives and structured loops.
//!
//! A [`NodeKind`] is 16 bytes, and so is an arena slot of one
//! (`Option<NodeKind>`): every payload is at most one word.  An interface
//! node's [`Name`] is one thin pointer to a string that every node of that
//! name can share, and a loop's [`LoopSpec`] is boxed.

use crate::graph::Cdfg;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The name of an [`NodeKind::Input`] or [`NodeKind::Output`] node.
///
/// One thin pointer to a shared string: cloning a name bumps a count, so a
/// builder that hands the same `Name` to every node of one name stores the
/// string once, and copying a graph copies no string.  Equality, ordering
/// and the `Debug` and `Display` text are those of the string, so
/// `Input("x")` prints as it would with a `String` inside.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Name(Arc<Box<str>>);

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(name: &str) -> Self {
        Name(Arc::new(name.into()))
    }
}

impl From<String> for Name {
    fn from(name: String) -> Self {
        Name(Arc::new(name.into_boxed_str()))
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// Binary word operations supported by the CDFG (and by the FPFA ALU).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division (traps on division by zero).
    Div,
    /// Signed remainder (traps on division by zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Equality comparison (result 0/1).
    Eq,
    /// Inequality comparison (result 0/1).
    Ne,
    /// Signed less-than (result 0/1).
    Lt,
    /// Signed less-or-equal (result 0/1).
    Le,
    /// Signed greater-than (result 0/1).
    Gt,
    /// Signed greater-or-equal (result 0/1).
    Ge,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

impl BinOp {
    /// All binary operators, useful for exhaustive testing.
    pub const ALL: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Min,
        BinOp::Max,
    ];

    /// `true` for operators where swapping the operands does not change the
    /// result (used by common-subexpression elimination).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::Min
                | BinOp::Max
        )
    }

    /// `true` for comparison operators whose result is always 0 or 1.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Evaluates the operator on two words using wrapping arithmetic.
    ///
    /// Returns `None` for division or remainder by zero.
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return None;
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return None;
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Eq => i64::from(a == b),
            BinOp::Ne => i64::from(a != b),
            BinOp::Lt => i64::from(a < b),
            BinOp::Le => i64::from(a <= b),
            BinOp::Gt => i64::from(a > b),
            BinOp::Ge => i64::from(a >= b),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        })
    }

    /// Short mnemonic used in DOT dumps and reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Unary word operations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`0` becomes `1`, everything else `0`).
    Not,
    /// Bitwise complement.
    BitNot,
}

impl UnOp {
    /// All unary operators.
    pub const ALL: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::BitNot];

    /// Evaluates the operator on a word.
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => i64::from(a == 0),
            UnOp::BitNot => !a,
        }
    }

    /// Short mnemonic used in DOT dumps and reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A structured loop: `while cond(vars) { vars = body(vars) }`.
///
/// The frontend lowers C `while`/`for` loops to a single [`NodeKind::Loop`]
/// node carrying this specification. The loop node has one input and one
/// output port per loop-carried variable, in the order of [`LoopSpec::vars`].
/// The condition and body are separate CDFGs whose `Input`/`Output` nodes are
/// named after the loop-carried variables; the condition graph has a single
/// word output named `%cond`.
///
/// The loop-unrolling transformation removes these nodes; the mapper only
/// accepts acyclic, loop-free graphs (the paper lists loop support inside the
/// mapping phases as future work).
#[derive(Clone, PartialEq, Debug)]
pub struct LoopSpec {
    /// Names of the loop-carried variables; port `i` of the loop node carries
    /// `vars[i]` on both the input and the output side.
    pub vars: Vec<String>,
    /// Condition graph: inputs named after `vars`, single output `%cond`.
    pub cond: Cdfg,
    /// Body graph: inputs and outputs named after `vars`.
    pub body: Cdfg,
}

impl LoopSpec {
    /// Name of the condition output inside the condition graph.
    pub const COND_OUTPUT: &'static str = "%cond";

    /// Number of loop-carried variables (== input and output arity of the
    /// loop node).
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// Port index of a loop-carried variable, if present.
    pub fn port_of(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }
}

/// The operation performed by a CDFG node.
#[derive(Clone, PartialEq, Debug)]
pub enum NodeKind {
    /// A compile-time constant word.
    Const(i64),
    /// A named external input of the graph (no input ports, one output port).
    Input(Name),
    /// A named external output of the graph (one input port, no output port).
    Output(Name),
    /// A binary word operation (two input ports, one output port).
    BinOp(BinOp),
    /// A unary word operation (one input port, one output port).
    UnOp(UnOp),
    /// Multiplexer: port 0 selects (non-zero → port 1, zero → port 2).
    ///
    /// The paper uses MUXes to encode selection and iteration control in the
    /// dataflow graph.
    Mux,
    /// `ST` statespace primitive: ports `(state, address, data) → state`.
    Store,
    /// `FE` statespace primitive: ports `(state, address) → data`.
    Fetch,
    /// `DEL` statespace primitive: ports `(state, address) → state`.
    Delete,
    /// Identity / wire node (one input port, one output port). Used as a
    /// temporary placeholder by transformations.
    Copy,
    /// A structured loop over loop-carried variables; see [`LoopSpec`].
    Loop(Box<LoopSpec>),
}

impl NodeKind {
    /// Number of input ports this kind of node exposes.
    pub fn input_arity(&self) -> usize {
        match self {
            NodeKind::Const(_) | NodeKind::Input(_) => 0,
            NodeKind::Output(_) | NodeKind::UnOp(_) | NodeKind::Copy => 1,
            NodeKind::BinOp(_) | NodeKind::Fetch | NodeKind::Delete => 2,
            NodeKind::Mux | NodeKind::Store => 3,
            NodeKind::Loop(spec) => spec.arity(),
        }
    }

    /// Number of output ports this kind of node exposes.
    pub fn output_arity(&self) -> usize {
        match self {
            NodeKind::Output(_) => 0,
            NodeKind::Const(_)
            | NodeKind::Input(_)
            | NodeKind::BinOp(_)
            | NodeKind::UnOp(_)
            | NodeKind::Mux
            | NodeKind::Store
            | NodeKind::Fetch
            | NodeKind::Delete
            | NodeKind::Copy => 1,
            NodeKind::Loop(spec) => spec.arity(),
        }
    }

    /// `true` for the three statespace primitives (`ST`, `FE`, `DEL`).
    pub fn is_statespace_primitive(&self) -> bool {
        matches!(self, NodeKind::Store | NodeKind::Fetch | NodeKind::Delete)
    }

    /// `true` when the node represents real computation that must be executed
    /// by an ALU (as opposed to graph interface or constant nodes).
    pub fn is_computation(&self) -> bool {
        matches!(
            self,
            NodeKind::BinOp(_)
                | NodeKind::UnOp(_)
                | NodeKind::Mux
                | NodeKind::Store
                | NodeKind::Fetch
                | NodeKind::Delete
        )
    }

    /// Short label used in DOT dumps, reports and error messages.
    pub fn label(&self) -> String {
        match self {
            NodeKind::Const(c) => format!("const {c}"),
            NodeKind::Input(n) => format!("in {n}"),
            NodeKind::Output(n) => format!("out {n}"),
            NodeKind::BinOp(op) => op.mnemonic().to_string(),
            NodeKind::UnOp(op) => op.mnemonic().to_string(),
            NodeKind::Mux => "mux".to_string(),
            NodeKind::Store => "ST".to_string(),
            NodeKind::Fetch => "FE".to_string(),
            NodeKind::Delete => "DEL".to_string(),
            NodeKind::Copy => "copy".to_string(),
            NodeKind::Loop(spec) => format!("loop[{}]", spec.vars.join(",")),
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_basics() {
        assert_eq!(BinOp::Add.eval(2, 3), Some(5));
        assert_eq!(BinOp::Sub.eval(2, 3), Some(-1));
        assert_eq!(BinOp::Mul.eval(4, 3), Some(12));
        assert_eq!(BinOp::Div.eval(7, 2), Some(3));
        assert_eq!(BinOp::Div.eval(7, 0), None);
        assert_eq!(BinOp::Rem.eval(7, 0), None);
        assert_eq!(BinOp::Lt.eval(1, 2), Some(1));
        assert_eq!(BinOp::Ge.eval(1, 2), Some(0));
        assert_eq!(BinOp::Min.eval(-1, 4), Some(-1));
        assert_eq!(BinOp::Max.eval(-1, 4), Some(4));
        assert_eq!(BinOp::Shl.eval(1, 3), Some(8));
        assert_eq!(BinOp::Shr.eval(-8, 1), Some(-4));
    }

    #[test]
    fn binop_wrapping_does_not_panic() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), Some(i64::MIN));
        assert_eq!(BinOp::Mul.eval(i64::MAX, 2), Some(-2));
        assert_eq!(BinOp::Div.eval(i64::MIN, -1), Some(i64::MIN));
    }

    #[test]
    fn commutativity_flags() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Mul.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
        for op in BinOp::ALL {
            if op.is_commutative() {
                assert_eq!(op.eval(13, 7), op.eval(7, 13), "{op} claims commutative");
            }
        }
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(5), -5);
        assert_eq!(UnOp::Not.eval(0), 1);
        assert_eq!(UnOp::Not.eval(3), 0);
        assert_eq!(UnOp::BitNot.eval(0), -1);
    }

    #[test]
    fn arities_match_kind() {
        assert_eq!(NodeKind::Const(1).input_arity(), 0);
        assert_eq!(NodeKind::Const(1).output_arity(), 1);
        assert_eq!(NodeKind::Store.input_arity(), 3);
        assert_eq!(NodeKind::Store.output_arity(), 1);
        assert_eq!(NodeKind::Fetch.input_arity(), 2);
        assert_eq!(NodeKind::Delete.input_arity(), 2);
        assert_eq!(NodeKind::Mux.input_arity(), 3);
        assert_eq!(NodeKind::Output("x".into()).output_arity(), 0);
    }

    #[test]
    fn names_compare_and_print_as_strings() {
        let x = Name::from("x");
        assert_eq!(x, Name::from(String::from("x")));
        assert_eq!(x, "x");
        let mut names = vec![Name::from("y"), x.clone()];
        names.sort();
        assert_eq!(names, ["x", "y"]);
        assert_eq!(format!("{:?}", NodeKind::Input(x.clone())), r#"Input("x")"#);
        assert_eq!(NodeKind::Output(x).label(), "out x");
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(NodeKind::Store.label(), "ST");
        assert_eq!(NodeKind::Fetch.label(), "FE");
        assert_eq!(NodeKind::Delete.label(), "DEL");
        assert_eq!(NodeKind::BinOp(BinOp::Mul).label(), "*");
        assert_eq!(NodeKind::Const(4).label(), "const 4");
    }
}
