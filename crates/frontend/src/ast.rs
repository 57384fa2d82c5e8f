//! Abstract syntax tree of the C subset.
//!
//! Names are slices of the source text the tree was parsed from.

use crate::token::Span;
use fpfa_cdfg::{BinOp, UnOp};

/// A binary operator as written in the source.
///
/// `&&` and `||` are kept distinct from `&`/`|` so that the lowering phase
/// can normalise their operands to 0/1 before combining them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AstBinOp {
    /// A word operator that maps one-to-one onto a CDFG [`BinOp`].
    Word(BinOp),
    /// Logical and (`&&`), non-short-circuiting in this subset.
    LogicalAnd,
    /// Logical or (`||`), non-short-circuiting in this subset.
    LogicalOr,
}

/// An expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr<'s> {
    /// Integer literal.
    Literal {
        /// The literal value.
        value: i64,
        /// Source position.
        span: Span,
    },
    /// Scalar variable reference.
    Var {
        /// Variable name.
        name: &'s str,
        /// Source position.
        span: Span,
    },
    /// Array element read `name[index]`.
    Index {
        /// Array name.
        name: &'s str,
        /// Index expression.
        index: Box<Expr<'s>>,
        /// Source position.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        operand: Box<Expr<'s>>,
        /// Source position.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: AstBinOp,
        /// Left operand.
        lhs: Box<Expr<'s>>,
        /// Right operand.
        rhs: Box<Expr<'s>>,
        /// Source position.
        span: Span,
    },
}

impl Expr<'_> {
    /// Source position of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Literal { span, .. }
            | Expr::Var { span, .. }
            | Expr::Index { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. } => *span,
        }
    }
}

/// The target of an assignment.
#[derive(Clone, PartialEq, Debug)]
pub enum LValue<'s> {
    /// Scalar variable.
    Var {
        /// Variable name.
        name: &'s str,
        /// Source position.
        span: Span,
    },
    /// Array element `name[index]`.
    Index {
        /// Array name.
        name: &'s str,
        /// Index expression.
        index: Expr<'s>,
        /// Source position.
        span: Span,
    },
}

impl LValue<'_> {
    /// Source position of the l-value.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var { span, .. } | LValue::Index { span, .. } => *span,
        }
    }
}

/// A statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt<'s> {
    /// Scalar declaration `int x;` or `int x = expr;`.
    DeclScalar {
        /// Variable name.
        name: &'s str,
        /// Optional initialiser.
        init: Option<Expr<'s>>,
        /// Source position.
        span: Span,
    },
    /// Array declaration `int a[N];`.
    DeclArray {
        /// Array name.
        name: &'s str,
        /// Compile-time length.
        len: i64,
        /// Source position.
        span: Span,
    },
    /// Assignment `lvalue = expr;`.
    Assign {
        /// Assignment target.
        target: LValue<'s>,
        /// Value expression.
        value: Expr<'s>,
        /// Source position.
        span: Span,
    },
    /// `if (cond) { then } else { otherwise }`.
    If {
        /// Condition expression.
        cond: Expr<'s>,
        /// Then branch.
        then_branch: Vec<Stmt<'s>>,
        /// Else branch (empty when absent).
        else_branch: Vec<Stmt<'s>>,
        /// Source position.
        span: Span,
    },
    /// `while (cond) { body }`.
    While {
        /// Condition expression.
        cond: Expr<'s>,
        /// Loop body.
        body: Vec<Stmt<'s>>,
        /// Source position.
        span: Span,
    },
    /// A nested block of statements (also used by the `for`-loop desugaring).
    Block {
        /// The statements of the block.
        body: Vec<Stmt<'s>>,
        /// Source position.
        span: Span,
    },
    /// Empty statement `;`.
    Empty {
        /// Source position.
        span: Span,
    },
}

/// A function definition (only `main` is accepted by the lowering phase).
#[derive(Clone, PartialEq, Debug)]
pub struct Function<'s> {
    /// Function name.
    pub name: &'s str,
    /// Statements of the body.
    pub body: Vec<Stmt<'s>>,
    /// Source position of the definition.
    pub span: Span,
}

/// A parsed translation unit.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TranslationUnit<'s> {
    /// The functions defined in the unit.
    pub functions: Vec<Function<'s>>,
}

impl<'s> TranslationUnit<'s> {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function<'s>> {
        self.functions.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_reachable() {
        let e = Expr::Literal {
            value: 1,
            span: Span::new(4, 2),
        };
        assert_eq!(e.span(), Span::new(4, 2));
        let lv = LValue::Var {
            name: "x",
            span: Span::new(1, 1),
        };
        assert_eq!(lv.span(), Span::new(1, 1));
    }

    #[test]
    fn unit_function_lookup() {
        let unit = TranslationUnit {
            functions: vec![Function {
                name: "main",
                body: vec![],
                span: Span::default(),
            }],
        };
        assert!(unit.function("main").is_some());
        assert!(unit.function("other").is_none());
    }
}
