//! A reference interpreter for kernel sources, above the lowering.
//!
//! [`run`] evaluates a kernel's AST directly, with an environment stack of
//! its own.  It uses neither [`fpfa_frontend::resolve`] nor any lowering
//! code, so comparing it with the CDFG interpreter on the lowered graph
//! checks the frontend against an independent reading of the source.  It
//! follows the flow's conventions:
//!
//! * words are 64 bits and wrap, through [`BinOp::eval`] and
//!   [`UnOp::eval`]; a division or remainder by zero fails the run;
//!   an array element's address is its base plus the index, wrapping;
//! * `&&` and `||` evaluate both operands (they do not short-circuit) and
//!   give 0 or 1;
//! * every array declaration gets a base of its own, in declaration order,
//!   and reading an address that holds no word fails the run;
//! * a scalar declared outside every loop is a parameter when it is read
//!   where no assignment can reach it, or when a loop reads it without
//!   writing it and no assignment reaches the loop (an assignment reaches a
//!   point if it does along either branch of an `if`, and a loop leaves one
//!   in every outer scalar it uses); a parameter starts at the value bound
//!   to its name, and every other scalar starts at 0;
//! * a loop runs at most [`DEFAULT_LOOP_BUDGET`] iterations, the CDFG
//!   interpreter's budget.
//!
//! Only the branch an `if` takes runs here, while the if-converted graph
//! evaluates both: a division by zero in an untaken branch fails only the
//! CDFG run.

use fpfa_cdfg::interp::DEFAULT_LOOP_BUDGET;
use fpfa_cdfg::StateSpace;
#[cfg(doc)]
use fpfa_cdfg::{BinOp, UnOp};
use fpfa_frontend::ast::{AstBinOp, Expr, LValue, NameId, Stmt};
use fpfa_frontend::{lexer, parser, FrontendError};
use std::fmt;

/// What a run leaves behind.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceRun {
    /// The scalars declared in the function body, outside every `if` and
    /// loop, with their final values, in declaration order.
    pub scalars: Vec<(String, i64)>,
    /// The final statespace.
    pub state: StateSpace,
}

impl SourceRun {
    /// The final value of the function-body scalar `name`.
    pub fn scalar(&self, name: &str) -> Option<i64> {
        let mut scalars = self.scalars.iter();
        scalars
            .find(|(scalar, _)| scalar == name)
            .map(|&(_, value)| value)
    }
}

/// Why a run failed.
#[derive(Clone, PartialEq, Debug)]
pub enum RunError {
    /// The source does not lex or parse, or has no `main`.
    Frontend(FrontendError),
    /// A name names no visible declaration of the kind its use needs.
    Unbound(String),
    /// The arrays do not fit in the statespace's address range.
    AddressSpaceExhausted(String),
    /// A division or remainder by zero.
    DivisionByZero,
    /// A read of a statespace address that holds no word.
    UnboundAddress(i64),
    /// A loop ran its whole iteration budget.
    LoopBudgetExceeded,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Frontend(error) => write!(f, "{error}"),
            RunError::Unbound(name) => write!(f, "`{name}` names no declaration of its kind"),
            RunError::AddressSpaceExhausted(name) => {
                write!(f, "array `{name}` does not fit in the address range")
            }
            RunError::DivisionByZero => f.write_str("division by zero"),
            RunError::UnboundAddress(address) => write!(f, "address {address} holds no word"),
            RunError::LoopBudgetExceeded => {
                write!(f, "a loop ran {DEFAULT_LOOP_BUDGET} iterations")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Runs `main` of `source` from the statespace `state`, with `parameters`
/// bound by name.
///
/// # Errors
/// See [`RunError`].
pub fn run(
    source: &str,
    parameters: &[(&str, i64)],
    state: StateSpace,
) -> Result<SourceRun, RunError> {
    let tokens = lexer::lex(source).map_err(RunError::Frontend)?;
    let unit = parser::parse(&tokens).map_err(RunError::Frontend)?;
    let main = unit
        .function("main")
        .ok_or(RunError::Frontend(FrontendError::MissingMain))?;
    let mut plan = Plan {
        parameters,
        starts: vec![0; main.occurrences],
        next_base: 0,
        scope: Vec::new(),
        loops: 0,
    };
    plan.stmts(&main.body)?;
    let mut machine = Machine {
        starts: plan.starts,
        vars: Vec::new(),
        state,
    };
    machine.stmts(&main.body)?;
    let scalars = machine
        .vars
        .into_iter()
        .filter_map(|(name, var)| match var {
            Var::Scalar(value) => Some((name.to_string(), value)),
            Var::Array { .. } => None,
        });
    Ok(SourceRun {
        scalars: scalars.collect(),
        state: machine.state,
    })
}

/// The walk before the run: it gives every array declaration its base, in
/// source order, and finds the parameters, with a scope stack of its own.
struct Plan<'p, 's> {
    parameters: &'p [(&'p str, i64)],
    /// Where each declaration starts, by the occurrence of its name: an
    /// array's base, or the value of a scalar declared without initialiser.
    starts: Vec<i64>,
    next_base: i64,
    /// The declarations in scope, innermost last.
    scope: Vec<Visible<'s>>,
    /// The loops around the point of the walk.
    loops: usize,
}

/// A declaration in the planning walk's scope.
struct Visible<'s> {
    name: &'s str,
    id: NameId,
    /// Whether it is a scalar declared outside every loop.
    outer: bool,
    /// Whether an assignment can reach the point of the walk.
    assigned: bool,
    /// Whether the outermost loop being walked reads or writes it, and
    /// whether it writes it.
    used: bool,
    written: bool,
}

impl<'s> Plan<'_, 's> {
    fn stmts(&mut self, stmts: &[Stmt<'s>]) -> Result<(), RunError> {
        for stmt in stmts {
            match stmt {
                Stmt::Empty { .. } => {}
                Stmt::Block { body, .. } => self.stmts(body)?,
                Stmt::DeclScalar { name, id, init, .. } => {
                    if let Some(init) = init {
                        self.expr(init);
                    }
                    self.declare(name, *id, self.loops == 0, init.is_some());
                }
                Stmt::DeclArray { name, id, len, .. } => {
                    self.starts[id.index()] = self.next_base;
                    self.next_base = self
                        .next_base
                        .checked_add(*len)
                        .ok_or_else(|| RunError::AddressSpaceExhausted(name.to_string()))?;
                    self.declare(name, *id, false, false);
                }
                Stmt::Assign { target, value, .. } => {
                    self.expr(value);
                    match target {
                        LValue::Var { name, .. } => self.write(name),
                        LValue::Index { index, .. } => self.expr(index),
                    }
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.expr(cond);
                    self.branches(then_branch, else_branch)?;
                }
                Stmt::While { cond, body, .. } => {
                    let mark = self.scope.len();
                    self.loops += 1;
                    self.expr(cond);
                    self.stmts(body)?;
                    self.loops -= 1;
                    self.scope.truncate(mark);
                    if self.loops == 0 {
                        self.close_loop();
                    }
                }
            }
        }
        Ok(())
    }

    fn declare(&mut self, name: &'s str, id: NameId, outer: bool, assigned: bool) {
        self.scope.push(Visible {
            name,
            id,
            outer,
            assigned,
            used: false,
            written: false,
        });
    }

    fn expr(&mut self, expr: &Expr<'s>) {
        match expr {
            Expr::Literal { .. } => {}
            Expr::Var { name, .. } => match self.outer(name) {
                Some(at) if self.loops > 0 => self.scope[at].used = true,
                Some(at) if !self.scope[at].assigned => self.take_parameter(at),
                _ => {}
            },
            Expr::Index { index, .. } => self.expr(index),
            Expr::Unary { operand, .. } => self.expr(operand),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
        }
    }

    fn write(&mut self, name: &str) {
        let Some(at) = self.outer(name) else {
            return;
        };
        let var = &mut self.scope[at];
        if self.loops > 0 {
            var.used = true;
            var.written = true;
        } else {
            var.assigned = true;
        }
    }

    /// The position in scope of the innermost declaration of `name`, if it
    /// is a scalar declared outside every loop.
    fn outer(&self, name: &str) -> Option<usize> {
        let at = self.scope.iter().rposition(|var| var.name == name)?;
        self.scope[at].outer.then_some(at)
    }

    /// Starts the scalar at `at` from the parameter of its name.
    fn take_parameter(&mut self, at: usize) {
        let Visible { name, id, .. } = self.scope[at];
        let mut parameters = self.parameters.iter();
        let value = parameters.find(|(parameter, _)| *parameter == name);
        self.starts[id.index()] = value.map_or(0, |&(_, value)| value);
    }

    /// An `if`'s branches: each starts from what reached the `if`, and an
    /// assignment reaches what follows if it does along either.
    fn branches(
        &mut self,
        then_branch: &[Stmt<'s>],
        else_branch: &[Stmt<'s>],
    ) -> Result<(), RunError> {
        let mark = self.scope.len();
        let before: Vec<bool> = self.scope.iter().map(|var| var.assigned).collect();
        self.stmts(then_branch)?;
        self.scope.truncate(mark);
        let mut then = Vec::with_capacity(mark);
        for (var, before) in self.scope.iter_mut().zip(before) {
            then.push(std::mem::replace(&mut var.assigned, before));
        }
        self.stmts(else_branch)?;
        self.scope.truncate(mark);
        for (var, then) in self.scope.iter_mut().zip(then) {
            var.assigned |= then;
        }
        Ok(())
    }

    /// Ends an outermost loop: a scalar it reads but does not write, with
    /// no assignment reaching the loop, is a parameter, and the loop leaves
    /// a value in every scalar it uses.
    fn close_loop(&mut self) {
        for at in 0..self.scope.len() {
            let var = &mut self.scope[at];
            let written = std::mem::take(&mut var.written);
            if std::mem::take(&mut var.used) {
                let parameter = !var.assigned && !written;
                var.assigned = true;
                if parameter {
                    self.take_parameter(at);
                }
            }
        }
    }
}

/// A variable in the environment.
#[derive(Clone, Copy)]
enum Var {
    Scalar(i64),
    Array { base: i64 },
}

struct Machine<'s> {
    /// Where each declaration starts, from [`Plan`].
    starts: Vec<i64>,
    /// The environment stack: every variable in scope, innermost last.
    vars: Vec<(&'s str, Var)>,
    state: StateSpace,
}

impl<'s> Machine<'s> {
    /// Runs `stmts` as a scope of their own.
    fn scope(&mut self, stmts: &[Stmt<'s>]) -> Result<(), RunError> {
        let mark = self.vars.len();
        self.stmts(stmts)?;
        self.vars.truncate(mark);
        Ok(())
    }

    fn stmts(&mut self, stmts: &[Stmt<'s>]) -> Result<(), RunError> {
        for stmt in stmts {
            match stmt {
                Stmt::Empty { .. } => {}
                // Blocks open no scope: the `for` desugaring relies on it.
                Stmt::Block { body, .. } => self.stmts(body)?,
                Stmt::DeclScalar { name, id, init, .. } => {
                    let value = match init {
                        Some(init) => self.expr(init)?,
                        None => self.starts[id.index()],
                    };
                    self.vars.push((name, Var::Scalar(value)));
                }
                Stmt::DeclArray { name, id, .. } => {
                    let base = self.starts[id.index()];
                    self.vars.push((name, Var::Array { base }));
                }
                Stmt::Assign { target, value, .. } => {
                    let value = self.expr(value)?;
                    match target {
                        LValue::Var { name, .. } => *self.scalar(name)? = value,
                        LValue::Index { name, index, .. } => {
                            let address = self.address(name, index)?;
                            self.state.store(address, value);
                        }
                    }
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    let taken = if self.expr(cond)? != 0 {
                        then_branch
                    } else {
                        else_branch
                    };
                    self.scope(taken)?;
                }
                Stmt::While { cond, body, .. } => self.run_loop(cond, body)?,
            }
        }
        Ok(())
    }

    /// Runs a loop the way the CDFG interpreter runs a loop node: at most
    /// [`DEFAULT_LOOP_BUDGET`] tests of the condition that run the body.
    fn run_loop(&mut self, cond: &Expr<'s>, body: &[Stmt<'s>]) -> Result<(), RunError> {
        for _ in 0..DEFAULT_LOOP_BUDGET {
            if self.expr(cond)? == 0 {
                return Ok(());
            }
            self.scope(body)?;
        }
        Err(RunError::LoopBudgetExceeded)
    }

    fn expr(&mut self, expr: &Expr<'s>) -> Result<i64, RunError> {
        Ok(match expr {
            Expr::Literal { value, .. } => *value,
            Expr::Var { name, .. } => *self.scalar(name)?,
            Expr::Index { name, index, .. } => {
                let address = self.address(name, index)?;
                self.state
                    .fetch(address)
                    .ok_or(RunError::UnboundAddress(address))?
            }
            Expr::Unary { op, operand, .. } => op.eval(self.expr(operand)?),
            Expr::Binary { op, lhs, rhs, .. } => {
                let lhs = self.expr(lhs)?;
                let rhs = self.expr(rhs)?;
                match op {
                    AstBinOp::Word(op) => op.eval(lhs, rhs).ok_or(RunError::DivisionByZero)?,
                    AstBinOp::LogicalAnd => i64::from(lhs != 0 && rhs != 0),
                    AstBinOp::LogicalOr => i64::from(lhs != 0 || rhs != 0),
                }
            }
        })
    }

    /// The innermost variable in scope named `name`.
    fn lookup(&mut self, name: &str) -> Result<&mut Var, RunError> {
        let vars = self.vars.iter_mut().rev();
        vars.map(|(var_name, var)| (*var_name, var))
            .find(|&(var_name, _)| var_name == name)
            .map(|(_, var)| var)
            .ok_or_else(|| RunError::Unbound(name.to_string()))
    }

    fn scalar(&mut self, name: &str) -> Result<&mut i64, RunError> {
        match self.lookup(name)? {
            Var::Scalar(value) => Ok(value),
            Var::Array { .. } => Err(RunError::Unbound(name.to_string())),
        }
    }

    /// The statespace address of `name[index]`.
    fn address(&mut self, name: &str, index: &Expr<'s>) -> Result<i64, RunError> {
        let base = match *self.lookup(name)? {
            Var::Array { base } => base,
            Var::Scalar(_) => return Err(RunError::Unbound(name.to_string())),
        };
        Ok(base.wrapping_add(self.expr(index)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(words: &[i64]) -> StateSpace {
        StateSpace::from_tuples((0..).zip(words.iter().copied()))
    }

    #[test]
    fn runs_loops_branches_and_arrays() {
        let run = run(
            "void main() { int a[4]; int b[2]; int s; int i; s = 0; \
             for (i = 0; i < 4; i = i + 1) { if (a[i] > 1) { s = s + a[i]; } } b[1] = s; }",
            &[],
            words(&[1, 2, 3, 4]),
        )
        .unwrap();
        assert_eq!(run.scalar("s"), Some(9));
        assert_eq!(run.scalar("i"), Some(4));
        assert_eq!(run.state.fetch(5), Some(9));
    }

    #[test]
    fn only_scalars_no_assignment_reaches_take_a_parameter() {
        let with_n = |source, c, d| {
            let parameters = [("c", c), ("d", d), ("n", 7)];
            run(source, &parameters, StateSpace::new()).unwrap()
        };
        // The first `n` is read unassigned; the second is assigned along
        // one branch, so it starts at 0, not at the parameter `n`.
        let source = "void main() { int c; int d; int y; int z; if (c) { int n; y = n; } \
                      int n; if (d) { n = 1; } z = n; }";
        let untaken = with_n(source, 1, 0);
        assert_eq!(
            (untaken.scalar("y"), untaken.scalar("z")),
            (Some(7), Some(0))
        );
        assert_eq!(with_n(source, 1, 1).scalar("z"), Some(1));
        // A loop that reads an outer scalar it does not write takes the
        // parameter; one that writes it starts it at 0.
        let read = "void main() { int n; int i; int s; i = 0; s = 0; \
                    while (i < 2) { s = s + n; i = i + 1; } }";
        assert_eq!(with_n(read, 0, 0).scalar("s"), Some(14));
        let written = "void main() { int n; int i; int s; i = 0; s = 0; \
                       while (i < 2) { s = s + n; n = 5; i = i + 1; } }";
        assert_eq!(with_n(written, 0, 0).scalar("s"), Some(5));
    }

    #[test]
    fn parameters_bind_by_name_outside_loops_only() {
        let source = "void main() { int n; int y; int i; i = 0; y = n; \
                      while (i < 1) { int n; n = 3; y = y + n; i = i + 1; } }";
        let run = run(source, &[("n", 7)], StateSpace::new()).unwrap();
        assert_eq!(run.scalar("y"), Some(10));
        assert_eq!(run.scalar("n"), Some(7));
    }

    #[test]
    fn a_redeclared_array_and_scalar_are_new_variables() {
        let source = "void main() { int c; int t; int x; x = 1; t = 0; \
                      if (c) { int a[2]; int x; x = 5; t = a[0]; } \
                      int a[3]; t = t + a[1] + x; }";
        let state = words(&[10, 20, 30, 40, 50]);
        let taken = run(source, &[("c", 1)], state.clone()).unwrap();
        assert_eq!(taken.scalar("t"), Some(10 + 40 + 1));
        let untaken = run(source, &[("c", 0)], state).unwrap();
        assert_eq!(untaken.scalar("t"), Some(40 + 1));
    }

    #[test]
    fn failures_follow_the_cdfg_interpreter() {
        let divide = run("void main() { int x; x = 1 / x; }", &[], StateSpace::new());
        assert_eq!(divide, Err(RunError::DivisionByZero));
        let unbound = run(
            "void main() { int a[2]; int x; x = a[1]; }",
            &[],
            words(&[1]),
        );
        assert_eq!(unbound, Err(RunError::UnboundAddress(1)));
        let forever = run(
            "void main() { int i; i = 0; while (i < 1) { i = 0; } }",
            &[],
            StateSpace::new(),
        );
        assert_eq!(forever, Err(RunError::LoopBudgetExceeded));
        // `&&` does not short-circuit.
        let both = run(
            "void main() { int x; x = 0 && 1 / x; }",
            &[],
            StateSpace::new(),
        );
        assert_eq!(both, Err(RunError::DivisionByZero));
    }
}
