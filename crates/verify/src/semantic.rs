//! Frontend semantic analysis: span-carrying lint diagnostics over the AST.
//!
//! [`analyze`] runs *before* lowering and reports the `FS0xx` rules of
//! [`crate::diag::RULES`]:
//!
//! * **FS003** (deny) mirrors the lowering's use-before-assignment rule: a
//!   scalar declared inside a loop construct and read before it was assigned
//!   fails to lower, and this pass points at the exact source position. At
//!   the top level an unassigned read legally becomes an implicit kernel
//!   parameter, so no diagnostic fires there.
//! * **FS006** (deny) flags constant array indices outside the declared
//!   bounds — the lowering happily emits the out-of-bounds statespace access,
//!   so this is the only line of defence before a silently corrupted
//!   mapping.
//! * **FS001/FS002/FS004/FS005** (warn) are lints: unused scalars and
//!   arrays, loop bounds that are not compile-time constants (the flow can
//!   only unroll constant-trip-count loops) and constant arithmetic that
//!   wraps the 64-bit machine word.

use crate::diag::{Diagnostic, VerifyReport};
use fpfa_cdfg::BinOp;
use fpfa_frontend::ast::{AstBinOp, Expr, LValue, Stmt, TranslationUnit};
use fpfa_frontend::token::Span;
use fpfa_frontend::{lexer, parser, FrontendError};
use std::collections::{BTreeSet, HashMap};

/// Lints a C-subset source string.
///
/// # Errors
/// Returns the lexer's or parser's [`FrontendError`] when the source does not
/// parse — semantic analysis needs an AST. Lowering errors do *not* surface
/// here; the overlap (use-before-assignment) is reported as FS003.
pub fn analyze(source: &str) -> Result<VerifyReport, FrontendError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(&tokens)?;
    Ok(analyze_unit(&unit))
}

/// Lints an already-parsed translation unit.
pub fn analyze_unit(unit: &TranslationUnit<'_>) -> VerifyReport {
    let mut report = VerifyReport::new();
    for function in &unit.functions {
        let mut env = Env::default();
        analyze_stmts(&function.body, &mut env, false, &mut report);
        env.finish(&mut report);
    }
    report
}

/// What the analyzer knows about one declared name.
#[derive(Clone, Debug)]
enum Var {
    Scalar {
        span: Span,
        assigned: bool,
        read: bool,
    },
    Array {
        span: Span,
        len: i64,
        accessed: bool,
    },
}

/// The per-scope environment: declaration state of every visible name.
#[derive(Clone, Default, Debug)]
struct Env {
    vars: HashMap<String, Var>,
    /// Declaration order, so unused-variable lints come out deterministic.
    order: Vec<String>,
}

impl Env {
    fn declare(&mut self, name: &str, var: Var) {
        if self.vars.insert(name.to_string(), var).is_none() {
            self.order.push(name.to_string());
        }
    }

    /// Emits the unused-name lints for everything declared in this scope.
    fn finish(&self, report: &mut VerifyReport) {
        for name in &self.order {
            match &self.vars[name] {
                Var::Scalar {
                    span, read: false, ..
                } => report.push(
                    Diagnostic::warn("FS001", format!("scalar '{name}' is never read"))
                        .with_span(*span),
                ),
                Var::Array {
                    span,
                    accessed: false,
                    ..
                } => report.push(
                    Diagnostic::warn("FS002", format!("array '{name}' is never accessed"))
                        .with_span(*span),
                ),
                _ => {}
            }
        }
    }

    /// Emits the unused lints for names declared here but not in `outer`
    /// (scope-local declarations about to go out of scope), then merges the
    /// read/assigned/accessed flags of the shared names back into `outer`.
    fn merge_into(self, outer: &mut Env, report: &mut VerifyReport) {
        for name in &self.order {
            if outer.vars.contains_key(name) {
                continue;
            }
            match &self.vars[name] {
                Var::Scalar {
                    span, read: false, ..
                } => report.push(
                    Diagnostic::warn("FS001", format!("scalar '{name}' is never read"))
                        .with_span(*span),
                ),
                Var::Array {
                    span,
                    accessed: false,
                    ..
                } => report.push(
                    Diagnostic::warn("FS002", format!("array '{name}' is never accessed"))
                        .with_span(*span),
                ),
                _ => {}
            }
        }
        for (name, var) in self.vars {
            if let Some(outer_var) = outer.vars.get_mut(&name) {
                match (outer_var, var) {
                    (
                        Var::Scalar { assigned, read, .. },
                        Var::Scalar {
                            assigned: inner_assigned,
                            read: inner_read,
                            ..
                        },
                    ) => {
                        *assigned |= inner_assigned;
                        *read |= inner_read;
                    }
                    (
                        Var::Array { accessed, .. },
                        Var::Array {
                            accessed: inner_accessed,
                            ..
                        },
                    ) => *accessed |= inner_accessed,
                    _ => {}
                }
            }
        }
    }
}

/// Scalar reads and writes of a statement list, mirroring the lowering's
/// `Usage` collection for loop-carried variable discovery.
#[derive(Default, Debug)]
struct Usage<'s> {
    reads: BTreeSet<&'s str>,
    writes: BTreeSet<&'s str>,
    locals: BTreeSet<&'s str>,
}

fn collect_expr<'s>(expr: &Expr<'s>, usage: &mut Usage<'s>) {
    match expr {
        Expr::Literal { .. } => {}
        Expr::Var { name, .. } => {
            usage.reads.insert(name);
        }
        Expr::Index { index, .. } => collect_expr(index, usage),
        Expr::Unary { operand, .. } => collect_expr(operand, usage),
        Expr::Binary { lhs, rhs, .. } => {
            collect_expr(lhs, usage);
            collect_expr(rhs, usage);
        }
    }
}

fn collect_stmts<'s>(stmts: &[Stmt<'s>], usage: &mut Usage<'s>) {
    for stmt in stmts {
        match stmt {
            Stmt::DeclScalar { name, init, .. } => {
                if let Some(init) = init {
                    collect_expr(init, usage);
                }
                usage.locals.insert(name);
            }
            Stmt::DeclArray { name, .. } => {
                usage.locals.insert(name);
            }
            Stmt::Assign { target, value, .. } => {
                collect_expr(value, usage);
                match target {
                    LValue::Var { name, .. } => {
                        usage.writes.insert(name);
                    }
                    LValue::Index { index, .. } => collect_expr(index, usage),
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                collect_expr(cond, usage);
                collect_stmts(then_branch, usage);
                collect_stmts(else_branch, usage);
            }
            Stmt::While { cond, body, .. } => {
                collect_expr(cond, usage);
                collect_stmts(body, usage);
            }
            Stmt::Block { body, .. } => collect_stmts(body, usage),
            Stmt::Empty { .. } => {}
        }
    }
}

/// Constant-folds an expression without looking at variables, reporting
/// FS005 when a fold wraps the 64-bit machine word. Mirrors the wrapping
/// semantics of [`BinOp::eval`].
fn const_fold(expr: &Expr<'_>, report: &mut VerifyReport) -> Option<i64> {
    match expr {
        Expr::Literal { value, .. } => Some(*value),
        Expr::Var { .. } | Expr::Index { .. } => None,
        Expr::Unary { op, operand, span } => {
            let value = const_fold(operand, report)?;
            if matches!(op, fpfa_cdfg::UnOp::Neg) && value.checked_neg().is_none() {
                report.push(
                    Diagnostic::warn(
                        "FS005",
                        format!("negating {value} wraps the 64-bit machine word"),
                    )
                    .with_span(*span),
                );
            }
            Some(op.eval(value))
        }
        Expr::Binary { op, lhs, rhs, span } => {
            let lhs = const_fold(lhs, report)?;
            let rhs = const_fold(rhs, report)?;
            match op {
                AstBinOp::Word(word) => {
                    let wrapped = match word {
                        BinOp::Add => lhs.checked_add(rhs).is_none(),
                        BinOp::Sub => lhs.checked_sub(rhs).is_none(),
                        BinOp::Mul => lhs.checked_mul(rhs).is_none(),
                        _ => false,
                    };
                    if wrapped {
                        report.push(
                            Diagnostic::warn(
                                "FS005",
                                format!(
                                    "constant expression {lhs} {} {rhs} wraps the 64-bit \
                                     machine word",
                                    word.mnemonic()
                                ),
                            )
                            .with_span(*span),
                        );
                    }
                    word.eval(lhs, rhs)
                }
                AstBinOp::LogicalAnd => Some(i64::from(lhs != 0 && rhs != 0)),
                AstBinOp::LogicalOr => Some(i64::from(lhs != 0 || rhs != 0)),
            }
        }
    }
}

fn analyze_expr(expr: &Expr<'_>, env: &mut Env, nested: bool, report: &mut VerifyReport) {
    match expr {
        Expr::Literal { .. } => {}
        Expr::Var { name, span } => {
            // Undeclared names and arrays-as-scalars are hard frontend
            // errors with their own rendering; no lint for those here.
            if let Some(Var::Scalar { assigned, read, .. }) = env.vars.get_mut(*name) {
                *read = true;
                if !*assigned {
                    if nested {
                        // Mirrors `FrontendError::UseBeforeAssignment`: a
                        // scalar declared inside the loop construct has no
                        // loop-carried initial value to fall back on.
                        report.push(
                            Diagnostic::deny("FS003", format!("'{name}' read before assignment"))
                                .with_span(*span),
                        );
                    } else {
                        // Top level: the read turns the scalar into an
                        // implicit kernel parameter.
                        *assigned = true;
                    }
                }
            }
        }
        Expr::Index { name, index, span } => {
            analyze_expr(index, env, nested, report);
            let folded = const_fold(index, &mut VerifyReport::new());
            if let Some(Var::Array { len, accessed, .. }) = env.vars.get_mut(*name) {
                let len = *len;
                *accessed = true;
                if let Some(at) = folded {
                    if at < 0 || at >= len {
                        report.push(
                            Diagnostic::deny(
                                "FS006",
                                format!("constant index {at} is out of bounds for '{name}[{len}]'"),
                            )
                            .with_span(*span),
                        );
                    }
                }
            }
        }
        Expr::Unary { operand, .. } => {
            analyze_expr(operand, env, nested, report);
            const_fold(expr, report);
        }
        Expr::Binary { lhs, rhs, .. } => {
            analyze_expr(lhs, env, nested, report);
            analyze_expr(rhs, env, nested, report);
            const_fold(expr, report);
        }
    }
}

fn analyze_stmts(stmts: &[Stmt<'_>], env: &mut Env, nested: bool, report: &mut VerifyReport) {
    for stmt in stmts {
        match stmt {
            Stmt::DeclScalar { name, init, span } => {
                if let Some(init) = init {
                    analyze_expr(init, env, nested, report);
                }
                env.declare(
                    name,
                    Var::Scalar {
                        span: *span,
                        assigned: init.is_some(),
                        read: false,
                    },
                );
            }
            Stmt::DeclArray { name, len, span } => {
                env.declare(
                    name,
                    Var::Array {
                        span: *span,
                        len: *len,
                        accessed: false,
                    },
                );
            }
            Stmt::Assign { target, value, .. } => {
                analyze_expr(value, env, nested, report);
                match target {
                    LValue::Var { name, .. } => {
                        if let Some(Var::Scalar { assigned, .. }) = env.vars.get_mut(*name) {
                            *assigned = true;
                        }
                    }
                    LValue::Index { name, index, span } => {
                        analyze_expr(index, env, nested, report);
                        let folded = const_fold(index, &mut VerifyReport::new());
                        if let Some(Var::Array { len, accessed, .. }) = env.vars.get_mut(*name) {
                            let len = *len;
                            *accessed = true;
                            if let Some(at) = folded {
                                if at < 0 || at >= len {
                                    report.push(
                                        Diagnostic::deny(
                                            "FS006",
                                            format!(
                                                "constant index {at} is out of bounds for \
                                                 '{name}[{len}]'"
                                            ),
                                        )
                                        .with_span(*span),
                                    );
                                }
                            }
                        }
                    }
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                analyze_expr(cond, env, nested, report);
                let mut then_env = env.clone();
                analyze_stmts(then_branch, &mut then_env, nested, report);
                let mut else_env = env.clone();
                analyze_stmts(else_branch, &mut else_env, nested, report);
                // The lowering merges one-sided assignments through a mux
                // (materialising 0 on the missing side), so a variable
                // assigned in either branch counts as assigned afterwards.
                then_env.merge_into(env, report);
                else_env.merge_into(env, report);
            }
            Stmt::While { cond, body, span } => {
                // Mirror the lowering's loop-carried variable discovery:
                // outer scalars read or written by the loop, minus the
                // loop's own declarations.
                let mut usage = Usage::default();
                collect_expr(cond, &mut usage);
                collect_stmts(body, &mut usage);
                let mut loop_env = env.clone();
                for name in usage.reads.union(&usage.writes) {
                    if usage.locals.contains(name) {
                        continue;
                    }
                    let Some(Var::Scalar { assigned, .. }) = env.vars.get_mut(*name) else {
                        continue;
                    };
                    if !*assigned && !usage.writes.contains(name) {
                        // The lowering reads the carried variable's initial
                        // value here; at the top level that read makes it a
                        // kernel parameter, inside a loop it is
                        // use-before-assignment.
                        if nested {
                            report.push(
                                Diagnostic::deny(
                                    "FS003",
                                    format!("'{name}' read before assignment"),
                                )
                                .with_span(*span),
                            );
                        } else {
                            *assigned = true;
                        }
                    }
                    // Inside the loop every carried variable starts from its
                    // carried value (or the materialised 0 for
                    // written-before-read variables).
                    if let Some(Var::Scalar { assigned, .. }) = loop_env.vars.get_mut(*name) {
                        *assigned = true;
                    }
                }
                // FS004: the flow can only unroll loops whose trip count is
                // a compile-time constant — a comparison against a foldable
                // bound. Warn when no side of the condition folds.
                if let Expr::Binary { op, lhs, rhs, .. } = cond {
                    let comparison = matches!(op, AstBinOp::Word(word) if word.is_comparison());
                    let mut scratch = VerifyReport::new();
                    if comparison
                        && const_fold(lhs, &mut scratch).is_none()
                        && const_fold(rhs, &mut scratch).is_none()
                    {
                        report.push(
                            Diagnostic::warn(
                                "FS004",
                                "loop bound is not a compile-time constant; the flow cannot \
                                 unroll this loop"
                                    .to_string(),
                            )
                            .with_span(*span),
                        );
                    }
                }
                analyze_expr(cond, &mut loop_env, true, report);
                analyze_stmts(body, &mut loop_env, true, report);
                loop_env.merge_into(env, report);
                // After the loop, every carried variable holds its final
                // value.
                for name in usage.writes.iter() {
                    if usage.locals.contains(name) {
                        continue;
                    }
                    if let Some(Var::Scalar { assigned, .. }) = env.vars.get_mut(*name) {
                        *assigned = true;
                    }
                }
            }
            Stmt::Block { body, .. } => {
                // Blocks are transparent in the lowering (the `for`
                // desugaring relies on it), so no scope is pushed.
                analyze_stmts(body, env, nested, report);
            }
            Stmt::Empty { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn run(source: &str) -> VerifyReport {
        analyze(source).expect("source should parse")
    }

    #[test]
    fn clean_kernel_has_no_diagnostics() {
        let report = run(r#"
            void main() {
                int a[8];
                int sum;
                int i;
                sum = 0; i = 0;
                while (i < 8) { sum = sum + a[i]; i = i + 1; }
            }
        "#);
        assert!(
            report.diagnostics.is_empty(),
            "unexpected diagnostics:\n{report}"
        );
    }

    #[test]
    fn read_before_assignment_inside_a_loop_is_fs003() {
        let report = run(r#"
            void main() {
                int i;
                int sum;
                sum = 0;
                i = 0;
                while (i < 4) {
                    int acc;
                    sum = sum + acc;
                    acc = sum;
                    i = i + 1;
                }
            }
        "#);
        assert!(report.has_rule("FS003"), "expected FS003:\n{report}");
        let diag = report.of_rule("FS003")[0];
        assert_eq!(diag.severity, Severity::Deny);
        assert!(diag.message.contains("'acc'"));
        assert!(diag.span.is_some());
    }

    #[test]
    fn top_level_unassigned_read_is_an_implicit_parameter() {
        // `x` becomes a kernel input — exactly what the lowering does — so
        // no FS003 fires and no FS001 either (it is read).
        let report = run(r#"
            void main() {
                int x;
                int y;
                y = x + 1;
            }
        "#);
        assert!(!report.has_rule("FS003"), "spurious FS003:\n{report}");
    }

    #[test]
    fn unused_scalar_and_array_warn() {
        let report = run(r#"
            void main() {
                int unused_scalar;
                int unused_array[4];
                int y;
                y = 1;
            }
        "#);
        assert!(report.has_rule("FS001"));
        assert!(report.has_rule("FS002"));
        // `y` is assigned but never read -> also FS001.
        assert_eq!(report.of_rule("FS001").len(), 2);
        assert!(report.is_clean(), "lints must stay warn-level:\n{report}");
    }

    #[test]
    fn non_constant_loop_bound_warns_fs004() {
        let report = run(r#"
            void main() {
                int n;
                int i;
                int sum;
                sum = 0; i = 0;
                while (i < n) { sum = sum + i; i = i + 1; }
            }
        "#);
        assert!(report.has_rule("FS004"), "expected FS004:\n{report}");
        assert!(report.is_clean());
    }

    #[test]
    fn constant_overflow_warns_fs005() {
        let report = run(r#"
            void main() {
                int x;
                x = 9223372036854775807 + 1;
            }
        "#);
        assert!(report.has_rule("FS005"), "expected FS005:\n{report}");
        assert!(report.is_clean());
    }

    #[test]
    fn constant_index_out_of_bounds_is_fs006() {
        let report = run(r#"
            void main() {
                int a[4];
                int x;
                x = a[4];
            }
        "#);
        assert!(report.has_rule("FS006"), "expected FS006:\n{report}");
        assert!(!report.is_clean());
    }

    #[test]
    fn in_bounds_constant_index_is_clean() {
        let report = run(r#"
            void main() {
                int a[4];
                int x;
                x = a[3];
                a[0] = x;
            }
        "#);
        assert!(!report.has_rule("FS006"), "spurious FS006:\n{report}");
    }

    #[test]
    fn if_branch_assignment_counts_after_the_branch() {
        // `v` is assigned in one branch only; the lowering materialises 0 on
        // the other side, so the later read inside the loop is legal.
        let report = run(r#"
            void main() {
                int i;
                int out;
                i = 0;
                out = 0;
                while (i < 4) {
                    int v;
                    if (i > 2) { v = i; } else { ; }
                    out = out + v;
                    i = i + 1;
                }
            }
        "#);
        assert!(!report.has_rule("FS003"), "spurious FS003:\n{report}");
    }
}
