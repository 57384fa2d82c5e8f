//! Frontend semantic analysis: span-carrying lint diagnostics over the AST.
//!
//! [`analyze`] runs *before* lowering and reports the `FS0xx` rules of
//! [`crate::diag::RULES`].  Which declaration each name occurrence names,
//! and which reads no assignment reaches, it takes from
//! [`fpfa_frontend::resolve`], the resolution the lowering reads, so the
//! lints and the lowering see one scope model:
//!
//! * **FS003** (deny) reports the unassigned reads inside loops: a scalar
//!   declared in a loop and read where no assignment reaches it, or a loop
//!   that starts by reading such a scalar of the loop around it.  The
//!   lowering rejects exactly these with `UseBeforeAssignment`, at the same
//!   span.  In the function body an unassigned read makes the scalar a
//!   kernel parameter, so no diagnostic fires there.
//! * **FS006** (deny) flags constant array indices outside the declared
//!   bounds — the lowering happily emits the out-of-bounds statespace access,
//!   so this is the only line of defence before a silently corrupted
//!   mapping.
//! * **FS001/FS002/FS004/FS005** (warn) are lints: scalar declarations no
//!   read names and array declarations no access names (each declaration on
//!   its own, after the walk), loop bounds that are not compile-time
//!   constants (the flow can only unroll constant-trip-count loops) and
//!   constant arithmetic that wraps the 64-bit machine word.

use crate::diag::{Diagnostic, VerifyReport};
use fpfa_cdfg::BinOp;
use fpfa_frontend::ast::{AstBinOp, Expr, LValue, NameId, Stmt, TranslationUnit};
use fpfa_frontend::resolve::{resolve, Resolution};
use fpfa_frontend::token::Span;
use fpfa_frontend::{lexer, parser, FrontendError};

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
        let resolution = resolve(function);
        let mut lints = Lints {
            resolution: &resolution,
            used: vec![false; resolution.decls().len()],
            next_loop: 0,
            report: &mut report,
        };
        lints.stmts(&function.body);
        let used = lints.used;
        for (decl, used) in resolution.decls().iter().zip(used) {
            if used {
                continue;
            }
            let name = decl.name;
            let diagnostic = match decl.len {
                None => Diagnostic::warn("FS001", format!("scalar '{name}' is never read")),
                Some(_) => Diagnostic::warn("FS002", format!("array '{name}' is never accessed")),
            };
            report.push(diagnostic.with_span(decl.span));
        }
    }
    report
}

/// One walk over a function body, in source order.
struct Lints<'a, 's> {
    resolution: &'a Resolution<'s>,
    /// Whether a read names each scalar declaration, or an access each array
    /// declaration.
    used: Vec<bool>,
    /// The next loop of the resolution the walk meets.
    next_loop: usize,
    report: &'a mut VerifyReport,
}

impl Lints<'_, '_> {
    fn stmts(&mut self, stmts: &[Stmt<'_>]) {
        for stmt in stmts {
            match stmt {
                Stmt::DeclScalar {
                    init: Some(init), ..
                } => self.expr(init),
                Stmt::DeclScalar { .. } | Stmt::DeclArray { .. } | Stmt::Empty { .. } => {}
                Stmt::Assign { target, value, .. } => {
                    self.expr(value);
                    if let LValue::Index { id, index, .. } = target {
                        self.expr(index);
                        self.access(*id, index, target.span());
                    }
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.expr(cond);
                    self.stmts(then_branch);
                    self.stmts(else_branch);
                }
                Stmt::While { cond, body, span } => {
                    self.loop_start(cond, *span);
                    self.expr(cond);
                    self.stmts(body);
                }
                Stmt::Block { body, .. } => self.stmts(body),
            }
        }
    }

    /// FS003 for a scalar the loop starts by reading where it holds no
    /// value, and FS004 for a loop bound that is not a constant.
    fn loop_start(&mut self, cond: &Expr<'_>, span: Span) {
        let resolution = self.resolution;
        let this = &resolution.loops()[self.next_loop];
        self.next_loop += 1;
        // The loop reads each carried scalar it does not write; one of the
        // loop around it may hold no value yet.
        for carried in &this.carried {
            let decl = resolution.decl(carried.decl);
            if !carried.assigned && !carried.written && decl.depth > 0 {
                self.read_before_assignment(decl.name, span);
            }
        }
        // FS004: the flow can only unroll loops whose trip count is a
        // compile-time constant — a comparison against a foldable bound.
        // Warn when no side of the condition folds.
        let Expr::Binary {
            op: AstBinOp::Word(op),
            lhs,
            rhs,
            ..
        } = cond
        else {
            return;
        };
        let mut scratch = VerifyReport::new();
        if op.is_comparison()
            && const_fold(lhs, &mut scratch).is_none()
            && const_fold(rhs, &mut scratch).is_none()
        {
            let message = "loop bound is not a compile-time constant; the flow cannot unroll \
                           this loop";
            self.report
                .push(Diagnostic::warn("FS004", message.to_string()).with_span(span));
        }
    }

    fn expr(&mut self, expr: &Expr<'_>) {
        match expr {
            Expr::Literal { .. } => {}
            Expr::Var { name, id, span } => {
                // Undeclared names and arrays read as scalars are hard
                // frontend errors with their own rendering; no lint here.
                let Ok(bound) = self.resolution.binding(*id) else {
                    return;
                };
                self.used[bound.decl.index()] = true;
                if bound.unassigned && self.resolution.decl(bound.decl).depth > 0 {
                    self.read_before_assignment(name, *span);
                }
            }
            Expr::Index { id, index, .. } => {
                self.expr(index);
                self.access(*id, index, expr.span());
            }
            Expr::Unary { operand, .. } => {
                self.expr(operand);
                const_fold(expr, self.report);
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
                const_fold(expr, self.report);
            }
        }
    }

    /// An array read or write; FS006 when its index is a constant outside
    /// the array's bounds.
    fn access(&mut self, id: NameId, index: &Expr<'_>, span: Span) {
        let Ok(bound) = self.resolution.binding(id) else {
            return;
        };
        self.used[bound.decl.index()] = true;
        let decl = self.resolution.decl(bound.decl);
        let (name, Some(len)) = (decl.name, decl.len) else {
            return;
        };
        if let Some(at) = const_fold(index, &mut VerifyReport::new()) {
            if at < 0 || at >= len {
                self.report.push(
                    Diagnostic::deny(
                        "FS006",
                        format!("constant index {at} is out of bounds for '{name}[{len}]'"),
                    )
                    .with_span(span),
                );
            }
        }
    }

    /// FS003, the lint of the lowering's `UseBeforeAssignment`.
    fn read_before_assignment(&mut self, name: &str, span: Span) {
        self.report.push(
            Diagnostic::deny("FS003", format!("'{name}' read before assignment")).with_span(span),
        );
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
    fn unused_scalars_are_counted_per_declaration() {
        // The loop declares its own `x`, so the outer `x` is never read even
        // though a scalar of that name is.
        let report = run("void main() { int x; int i; int r; x = 5; i = 0; \
             while (i < 2) { int x; x = i; r = x; i = i + 1; } }");
        let unused: Vec<(String, Option<Span>)> = report
            .of_rule("FS001")
            .iter()
            .map(|diag| (diag.message.clone(), diag.span))
            .collect();
        assert_eq!(
            unused,
            [
                (
                    "scalar 'x' is never read".to_string(),
                    Some(Span::new(1, 15))
                ),
                (
                    "scalar 'r' is never read".to_string(),
                    Some(Span::new(1, 29))
                ),
            ]
        );
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
