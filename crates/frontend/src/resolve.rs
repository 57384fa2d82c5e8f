//! Name resolution: the one place that knows the subset's scope rules.
//!
//! [`resolve`] walks a function body once, before lowering, and binds every
//! name occurrence (each carries a [`NameId`]) to the declaration it names.
//! Declarations are numbered in source order ([`DeclId`]), and each one is
//! a variable of its own: two arrays of one name have two bases, two
//! scalars of one name two values.  The lowering and `fpfa-verify`'s lints
//! both read the [`Resolution`]; neither looks a name up itself.
//!
//! # Scope rules
//!
//! * A scope is the function body, an `if` branch or a loop (its condition
//!   and body).  Blocks are transparent: the `for` desugaring wraps the
//!   initialisation and the loop in one.
//! * A use binds to the innermost visible declaration of its name: one made
//!   earlier in the same scope or in a scope around it.
//! * A declaration conflicts with a visible array of its name, and with a
//!   visible scalar of its name declared in the same *frame*: the function
//!   body, or the same loop body.  An `if` branch belongs to the frame
//!   around it, so it cannot redeclare a scalar of that frame; a loop body
//!   can.
//! * A loop carries every scalar declared outside it that one of its uses
//!   binds to, in name order.
//!
//! # Assignment
//!
//! The walk follows which scalars an assignment can reach, the way the
//! lowering builds values: an initialiser or an assignment gives a scalar a
//! value, an `if` leaves one where either branch did, and a loop leaves one
//! in every scalar it carries.  A scalar read that no assignment reaches is
//! *unassigned*, and so is the read with which a loop starts a carried
//! scalar it does not write.  In the function body such a read makes the
//! scalar a kernel parameter; inside a loop it is
//! [`FrontendError::UseBeforeAssignment`], which `fpfa-verify` reports as
//! FS003.
//!
//! The cost is linear in the body plus the carried sets: one hash lookup
//! per name occurrence, and each loop hands the scalars it carries from
//! further out to the loop around it.

use crate::ast::{Expr, Function, LValue, NameId, Stmt};
use crate::error::FrontendError;
use crate::token::Span;
use std::collections::HashMap;

/// The index of one declaration among its function's, in source order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DeclId(pub u32);

impl DeclId {
    /// The declaration's index, for tables indexed by declaration.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Decl<'s> {
    /// The declared name.
    pub name: &'s str,
    /// Where it is declared.
    pub span: Span,
    /// The array's length, or `None` for a scalar.
    pub len: Option<i64>,
    /// The loops around the declaration: 0 in the function body.
    pub depth: u32,
    /// Whether an unassigned read makes this scalar a kernel parameter.
    pub parameter: bool,
}

/// A name occurrence bound to its declaration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bound {
    /// The declaration named (for a declaration, itself).
    pub decl: DeclId,
    /// Whether this is a scalar read that no assignment reaches.
    pub unassigned: bool,
}

impl Bound {
    /// An occurrence of `decl` that is not an unassigned read.
    fn of(decl: DeclId) -> Self {
        Bound {
            decl,
            unassigned: false,
        }
    }
}

/// Why a name occurrence names no declaration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScopeError {
    /// No declaration of the name is visible.
    Undeclared,
    /// The visible declaration is an array, used as a scalar.
    NotAScalar,
    /// The visible declaration is a scalar, indexed as an array.
    NotAnArray,
    /// A declaration that conflicts with a visible one.
    Duplicate,
}

/// What one name occurrence is bound to.
pub type Binding = Result<Bound, ScopeError>;

/// A scalar that a loop carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Carried {
    /// The scalar's declaration.
    pub decl: DeclId,
    /// Whether the loop assigns it.
    pub written: bool,
    /// Whether an assignment reaches it where the loop starts.
    pub assigned: bool,
}

/// One loop: a `while`, or a desugared `for`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Loop {
    /// The scalars it carries, in name order.
    pub carried: Vec<Carried>,
    /// Whether its condition or body reads or writes an array.
    pub touches_state: bool,
    /// The expressions and statements of its condition and body, outside
    /// the loops inside.
    pub size: usize,
}

/// The resolution of one function's names.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Resolution<'s> {
    decls: Vec<Decl<'s>>,
    /// What each name occurrence is bound to, by [`NameId`].
    bindings: Vec<Binding>,
    loops: Vec<Loop>,
    /// The expressions and statements of the body outside every loop.
    pub(crate) size: usize,
}

impl<'s> Resolution<'s> {
    /// Every declaration, in source order.
    pub fn decls(&self) -> &[Decl<'s>] {
        &self.decls
    }

    /// Every loop, in source pre-order: the order the lowering meets them.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// One declaration.
    pub fn decl(&self, decl: DeclId) -> &Decl<'s> {
        &self.decls[decl.index()]
    }

    /// What the name occurrence `id` is bound to.
    pub fn binding(&self, id: NameId) -> Binding {
        self.bindings[id.index()]
    }

    /// What the occurrence `id` of `name` at `span` is bound to, or the
    /// error the lowering reports for it.
    ///
    /// # Errors
    /// The [`ScopeError`] of the occurrence, as a [`FrontendError`].
    pub fn bound(&self, id: NameId, name: &str, span: Span) -> Result<Bound, FrontendError> {
        self.binding(id).map_err(|error| {
            let name = name.to_string();
            match error {
                ScopeError::Undeclared => FrontendError::UndeclaredIdentifier { name, span },
                ScopeError::NotAScalar => FrontendError::KindMismatch {
                    name,
                    expected: "a scalar",
                    span,
                },
                ScopeError::NotAnArray => FrontendError::KindMismatch {
                    name,
                    expected: "an array",
                    span,
                },
                ScopeError::Duplicate => FrontendError::DuplicateDeclaration { name, span },
            }
        })
    }
}

/// Resolves the names of one function.  Scope errors do not stop the walk:
/// each is recorded at its occurrence, where the lowering reports it.
pub fn resolve<'s>(function: &Function<'s>) -> Resolution<'s> {
    let mut resolver = Resolver {
        resolution: Resolution {
            bindings: vec![Err(ScopeError::Undeclared); function.occurrences],
            ..Resolution::default()
        },
        ..Resolver::default()
    };
    resolver.stmts(&function.body);
    resolver.resolution
}

#[derive(Default)]
struct Resolver<'s> {
    resolution: Resolution<'s>,
    /// The innermost visible declaration of every name.
    visible: HashMap<&'s str, DeclId>,
    /// The declarations in scope, innermost scope last, each with the one
    /// of its name it hides.
    in_scope: Vec<(DeclId, Option<DeclId>)>,
    /// Whether an assignment reaches the point of the walk, by declaration.
    assigned: Vec<bool>,
    /// The declarations `assigned` turned on, in order, so an `if` can take
    /// its first branch's back before it walks the second.
    log: Vec<DeclId>,
    /// The first branches' assignments of the `if`s being walked, waiting
    /// for their second branch.
    pending: Vec<DeclId>,
    /// The loops being walked, innermost last.
    open: Vec<OpenLoop>,
}

struct OpenLoop {
    /// Its index in [`Resolution::loops`].
    at: usize,
    /// The scalars declared outside it that its uses name, each with whether
    /// the use writes it, repeats included.
    uses: Vec<(DeclId, bool)>,
}

impl<'s> Resolver<'s> {
    /// The loops around the point of the walk.
    fn depth(&self) -> u32 {
        self.open.len() as u32
    }

    fn bind(&mut self, id: NameId, binding: Binding) {
        self.resolution.bindings[id.index()] = binding;
    }

    /// Counts one expression or statement of the graph being walked.
    fn grow(&mut self) {
        match self.open.last() {
            Some(open) => self.resolution.loops[open.at].size += 1,
            None => self.resolution.size += 1,
        }
    }

    fn stmts(&mut self, stmts: &[Stmt<'s>]) {
        for stmt in stmts {
            self.grow();
            match stmt {
                Stmt::Empty { .. } => {}
                Stmt::Block { body, .. } => self.stmts(body),
                Stmt::DeclScalar {
                    name,
                    id,
                    init,
                    span,
                } => {
                    if let Some(init) = init {
                        self.expr(init);
                    }
                    let decl = self.declare(name, *id, *span, None);
                    if init.is_some() {
                        self.assign(decl);
                    }
                }
                Stmt::DeclArray {
                    name,
                    id,
                    len,
                    span,
                } => {
                    self.declare(name, *id, *span, Some(*len));
                }
                Stmt::Assign { target, value, .. } => {
                    self.expr(value);
                    match target {
                        LValue::Var { name, id, .. } => self.write(name, *id),
                        LValue::Index {
                            name, id, index, ..
                        } => {
                            self.array(name, *id);
                            self.expr(index);
                        }
                    }
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.expr(cond);
                    self.branches(then_branch, else_branch);
                }
                Stmt::While { cond, body, .. } => self.while_loop(cond, body),
            }
        }
    }

    fn expr(&mut self, expr: &Expr<'s>) {
        self.grow();
        match expr {
            Expr::Literal { .. } => {}
            Expr::Var { name, id, .. } => self.read(name, *id),
            Expr::Index {
                name, id, index, ..
            } => {
                self.array(name, *id);
                self.expr(index);
            }
            Expr::Unary { operand, .. } => self.expr(operand),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
        }
    }

    /// Walks `stmts` as a scope of their own.
    fn scope(&mut self, stmts: &[Stmt<'s>]) {
        let mark = self.in_scope.len();
        self.stmts(stmts);
        self.close_scope(mark);
    }

    /// Ends the scope whose first declaration was the `mark`-th in scope.
    fn close_scope(&mut self, mark: usize) {
        for (decl, hidden) in self.in_scope.drain(mark..).rev() {
            let name = self.resolution.decls[decl.index()].name;
            match hidden {
                Some(outer) => self.visible.insert(name, outer),
                None => self.visible.remove(name),
            };
        }
    }

    fn declare(&mut self, name: &'s str, id: NameId, span: Span, len: Option<i64>) -> DeclId {
        let depth = self.depth();
        let decl = DeclId(self.resolution.decls.len() as u32);
        let hidden = self.visible.insert(name, decl);
        let conflict = hidden.is_some_and(|outer| {
            let outer = &self.resolution.decls[outer.index()];
            outer.len.is_some() || outer.depth == depth
        });
        self.resolution.decls.push(Decl {
            name,
            span,
            len,
            depth,
            parameter: false,
        });
        self.assigned.push(false);
        self.in_scope.push((decl, hidden));
        let binding = if conflict {
            Err(ScopeError::Duplicate)
        } else {
            Ok(Bound::of(decl))
        };
        self.bind(id, binding);
        decl
    }

    /// The visible declaration of `name`, if it is an array when `array`
    /// and a scalar otherwise.
    fn lookup(&self, name: &str, array: bool) -> Result<DeclId, ScopeError> {
        let decl = *self.visible.get(name).ok_or(ScopeError::Undeclared)?;
        match (self.resolution.decls[decl.index()].len.is_some(), array) {
            (true, false) => Err(ScopeError::NotAScalar),
            (false, true) => Err(ScopeError::NotAnArray),
            _ => Ok(decl),
        }
    }

    /// Whether `decl` is declared outside the innermost loop being walked.
    fn outer(&self, decl: DeclId) -> bool {
        self.resolution.decls[decl.index()].depth < self.depth()
    }

    fn read(&mut self, name: &str, id: NameId) {
        let binding = self.lookup(name, false).map(|decl| {
            let unassigned = if self.outer(decl) {
                self.carry(decl, false);
                false
            } else {
                !self.assigned[decl.index()]
            };
            if unassigned && self.open.is_empty() {
                self.resolution.decls[decl.index()].parameter = true;
            }
            Bound { decl, unassigned }
        });
        self.bind(id, binding);
    }

    fn write(&mut self, name: &str, id: NameId) {
        let binding = self.lookup(name, false).map(|decl| {
            if self.outer(decl) {
                self.carry(decl, true);
            } else {
                self.assign(decl);
            }
            Bound::of(decl)
        });
        self.bind(id, binding);
    }

    /// An array access, read or write.
    fn array(&mut self, name: &str, id: NameId) {
        if let Some(open) = self.open.last() {
            self.resolution.loops[open.at].touches_state = true;
        }
        let binding = self.lookup(name, true).map(Bound::of);
        self.bind(id, binding);
    }

    /// Notes a use of a scalar declared outside the innermost loop.
    fn carry(&mut self, decl: DeclId, written: bool) {
        if let Some(open) = self.open.last_mut() {
            open.uses.push((decl, written));
        }
    }

    /// Notes that an assignment reaches `decl` from here on.
    fn assign(&mut self, decl: DeclId) {
        if !std::mem::replace(&mut self.assigned[decl.index()], true) {
            self.log.push(decl);
        }
    }

    /// Walks an `if`'s branches.  The second starts from what reached the
    /// `if`, and afterwards an assignment reaches whatever either branch
    /// assigned.
    fn branches(&mut self, then_branch: &[Stmt<'s>], else_branch: &[Stmt<'s>]) {
        let mark = self.log.len();
        self.scope(then_branch);
        let pending = self.pending.len();
        for decl in self.log.drain(mark..) {
            self.assigned[decl.index()] = false;
            self.pending.push(decl);
        }
        self.scope(else_branch);
        for decl in self.pending.drain(pending..) {
            if !std::mem::replace(&mut self.assigned[decl.index()], true) {
                self.log.push(decl);
            }
        }
    }

    fn while_loop(&mut self, cond: &Expr<'s>, body: &[Stmt<'s>]) {
        let at = self.resolution.loops.len();
        self.resolution.loops.push(Loop::default());
        self.open.push(OpenLoop {
            at,
            uses: Vec::new(),
        });
        let mark = self.in_scope.len();
        self.expr(cond);
        self.stmts(body);
        self.close_scope(mark);
        let OpenLoop { mut uses, .. } = self.open.pop().expect("this loop is open");
        uses.sort_unstable();
        uses.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            earlier.1 |= same && later.1;
            same
        });

        let depth = self.depth();
        let mut carried = Vec::with_capacity(uses.len());
        for (decl, written) in uses {
            let assigned = if self.resolution.decls[decl.index()].depth < depth {
                // Carried by the loop around this one too, where it holds
                // that loop's value.
                if let Some(outer) = self.open.last_mut() {
                    outer.uses.push((decl, written));
                }
                true
            } else {
                let assigned = self.assigned[decl.index()];
                if !assigned && !written && depth == 0 {
                    self.resolution.decls[decl.index()].parameter = true;
                }
                // The loop leaves its value in every scalar it carries.
                self.assign(decl);
                assigned
            };
            carried.push(Carried {
                decl,
                written,
                assigned,
            });
        }
        let decls = &self.resolution.decls;
        carried.sort_unstable_by_key(|carried| decls[carried.decl.index()].name);

        let this = &mut self.resolution.loops[at];
        this.carried = carried;
        let touches_state = this.touches_state;
        if let Some(outer) = self.open.last() {
            self.resolution.loops[outer.at].touches_state |= touches_state;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer, parser};

    /// Resolves `main` of `source` and hands the resolution to `check`.
    fn with_resolution(source: &str, check: impl FnOnce(&Resolution<'_>)) {
        let tokens = lexer::lex(source).expect("the source lexes");
        let unit = parser::parse(&tokens).expect("the source parses");
        check(&resolve(unit.function("main").expect("a main")));
    }

    /// The occurrences that are unassigned reads.
    fn unassigned(resolution: &Resolution<'_>) -> Vec<usize> {
        let bindings = resolution.bindings.iter().enumerate();
        bindings
            .filter(|(_, binding)| binding.is_ok_and(|bound| bound.unassigned))
            .map(|(id, _)| id)
            .collect()
    }

    fn names<'s>(resolution: &Resolution<'s>, carried: &[Carried]) -> Vec<&'s str> {
        carried
            .iter()
            .map(|carried| resolution.decl(carried.decl).name)
            .collect()
    }

    #[test]
    fn each_declaration_of_a_name_is_its_own_variable() {
        with_resolution(
            "void main() { int c; int t; if (c) { int a[2]; t = a[0]; } int a[3]; t = a[1]; }",
            |resolution| {
                let arrays: Vec<_> = resolution
                    .decls
                    .iter()
                    .filter_map(|decl| decl.len)
                    .collect();
                assert_eq!(arrays, [2, 3]);
                // `a[0]` is occurrence 5, `a[1]` occurrence 8.
                assert_eq!(resolution.binding(NameId(5)), Ok(Bound::of(DeclId(2))));
                assert_eq!(resolution.binding(NameId(8)), Ok(Bound::of(DeclId(3))));
            },
        );
    }

    #[test]
    fn a_loop_carries_the_outer_scalars_its_uses_name_in_name_order() {
        with_resolution(
            "void main() { int x; int i; int c; x = 1; i = 0; \
             while (i < 2) { if (c) { int x; x = 2; } i = i + x; } }",
            |resolution| {
                let body = &resolution.loops()[0];
                assert_eq!(names(resolution, &body.carried), ["c", "i", "x"]);
                let written: Vec<bool> = body.carried.iter().map(|c| c.written).collect();
                assert_eq!(written, [false, true, false]);
                let assigned: Vec<bool> = body.carried.iter().map(|c| c.assigned).collect();
                assert_eq!(assigned, [false, true, true]);
                // `c` holds no value when the loop starts: it is a parameter.
                assert!(resolution.decls()[2].parameter);
                assert!(!body.touches_state);
            },
        );
    }

    #[test]
    fn unassigned_reads_are_parameters_outside_loops_and_errors_inside() {
        with_resolution(
            "void main() { int n; int i; int y; if (i) { y = n; } y = n; i = 0; \
             while (i < 2) { int t; i = i + t; } }",
            |resolution| {
                let n = resolution.decl(DeclId(0));
                assert!(n.parameter);
                let t = resolution.decl(DeclId(3));
                assert!(!t.parameter);
                // `i` in `if (i)` and both reads of `n` are; in the loop,
                // `t` is and the carried `i` is not.
                assert_eq!(unassigned(resolution), [3, 5, 7, 13]);
            },
        );
    }

    #[test]
    fn an_if_leaves_a_value_where_either_branch_assigned() {
        with_resolution(
            "void main() { int i; int r; i = 0; r = 0; while (i < 4) { int v; \
             if (i > 2) { v = i; } else { ; } r = r + v; i = i + 1; } }",
            |resolution| assert_eq!(unassigned(resolution), [] as [usize; 0]),
        );
    }

    #[test]
    fn scope_errors_are_recorded_where_they_occur() {
        with_resolution(
            "void main() { int x; int a[2]; int c; y = 1; x = a; c = x[0]; \
             if (c) { int x; } while (c) { int a; } }",
            |resolution| {
                let bindings = resolution.bindings.iter().enumerate();
                let errors: Vec<(usize, ScopeError)> = bindings
                    .filter_map(|(id, binding)| Some((id, binding.err()?)))
                    .collect();
                assert_eq!(
                    errors,
                    [
                        (3, ScopeError::Undeclared),
                        (5, ScopeError::NotAScalar),
                        (7, ScopeError::NotAnArray),
                        (9, ScopeError::Duplicate),
                        (11, ScopeError::Duplicate),
                    ]
                );
            },
        );
    }
}
