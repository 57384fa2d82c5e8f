//! Lowering of the AST to a CDFG.
//!
//! * Scalar locals become pure dataflow values (an environment maps each
//!   declaration to the wire holding its current value).
//! * Arrays are placed in the statespace ([`crate::MemoryLayout`]), each
//!   declaration at a base of its own; reads and writes become `FE`/`ST`
//!   primitives threaded through a single statespace token, which enters
//!   the graph as the input `mem` and leaves it as the output `mem`.
//! * `if`/`else` is if-converted: both branches are lowered and every scalar
//!   (and the statespace token) modified in either branch is merged with a
//!   multiplexer controlled by the condition.  The scalars merge in
//!   declaration order, so a kernel lowers to the same graph on every call.
//! * `while` loops become structured [`LoopSpec`] nodes whose condition and
//!   body are separate CDFGs over the loop-carried variables; the
//!   transformation engine unrolls them later.
//! * A scalar of the function body that is read where no assignment reaches
//!   it is a kernel parameter: one named graph input, made at its first such
//!   read, which is the scalar's value wherever no assignment reaches.  Every
//!   parameter declaration of one name reads that name's one input.
//! * At the end of `main` every declared scalar that holds a value becomes a
//!   named graph output, alongside the final statespace.
//!
//! Which declaration each name occurrence names, what every loop carries and
//! which reads no assignment reaches come from [`crate::resolve`], the one
//! walk before lowering; the lowering looks up no name but a parameter's
//! input.  Every interface node of one scalar holds the same [`Name`], made
//! once per declaration, so the graphs store each name once.  The cost is linear
//! in the source plus the graphs built.  One environment, a table indexed by
//! declaration, serves the whole function with an undo log: an `if` branch
//! or a loop sub-graph records the bindings it changes and unwinds them
//! afterwards instead of copying the environment.

use crate::ast::{AstBinOp, Expr, Function, LValue, NameId, Stmt, TranslationUnit};
use crate::error::FrontendError;
use crate::layout::MemoryLayout;
use crate::resolve::{resolve, DeclId, Loop, Resolution};
use crate::token::Span;
use fpfa_cdfg::builder::Wire;
use fpfa_cdfg::{BinOp, Cdfg, LoopSpec, Name, NodeId, NodeKind};
use std::collections::HashMap;

/// Name of the statespace input/output of every lowered program.
pub const STATE_NAME: &str = "mem";
/// Internal name used for the statespace as a loop-carried variable.
const STATE_VAR: &str = "@state";

/// A compiled program: the CDFG plus the statespace layout of its arrays.
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    /// The control dataflow graph of `main`.
    pub cdfg: Cdfg,
    /// Statespace addresses of the declared arrays.
    pub layout: MemoryLayout,
}

/// Lowers a parsed translation unit (its `main` function) into a CDFG.
///
/// # Errors
/// Returns a [`FrontendError`] when `main` is missing or the body uses names
/// inconsistently (undeclared identifiers, duplicate declarations, arrays
/// used as scalars, ...).
pub fn lower(unit: &TranslationUnit<'_>) -> Result<Program, FrontendError> {
    let main = unit.function("main").ok_or(FrontendError::MissingMain)?;
    lower_function(main)
}

/// Lowers a single function definition into a CDFG.
///
/// # Errors
/// See [`lower`].
pub fn lower_function(function: &Function<'_>) -> Result<Program, FrontendError> {
    let resolution = resolve(function);
    let decls = resolution.decls().len();
    let mut scope = Scope {
        resolution: &resolution,
        env: vec![None; decls],
        log: Vec::new(),
        bases: vec![0; decls],
        parameters: HashMap::new(),
        names: vec![None; decls],
        state_name: Name::from(STATE_NAME),
        state_var: Name::from(STATE_VAR),
        layout: MemoryLayout::new(),
        next_loop: 0,
    };
    let mut ctx = Lowerer::new(function.name, &mut scope);
    let (nodes, edges) = room(resolution.size, 0);
    ctx.graph.reserve(nodes, edges);
    ctx.lower_block(&function.body)?;
    let mut cdfg = ctx.finish()?;
    cdfg.shrink_to_fit();
    Ok(Program {
        cdfg,
        layout: scope.layout,
    })
}

/// A scalar's binding in the graph being built.
#[derive(Clone, Copy, Debug)]
struct Binding {
    /// The wire holding its value, once an assignment reaches it.
    value: Option<Wire>,
    /// Its position in its graph's declaration order.
    order: u32,
}

/// What every graph of one function shares.
struct Scope<'r> {
    resolution: &'r Resolution<'r>,
    /// The binding of every scalar in scope, by declaration.
    env: Vec<Option<Binding>>,
    /// Undo log: each entry holds a scalar's binding (or its absence) before
    /// a change.
    log: Vec<(DeclId, Option<Binding>)>,
    /// The base of every array, by declaration.
    bases: Vec<i64>,
    /// The graph input of every parameter name, once made.
    parameters: HashMap<&'r str, Wire>,
    /// The interface name of every scalar, by declaration, once made.
    names: Vec<Option<Name>>,
    /// The statespace's names: [`STATE_NAME`] and [`STATE_VAR`].
    state_name: Name,
    state_var: Name,
    layout: MemoryLayout,
    /// The next loop of the resolution the lowering meets.
    next_loop: usize,
}

impl Scope<'_> {
    fn bind(&mut self, decl: DeclId, binding: Binding) {
        let before = self.env[decl.index()].replace(binding);
        self.log.push((decl, before));
    }

    /// Undoes every change logged since `mark`, newest first.
    fn unwind(&mut self, mark: usize) {
        for (decl, before) in self.log.drain(mark..).rev() {
            self.env[decl.index()] = before;
        }
    }

    /// The interface name of the scalar `decl`, which all its inputs and
    /// outputs share.
    fn name(&mut self, decl: DeclId) -> Name {
        let resolution = self.resolution;
        self.names[decl.index()]
            .get_or_insert_with(|| Name::from(resolution.decl(decl).name))
            .clone()
    }
}

/// Builds one graph: the function's, or a loop's condition or body.
struct Lowerer<'a, 'r> {
    graph: Cdfg,
    state: Wire,
    /// Scalars of this graph in declaration order (loop-carried ones first).
    scalar_order: Vec<DeclId>,
    scope: &'a mut Scope<'r>,
}

impl<'a, 'r> Lowerer<'a, 'r> {
    fn new(name: &str, scope: &'a mut Scope<'r>) -> Self {
        let mut graph = Cdfg::new(name);
        let mem = graph.add_node(NodeKind::Input(scope.state_name.clone()));
        Lowerer {
            graph,
            state: Wire { node: mem, port: 0 },
            scalar_order: Vec::new(),
            scope,
        }
    }

    /// Starts a loop's condition or body graph: one input per carried
    /// scalar, in order, so carried scalar `k` is node `k`, then the
    /// statespace's.  The caller unwinds the scope once the graph is built.
    fn sub_graph(&mut self, part: &str, resolved: &Loop) -> Lowerer<'_, 'r> {
        let mut graph = Cdfg::new(format!("{}::{part}", self.graph.name()));
        let (nodes, edges) = room(resolved.size, resolved.carried.len() + 1);
        graph.reserve(nodes, edges);
        let mut sub = Lowerer {
            graph,
            state: Wire {
                node: NodeId::from_index(0),
                port: 0,
            },
            scalar_order: Vec::with_capacity(resolved.carried.len()),
            scope: &mut *self.scope,
        };
        for scalar in &resolved.carried {
            let name = sub.scope.name(scalar.decl);
            let input = sub.input(name);
            sub.declare_scalar(scalar.decl, Some(input));
        }
        sub.state = if resolved.touches_state {
            sub.input(sub.scope.state_var.clone())
        } else {
            // A loop that does not touch the statespace gets a dummy
            // constant, which keeps the wire plumbing uniform and is pruned
            // at the end.
            sub.constant(0)
        };
        sub
    }

    /// The value of the scalar `decl` here: its wire, or a parameter's input
    /// where no assignment reaches it.
    fn value(&mut self, decl: DeclId) -> Option<Wire> {
        match self.scope.env[decl.index()].and_then(|binding| binding.value) {
            None if self.scope.resolution.decl(decl).parameter => Some(self.parameter(decl)),
            value => value,
        }
    }

    /// The graph input of the parameter `decl`, made at the first use of a
    /// parameter of its name.  Only the function's graph has parameters: a
    /// loop carries them in.
    fn parameter(&mut self, decl: DeclId) -> Wire {
        let name = self.scope.resolution.decl(decl).name;
        if let Some(&wire) = self.scope.parameters.get(name) {
            return wire;
        }
        let input = self.scope.name(decl);
        let wire = self.input(input);
        self.scope.parameters.insert(name, wire);
        wire
    }

    /// The value of `decl` where no assignment reaches it: a parameter's
    /// input, or [`FrontendError::UseBeforeAssignment`] inside a loop.
    fn unassigned(&mut self, decl: DeclId, span: Span) -> Result<Wire, FrontendError> {
        let scalar = self.scope.resolution.decl(decl);
        if scalar.parameter {
            Ok(self.parameter(decl))
        } else {
            Err(FrontendError::UseBeforeAssignment {
                name: scalar.name.to_string(),
                span,
            })
        }
    }

    fn declare_scalar(&mut self, decl: DeclId, value: Option<Wire>) {
        let order = self.scalar_order.len() as u32;
        self.scalar_order.push(decl);
        self.scope.bind(decl, Binding { value, order });
    }

    /// Gives the scalar `decl`, which is in scope, a new value.
    fn assign(&mut self, decl: DeclId, value: Option<Wire>) {
        let binding = self.scope.env[decl.index()].expect("an assigned scalar is in scope");
        self.scope.bind(decl, Binding { value, ..binding });
    }

    fn constant(&mut self, value: i64) -> Wire {
        let id = self.graph.add_node(NodeKind::Const(value));
        Wire { node: id, port: 0 }
    }

    fn binop(&mut self, op: BinOp, a: Wire, b: Wire) -> Wire {
        let id = self.graph.add_node(NodeKind::BinOp(op));
        self.graph
            .connect(a.node, a.port, id, 0)
            .expect("wires produced by this lowerer are valid");
        self.graph
            .connect(b.node, b.port, id, 1)
            .expect("wires produced by this lowerer are valid");
        Wire { node: id, port: 0 }
    }

    fn mux(&mut self, cond: Wire, if_true: Wire, if_false: Wire) -> Wire {
        let id = self.graph.add_node(NodeKind::Mux);
        for (port, w) in [cond, if_true, if_false].into_iter().enumerate() {
            self.graph
                .connect(w.node, w.port, id, port)
                .expect("wires produced by this lowerer are valid");
        }
        Wire { node: id, port: 0 }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Lowers a statement list.  Blocks are transparent (the `for`
    /// desugaring wraps each loop in one), so nested blocks are walked with
    /// a stack of their own rather than by recursion: the recursion of a loop
    /// nest stays at a few small frames per level, which a 2 MiB thread
    /// holds 255 levels deep even in a debug build.
    fn lower_block(&mut self, stmts: &[Stmt<'_>]) -> Result<(), FrontendError> {
        let mut blocks = vec![stmts.iter()];
        while let Some(block) = blocks.last_mut() {
            match block.next() {
                None => {
                    blocks.pop();
                }
                Some(Stmt::Block { body, .. }) => blocks.push(body.iter()),
                Some(stmt) => self.lower_stmt(stmt)?,
            }
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &Stmt<'_>) -> Result<(), FrontendError> {
        match stmt {
            Stmt::Empty { .. } => Ok(()),
            Stmt::Block { body, .. } => self.lower_block(body),
            Stmt::DeclScalar {
                name,
                id,
                init,
                span,
            } => self.declare(name, *id, init.as_ref(), *span),
            Stmt::DeclArray {
                name,
                id,
                len,
                span,
            } => self.declare_array(name, *id, *len, *span),
            Stmt::Assign { target, value, .. } => self.lower_assign(target, value),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => self.lower_if(cond, then_branch, else_branch),
            Stmt::While { cond, body, span } => self.lower_while(cond, body, *span),
        }
    }

    fn declare(
        &mut self,
        name: &str,
        id: NameId,
        init: Option<&Expr<'_>>,
        span: Span,
    ) -> Result<(), FrontendError> {
        let decl = self.scope.resolution.bound(id, name, span)?.decl;
        let value = match init {
            Some(expr) => Some(self.lower_expr(expr)?),
            None => None,
        };
        self.declare_scalar(decl, value);
        Ok(())
    }

    fn declare_array(
        &mut self,
        name: &str,
        id: NameId,
        len: i64,
        span: Span,
    ) -> Result<(), FrontendError> {
        let decl = self.scope.resolution.bound(id, name, span)?.decl;
        let Some(array) = self.scope.layout.allocate(name, len as usize) else {
            return Err(FrontendError::AddressSpaceExhausted {
                name: name.to_string(),
                span,
            });
        };
        self.scope.bases[decl.index()] = array.base;
        Ok(())
    }

    fn lower_assign(&mut self, target: &LValue<'_>, value: &Expr<'_>) -> Result<(), FrontendError> {
        let value_wire = self.lower_expr(value)?;
        match target {
            LValue::Var { name, id, span } => {
                let decl = self.scope.resolution.bound(*id, name, *span)?.decl;
                self.assign(decl, Some(value_wire));
                Ok(())
            }
            LValue::Index {
                name, id, index, ..
            } => {
                let address = self.array_address(name, *id, index, target.span())?;
                let st = self.graph.add_node(NodeKind::Store);
                let state = self.state;
                self.graph
                    .connect(state.node, state.port, st, 0)
                    .expect("valid wires");
                self.graph
                    .connect(address.node, address.port, st, 1)
                    .expect("valid wires");
                self.graph
                    .connect(value_wire.node, value_wire.port, st, 2)
                    .expect("valid wires");
                self.state = Wire { node: st, port: 0 };
                Ok(())
            }
        }
    }

    fn lower_if(
        &mut self,
        cond: &Expr<'_>,
        then_branch: &[Stmt<'_>],
        else_branch: &[Stmt<'_>],
    ) -> Result<(), FrontendError> {
        let cond_wire = self.lower_expr(cond)?;

        // Lower each branch from the same scope, noting the scalars it
        // changed, then undo it: declarations inside branches do not escape.
        let mark = self.scope.log.len();
        let declared = self.scalar_order.len();
        let before_state = self.state;

        self.lower_block(then_branch)?;
        let then_state = self.state;
        let then_values = self.branch_values(mark, declared);
        self.scope.unwind(mark);
        self.scalar_order.truncate(declared);
        self.state = before_state;

        self.lower_block(else_branch)?;
        let else_state = self.state;
        let else_values = self.branch_values(mark, declared);
        self.scope.unwind(mark);
        self.scalar_order.truncate(declared);

        // Merge every changed scalar, in declaration order.  A branch that
        // left a scalar alone keeps its value from before the `if`.
        let mut then_values = then_values.into_iter().peekable();
        let mut else_values = else_values.into_iter().peekable();
        loop {
            let order = match (then_values.peek(), else_values.peek()) {
                (None, None) => break,
                (Some(t), None) => t.order,
                (None, Some(e)) => e.order,
                (Some(t), Some(e)) => t.order.min(e.order),
            };
            let then_change = then_values.next_if(|t| t.order == order);
            let else_change = else_values.next_if(|e| e.order == order);
            let decl = then_change
                .or(else_change)
                .expect("one branch changed it")
                .decl;
            let then_value = match then_change {
                Some(t) => t.value,
                None => self.value(decl),
            };
            let else_value = match else_change {
                Some(e) => e.value,
                None => self.value(decl),
            };
            let merged = match (then_value, else_value) {
                (Some(t), Some(e)) if t != e => Some(self.mux(cond_wire, t, e)),
                (t, e) => {
                    if t == e {
                        t
                    } else {
                        // One branch assigned a previously-unset variable; the
                        // other path keeps it unset. Materialise the unset
                        // side as 0 so the merge is well defined.
                        let zero = self.constant(0);
                        let t = t.unwrap_or(zero);
                        let e = e.unwrap_or(zero);
                        Some(self.mux(cond_wire, t, e))
                    }
                }
            };
            self.assign(decl, merged);
        }
        self.state = if then_state != else_state {
            self.mux(cond_wire, then_state, else_state)
        } else {
            then_state
        };
        Ok(())
    }

    /// The values the scalars declared before a branch hold at its end, for
    /// those the branch changed (logged since `mark`), in declaration order.
    fn branch_values(&self, mark: usize, declared: usize) -> Vec<BranchValue> {
        let mut changed: Vec<BranchValue> = self.scope.log[mark..]
            .iter()
            .filter_map(|&(decl, before)| {
                let before = before?;
                ((before.order as usize) < declared).then(|| BranchValue {
                    order: before.order,
                    decl,
                    value: self.scope.env[decl.index()].and_then(|binding| binding.value),
                })
            })
            .collect();
        changed.sort_unstable_by_key(|change| change.order);
        changed.dedup_by_key(|change| change.order);
        changed
    }

    /// Lowers a loop to a [`LoopSpec`] node.  Each part is a function of its
    /// own, so the frames that stay on the stack while the body lowers (and
    /// recurses into inner loops) are small.
    fn lower_while(
        &mut self,
        cond: &Expr<'_>,
        body: &[Stmt<'_>],
        span: Span,
    ) -> Result<(), FrontendError> {
        let resolved = self.next_loop(span)?;
        let cond = self.loop_cond(cond, resolved)?;
        let body = self.loop_body(body, resolved)?;
        self.close_loop(resolved, cond, body, span)
    }

    /// The next loop's resolution: the scalars of this graph that it
    /// carries, in name order, and whether it carries the statespace too.
    fn next_loop(&mut self, span: Span) -> Result<&'r Loop, FrontendError> {
        let resolution = self.scope.resolution;
        let resolved = &resolution.loops()[self.scope.next_loop];
        self.scope.next_loop += 1;
        if resolved.carried.is_empty() && !resolved.touches_state {
            // A loop that neither reads nor writes anything observable: the
            // condition is either always false (dead code) or the loop never
            // terminates. Reject it as unsupported rather than silently
            // dropping it.
            return Err(FrontendError::Unsupported {
                feature: "loops with no observable effect".into(),
                span,
            });
        }
        Ok(resolved)
    }

    /// Builds a loop's condition sub-graph.
    fn loop_cond(&mut self, cond: &Expr<'_>, resolved: &Loop) -> Result<Cdfg, FrontendError> {
        let mark = self.scope.log.len();
        let mut sub = self.sub_graph("cond", resolved);
        let wire = sub.lower_expr(cond)?;
        sub.output(LoopSpec::COND_OUTPUT.into(), wire);
        sub.prune_dead_interface();
        let mut graph = sub.graph;
        graph.shrink_to_fit();
        self.scope.unwind(mark);
        Ok(graph)
    }

    /// Builds a loop's body sub-graph, with one output per carried variable
    /// holding its value at the end of an iteration.
    fn loop_body(&mut self, body: &[Stmt<'_>], resolved: &Loop) -> Result<Cdfg, FrontendError> {
        let mark = self.scope.log.len();
        let mut sub = self.sub_graph("body", resolved);
        sub.lower_block(body)?;
        for scalar in &resolved.carried {
            // A scalar the body never assigned passes its input through.
            let wire = sub.scope.env[scalar.decl.index()]
                .and_then(|binding| binding.value)
                .expect("a carried scalar holds a value in the body");
            let name = sub.scope.name(scalar.decl);
            sub.output(name, wire);
        }
        if resolved.touches_state {
            let wire = sub.state;
            sub.output(sub.scope.state_var.clone(), wire);
        }
        sub.prune_dead_interface();
        let mut graph = sub.graph;
        graph.shrink_to_fit();
        self.scope.unwind(mark);
        Ok(graph)
    }

    /// Adds the loop node with its initial values, and binds its outputs.
    fn close_loop(
        &mut self,
        resolved: &Loop,
        cond: Cdfg,
        body: Cdfg,
        span: Span,
    ) -> Result<(), FrontendError> {
        let resolution = self.scope.resolution;
        let mut initial = Vec::with_capacity(resolved.carried.len() + 1);
        for scalar in &resolved.carried {
            let wire = if scalar.assigned {
                self.value(scalar.decl)
                    .expect("an assignment reaches the loop")
            } else if scalar.written && !resolution.decl(scalar.decl).parameter {
                // No value yet, and the loop assigns one: the first
                // iteration starts from a don't-care 0.
                self.constant(0)
            } else {
                // A scalar the loop only reads is a kernel input.
                self.unassigned(scalar.decl, span)?
            };
            initial.push(wire);
        }
        if resolved.touches_state {
            initial.push(self.state);
        }

        let mut vars: Vec<String> = resolved
            .carried
            .iter()
            .map(|scalar| resolution.decl(scalar.decl).name.to_string())
            .collect();
        if resolved.touches_state {
            vars.push(STATE_VAR.to_string());
        }
        let spec = LoopSpec { vars, cond, body };
        let loop_node = self.graph.add_node(NodeKind::Loop(Box::new(spec)));
        for (port, wire) in initial.iter().enumerate() {
            self.graph
                .connect(wire.node, wire.port, loop_node, port)
                .expect("valid wires");
        }

        // Bind the loop outputs back into the environment.
        for (port, scalar) in resolved.carried.iter().enumerate() {
            self.assign(
                scalar.decl,
                Some(Wire {
                    node: loop_node,
                    port,
                }),
            );
        }
        if resolved.touches_state {
            self.state = Wire {
                node: loop_node,
                port: resolved.carried.len(),
            };
        }
        Ok(())
    }

    /// Adds an input named `name`.
    fn input(&mut self, name: Name) -> Wire {
        let node = self.graph.add_node(NodeKind::Input(name));
        Wire { node, port: 0 }
    }

    /// Adds an output named `name` driven by `wire`.
    fn output(&mut self, name: Name, wire: Wire) {
        let out = self.graph.add_node(NodeKind::Output(name));
        self.graph
            .connect(wire.node, wire.port, out, 0)
            .expect("valid wires");
    }

    /// Removes the constants of a loop sub-graph that nothing reads: the
    /// dummy statespace of a loop that does not touch it, and constants
    /// whose scalar was overwritten.  Unused carried inputs stay, for arity
    /// consistency with the loop node.
    fn prune_dead_interface(&mut self) {
        let dead: Vec<_> = self
            .graph
            .nodes()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Const(_)) && n.fanout() == 0)
            .map(|(id, _)| id)
            .collect();
        for id in dead {
            let _ = self.graph.remove_node(id);
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn lower_expr(&mut self, expr: &Expr<'_>) -> Result<Wire, FrontendError> {
        match expr {
            Expr::Literal { value, .. } => Ok(self.constant(*value)),
            Expr::Var { name, id, span } => self.read_scalar(name, *id, *span),
            Expr::Index {
                name, id, index, ..
            } => {
                let address = self.array_address(name, *id, index, expr.span())?;
                let fe = self.graph.add_node(NodeKind::Fetch);
                let state = self.state;
                self.graph
                    .connect(state.node, state.port, fe, 0)
                    .expect("valid wires");
                self.graph
                    .connect(address.node, address.port, fe, 1)
                    .expect("valid wires");
                Ok(Wire { node: fe, port: 0 })
            }
            Expr::Unary { op, operand, .. } => {
                let w = self.lower_expr(operand)?;
                let id = self.graph.add_node(NodeKind::UnOp(*op));
                self.graph
                    .connect(w.node, w.port, id, 0)
                    .expect("valid wires");
                Ok(Wire { node: id, port: 0 })
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let a = self.lower_expr(lhs)?;
                let b = self.lower_expr(rhs)?;
                match op {
                    AstBinOp::Word(word_op) => Ok(self.binop(*word_op, a, b)),
                    AstBinOp::LogicalAnd => {
                        let an = self.normalize_bool(a);
                        let bn = self.normalize_bool(b);
                        Ok(self.binop(BinOp::And, an, bn))
                    }
                    AstBinOp::LogicalOr => {
                        let an = self.normalize_bool(a);
                        let bn = self.normalize_bool(b);
                        Ok(self.binop(BinOp::Or, an, bn))
                    }
                }
            }
        }
    }

    /// Normalises a word to 0/1 (`x != 0`).
    fn normalize_bool(&mut self, w: Wire) -> Wire {
        let zero = self.constant(0);
        self.binop(BinOp::Ne, w, zero)
    }

    fn read_scalar(&mut self, name: &str, id: NameId, span: Span) -> Result<Wire, FrontendError> {
        let bound = self.scope.resolution.bound(id, name, span)?;
        if bound.unassigned {
            return self.unassigned(bound.decl, span);
        }
        Ok(self
            .value(bound.decl)
            .expect("an assignment reaches the read"))
    }

    fn array_address(
        &mut self,
        name: &str,
        id: NameId,
        index: &Expr<'_>,
        span: Span,
    ) -> Result<Wire, FrontendError> {
        let decl = self.scope.resolution.bound(id, name, span)?.decl;
        let base = self.scope.bases[decl.index()];
        let index_wire = self.lower_expr(index)?;
        if base == 0 {
            return Ok(index_wire);
        }
        let base_wire = self.constant(base);
        Ok(self.binop(BinOp::Add, base_wire, index_wire))
    }

    // ------------------------------------------------------------------
    // Finalisation
    // ------------------------------------------------------------------

    fn finish(mut self) -> Result<Cdfg, FrontendError> {
        // Emit outputs for every declared scalar holding a value, in
        // declaration order, then the final statespace.
        for i in 0..self.scalar_order.len() {
            let decl = self.scalar_order[i];
            if let Some(wire) = self.value(decl) {
                let name = self.scope.name(decl);
                self.output(name, wire);
            }
        }
        let state = self.state;
        self.output(self.scope.state_name.clone(), state);
        fpfa_cdfg::validate::validate(&self.graph)?;
        Ok(self.graph)
    }
}

/// A scalar's value at the end of an `if` branch that changed it.
#[derive(Clone, Copy)]
struct BranchValue {
    order: u32,
    decl: DeclId,
    value: Option<Wire>,
}

/// Room to reserve for a graph lowered from `size` expressions and
/// statements with `interface` input and output nodes: about one node and
/// one or two edges each, doubled (the builder gives back the rest).
fn room(size: usize, interface: usize) -> (usize, usize) {
    (2 * (size + interface), 2 * size + interface)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use fpfa_cdfg::interp::Interpreter;
    use fpfa_cdfg::Value;

    fn run(
        source: &str,
        arrays: &[(&str, &[i64])],
        scalars: &[(&str, i64)],
    ) -> fpfa_cdfg::interp::RunResult {
        let program = compile(source).unwrap();
        let state = crate::initial_state(&program.layout, arrays);
        let mut interp = Interpreter::new(&program.cdfg);
        interp.bind(STATE_NAME, Value::State(state));
        for (name, value) in scalars {
            interp.bind(*name, Value::Word(*value));
        }
        interp.run().unwrap()
    }

    #[test]
    fn straight_line_arithmetic() {
        let result = run(
            "void main() { int x; int y; x = 3; y = x * 4 + 2; }",
            &[],
            &[],
        );
        assert_eq!(result.word("x"), Some(3));
        assert_eq!(result.word("y"), Some(14));
    }

    #[test]
    fn scalar_inputs_are_created_for_unassigned_reads() {
        let program = compile("void main() { int n; int y; y = n * 2; }").unwrap();
        assert!(program.cdfg.input_named("n").is_some());
        let result = run(
            "void main() { int n; int y; y = n * 2; }",
            &[],
            &[("n", 21)],
        );
        assert_eq!(result.word("y"), Some(42));
    }

    #[test]
    fn array_reads_and_writes_go_through_the_statespace() {
        let src = "void main() { int a[4]; int b[4]; b[0] = a[1] + a[2]; }";
        let program = compile(src).unwrap();
        assert_eq!(program.layout.array("a").unwrap().base, 0);
        assert_eq!(program.layout.array("b").unwrap().base, 4);
        let result = run(src, &[("a", &[10, 20, 30, 40])], &[]);
        let mem = result.state(STATE_NAME).unwrap();
        assert_eq!(mem.fetch(4), Some(50));
    }

    #[test]
    fn if_else_becomes_mux() {
        let src = "void main() { int x; int y; if (x > 0) { y = 1; } else { y = 2; } }";
        let program = compile(src).unwrap();
        let stats = fpfa_cdfg::GraphStats::of(&program.cdfg);
        assert!(stats.muxes >= 1);
        assert_eq!(run(src, &[], &[("x", 5)]).word("y"), Some(1));
        assert_eq!(run(src, &[], &[("x", -5)]).word("y"), Some(2));
    }

    #[test]
    fn if_without_else_keeps_old_value() {
        let src = "void main() { int x; int y; y = 7; if (x > 0) { y = 1; } }";
        assert_eq!(run(src, &[], &[("x", 3)]).word("y"), Some(1));
        assert_eq!(run(src, &[], &[("x", 0)]).word("y"), Some(7));
    }

    #[test]
    fn conditional_store_muxes_the_statespace() {
        let src = "void main() { int a[2]; int x; if (x > 0) { a[0] = 9; } }";
        let with = run(src, &[("a", &[1, 2])], &[("x", 1)]);
        assert_eq!(with.state(STATE_NAME).unwrap().fetch(0), Some(9));
        let without = run(src, &[("a", &[1, 2])], &[("x", 0)]);
        assert_eq!(without.state(STATE_NAME).unwrap().fetch(0), Some(1));
    }

    #[test]
    fn paper_fir_example_computes_dot_product() {
        let src = r#"
            void main() {
                int a[5];
                int c[5];
                int sum;
                int i;
                sum = 0; i = 0;
                while (i < 5) {
                    sum = sum + a[i] * c[i]; i = i + 1;
                }
            }
        "#;
        let result = run(
            src,
            &[("a", &[1, 2, 3, 4, 5]), ("c", &[10, 20, 30, 40, 50])],
            &[],
        );
        assert_eq!(result.word("sum"), Some(10 + 40 + 90 + 160 + 250));
        assert_eq!(result.word("i"), Some(5));
        // The un-unrolled graph contains exactly one loop node.
        let program = compile(src).unwrap();
        assert_eq!(fpfa_cdfg::GraphStats::of(&program.cdfg).loops, 1);
    }

    #[test]
    fn for_loop_matches_while_loop() {
        let src_for =
            "void main() { int s; int i; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } }";
        let src_while =
            "void main() { int s; int i; s = 0; i = 0; while (i < 10) { s = s + i; i = i + 1; } }";
        assert_eq!(
            run(src_for, &[], &[]).word("s"),
            run(src_while, &[], &[]).word("s")
        );
        assert_eq!(run(src_for, &[], &[]).word("s"), Some(45));
    }

    #[test]
    fn nested_loops_execute() {
        let src = r#"
            void main() {
                int total;
                int i;
                int j;
                total = 0;
                i = 0;
                while (i < 3) {
                    j = 0;
                    while (j < 4) {
                        total = total + 1;
                        j = j + 1;
                    }
                    i = i + 1;
                }
            }
        "#;
        assert_eq!(run(src, &[], &[]).word("total"), Some(12));
    }

    #[test]
    fn loop_over_arrays_writes_results() {
        let src = r#"
            void main() {
                int x[4];
                int y[4];
                int i;
                i = 0;
                while (i < 4) {
                    y[i] = x[i] * x[i];
                    i = i + 1;
                }
            }
        "#;
        let result = run(src, &[("x", &[1, 2, 3, 4])], &[]);
        let mem = result.state(STATE_NAME).unwrap();
        let y_base = compile(src).unwrap().layout.array("y").unwrap().base;
        let squares: Vec<_> = (0..4).map(|i| mem.fetch(y_base + i).unwrap()).collect();
        assert_eq!(squares, vec![1, 4, 9, 16]);
    }

    #[test]
    fn logical_operators_normalise_to_bool() {
        let src = "void main() { int x; int y; int r; r = x && y || 0; }";
        assert_eq!(run(src, &[], &[("x", 5), ("y", 3)]).word("r"), Some(1));
        assert_eq!(run(src, &[], &[("x", 5), ("y", 0)]).word("r"), Some(0));
    }

    #[test]
    fn undeclared_identifier_is_rejected() {
        let err = compile("void main() { x = 1; }").unwrap_err();
        assert!(matches!(err, FrontendError::UndeclaredIdentifier { .. }));
    }

    #[test]
    fn duplicate_declaration_is_rejected() {
        let err = compile("void main() { int x; int x; }").unwrap_err();
        assert!(matches!(err, FrontendError::DuplicateDeclaration { .. }));
    }

    #[test]
    fn array_scalar_confusion_is_rejected() {
        let err = compile("void main() { int a[3]; int x; x = a + 1; }").unwrap_err();
        assert!(matches!(err, FrontendError::KindMismatch { .. }));
        let err = compile("void main() { int x; int y; y = x[0]; }").unwrap_err();
        assert!(matches!(err, FrontendError::KindMismatch { .. }));
    }

    #[test]
    fn missing_main_is_rejected() {
        let err = compile("void other() { }").unwrap_err();
        assert!(matches!(err, FrontendError::MissingMain));
    }

    #[test]
    fn mem_interface_is_always_present() {
        let program = compile("void main() { int x; x = 1; }").unwrap();
        assert!(program.cdfg.input_named(STATE_NAME).is_some());
        assert!(program.cdfg.output_named(STATE_NAME).is_some());
    }
}
