//! Lowering of the AST to a CDFG.
//!
//! * Scalar locals become pure dataflow values (an environment maps each name
//!   to the wire holding its current value).
//! * Arrays are placed in the statespace ([`crate::MemoryLayout`]); reads and
//!   writes become `FE`/`ST` primitives threaded through a single statespace
//!   token, which enters the graph as the input `mem` and leaves it as the
//!   output `mem`.
//! * `if`/`else` is if-converted: both branches are lowered and every scalar
//!   (and the statespace token) modified in either branch is merged with a
//!   multiplexer controlled by the condition.  The scalars merge in
//!   declaration order, so a kernel lowers to the same graph on every call.
//! * `while` loops become structured [`LoopSpec`] nodes whose condition and
//!   body are separate CDFGs over the loop-carried variables; the
//!   transformation engine unrolls them later.
//! * A scalar that is read before ever being assigned becomes a named graph
//!   input, so kernels can take scalar parameters.
//! * At the end of `main` every declared scalar that holds a value becomes a
//!   named graph output, alongside the final statespace.
//!
//! The cost is linear in the source plus the graphs built.  One walk before
//! lowering numbers every name and works out every loop's read, written and
//! declared names, bottom-up, so a loop header finds its carried variables
//! without re-walking its body.  One environment, a table indexed by name
//! number, serves the whole function with an undo log: an `if` branch or a
//! loop sub-graph records the bindings it changes and unwinds them
//! afterwards instead of copying the environment.

use crate::ast::{AstBinOp, Expr, Function, LValue, Stmt, TranslationUnit};
use crate::error::FrontendError;
use crate::layout::MemoryLayout;
use crate::token::Span;
use fpfa_cdfg::builder::Wire;
use fpfa_cdfg::{BinOp, Cdfg, LoopSpec, NodeId, NodeKind};
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
    let mut walk = Walk::default();
    walk.stmts(&function.body);
    let loops = walk.loop_usages();
    let mut scope = Scope {
        env: vec![None; walk.names.len()],
        first_base: vec![None; walk.names.len()],
        names: walk.names,
        ids: walk.ids,
        log: Vec::new(),
        layout: MemoryLayout::new(),
        loops,
        next_loop: 0,
    };
    let mut ctx = Lowerer::new(function.name, &mut scope);
    let (nodes, edges) = room(walk.size, 0);
    ctx.graph.reserve(nodes, edges);
    ctx.lower_block(&function.body)?;
    let mut cdfg = ctx.finish()?;
    cdfg.shrink_to_fit();
    Ok(Program {
        cdfg,
        layout: scope.layout,
    })
}

#[derive(Clone, Copy, Debug)]
enum Symbol {
    /// A scalar and the wire holding its value, once it has one.
    Scalar { value: Option<Wire> },
    /// An array and the base address its elements are read and written at.
    Array { base: i64 },
}

/// What a name is bound to, and where.
#[derive(Clone, Copy, Debug)]
struct Binding {
    symbol: Symbol,
    /// The graph that bound the name: 0 for the function, one more per loop
    /// sub-graph.  Arrays are visible in every deeper graph; scalars only in
    /// their own, where they are loop carried or declared.
    frame: u32,
    /// A scalar's position in its graph's declaration order.
    decl: u32,
}

/// What every graph of one function shares.  Names are numbered once, so
/// the environment is a table indexed by name id.
struct Scope<'s> {
    /// Every name of the function body, by id, and the id of each.
    names: Vec<&'s str>,
    ids: HashMap<&'s str, u32>,
    /// The innermost binding of every name, by id.
    env: Vec<Option<Binding>>,
    /// Undo log: each entry holds a name's binding (or its absence) before a
    /// change.
    log: Vec<(u32, Option<Binding>)>,
    layout: MemoryLayout,
    /// The base of the first array declared under each name, by id.  Every
    /// later array of that name (one declared after a branch that declared
    /// its own) is read and written there too.
    first_base: Vec<Option<i64>>,
    /// Every loop's usage, in the order the lowering meets the loops.
    loops: Vec<LoopUsage>,
    next_loop: usize,
}

impl Scope<'_> {
    fn bind(&mut self, id: u32, binding: Binding) {
        let before = self.env[id as usize].replace(binding);
        self.log.push((id, before));
    }

    /// Undoes every change logged since `mark`, newest first.
    fn unwind(&mut self, mark: usize) {
        for (id, before) in self.log.drain(mark..).rev() {
            self.env[id as usize] = before;
        }
    }
}

/// Builds one graph: the function's, or a loop's condition or body.
struct Lowerer<'a, 's> {
    graph: Cdfg,
    state: Wire,
    /// Nesting of this graph; see [`Binding::frame`].
    frame: u32,
    /// Scalars of this graph in declaration order (loop-carried ones first).
    scalar_order: Vec<u32>,
    scope: &'a mut Scope<'s>,
}

impl<'a, 's> Lowerer<'a, 's> {
    fn new(name: &str, scope: &'a mut Scope<'s>) -> Self {
        let mut graph = Cdfg::new(name);
        let mem = graph.add_node(NodeKind::Input(STATE_NAME.to_string()));
        Lowerer {
            graph,
            state: Wire { node: mem, port: 0 },
            frame: 0,
            scalar_order: Vec::new(),
            scope,
        }
    }

    /// Starts a loop's condition or body graph: one input per carried
    /// scalar, in order, so carried scalar `k` is node `k`, then the
    /// statespace's.  The caller unwinds the scope once the graph is built.
    fn sub_graph(&mut self, part: &str, carried: &Carried) -> Lowerer<'_, 's> {
        let mut graph = Cdfg::new(format!("{}::{part}", self.graph.name()));
        let (nodes, edges) = room(carried.size, carried.ids.len() + 1);
        graph.reserve(nodes, edges);
        let mut sub = Lowerer {
            graph,
            state: Wire {
                node: NodeId::from_index(0),
                port: 0,
            },
            frame: self.frame + 1,
            scalar_order: Vec::with_capacity(carried.ids.len()),
            scope: &mut *self.scope,
        };
        for &id in &carried.ids {
            let name = sub.scope.names[id as usize].to_string();
            let input = sub.graph.add_node(NodeKind::Input(name));
            sub.declare_scalar(
                id,
                Some(Wire {
                    node: input,
                    port: 0,
                }),
            );
        }
        sub.state = if carried.state {
            let input = sub.graph.add_node(NodeKind::Input(STATE_VAR.to_string()));
            Wire {
                node: input,
                port: 0,
            }
        } else {
            // A loop that does not touch the statespace gets a dummy
            // constant, which keeps the wire plumbing uniform and is pruned
            // at the end.
            sub.constant(0)
        };
        sub
    }

    /// The id of a name of the function body.
    fn id(&self, name: &str) -> u32 {
        self.scope.ids[name]
    }

    /// The binding name `id` has in this graph, if it is visible here.
    fn lookup(&self, id: u32) -> Option<Binding> {
        self.scope.env[id as usize].filter(|binding| {
            matches!(binding.symbol, Symbol::Array { .. }) || binding.frame == self.frame
        })
    }

    /// The value of the scalar `id`, if it is visible here and has one.
    fn value(&self, id: u32) -> Option<Wire> {
        match self.lookup(id)?.symbol {
            Symbol::Scalar { value } => value,
            Symbol::Array { .. } => None,
        }
    }

    fn declare_scalar(&mut self, id: u32, value: Option<Wire>) {
        let decl = self.scalar_order.len() as u32;
        self.scalar_order.push(id);
        self.scope.bind(
            id,
            Binding {
                symbol: Symbol::Scalar { value },
                frame: self.frame,
                decl,
            },
        );
    }

    /// Gives the scalar bound as `binding` a new value.
    fn assign(&mut self, id: u32, binding: Binding, value: Option<Wire>) {
        self.scope.bind(
            id,
            Binding {
                symbol: Symbol::Scalar { value },
                ..binding
            },
        );
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
    fn lower_block(&mut self, stmts: &[Stmt<'s>]) -> Result<(), FrontendError> {
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

    fn lower_stmt(&mut self, stmt: &Stmt<'s>) -> Result<(), FrontendError> {
        match stmt {
            Stmt::Empty { .. } => Ok(()),
            Stmt::Block { body, .. } => self.lower_block(body),
            Stmt::DeclScalar { name, init, span } => self.declare(name, init.as_ref(), *span),
            Stmt::DeclArray { name, len, span } => self.declare_array(name, *len, *span),
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
        init: Option<&Expr<'s>>,
        span: Span,
    ) -> Result<(), FrontendError> {
        let id = self.id(name);
        if self.lookup(id).is_some() {
            return Err(FrontendError::DuplicateDeclaration {
                name: name.to_string(),
                span,
            });
        }
        let value = match init {
            Some(expr) => Some(self.lower_expr(expr)?),
            None => None,
        };
        self.declare_scalar(id, value);
        Ok(())
    }

    fn declare_array(&mut self, name: &str, len: i64, span: Span) -> Result<(), FrontendError> {
        let id = self.id(name);
        if self.lookup(id).is_some() {
            return Err(FrontendError::DuplicateDeclaration {
                name: name.to_string(),
                span,
            });
        }
        let Some(array) = self.scope.layout.allocate(name, len as usize) else {
            return Err(FrontendError::AddressSpaceExhausted {
                name: name.to_string(),
                span,
            });
        };
        let base = *self.scope.first_base[id as usize].get_or_insert(array.base);
        self.scope.bind(
            id,
            Binding {
                symbol: Symbol::Array { base },
                frame: self.frame,
                decl: 0,
            },
        );
        Ok(())
    }

    fn lower_assign(&mut self, target: &LValue<'s>, value: &Expr<'s>) -> Result<(), FrontendError> {
        let value_wire = self.lower_expr(value)?;
        match target {
            LValue::Var { name, span } => {
                let id = self.id(name);
                match self.lookup(id) {
                    Some(
                        binding @ Binding {
                            symbol: Symbol::Scalar { .. },
                            ..
                        },
                    ) => {
                        self.assign(id, binding, Some(value_wire));
                        Ok(())
                    }
                    Some(_) => Err(FrontendError::KindMismatch {
                        name: name.to_string(),
                        expected: "a scalar",
                        span: *span,
                    }),
                    None => Err(FrontendError::UndeclaredIdentifier {
                        name: name.to_string(),
                        span: *span,
                    }),
                }
            }
            LValue::Index { name, index, span } => {
                let address = self.array_address(name, index, *span)?;
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
        cond: &Expr<'s>,
        then_branch: &[Stmt<'s>],
        else_branch: &[Stmt<'s>],
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

        // Merge every changed scalar, in declaration order.
        let mut then_values = then_values.into_iter().peekable();
        let mut else_values = else_values.into_iter().peekable();
        loop {
            let decl = match (then_values.peek(), else_values.peek()) {
                (None, None) => break,
                (Some(t), None) => t.decl,
                (None, Some(e)) => e.decl,
                (Some(t), Some(e)) => t.decl.min(e.decl),
            };
            let then_change = then_values.next_if(|t| t.decl == decl);
            let else_change = else_values.next_if(|e| e.decl == decl);
            let id = then_change
                .or(else_change)
                .expect("one branch changed it")
                .id;
            let binding = self.lookup(id).expect("a changed scalar is in scope");
            let before = self.value(id);
            let then_value = then_change.map_or(before, |t| t.value);
            let else_value = else_change.map_or(before, |e| e.value);
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
            self.assign(id, binding, merged);
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
            .filter_map(|&(id, before)| {
                let before = before?;
                let outer = matches!(before.symbol, Symbol::Scalar { .. })
                    && before.frame == self.frame
                    && (before.decl as usize) < declared;
                outer.then(|| BranchValue {
                    decl: before.decl,
                    id,
                    value: self.value(id),
                })
            })
            .collect();
        changed.sort_unstable_by_key(|change| change.decl);
        changed.dedup_by_key(|change| change.decl);
        changed
    }

    /// Lowers a loop to a [`LoopSpec`] node.  Each part is a function of its
    /// own, so the frames that stay on the stack while the body lowers (and
    /// recurses into inner loops) are small.
    fn lower_while(
        &mut self,
        cond: &Expr<'s>,
        body: &[Stmt<'s>],
        span: Span,
    ) -> Result<(), FrontendError> {
        let carried = self.carried(span)?;
        let cond = self.loop_cond(cond, &carried)?;
        let body = self.loop_body(body, &carried)?;
        self.close_loop(carried, cond, body, span)
    }

    /// The loop-carried variables of the next loop: every scalar of this
    /// graph that its condition or body reads or writes, in name order,
    /// plus the statespace when arrays are touched.  A name the loop
    /// declares is not carried, and a truly undeclared one is reported by
    /// the nested lowering with a precise span.
    fn carried(&mut self, span: Span) -> Result<Carried, FrontendError> {
        let usage = std::mem::take(&mut self.scope.loops[self.scope.next_loop]);
        self.scope.next_loop += 1;
        let (ids, written): (Vec<u32>, Vec<bool>) = usage
            .names
            .iter()
            .filter(|&&(id, _)| {
                matches!(
                    self.lookup(id),
                    Some(Binding {
                        symbol: Symbol::Scalar { .. },
                        ..
                    })
                )
            })
            .copied()
            .unzip();
        let state = usage.touches_state;
        if ids.is_empty() && !state {
            // A loop that neither reads nor writes anything observable: the
            // condition is either always false (dead code) or the loop never
            // terminates. Reject it as unsupported rather than silently
            // dropping it.
            return Err(FrontendError::Unsupported {
                feature: "loops with no observable effect".into(),
                span,
            });
        }
        Ok(Carried {
            ids,
            written,
            state,
            size: usage.size,
        })
    }

    /// Builds a loop's condition sub-graph.
    fn loop_cond(&mut self, cond: &Expr<'s>, carried: &Carried) -> Result<Cdfg, FrontendError> {
        let mark = self.scope.log.len();
        let mut sub = self.sub_graph("cond", carried);
        let wire = sub.lower_expr(cond)?;
        sub.output(LoopSpec::COND_OUTPUT.to_string(), wire);
        sub.prune_dead_interface();
        let mut graph = sub.graph;
        graph.shrink_to_fit();
        self.scope.unwind(mark);
        Ok(graph)
    }

    /// Builds a loop's body sub-graph, with one output per carried variable
    /// holding its value at the end of an iteration.
    fn loop_body(&mut self, body: &[Stmt<'s>], carried: &Carried) -> Result<Cdfg, FrontendError> {
        let mark = self.scope.log.len();
        let mut sub = self.sub_graph("body", carried);
        sub.lower_block(body)?;
        for (port, &id) in carried.ids.iter().enumerate() {
            // A scalar the body never assigned passes its input through.
            let wire = sub.value(id).unwrap_or(Wire {
                node: NodeId::from_index(port),
                port: 0,
            });
            let name = sub.scope.names[id as usize].to_string();
            sub.output(name, wire);
        }
        if carried.state {
            let wire = sub.state;
            sub.output(STATE_VAR.to_string(), wire);
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
        carried: Carried,
        cond: Cdfg,
        body: Cdfg,
        span: Span,
    ) -> Result<(), FrontendError> {
        let mut initial = Vec::with_capacity(carried.ids.len() + 1);
        for (&id, &writes) in carried.ids.iter().zip(&carried.written) {
            let wire = match self.value(id) {
                // An outer value exists: use it.
                Some(w) => w,
                // No outer value. A variable that is (re)assigned inside the
                // loop gets a don't-care initial value of 0; a variable that
                // is only *read* by the loop is a genuine kernel input.
                None if writes => self.constant(0),
                None => {
                    let name = self.scope.names[id as usize];
                    self.read_scalar(name, span)?
                }
            };
            initial.push(wire);
        }
        if carried.state {
            initial.push(self.state);
        }

        let mut vars: Vec<String> = carried
            .ids
            .iter()
            .map(|&id| self.scope.names[id as usize].to_string())
            .collect();
        if carried.state {
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
        for (port, &id) in carried.ids.iter().enumerate() {
            let binding = self.lookup(id).expect("carried variables are in scope");
            self.assign(
                id,
                binding,
                Some(Wire {
                    node: loop_node,
                    port,
                }),
            );
        }
        if carried.state {
            self.state = Wire {
                node: loop_node,
                port: carried.ids.len(),
            };
        }
        Ok(())
    }

    /// Adds an output named `name` driven by `wire`.
    fn output(&mut self, name: String, wire: Wire) {
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

    fn lower_expr(&mut self, expr: &Expr<'s>) -> Result<Wire, FrontendError> {
        match expr {
            Expr::Literal { value, .. } => Ok(self.constant(*value)),
            Expr::Var { name, span } => self.read_scalar(name, *span),
            Expr::Index { name, index, span } => {
                let address = self.array_address(name, index, *span)?;
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

    fn read_scalar(&mut self, name: &str, span: Span) -> Result<Wire, FrontendError> {
        let id = self.id(name);
        match self.lookup(id) {
            Some(Binding {
                symbol: Symbol::Scalar { value: Some(w) },
                ..
            }) => Ok(w),
            Some(
                binding @ Binding {
                    symbol: Symbol::Scalar { value: None },
                    ..
                },
            ) => {
                // Declared but never assigned: the scalar becomes a kernel
                // input (unless we are inside a loop sub-graph, where every
                // readable scalar is already an input).
                if self.frame > 0 {
                    return Err(FrontendError::UseBeforeAssignment {
                        name: name.to_string(),
                        span,
                    });
                }
                let input = self.graph.add_node(NodeKind::Input(name.to_string()));
                let wire = Wire {
                    node: input,
                    port: 0,
                };
                self.assign(id, binding, Some(wire));
                Ok(wire)
            }
            Some(_) => Err(FrontendError::KindMismatch {
                name: name.to_string(),
                expected: "a scalar",
                span,
            }),
            None => Err(FrontendError::UndeclaredIdentifier {
                name: name.to_string(),
                span,
            }),
        }
    }

    fn array_address(
        &mut self,
        name: &str,
        index: &Expr<'s>,
        span: Span,
    ) -> Result<Wire, FrontendError> {
        let base = match self.lookup(self.id(name)) {
            Some(Binding {
                symbol: Symbol::Array { base },
                ..
            }) => base,
            Some(_) => {
                return Err(FrontendError::KindMismatch {
                    name: name.to_string(),
                    expected: "an array",
                    span,
                })
            }
            None => {
                return Err(FrontendError::UndeclaredIdentifier {
                    name: name.to_string(),
                    span,
                })
            }
        };
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
            let id = self.scalar_order[i];
            if let Some(w) = self.value(id) {
                let name = self.scope.names[id as usize].to_string();
                let out = self.graph.add_node(NodeKind::Output(name));
                self.graph.connect(w.node, w.port, out, 0)?;
            }
        }
        let out = self
            .graph
            .add_node(NodeKind::Output(STATE_NAME.to_string()));
        let state = self.state;
        self.graph.connect(state.node, state.port, out, 0)?;
        fpfa_cdfg::validate::validate(&self.graph)?;
        Ok(self.graph)
    }
}

/// The variables a loop carries.
struct Carried {
    /// The carried scalars, in name order: the loop node's first ports.
    ids: Vec<u32>,
    /// Whether the loop writes each carried scalar.
    written: Vec<bool>,
    /// Whether the statespace is carried too, on the last port.
    state: bool,
    /// Expressions and statements of the condition and body, outside the
    /// loops inside.
    size: usize,
}

/// A scalar's value at the end of an `if` branch that changed it.
#[derive(Clone, Copy)]
struct BranchValue {
    decl: u32,
    id: u32,
    value: Option<Wire>,
}

// ----------------------------------------------------------------------
// Name numbering and loop usage (for loop-carried variable discovery)
// ----------------------------------------------------------------------

/// What one loop's condition and body use, nested loops included.
#[derive(Default)]
struct LoopUsage {
    /// Ids of the names read or written but not declared inside the loop,
    /// in name order, each with whether the loop writes it.
    names: Vec<(u32, bool)>,
    touches_state: bool,
    /// Expressions and statements of the condition and body, outside the
    /// loops inside.
    size: usize,
}

/// What a loop's statements use, as sorted, deduplicated name ids.
#[derive(Default)]
struct RawUsage {
    /// Names read or written.
    used: Vec<u32>,
    writes: Vec<u32>,
    /// Names declared; these are not loop carried.
    locals: Vec<u32>,
    touches_state: bool,
    /// Expressions and statements of the condition and body, outside the
    /// loops inside.
    size: usize,
}

/// One walk over a function body: numbers every name and works out every
/// loop's usage, bottom-up, so no loop body is walked twice.
#[derive(Default)]
struct Walk<'s> {
    /// Every name of the body, by id, and the id of each.
    names: Vec<&'s str>,
    ids: HashMap<&'s str, u32>,
    /// Every loop's usage, in source pre-order.
    loops: Vec<RawUsage>,
    /// The loops being walked, innermost last, as indices into `loops`.
    open: Vec<usize>,
    /// The expressions and statements met outside every loop.
    size: usize,
}

/// Room to reserve for a graph lowered from `size` expressions and
/// statements with `interface` input and output nodes: about one node and
/// one or two edges each, doubled (the builder gives back the rest).
fn room(size: usize, interface: usize) -> (usize, usize) {
    (2 * (size + interface), 2 * size + interface)
}

impl<'s> Walk<'s> {
    /// Every loop's usage, in the order the lowering meets the loops
    /// (source pre-order), each loop's names in name order.
    fn loop_usages(&mut self) -> Vec<LoopUsage> {
        let names = &self.names;
        let mut by_name: Vec<u32> = (0..names.len() as u32).collect();
        by_name.sort_unstable_by_key(|&id| names[id as usize]);
        let mut rank = vec![0u32; names.len()];
        for (position, &id) in by_name.iter().enumerate() {
            rank[id as usize] = position as u32;
        }
        const LOCAL: u8 = 1;
        const WRITTEN: u8 = 2;
        let mut marks = vec![0u8; names.len()];
        std::mem::take(&mut self.loops)
            .into_iter()
            .map(|usage| {
                for &id in &usage.locals {
                    marks[id as usize] |= LOCAL;
                }
                for &id in &usage.writes {
                    marks[id as usize] |= WRITTEN;
                }
                let mut carried: Vec<(u32, bool)> = usage
                    .used
                    .iter()
                    .filter(|&&id| marks[id as usize] & LOCAL == 0)
                    .map(|&id| (id, marks[id as usize] & WRITTEN != 0))
                    .collect();
                for &id in usage.locals.iter().chain(&usage.writes) {
                    marks[id as usize] = 0;
                }
                carried.sort_unstable_by_key(|&(id, _)| rank[id as usize]);
                LoopUsage {
                    names: carried,
                    touches_state: usage.touches_state,
                    size: usage.size,
                }
            })
            .collect()
    }

    fn intern(&mut self, name: &'s str) -> u32 {
        let next = self.names.len() as u32;
        let id = *self.ids.entry(name).or_insert(next);
        if id == next {
            self.names.push(name);
        }
        id
    }

    /// Counts one expression or statement of the graph being walked.
    fn grow(&mut self) {
        match self.usage() {
            Some(usage) => usage.size += 1,
            None => self.size += 1,
        }
    }

    /// The usage of the innermost loop being walked, if any.
    fn usage(&mut self) -> Option<&mut RawUsage> {
        let at = *self.open.last()?;
        Some(&mut self.loops[at])
    }

    fn read(&mut self, name: &'s str) {
        let id = self.intern(name);
        if let Some(usage) = self.usage() {
            usage.used.push(id);
        }
    }

    fn write(&mut self, name: &'s str) {
        let id = self.intern(name);
        if let Some(usage) = self.usage() {
            usage.used.push(id);
            usage.writes.push(id);
        }
    }

    fn declare(&mut self, name: &'s str) {
        let id = self.intern(name);
        if let Some(usage) = self.usage() {
            usage.locals.push(id);
        }
    }

    /// Notes an array access.
    fn array(&mut self, name: &'s str) {
        self.intern(name);
        if let Some(usage) = self.usage() {
            usage.touches_state = true;
        }
    }

    fn expr(&mut self, expr: &Expr<'s>) {
        self.grow();
        match expr {
            Expr::Literal { .. } => {}
            Expr::Var { name, .. } => self.read(name),
            Expr::Index { name, index, .. } => {
                self.array(name);
                self.expr(index);
            }
            Expr::Unary { operand, .. } => self.expr(operand),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
        }
    }

    fn stmts(&mut self, stmts: &[Stmt<'s>]) {
        for stmt in stmts {
            self.grow();
            match stmt {
                Stmt::Empty { .. } => {}
                Stmt::Block { body, .. } => self.stmts(body),
                Stmt::DeclScalar { name, init, .. } => {
                    if let Some(init) = init {
                        self.expr(init);
                    }
                    self.declare(name);
                }
                Stmt::DeclArray { name, .. } => self.declare(name),
                Stmt::Assign { target, value, .. } => {
                    self.expr(value);
                    match target {
                        LValue::Var { name, .. } => self.write(name),
                        LValue::Index { name, index, .. } => {
                            self.array(name);
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
                    self.stmts(then_branch);
                    self.stmts(else_branch);
                }
                Stmt::While { cond, body, .. } => {
                    let at = self.loops.len();
                    self.loops.push(RawUsage::default());
                    self.open.push(at);
                    self.expr(cond);
                    self.stmts(body);
                    self.open.pop();
                    let usage = &mut self.loops[at];
                    for ids in [&mut usage.used, &mut usage.writes, &mut usage.locals] {
                        ids.sort_unstable();
                        ids.dedup();
                    }
                    // The enclosing loop uses whatever this one does.
                    if let Some(&outer) = self.open.last() {
                        let (before, after) = self.loops.split_at_mut(at);
                        let (inner, outer) = (&after[0], &mut before[outer]);
                        outer.used.extend_from_slice(&inner.used);
                        outer.writes.extend_from_slice(&inner.writes);
                        outer.locals.extend_from_slice(&inner.locals);
                        outer.touches_state |= inner.touches_state;
                    }
                }
            }
        }
    }
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
