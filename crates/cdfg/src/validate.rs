//! Well-formedness checking of CDFGs.

use crate::error::CdfgError;
use crate::graph::{Cdfg, TopoScratch};
use crate::ids::NodeId;
use crate::node::{LoopSpec, NodeKind};
use std::collections::HashSet;

/// Checks that a graph is well formed:
///
/// * every input port of every node is driven by exactly one edge;
/// * every edge refers to live nodes and in-range ports;
/// * the graph is acyclic (cycles only exist *inside* loop bodies, which are
///   separate graphs);
/// * interface names (`Input`, `Output`) are unique within their direction;
/// * loop specifications are internally consistent (condition graph exposes
///   `%cond`, body produces every carried variable) and their sub-graphs are
///   themselves valid.
///
/// The names are checked against sets borrowed from the graph, and one set
/// of scratch buffers serves the graph and every loop sub-graph, so the cost
/// is linear in the graph and its loop sub-graphs.
///
/// # Errors
/// The first problem found is returned as a [`CdfgError`]. Use
/// [`validate_all`] to collect every violation instead of stopping at the
/// first.
pub fn validate(graph: &Cdfg) -> Result<(), CdfgError> {
    match validate_all(graph).into_iter().next() {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

/// Checks the same well-formedness rules as [`validate`] but accumulates
/// *every* violation found instead of returning only the first.
///
/// An empty vector means the graph is well formed. The first element, when
/// present, is the same error [`validate`] would have returned, so the two
/// entry points always agree on validity.
pub fn validate_all(graph: &Cdfg) -> Vec<CdfgError> {
    let mut errors = Vec::new();
    Validator::default().graph(graph, &[], &mut errors);
    errors
}

/// Scratch space one validation reuses for the graph and every loop
/// sub-graph in it.
#[derive(Default)]
struct Validator<'g> {
    topo: TopoScratch,
    names: HashSet<&'g str>,
    produced: HashSet<&'g str>,
}

impl<'g> Validator<'g> {
    /// Checks `graph`; `carried` lists distinct names its interface may
    /// repeat in order (a loop sub-graph's carried variables), which need
    /// no set to be known distinct.
    fn graph(&mut self, graph: &'g Cdfg, carried: &[String], errors: &mut Vec<CdfgError>) {
        // Port connectivity.
        for (id, node) in graph.nodes() {
            for port in 0..node.input_count() {
                if node.input_edge(port).is_none() {
                    errors.push(CdfgError::PortUnconnected { node: id, port });
                }
            }
        }

        // Edge endpoints refer to live nodes and valid ports (connect()
        // enforces this at insertion time, but transformations may have
        // removed nodes).
        let mut forward = true;
        for (_, edge) in graph.edges() {
            forward &= edge.from.node < edge.to.node;
            match graph.node(edge.from.node) {
                Ok(from) => {
                    if edge.from.port_index() >= from.output_count() {
                        errors.push(CdfgError::PortOutOfRange {
                            node: edge.from.node,
                            port: edge.from.port_index(),
                            arity: from.output_count(),
                            is_input: false,
                        });
                    }
                }
                Err(err) => errors.push(err),
            }
            match graph.node(edge.to.node) {
                Ok(to) => {
                    if edge.to.port_index() >= to.input_count() {
                        errors.push(CdfgError::PortOutOfRange {
                            node: edge.to.node,
                            port: edge.to.port_index(),
                            arity: to.input_count(),
                            is_input: true,
                        });
                    }
                }
                Err(err) => errors.push(err),
            }
        }

        // Acyclicity: id order is a topological order when every edge runs
        // from a lower id to a higher one, as in every graph the frontend
        // builds; otherwise sort.
        if !forward {
            if let Err(err) = graph.topo_order_into(&mut self.topo) {
                errors.push(err);
            }
        }

        // Unique interface names.
        if !same_names(input_names(graph), carried) {
            self.unique(input_names(graph), errors);
        }
        if !same_names(output_names(graph), carried) {
            self.unique(output_names(graph), errors);
        }

        // Loop specifications.
        for (id, node) in graph.nodes() {
            if let NodeKind::Loop(spec) = node.kind {
                self.loop_spec(id, spec, errors);
            }
        }
    }

    fn unique(&mut self, names: impl Iterator<Item = &'g str>, errors: &mut Vec<CdfgError>) {
        self.names.clear();
        for name in names {
            if !self.names.insert(name) {
                errors.push(CdfgError::DuplicateName(name.to_string()));
            }
        }
    }

    fn loop_spec(&mut self, id: NodeId, spec: &'g LoopSpec, errors: &mut Vec<CdfgError>) {
        let malformed = |reason: String| CdfgError::MalformedLoop { node: id, reason };
        if spec.vars.is_empty() {
            errors.push(malformed("loop has no carried variables".into()));
        }
        let vars = &mut self.names;
        vars.clear();
        let mut distinct = true;
        for var in &spec.vars {
            if !vars.insert(var.as_str()) {
                distinct = false;
                errors.push(malformed(format!("duplicate loop variable `{var}`")));
            }
        }
        // An interface that lists the carried variables in order, as the
        // frontend builds it, needs no lookups.
        // Condition graph must expose %cond and may only read carried
        // variables.
        if !output_names(&spec.cond).any(|name| name == LoopSpec::COND_OUTPUT) {
            errors.push(malformed(format!(
                "condition graph lacks `{}` output",
                LoopSpec::COND_OUTPUT
            )));
        }
        if !same_names(input_names(&spec.cond), &spec.vars) {
            for name in input_names(&spec.cond) {
                if !vars.contains(name) {
                    errors.push(malformed(format!(
                        "condition graph reads `{name}` which is not loop carried"
                    )));
                }
            }
        }
        // Body graph must produce every carried variable and only read
        // carried variables.
        if !same_names(output_names(&spec.body), &spec.vars) {
            self.produced.clear();
            self.produced.extend(output_names(&spec.body));
            for var in &spec.vars {
                if !self.produced.contains(var.as_str()) {
                    errors.push(malformed(format!("body graph does not produce `{var}`")));
                }
            }
        }
        if !same_names(input_names(&spec.body), &spec.vars) {
            for name in input_names(&spec.body) {
                if !vars.contains(name) {
                    errors.push(malformed(format!(
                        "body graph reads `{name}` which is not loop carried"
                    )));
                }
            }
        }
        // Sub-graphs must themselves be valid.
        let carried: &[String] = if distinct { &spec.vars } else { &[] };
        for (graph, what) in [(&spec.cond, "condition"), (&spec.body, "body")] {
            let start = errors.len();
            self.graph(graph, carried, errors);
            for error in &mut errors[start..] {
                *error = malformed(format!("{what} graph invalid: {error}"));
            }
        }
    }
}

/// `true` when `names` are exactly `list`, in order.
fn same_names<'g>(mut names: impl Iterator<Item = &'g str>, list: &[String]) -> bool {
    list.iter().all(|name| names.next() == Some(name.as_str())) && names.next().is_none()
}

/// Names of `graph`'s `Input` nodes, in id order.
fn input_names(graph: &Cdfg) -> impl Iterator<Item = &str> {
    graph.nodes().filter_map(|(_, node)| match node.kind {
        NodeKind::Input(name) => Some(name.as_str()),
        _ => None,
    })
}

/// Names of `graph`'s `Output` nodes, in id order.
fn output_names(graph: &Cdfg) -> impl Iterator<Item = &str> {
    graph.nodes().filter_map(|(_, node)| match node.kind {
        NodeKind::Output(name) => Some(name.as_str()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::BinOp;

    #[test]
    fn accepts_valid_graph() {
        let mut g = Cdfg::new("ok");
        let a = g.add_node(NodeKind::Input("a".into()));
        let b = g.add_node(NodeKind::Input("b".into()));
        let add = g.add_node(NodeKind::BinOp(BinOp::Add));
        let out = g.add_node(NodeKind::Output("r".into()));
        g.connect(a, 0, add, 0).unwrap();
        g.connect(b, 0, add, 1).unwrap();
        g.connect(add, 0, out, 0).unwrap();
        assert!(validate(&g).is_ok());
        assert!(validate_all(&g).is_empty());
    }

    #[test]
    fn rejects_unconnected_port() {
        let mut g = Cdfg::new("bad");
        let a = g.add_node(NodeKind::Input("a".into()));
        let add = g.add_node(NodeKind::BinOp(BinOp::Add));
        g.connect(a, 0, add, 0).unwrap();
        assert!(matches!(
            validate(&g),
            Err(CdfgError::PortUnconnected { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_input_names() {
        let mut g = Cdfg::new("bad");
        let a1 = g.add_node(NodeKind::Input("a".into()));
        let a2 = g.add_node(NodeKind::Input("a".into()));
        let add = g.add_node(NodeKind::BinOp(BinOp::Add));
        let out = g.add_node(NodeKind::Output("r".into()));
        g.connect(a1, 0, add, 0).unwrap();
        g.connect(a2, 0, add, 1).unwrap();
        g.connect(add, 0, out, 0).unwrap();
        assert_eq!(validate(&g), Err(CdfgError::DuplicateName("a".into())));
    }

    #[test]
    fn rejects_cycles() {
        let mut g = Cdfg::new("bad");
        let c1 = g.add_node(NodeKind::Copy);
        let c2 = g.add_node(NodeKind::Copy);
        g.connect(c1, 0, c2, 0).unwrap();
        g.connect(c2, 0, c1, 0).unwrap();
        assert_eq!(validate(&g), Err(CdfgError::CycleDetected));
    }

    #[test]
    fn rejects_malformed_loop_spec() {
        // Loop with empty variable list.
        let spec = LoopSpec {
            vars: vec![],
            cond: Cdfg::new("c"),
            body: Cdfg::new("b"),
        };
        let mut g = Cdfg::new("bad");
        let _lp = g.add_node(NodeKind::Loop(Box::new(spec)));
        assert!(matches!(validate(&g), Err(CdfgError::MalformedLoop { .. })));
    }

    #[test]
    fn rejects_loop_without_cond_output() {
        let mut cond = Cdfg::new("c");
        let i = cond.add_node(NodeKind::Input("i".into()));
        let o = cond.add_node(NodeKind::Output("not_cond".into()));
        cond.connect(i, 0, o, 0).unwrap();

        let mut body = Cdfg::new("b");
        let bi = body.add_node(NodeKind::Input("i".into()));
        let bo = body.add_node(NodeKind::Output("i".into()));
        body.connect(bi, 0, bo, 0).unwrap();

        let spec = LoopSpec {
            vars: vec!["i".into()],
            cond,
            body,
        };
        let mut g = Cdfg::new("bad");
        let i0 = g.add_node(NodeKind::Const(0));
        let lp = g.add_node(NodeKind::Loop(Box::new(spec)));
        let out = g.add_node(NodeKind::Output("r".into()));
        g.connect(i0, 0, lp, 0).unwrap();
        g.connect(lp, 0, out, 0).unwrap();
        let err = validate(&g).unwrap_err();
        assert!(matches!(err, CdfgError::MalformedLoop { .. }));
        assert!(err.to_string().contains("%cond"));
    }

    #[test]
    fn sub_graph_errors_are_wrapped_once_per_enclosing_loop() {
        // A loop whose body holds a loop whose body has an open port.
        let mut inner_body = Cdfg::new("inner::body");
        let i = inner_body.add_node(NodeKind::Input("i".into()));
        let _open = inner_body.add_node(NodeKind::BinOp(BinOp::Add));
        let o = inner_body.add_node(NodeKind::Output("i".into()));
        inner_body.connect(i, 0, o, 0).unwrap();
        let cond = |name: &str| {
            let mut cond = Cdfg::new(name);
            let i = cond.add_node(NodeKind::Input("i".into()));
            let o = cond.add_node(NodeKind::Output(LoopSpec::COND_OUTPUT.into()));
            cond.connect(i, 0, o, 0).unwrap();
            cond
        };
        let wrap = |body: Cdfg, name: &str| {
            let mut g = Cdfg::new(name);
            let i = g.add_node(NodeKind::Input("i".into()));
            let lp = g.add_node(NodeKind::Loop(Box::new(LoopSpec {
                vars: vec!["i".into()],
                cond: cond("c"),
                body,
            })));
            let o = g.add_node(NodeKind::Output("i".into()));
            g.connect(i, 0, lp, 0).unwrap();
            g.connect(lp, 0, o, 0).unwrap();
            (g, lp)
        };
        let (outer_body, inner_loop) = wrap(inner_body, "outer::body");
        let (g, outer_loop) = wrap(outer_body, "outer");
        let open_port = |port| CdfgError::MalformedLoop {
            node: outer_loop,
            reason: format!(
                "body graph invalid: {}",
                CdfgError::MalformedLoop {
                    node: inner_loop,
                    reason: format!(
                        "body graph invalid: {}",
                        CdfgError::PortUnconnected {
                            node: NodeId::from_index(1),
                            port
                        }
                    ),
                }
            ),
        };
        assert_eq!(validate_all(&g), [open_port(0), open_port(1)]);
    }

    #[test]
    fn interfaces_that_stray_from_the_carried_list_are_checked_name_by_name() {
        let mut cond = Cdfg::new("c");
        let i = cond.add_node(NodeKind::Input("i".into()));
        let o = cond.add_node(NodeKind::Output(LoopSpec::COND_OUTPUT.into()));
        cond.connect(i, 0, o, 0).unwrap();
        // The body reads `x`, which is not carried, and produces `i` twice.
        let mut body = Cdfg::new("b");
        let x = body.add_node(NodeKind::Input("x".into()));
        let i = body.add_node(NodeKind::Input("i".into()));
        let first = body.add_node(NodeKind::Output("i".into()));
        let second = body.add_node(NodeKind::Output("i".into()));
        body.connect(i, 0, first, 0).unwrap();
        body.connect(x, 0, second, 0).unwrap();
        let mut g = Cdfg::new("g");
        let i0 = g.add_node(NodeKind::Const(0));
        let lp = g.add_node(NodeKind::Loop(Box::new(LoopSpec {
            vars: vec!["i".into()],
            cond,
            body,
        })));
        g.connect(i0, 0, lp, 0).unwrap();
        let reasons: Vec<String> = validate_all(&g)
            .into_iter()
            .map(|error| match error {
                CdfgError::MalformedLoop { reason, .. } => reason,
                other => panic!("expected a malformed loop, got {other}"),
            })
            .collect();
        assert_eq!(
            reasons,
            [
                "body graph reads `x` which is not loop carried".to_string(),
                format!(
                    "body graph invalid: {}",
                    CdfgError::DuplicateName("i".into())
                ),
            ]
        );
    }

    #[test]
    fn validate_all_accumulates_every_violation() {
        // Two unconnected ports and a duplicate output name: three distinct
        // violations, all reported in one pass.
        let mut g = Cdfg::new("bad");
        let a = g.add_node(NodeKind::Input("a".into()));
        let _add = g.add_node(NodeKind::BinOp(BinOp::Add)); // both ports open
        let o1 = g.add_node(NodeKind::Output("r".into()));
        let o2 = g.add_node(NodeKind::Output("r".into()));
        g.connect(a, 0, o1, 0).unwrap();
        g.connect(a, 0, o2, 0).unwrap();
        let errors = validate_all(&g);
        assert_eq!(errors.len(), 3);
        assert_eq!(
            errors
                .iter()
                .filter(|e| matches!(e, CdfgError::PortUnconnected { .. }))
                .count(),
            2
        );
        assert!(errors
            .iter()
            .any(|e| matches!(e, CdfgError::DuplicateName(_))));
        // The first accumulated error is the one validate() returns.
        assert_eq!(validate(&g).unwrap_err(), errors[0]);
    }
}
