//! The frontend against checks above it.
//!
//! * `fpfa_verify::interp` runs every registry kernel and every compiling
//!   source of the four frontend sweeps (the scope-rule sweep holds the
//!   scope reproductions) straight from the AST, and the CDFG interpreter
//!   runs the graph the frontend lowered it to.  From the same drawn
//!   parameters and statespace (eight draws per source and case) they must
//!   leave the same named scalars and the same statespace, or both fail.
//!   The graph evaluates both branches of an `if`, so it alone can fail in
//!   an untaken branch.  Such runs are printed apart, and none is allowed:
//!   no source here divides by zero or reads past its words in a branch
//!   that is not taken, so the same failure from a wrong carried set or a
//!   wrong merge is caught.
//! * The FS003 lint and the lowering's `UseBeforeAssignment` name the same
//!   reads, over the frontend's error table, the sweeps and the registry.

#[path = "../crates/frontend/tests/error_cases/mod.rs"]
mod error_cases;
mod sweeps;

use fpfa::frontend::lexer::lex;
use fpfa::frontend::lower::STATE_NAME;
use fpfa::frontend::token::TokenKind;
use fpfa::frontend::{compile, FrontendError, Program, Span};
use fpfa::verify::interp;
use fpfa_cdfg::interp::Interpreter;
use fpfa_cdfg::{CdfgError, NodeKind, StateSpace, Value};
use proptest::prelude::*;

/// Scope shapes that no sweep draws.  In the first, only the first of two
/// declarations of `n` is read where no assignment reaches it, so only it
/// is a parameter and the second starts at 0 when `d` is 0.  In the second,
/// a loop in one branch writes `n` after the branch assigned it, and a loop
/// in the other only reads it, which makes `n` a parameter.  In the last
/// two, both declarations of `n` are parameters (one in each branch, or one
/// in a branch and one after it), and both read the one input `n`.
const SHAPES: &[&str] = &[
    "void main() { int c; int d; int y; int z; \
     if (c) { int n; y = n; } int n; if (d) { n = 1; } z = n; }",
    "void main() { int c; int n; int i; int s; s = 0; \
     if (c) { n = 1; i = 0; while (i < 2) { n = n + i; i = i + 1; } } \
     else { i = 0; while (i < 2) { s = s + n; i = i + 1; } } }",
    "void main() { int c; int y; if (c) { int n; y = n; } else { int n; y = n + 1; } }",
    "void main() { int c; int y; int z; if (c) { int n; y = n; } int n; z = n; }",
];

/// Every registry kernel, every sweep source and the shapes.
fn sources() -> Vec<String> {
    let registry = fpfa::workloads::registry().into_iter().map(|k| k.source);
    let sweeps = sweeps::SWEEPS.iter().flat_map(|(_, sources)| sources());
    let shapes = SHAPES.iter().map(|shape| shape.to_string());
    registry.chain(sweeps).chain(shapes).collect()
}

/// Runs `check` on a thread whose stack holds the deepest sweep shapes in a
/// debug build.
fn on_a_deep_stack<T: Send + 'static>(check: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(check)
        .expect("spawn a checking thread")
        .join()
        .expect("the check does not panic")
}

/// Draws of parameters and statespace words per source and case, for a
/// source that takes either.
const DRAWS: usize = 8;

/// A word: 0 a quarter of the time (a branch not taken), otherwise mostly
/// small, sometimes anything.
fn word(rng: &mut TestRng) -> i64 {
    match rng.below(8) {
        0 | 1 => 0,
        2 => rng.next_u64() as i64,
        _ => rng.below(19) as i64 - 9,
    }
}

/// How the two interpreters compared on one source.
enum Outcome {
    Agree,
    BothFail,
    /// Only the graph failed, with this error, and the source has an `if`.
    UntakenBranch(CdfgError),
}

/// The names of `program`'s parameters.
fn parameters(program: &Program) -> impl Iterator<Item = &str> {
    program
        .cdfg
        .nodes()
        .filter_map(|(_, node)| match &node.kind {
            NodeKind::Input(name) if name != STATE_NAME => Some(name.as_str()),
            _ => None,
        })
}

/// Runs `source`, lowered to `program`, through both interpreters from
/// parameters and statespace words drawn from `rng`.  In the `draw`-th
/// draw, parameter `draw` alone is 0 and the others are not, so each
/// branch on a parameter is skipped once while the rest hold values.
fn compare(
    source: &str,
    program: &Program,
    draw: usize,
    rng: &mut TestRng,
) -> Result<Outcome, String> {
    let count = parameters(program).count();
    let parameters: Vec<(&str, i64)> = parameters(program)
        .enumerate()
        .map(|(k, name)| match word(rng) {
            _ if k == draw => (name, 0),
            0 if draw < count => (name, 1),
            value => (name, value),
        })
        .collect();
    let words = program
        .layout
        .arrays()
        .iter()
        .flat_map(|array| (0..array.len.min(1 << 12)).map(move |i| array.address(i)));
    let state = StateSpace::from_tuples(
        words
            .map(|address| (address, word(rng)))
            .collect::<Vec<_>>(),
    );

    let mut graph = Interpreter::new(&program.cdfg);
    graph.bind(STATE_NAME, Value::State(state.clone()));
    for (name, value) in &parameters {
        graph.bind(*name, Value::Word(*value));
    }
    let inputs = format!(
        "parameters {parameters:?}, statespace {:?}",
        state.to_tuples()
    );
    match (graph.run(), interp::run(source, &parameters, state)) {
        (Ok(graph), Ok(direct)) => {
            let mut outputs = graph.sorted();
            let state = outputs.iter().position(|(name, _)| *name == STATE_NAME);
            let graph_state = state.map(|at| outputs.remove(at).1);
            if graph_state != Some(&Value::State(direct.state.clone())) {
                return Err(format!(
                    "final statespace {graph_state:?}, directly {:?}; {inputs}",
                    direct.state
                ));
            }
            for (name, value) in &outputs {
                if direct.scalar(name) != value.as_word() {
                    return Err(format!(
                        "`{name}` is {value:?}, directly {:?}; {inputs}",
                        direct.scalar(name)
                    ));
                }
            }
            // A scalar the graph does not output was never given a value.
            for (name, value) in &direct.scalars {
                let output = outputs.iter().any(|(output, _)| output == name);
                if !output && *value != 0 {
                    return Err(format!(
                        "`{name}` is not an output, directly {value}; {inputs}"
                    ));
                }
            }
            Ok(Outcome::Agree)
        }
        (Err(_), Err(_)) => Ok(Outcome::BothFail),
        (
            Err(
                error @ (CdfgError::DivisionByZero(_)
                | CdfgError::UnboundAddress { .. }
                | CdfgError::LoopBudgetExceeded { .. }),
            ),
            Ok(_),
        ) if lex(source).is_ok_and(|tokens| tokens.iter().any(|t| t.kind == TokenKind::KwIf)) => {
            Ok(Outcome::UntakenBranch(error))
        }
        (graph, direct) => Err(format!(
            "the graph gives {:?}, directly {:?}; {inputs}",
            graph.map(|_| "a result"),
            direct.map(|_| "a result")
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn the_source_interpreter_agrees_with_the_lowered_graph(seed in any::<u64>()) {
        let (mismatches, counts, untaken) = on_a_deep_stack(move || {
            let mut rng = TestRng::new(seed);
            let mut mismatches = Vec::new();
            let mut untaken = Vec::new();
            let mut counts = [0usize; 2];
            for source in sources() {
                let Ok(program) = compile(&source) else {
                    continue;
                };
                let inputs = parameters(&program).next().is_some()
                    || !program.layout.arrays().is_empty();
                for draw in 0..if inputs { DRAWS } else { 1 } {
                    match compare(&source, &program, draw, &mut rng) {
                        Ok(Outcome::Agree) => counts[0] += 1,
                        Ok(Outcome::BothFail) => counts[1] += 1,
                        Ok(Outcome::UntakenBranch(error)) => {
                            untaken.push(format!("{error}: {source}"));
                        }
                        Err(why) => {
                            mismatches.push(format!("{why}\n  in {source}"));
                            break;
                        }
                    }
                }
            }
            (mismatches, counts, untaken)
        });
        println!(
            "{} agree, {} fail in both, {} fail only in the graph (an untaken branch)",
            counts[0],
            counts[1],
            untaken.len()
        );
        prop_assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
        prop_assert!(untaken.is_empty(), "only the graph failed: {}", untaken.join("\n"));
        prop_assert!(counts[0] > 0);
    }
}

#[test]
fn fs003_names_exactly_the_reads_the_lowering_rejects() {
    let wrong = on_a_deep_stack(|| {
        let table = error_cases::TABLE
            .iter()
            .map(|(_, source, _)| source.to_string());
        let mut wrong = Vec::new();
        for source in table.chain(sources()) {
            let Ok(lints) = fpfa::verify::analyze(&source) else {
                continue;
            };
            let fs003: Vec<Option<Span>> = lints.of_rule("FS003").iter().map(|d| d.span).collect();
            match compile(&source) {
                Err(FrontendError::UseBeforeAssignment { span, .. })
                    if !fs003.contains(&Some(span)) =>
                {
                    wrong.push(format!("no FS003 at {span:?}: {source}"));
                }
                Ok(_) if !fs003.is_empty() => {
                    wrong.push(format!("FS003 at {fs003:?} but it lowers: {source}"));
                }
                _ => {}
            }
        }
        wrong
    });
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
