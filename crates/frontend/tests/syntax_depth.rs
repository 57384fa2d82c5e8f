//! The syntax-depth limit: a kernel nested exactly `MAX_DEPTH` levels deep
//! compiles on a 2 MiB thread, the stack a serving worker runs on, and one
//! level deeper is a typed `TooDeep` error that points at the level past the
//! limit.  Each shape below builds a kernel whose deepest nesting is exactly
//! `depth` levels, counting the body of `main` as the first.

use fpfa_frontend::parser::MAX_DEPTH;
use fpfa_frontend::FrontendError;

/// `x = ((…(1)…));`: one level per parenthesis.
fn parentheses(depth: usize) -> String {
    let n = depth - 1;
    format!(
        "void main() {{ int x; x = {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    )
}

/// `if (a[0]) { if (a[0]) { … x = 1; } }`: one level per `if` body.
fn nested_ifs(depth: usize) -> String {
    let n = depth - 1;
    format!(
        "void main() {{ int a[1]; int x; x = 0; {} x = 1; {} }}",
        "if (a[0]) { ".repeat(n),
        "} ".repeat(n)
    )
}

/// `x = 1 + (1 + (… (1 + 1)))`: two levels per `+ (`, plus one for a
/// unary minus on the innermost operand when `depth` is odd.
fn right_nested_sum(depth: usize) -> String {
    let n = depth / 2;
    let last = if depth % 2 == 1 { "-1" } else { "1" };
    format!(
        "void main() {{ int x; x = {}1 + {last}{}; }}",
        "1 + (".repeat(n - 1),
        ")".repeat(n - 1)
    )
}

/// Counted `while` loops nested in each other: one level per loop body, and
/// one more for the `+` of the innermost counter's increment.
fn nested_whiles(depth: usize) -> String {
    let n = depth - 2;
    let mut source = String::from("void main() { ");
    for i in 0..n {
        source.push_str(&format!("int i{i}; "));
    }
    for i in 0..n {
        source.push_str(&format!("i{i} = 0; while (i{i} < 1) {{ i{i} = i{i} + 1; "));
    }
    source.push_str(&"} ".repeat(n));
    source.push('}');
    source
}

/// One-trip `for` loops nested in each other, each with its own counter:
/// one level per loop body, so `depth - 1` loops.  Each loop carries the
/// counters of every loop inside it, so the lowered program grows with the
/// square of the depth; at the limit it is 255 loops deep.
fn nested_fors(depth: usize) -> String {
    let n = depth - 1;
    let mut source = String::from("void main() { ");
    for i in 0..n {
        source.push_str(&format!("int i{i}; "));
    }
    for i in 0..n {
        source.push_str(&format!("for (i{i} = 0; i{i} < 1; i{i} = i{i} + 1) {{ "));
    }
    source.push_str(&"} ".repeat(n));
    source.push('}');
    source
}

/// `x = 1 + 1 + … + 1;` with `depth` terms: its left-deep tree nests one
/// level per `+`.
fn flat_sum(depth: usize) -> String {
    format!(
        "void main() {{ int x; x = {}; }}",
        vec!["1"; depth].join(" + ")
    )
}

/// `x = a[a[…a[0]…]];`: one level per index bracket.
fn nested_indexes(depth: usize) -> String {
    let n = depth - 1;
    format!(
        "void main() {{ int a[1]; int x; x = {}0{}; }}",
        "a[".repeat(n),
        "]".repeat(n)
    )
}

/// `x = - - … - 1;`: one level per unary operator.
fn unary_chain(depth: usize) -> String {
    format!("void main() {{ int x; x = {}1; }}", "- ".repeat(depth - 1))
}

/// Compiles `source` on a thread with the stack of a serving worker.
fn compile_on_a_worker_stack(source: String) -> Result<(), FrontendError> {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || fpfa_frontend::compile(&source).map(drop))
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("the frontend does not panic")
}

fn assert_limit(shape: fn(usize) -> String) {
    let at_limit = shape(MAX_DEPTH);
    if let Err(e) = compile_on_a_worker_stack(at_limit) {
        panic!("a kernel nested {MAX_DEPTH} deep must compile: {e}");
    }
    match compile_on_a_worker_stack(shape(MAX_DEPTH + 1)) {
        Err(FrontendError::TooDeep { limit, span }) => {
            assert_eq!(limit, MAX_DEPTH);
            assert_eq!(span.line, 1, "the error points into the kernel");
        }
        other => panic!("one level past the limit must be TooDeep, got {other:?}"),
    }
}

#[test]
fn parentheses_nest_up_to_the_limit() {
    assert_limit(parentheses);
}

#[test]
fn if_statements_nest_up_to_the_limit() {
    assert_limit(nested_ifs);
}

#[test]
fn right_nested_sums_nest_up_to_the_limit() {
    assert_limit(right_nested_sum);
}

#[test]
fn while_loops_nest_up_to_the_limit() {
    assert_limit(nested_whiles);
}

#[test]
fn for_loops_nest_up_to_the_limit() {
    assert_limit(nested_fors);
}

#[test]
fn flat_sums_hold_up_to_the_limit_in_terms() {
    assert_limit(flat_sum);
}

#[test]
fn index_brackets_nest_up_to_the_limit() {
    assert_limit(nested_indexes);
}

#[test]
fn unary_operators_nest_up_to_the_limit() {
    assert_limit(unary_chain);
}

/// Far past the limit, the parser stops at the first level over it instead
/// of recursing through the rest: 3,000 parentheses overflowed a 2 MiB
/// stack before the limit existed.
#[test]
fn thousands_of_parentheses_are_refused_on_a_worker_stack() {
    let error = compile_on_a_worker_stack(parentheses(3_000)).unwrap_err();
    assert!(
        matches!(
            error,
            FrontendError::TooDeep {
                limit: MAX_DEPTH,
                ..
            }
        ),
        "{error:?}"
    );
    assert!(error.to_string().contains("nesting deeper than 256 levels"));
}
