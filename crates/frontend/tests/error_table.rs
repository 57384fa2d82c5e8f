//! Every kind of malformed source, with the exact error it gets: the
//! variant and its fields (through `Debug`), the rendered message and the
//! span.  Columns count characters, not bytes, so an error after non-ASCII
//! text points where an editor does.

mod error_cases;

use error_cases::TABLE;
use fpfa_frontend::{compile, parser::MAX_DEPTH};

/// `Debug` and `Display` of the error `source` compiles to.
fn describe(source: &str) -> String {
    match compile(source) {
        Ok(_) => "compiles".to_string(),
        Err(error) => format!("{error:?} | {error}"),
    }
}

#[test]
fn malformed_sources_get_their_exact_errors() {
    let mut wrong = Vec::new();
    for (what, source, expected) in TABLE {
        let got = describe(source);
        if got != *expected {
            wrong.push(format!("{what}:\n  got      {got}\n  expected {expected}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// One level past the nesting limit, in an expression and in statements.
#[test]
fn nesting_past_the_limit_is_too_deep_at_the_first_level_over() {
    let parentheses = format!(
        "void main() {{ int x; x = {}1{}; }}",
        "(".repeat(MAX_DEPTH),
        ")".repeat(MAX_DEPTH)
    );
    assert_eq!(
        describe(&parentheses),
        "TooDeep { limit: 256, span: Span { line: 1, column: 281 } } | 1:281: nesting deeper than 256 levels"
    );
    let ifs = format!(
        "void main() {{ int c; {} c = 1; {} }}",
        "if (c) {\n".repeat(MAX_DEPTH),
        "}".repeat(MAX_DEPTH)
    );
    assert_eq!(
        describe(&ifs),
        "TooDeep { limit: 256, span: Span { line: 256, column: 8 } } | 256:8: nesting deeper than 256 levels"
    );
}
