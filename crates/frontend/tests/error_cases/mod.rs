//! Every kind of malformed source with the exact error it gets: the
//! variant and its fields (through `Debug`), the rendered message and the
//! span.  `tests/error_table.rs` checks the errors; the workspace's
//! `tests/source_oracle.rs` checks the lints of the same sources.

/// `(what it exercises, source, expected description)`.
pub const TABLE: &[(&str, &str, &str)] = &[
    // Lexical.
    (
        "ascii stray character",
        "void main() { int x; x = 1 @ 2; }",
        "UnexpectedChar { ch: '@', span: Span { line: 1, column: 28 } } | 1:28: unexpected character `@`",
    ),
    (
        "non-ascii stray character",
        "void main() { int x; x = 1 § 2; }",
        "UnexpectedChar { ch: '§', span: Span { line: 1, column: 28 } } | 1:28: unexpected character `§`",
    ),
    (
        "nul byte",
        "void main() { int x; x = 1;\0 }",
        "UnexpectedChar { ch: '\\0', span: Span { line: 1, column: 28 } } | 1:28: unexpected character `\0`",
    ),
    (
        "error after a non-ascii block comment",
        "/* héllo wörld ✓ */ void main() { int x; x = 1; } #",
        "UnexpectedChar { ch: '#', span: Span { line: 1, column: 51 } } | 1:51: unexpected character `#`",
    ),
    (
        "error after a non-ascii line comment",
        "// ünïcödé ✓\nvoid main() { int x; x = 1 $ }",
        "UnexpectedChar { ch: '$', span: Span { line: 2, column: 28 } } | 2:28: unexpected character `$`",
    ),
    (
        "error inside a multi-line non-ascii block comment's line",
        "void main() { /* ä\n ö */ int x; x = 1 ` }",
        "UnexpectedChar { ch: '`', span: Span { line: 2, column: 20 } } | 2:20: unexpected character ```",
    ),
    (
        "unicode whitespace is skipped and counted as one column",
        "void\u{a0}main()\u{2028}{\u{85} int x;\u{3000}x = y; }",
        "UndeclaredIdentifier { name: \"y\", span: Span { line: 1, column: 27 } } | 1:27: `y` is not declared",
    ),
    (
        "vertical tab and form feed are whitespace",
        "void\u{b}main()\u{c}{ int x; x = y; }",
        "UndeclaredIdentifier { name: \"y\", span: Span { line: 1, column: 26 } } | 1:26: `y` is not declared",
    ),
    (
        "crlf line endings",
        "void main() {\r\n  int x;\r\n  x = y;\r\n}",
        "UndeclaredIdentifier { name: \"y\", span: Span { line: 3, column: 7 } } | 3:7: `y` is not declared",
    ),
    (
        "integer overflow",
        "void main() { int x; x = 99999999999999999999; }",
        "IntegerOverflow { literal: \"99999999999999999999\", span: Span { line: 1, column: 26 } } | 1:26: integer literal `99999999999999999999` does not fit in a word",
    ),
    (
        "unterminated block comment",
        "void main() { /* never closed ✗",
        "UnterminatedComment { span: Span { line: 1, column: 15 } } | 1:15: unterminated block comment",
    ),
    (
        "a lexical error wins over an earlier syntax error",
        "void main() { int x = ; } @",
        "UnexpectedChar { ch: '@', span: Span { line: 1, column: 27 } } | 1:27: unexpected character `@`",
    ),
    // Syntactic.
    (
        "end of input after a non-ascii line comment",
        "void main() { // ü ✓",
        "UnexpectedToken { expected: \"`}`\", found: \"<eof>\", span: Span { line: 1, column: 21 } } | 1:21: expected `}`, found `<eof>`",
    ),
    (
        "missing expression",
        "void main() { int x = ; }",
        "UnexpectedToken { expected: \"an expression\", found: \";\", span: Span { line: 1, column: 23 } } | 1:23: expected an expression, found `;`",
    ),
    (
        "missing closing brace",
        "void main() { int x;",
        "UnexpectedToken { expected: \"`}`\", found: \"<eof>\", span: Span { line: 1, column: 21 } } | 1:21: expected `}`, found `<eof>`",
    ),
    (
        "missing return type",
        "main() { }",
        "UnexpectedToken { expected: \"`void` or `int` return type\", found: \"main\", span: Span { line: 1, column: 1 } } | 1:1: expected `void` or `int` return type, found `main`",
    ),
    (
        "expression statement",
        "void main() { int x; x + 1; }",
        "UnexpectedToken { expected: \"`=`\", found: \"+\", span: Span { line: 1, column: 24 } } | 1:24: expected `=`, found `+`",
    ),
    (
        "unclosed for header",
        "void main() { int i; for (i = 0; i < 2; i = i + 1 { } }",
        "UnexpectedToken { expected: \"`)`\", found: \"{\", span: Span { line: 1, column: 51 } } | 1:51: expected `)`, found `{`",
    ),
    (
        "function parameters",
        "void main(int a) { }",
        "Unsupported { feature: \"function parameters\", span: Span { line: 1, column: 11 } } | 1:11: unsupported construct: function parameters",
    ),
    (
        "return statement",
        "void main() { return; }",
        "Unsupported { feature: \"return statements (kernels communicate through arrays and final scalar values)\", span: Span { line: 1, column: 15 } } | 1:15: unsupported construct: return statements (kernels communicate through arrays and final scalar values)",
    ),
    (
        "function call",
        "void main() { int x; x = f(1); }",
        "Unsupported { feature: \"call to `f` (function calls are not part of the subset)\", span: Span { line: 1, column: 26 } } | 1:26: unsupported construct: call to `f` (function calls are not part of the subset)",
    ),
    (
        "for loop without a condition",
        "void main() { int s; for (s = 0; ; s = s + 1) { } }",
        "Unsupported { feature: \"`for` loops without a condition\", span: Span { line: 1, column: 34 } } | 1:34: unsupported construct: `for` loops without a condition",
    ),
    (
        "zero array size",
        "void main() { int a[0]; }",
        "BadArraySize { name: \"a\", span: Span { line: 1, column: 21 } } | 1:21: array `a` needs a positive constant size",
    ),
    (
        "non-constant array size",
        "void main() { int a[n]; }",
        "BadArraySize { name: \"a\", span: Span { line: 1, column: 21 } } | 1:21: array `a` needs a positive constant size",
    ),
    // Semantic.
    (
        "undeclared identifier",
        "void main() { x = 1; }",
        "UndeclaredIdentifier { name: \"x\", span: Span { line: 1, column: 15 } } | 1:15: `x` is not declared",
    ),
    (
        "duplicate scalar",
        "void main() { int x; int x; }",
        "DuplicateDeclaration { name: \"x\", span: Span { line: 1, column: 22 } } | 1:22: `x` is already declared",
    ),
    (
        "duplicate array",
        "void main() { int a[2]; int a[3]; }",
        "DuplicateDeclaration { name: \"a\", span: Span { line: 1, column: 25 } } | 1:25: `a` is already declared",
    ),
    (
        "a branch redeclares an outer scalar",
        "void main() { int x; int c; if (c) { int x; } }",
        "DuplicateDeclaration { name: \"x\", span: Span { line: 1, column: 38 } } | 1:38: `x` is already declared",
    ),
    (
        "a loop body redeclares an outer array",
        "void main() { int a[2]; int i; i = 0; while (i < 2) { int a; i = i + 1; } }",
        "DuplicateDeclaration { name: \"a\", span: Span { line: 1, column: 55 } } | 1:55: `a` is already declared",
    ),
    (
        "scalar indexed like an array",
        "void main() { int x; int y; y = x[0]; }",
        "KindMismatch { name: \"x\", expected: \"an array\", span: Span { line: 1, column: 33 } } | 1:33: `x` is not an array",
    ),
    (
        "array read as a scalar",
        "void main() { int a[3]; int x; x = a + 1; }",
        "KindMismatch { name: \"a\", expected: \"a scalar\", span: Span { line: 1, column: 36 } } | 1:36: `a` is not a scalar",
    ),
    (
        "array assigned as a scalar",
        "void main() { int a[3]; a = 1; }",
        "KindMismatch { name: \"a\", expected: \"a scalar\", span: Span { line: 1, column: 25 } } | 1:25: `a` is not a scalar",
    ),
    (
        "loop-local scalar read before assignment",
        "void main() { int i; i = 0; while (i < 4) { int t; i = i + t; } }",
        "UseBeforeAssignment { name: \"t\", span: Span { line: 1, column: 60 } } | 1:60: `t` may be read before assignment",
    ),
    (
        "an inner loop starts by reading an unassigned scalar of the loop around it",
        "void main() { int i; int j; i = 0; while (i < 2) { int t; j = 0; while (j < 1) { i = i + t; j = j + 1; } i = i + 1; } }",
        "UseBeforeAssignment { name: \"t\", span: Span { line: 1, column: 66 } } | 1:66: `t` may be read before assignment",
    ),
    (
        "loop without an observable effect",
        "void main() { while (1) { } }",
        "Unsupported { feature: \"loops with no observable effect\", span: Span { line: 1, column: 15 } } | 1:15: unsupported construct: loops with no observable effect",
    ),
    (
        "arrays past the address range",
        "void main() { int a[9223372036854775807]; int b[2]; }",
        "AddressSpaceExhausted { name: \"b\", span: Span { line: 1, column: 43 } } | 1:43: array `b` does not fit in the statespace address range",
    ),
    (
        "missing main",
        "void other() { }",
        "MissingMain | translation unit does not define `main`",
    ),
];
