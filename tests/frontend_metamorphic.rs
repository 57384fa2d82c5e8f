//! Metamorphic check of the frontend: trivia between tokens changes nothing.
//!
//! Re-rendering a kernel token by token with ASCII whitespace, Unicode
//! whitespace (which `char::is_whitespace` accepts and the lexer skips),
//! `//` comments and `/* */` comments between the tokens must compile to a
//! `Program` equal to the original's.  And a stray character placed after
//! such trivia is reported at the line and column an editor shows: columns
//! count characters, not bytes.

use fpfa::frontend::lexer::lex;
use fpfa::frontend::token::TokenKind;
use fpfa::frontend::{compile, FrontendError, Span};
use fpfa::workloads as wl;
use proptest::prelude::*;

/// What may stand between two tokens.
const TRIVIA: [&str; 14] = [
    " ",
    "\t",
    "\n",
    "\r\n",
    "\u{b}",
    "\u{c}",
    "\u{85}",
    "\u{a0}",
    "\u{2028}",
    "\u{3000}",
    "// a line comment: ü ✓ /* */\n",
    "/* a block comment\n   over two lines: ü ✓ // */",
    "/**/",
    "/* ** / */",
];

/// Registry kernels, generated kernels and the branchy example.
fn kernels() -> Vec<String> {
    let mut sources: Vec<String> = wl::registry().into_iter().map(|k| k.source).collect();
    sources.extend([
        wl::horner(3, 2).source,
        wl::iir_biquad(2).source,
        wl::straight_line_kernel(&[(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]),
        include_str!("../examples/kernels/threshold.c").to_string(),
        "void main() { int a[4]; int i; int x; x = -~!a[0] % 3 >> 1; \
         for (i = 0; i < 4; i = i + 1) { if (a[i] != x && a[i] <= 2 || x >= 1) \
         { a[i] = a[i] / 2 - -1; } else a[i] = a[i] << 1 ^ x | 4 & 5; } }"
            .to_string(),
    ]);
    sources
}

/// `source`'s tokens, each followed by one to three trivia items drawn from
/// `picks` in turn, and the byte offset at which each token starts.
fn respace(source: &str, picks: &[usize]) -> (String, Vec<usize>) {
    let mut picks = picks.iter().cycle();
    let mut text = String::new();
    let mut starts = Vec::new();
    for token in lex(source).expect("kernels lex") {
        if token.kind == TokenKind::Eof {
            break;
        }
        starts.push(text.len());
        text.push_str(&token.kind.to_string());
        for _ in 0..=picks.next().expect("picks are not empty") % 3 {
            let trivia = TRIVIA[picks.next().expect("picks are not empty") % TRIVIA.len()];
            // `/` right before a comment would open one of its own.
            if token.kind == TokenKind::Slash && trivia.starts_with('/') {
                text.push(' ');
            }
            text.push_str(trivia);
        }
    }
    (text, starts)
}

/// The 1-based line and character column of byte `offset` in `text`.
fn position(text: &str, offset: usize) -> Span {
    let before = &text[..offset];
    let line = before.matches('\n').count() + 1;
    let line_start = before.rfind('\n').map_or(0, |newline| newline + 1);
    let column = before[line_start..].chars().count() + 1;
    Span::new(line as u32, column as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trivia_between_tokens_compiles_to_an_equal_program(
        kernel in 0usize..20,
        picks in prop::collection::vec(0usize..1000, 1..24),
    ) {
        let sources = kernels();
        let source = &sources[kernel % sources.len()];
        let expected = compile(source).expect("kernels compile");
        let (respaced, _) = respace(source, &picks);
        let got = compile(&respaced).expect("respaced kernels compile");
        prop_assert!(got == expected, "respacing changed the program of:\n{respaced}");
    }

    #[test]
    fn a_stray_character_after_trivia_is_reported_where_an_editor_shows_it(
        kernel in 0usize..20,
        picks in prop::collection::vec(0usize..1000, 1..24),
        cut in 0usize..10_000,
    ) {
        let sources = kernels();
        let (respaced, starts) = respace(&sources[kernel % sources.len()], &picks);
        // Right before a token, after the trivia that follows the one
        // before it.
        let at = starts[cut % starts.len()];
        let broken = format!("{}@{}", &respaced[..at], &respaced[at..]);
        match compile(&broken) {
            Err(FrontendError::UnexpectedChar { ch: '@', span }) => {
                prop_assert_eq!(span, position(&broken, at));
            }
            other => prop_assert!(false, "expected the stray `@`, got {other:?}"),
        }
    }
}
