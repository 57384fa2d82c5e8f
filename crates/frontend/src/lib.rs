//! C-subset frontend for the FPFA mapping flow.
//!
//! The paper's flow starts from "code written in a high level source
//! language, like C", which is "first translated into a Control Dataflow
//! graph (CDFG)". This crate provides that translation for the C subset the
//! flow needs:
//!
//! * `void main() { ... }` as the single entry function;
//! * `int` scalars and one-dimensional `int` arrays;
//! * assignments, arithmetic / logical / comparison expressions;
//! * `if`/`else` (converted to multiplexers), `while` and `for` loops
//!   (lowered to structured [`fpfa_cdfg::LoopSpec`] nodes which the
//!   transformation engine later unrolls).
//!
//! Scalars become pure dataflow values; arrays live in the *statespace* and
//! are accessed through the `FE`/`ST` primitives, with a compile-time base
//! address per array recorded in the returned [`MemoryLayout`]. This differs
//! from the paper's internal toolset only in that scalar locals are kept in
//! dataflow form instead of being stored to the statespace; the array
//! traffic — what the figures of the paper count — is identical.
//!
//! # Cost
//!
//! The frontend runs once per cold map, per `verify` request and per cache
//! miss of the serving daemon, so its cost is linear in the source plus the
//! graphs it builds, and it allocates little:
//!
//! * the [`lexer`] walks the source's bytes and decodes a `char` only where
//!   a non-ASCII byte starts one (Unicode whitespace is skipped, anything
//!   else is an unexpected character; columns count characters).  Tokens
//!   are `Copy` and borrow their identifiers from the source, so the token
//!   vector is the one allocation, and the [`parser`] advances without
//!   cloning a token; the [`ast`] borrows its names too;
//! * the [lowering](mod@lower) numbers every name once, keeps one environment for
//!   the whole function with an undo log (an `if` branch or a loop
//!   sub-graph unwinds what it bound instead of copying the scope), and
//!   works out every loop's read, written and declared names in one walk,
//!   bottom-up;
//! * [`fpfa_cdfg::validate`] checks interface names and loop specifications
//!   against sets borrowed from the graph, in one pass over each graph.
//!
//! If-conversion merges the scalars the two branches change in declaration
//! order, so a kernel lowers to the same CDFG on every call.  The output is
//! pinned by `GOLDEN.json`'s `frontend` digests, which hash everything
//! [`Program`]'s equality compares.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), fpfa_frontend::FrontendError> {
//! let source = r#"
//!     void main() {
//!         int a[4];
//!         int sum;
//!         int i;
//!         sum = 0;
//!         i = 0;
//!         while (i < 4) {
//!             sum = sum + a[i];
//!             i = i + 1;
//!         }
//!     }
//! "#;
//! let program = fpfa_frontend::compile(source)?;
//! assert!(program.layout.array("a").is_some());
//! assert!(program.cdfg.output_named("sum").is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod layout;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod source;
pub mod token;

pub use error::FrontendError;
pub use layout::{ArraySymbol, MemoryLayout};
pub use lower::{lower, Program};
pub use source::{render_annotated, render_snippet, LineIndex};
pub use token::Span;

use fpfa_cdfg::StateSpace;

/// Compiles a C-subset source string into a CDFG program.
///
/// This is the convenience entry point combining [`lexer`], [`parser`] and
/// [`lower()`].
///
/// # Errors
/// Returns a [`FrontendError`] describing the first lexical, syntactic or
/// semantic problem found.
pub fn compile(source: &str) -> Result<Program, FrontendError> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(&tokens)?;
    lower::lower(&unit)
}

/// Builds an initial statespace for a compiled program from named arrays.
///
/// Each `(name, values)` pair is placed at the base address the frontend
/// assigned to that array. Unknown array names are ignored so callers can
/// share one data set across kernels.  Where two pairs write one address
/// (the same name twice, or arrays placed over each other), the later pair
/// wins, as with one store after another; the statespace is built in one
/// pass.
pub fn initial_state(layout: &MemoryLayout, arrays: &[(&str, &[i64])]) -> StateSpace {
    let words = arrays.iter().flat_map(|(name, values)| {
        let (base, len) = layout.array(name).map_or((0, 0), |sym| (sym.base, sym.len));
        (0..)
            .map(move |i| base.wrapping_add(i))
            .zip(&values[..values.len().min(len)])
    });
    StateSpace::from_tuples(words.map(|(address, &value)| (address, value)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_equals_storing_word_by_word() {
        let mut layout = MemoryLayout::new();
        layout.allocate("a", 4).unwrap();
        layout.allocate("b", 3).unwrap();
        let arrays: [(&str, &[i64]); 5] = [
            ("b", &[1, 2, 3, 4, 5]),
            ("nope", &[9, 9]),
            ("a", &[10, 11]),
            ("b", &[20]),
            ("a", &[30, 31, 32, 33]),
        ];
        let mut expected = StateSpace::new();
        for (name, values) in arrays {
            if let Some(sym) = layout.array(name) {
                for (i, value) in values.iter().take(sym.len).enumerate() {
                    expected.store(sym.address(i), *value);
                }
            }
        }
        assert_eq!(initial_state(&layout, &arrays), expected);
        assert_eq!(
            expected.to_tuples(),
            vec![(0, 30), (1, 31), (2, 32), (3, 33), (4, 20), (5, 2), (6, 3)]
        );
    }
}
