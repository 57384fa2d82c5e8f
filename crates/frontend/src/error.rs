//! Frontend error type.

use crate::token::Span;
use fpfa_cdfg::CdfgError;
use std::fmt;

/// Errors produced while lexing, parsing or lowering a source program.
#[derive(Clone, PartialEq, Debug)]
pub enum FrontendError {
    /// An unexpected character was found in the source text.
    UnexpectedChar {
        /// The offending character.
        ch: char,
        /// Where it was found.
        span: Span,
    },
    /// An integer literal does not fit in a machine word.
    IntegerOverflow {
        /// The literal text.
        literal: String,
        /// Where it was found.
        span: Span,
    },
    /// A block comment was never closed.
    UnterminatedComment {
        /// Where the comment starts.
        span: Span,
    },
    /// The parser found a token it did not expect.
    UnexpectedToken {
        /// Description of what was expected.
        expected: String,
        /// Description of what was found.
        found: String,
        /// Where it was found.
        span: Span,
    },
    /// A variable or array was used before being declared.
    UndeclaredIdentifier {
        /// The identifier name.
        name: String,
        /// Where it was used.
        span: Span,
    },
    /// A name was declared twice in the same scope.
    DuplicateDeclaration {
        /// The identifier name.
        name: String,
        /// Where the second declaration appears.
        span: Span,
    },
    /// A scalar was used where an array was required, or vice versa.
    KindMismatch {
        /// The identifier name.
        name: String,
        /// What the use required.
        expected: &'static str,
        /// Where it was used.
        span: Span,
    },
    /// A scalar was read before any value was assigned to it and it is not a
    /// kernel input.
    UseBeforeAssignment {
        /// The identifier name.
        name: String,
        /// Where it was read.
        span: Span,
    },
    /// A language feature outside the supported subset was used.
    Unsupported {
        /// Description of the feature.
        feature: String,
        /// Where it appears.
        span: Span,
    },
    /// An array was declared with a non-positive or non-constant size.
    BadArraySize {
        /// The array name.
        name: String,
        /// Where it is declared.
        span: Span,
    },
    /// The declared arrays exhaust the statespace address range, so the
    /// array cannot be placed without aliasing an earlier one.
    AddressSpaceExhausted {
        /// The array that did not fit.
        name: String,
        /// Where it is declared.
        span: Span,
    },
    /// The source nests deeper than the parser's limit
    /// ([`MAX_DEPTH`](crate::parser::MAX_DEPTH)).
    TooDeep {
        /// The nesting limit.
        limit: usize,
        /// Where the first level past the limit opens.
        span: Span,
    },
    /// The translation unit does not define `main`.
    MissingMain,
    /// Internal graph-construction failure (should not happen for accepted
    /// programs).
    Graph(CdfgError),
}

impl FrontendError {
    /// The source position the error points at, when it has one.
    ///
    /// [`FrontendError::MissingMain`] and [`FrontendError::Graph`] describe
    /// whole-program problems and carry no span.
    pub fn span(&self) -> Option<Span> {
        match self {
            FrontendError::UnexpectedChar { span, .. }
            | FrontendError::IntegerOverflow { span, .. }
            | FrontendError::UnterminatedComment { span }
            | FrontendError::UnexpectedToken { span, .. }
            | FrontendError::UndeclaredIdentifier { span, .. }
            | FrontendError::DuplicateDeclaration { span, .. }
            | FrontendError::KindMismatch { span, .. }
            | FrontendError::UseBeforeAssignment { span, .. }
            | FrontendError::Unsupported { span, .. }
            | FrontendError::BadArraySize { span, .. }
            | FrontendError::AddressSpaceExhausted { span, .. }
            | FrontendError::TooDeep { span, .. } => Some(*span),
            FrontendError::MissingMain | FrontendError::Graph(_) => None,
        }
    }

    /// Renders the error with a caret snippet of the offending source line:
    ///
    /// ```text
    /// kernel.c:2:11: error: `x` is not declared
    ///   2 |   y = x + 1;
    ///     |       ^
    /// ```
    ///
    /// Errors without a span (and spans outside `source`) degrade to the
    /// plain one-line form.
    pub fn render(&self, file: &str, source: &str) -> String {
        match self.span() {
            Some(span) => {
                // Display already prefixes "line:col: "; strip it so the
                // header reads `file:line:col: error: message`.
                let text = self.to_string();
                let message = text
                    .strip_prefix(&format!("{span}: "))
                    .unwrap_or(&text)
                    .to_string();
                crate::source::render_annotated(file, source, span, &format!("error: {message}"))
            }
            None => format!("{file}: error: {self}"),
        }
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::UnexpectedChar { ch, span } => {
                write!(f, "{span}: unexpected character `{ch}`")
            }
            FrontendError::IntegerOverflow { literal, span } => {
                write!(
                    f,
                    "{span}: integer literal `{literal}` does not fit in a word"
                )
            }
            FrontendError::UnterminatedComment { span } => {
                write!(f, "{span}: unterminated block comment")
            }
            FrontendError::UnexpectedToken {
                expected,
                found,
                span,
            } => write!(f, "{span}: expected {expected}, found `{found}`"),
            FrontendError::UndeclaredIdentifier { name, span } => {
                write!(f, "{span}: `{name}` is not declared")
            }
            FrontendError::DuplicateDeclaration { name, span } => {
                write!(f, "{span}: `{name}` is already declared")
            }
            FrontendError::KindMismatch {
                name,
                expected,
                span,
            } => write!(f, "{span}: `{name}` is not {expected}"),
            FrontendError::UseBeforeAssignment { name, span } => {
                write!(f, "{span}: `{name}` may be read before assignment")
            }
            FrontendError::Unsupported { feature, span } => {
                write!(f, "{span}: unsupported construct: {feature}")
            }
            FrontendError::BadArraySize { name, span } => {
                write!(f, "{span}: array `{name}` needs a positive constant size")
            }
            FrontendError::AddressSpaceExhausted { name, span } => {
                write!(
                    f,
                    "{span}: array `{name}` does not fit in the statespace address range"
                )
            }
            FrontendError::TooDeep { limit, span } => {
                write!(f, "{span}: nesting deeper than {limit} levels")
            }
            FrontendError::MissingMain => write!(f, "translation unit does not define `main`"),
            FrontendError::Graph(e) => write!(f, "graph construction failed: {e}"),
        }
    }
}

impl std::error::Error for FrontendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrontendError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CdfgError> for FrontendError {
    fn from(e: CdfgError) -> Self {
        FrontendError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_positions() {
        let e = FrontendError::UndeclaredIdentifier {
            name: "foo".into(),
            span: Span::new(2, 5),
        };
        assert_eq!(e.to_string(), "2:5: `foo` is not declared");
        assert_eq!(
            FrontendError::MissingMain.to_string(),
            "translation unit does not define `main`"
        );
    }

    #[test]
    fn render_attaches_source_snippets() {
        let src = "void main() {\n  y = x + 1;\n}";
        let e = FrontendError::UndeclaredIdentifier {
            name: "x".into(),
            span: Span::new(2, 7),
        };
        let text = e.render("kernel.c", src);
        assert!(text.starts_with("kernel.c:2:7: error: `x` is not declared\n"));
        assert!(text.contains("y = x + 1;"));
        assert!(text.contains("^"));
        assert_eq!(
            FrontendError::MissingMain.render("kernel.c", src),
            "kernel.c: error: translation unit does not define `main`"
        );
    }

    #[test]
    fn graph_errors_are_wrapped() {
        let e: FrontendError = CdfgError::CycleDetected.into();
        assert!(e.to_string().contains("cycle"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
