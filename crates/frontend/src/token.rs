//! Lexical tokens of the C subset.
//!
//! Tokens are `Copy`: an identifier is a slice of the source text, so
//! lexing allocates only the token vector and the parser advances without
//! cloning anything.

use std::fmt;

/// Position of a token in the source text (1-based line and column).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub column: u32,
}

impl Span {
    /// Creates a span.
    pub fn new(line: u32, column: u32) -> Self {
        Span { line, column }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// The kind of a lexical token; an identifier borrows its name from the
/// source text.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind<'s> {
    /// An integer literal.
    Int(i64),
    /// An identifier.
    Ident(&'s str),
    /// `void` keyword.
    KwVoid,
    /// `int` keyword.
    KwInt,
    /// `if` keyword.
    KwIf,
    /// `else` keyword.
    KwElse,
    /// `while` keyword.
    KwWhile,
    /// `for` keyword.
    KwFor,
    /// `return` keyword.
    KwReturn,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `!`
    Bang,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::KwVoid => write!(f, "void"),
            TokenKind::KwInt => write!(f, "int"),
            TokenKind::KwIf => write!(f, "if"),
            TokenKind::KwElse => write!(f, "else"),
            TokenKind::KwWhile => write!(f, "while"),
            TokenKind::KwFor => write!(f, "for"),
            TokenKind::KwReturn => write!(f, "return"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Assign => write!(f, "="),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::Amp => write!(f, "&"),
            TokenKind::Pipe => write!(f, "|"),
            TokenKind::Caret => write!(f, "^"),
            TokenKind::Tilde => write!(f, "~"),
            TokenKind::Bang => write!(f, "!"),
            TokenKind::Shl => write!(f, "<<"),
            TokenKind::Shr => write!(f, ">>"),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::EqEq => write!(f, "=="),
            TokenKind::NotEq => write!(f, "!="),
            TokenKind::AndAnd => write!(f, "&&"),
            TokenKind::OrOr => write!(f, "||"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token<'s> {
    /// What kind of token this is (and its payload, if any).
    pub kind: TokenKind<'s>,
    /// Where the token starts in the source.
    pub span: Span,
}

impl<'s> Token<'s> {
    /// Creates a token.
    pub fn new(kind: TokenKind<'s>, span: Span) -> Self {
        Token { kind, span }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(TokenKind::KwWhile.to_string(), "while");
        assert_eq!(TokenKind::Shl.to_string(), "<<");
        assert_eq!(TokenKind::Int(42).to_string(), "42");
        assert_eq!(TokenKind::Ident("x").to_string(), "x");
        assert_eq!(Span::new(3, 7).to_string(), "3:7");
    }
}
