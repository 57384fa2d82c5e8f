//! Hand-written lexer for the C subset.
//!
//! The lexer walks the source's bytes.  Every token of the subset is ASCII,
//! so a `char` is decoded only where a non-ASCII byte starts one: it is
//! either Unicode whitespace (`char::is_whitespace`), which is skipped, or
//! an unexpected character.  Identifiers are slices of the source, so the
//! token vector is the only allocation.  Columns count characters, not
//! bytes, so a span after non-ASCII text points where an editor does.

use crate::error::FrontendError;
use crate::token::{Span, Token, TokenKind};

/// Splits source text into tokens that borrow their identifiers from it.
///
/// # Errors
/// Returns [`FrontendError::UnexpectedChar`],
/// [`FrontendError::IntegerOverflow`] or
/// [`FrontendError::UnterminatedComment`] on malformed input.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, FrontendError> {
    Lexer {
        source,
        pos: 0,
        line: 1,
        column: 1,
    }
    .run()
}

struct Lexer<'s> {
    source: &'s str,
    /// Byte offset of the next character (always on a `char` boundary).
    pos: usize,
    line: u32,
    /// Column of `pos`, counted in characters.
    column: u32,
}

/// `true` for the ASCII characters other than a newline that
/// `char::is_whitespace` accepts.
fn is_blank(byte: u8) -> bool {
    matches!(byte, b'\t' | b'\x0B' | b'\x0C' | b'\r' | b' ')
}

/// `true` for a byte that starts a character: anything but a UTF-8
/// continuation byte.
fn starts_char(byte: u8) -> bool {
    byte & 0xC0 != 0x80
}

impl<'s> Lexer<'s> {
    fn span(&self) -> Span {
        Span::new(self.line, self.column)
    }

    fn rest(&self) -> &'s [u8] {
        &self.source.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.rest().get(1).copied()
    }

    /// The character at `pos`, decoded.
    fn peek_char(&self) -> char {
        self.source[self.pos..]
            .chars()
            .next()
            .expect("callers checked that a byte remains")
    }

    /// Steps over `len` ASCII characters on the current line.
    fn bump_ascii(&mut self, len: usize) {
        self.pos += len;
        self.column += len as u32;
    }

    /// Moves to byte offset `end`, counting the lines and characters passed.
    fn advance_to(&mut self, end: usize) {
        let text = &self.source.as_bytes()[self.pos..end];
        let last_line = match text.iter().rposition(|&byte| byte == b'\n') {
            Some(newline) => {
                self.line += text.iter().filter(|&&byte| byte == b'\n').count() as u32;
                self.column = 1;
                &text[newline + 1..]
            }
            None => text,
        };
        self.column += last_line.iter().filter(|&&byte| starts_char(byte)).count() as u32;
        self.pos = end;
    }

    fn run(mut self) -> Result<Vec<Token<'s>>, FrontendError> {
        // Kernels hold about one token per three bytes, rarely one per two.
        let mut tokens = Vec::with_capacity(self.source.len() / 2 + 1);
        loop {
            self.skip_trivia()?;
            let span = self.span();
            let Some(byte) = self.peek() else {
                tokens.push(Token::new(TokenKind::Eof, span));
                return Ok(tokens);
            };
            let kind = match byte {
                b'0'..=b'9' => self.lex_number(span)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(),
                _ => self.lex_symbol(span)?,
            };
            tokens.push(Token::new(kind, span));
        }
    }

    fn skip_trivia(&mut self) -> Result<(), FrontendError> {
        loop {
            match self.peek() {
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                    self.column = 1;
                }
                Some(byte) if is_blank(byte) => self.bump_ascii(self.run_len(is_blank)),
                Some(b'/') if self.peek2() == Some(b'/') => {
                    self.advance_to(self.pos + self.run_len(|byte| byte != b'\n'));
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.bump_ascii(2);
                    let Some(len) = self.rest().windows(2).position(|pair| pair == b"*/") else {
                        return Err(FrontendError::UnterminatedComment { span: start });
                    };
                    self.advance_to(self.pos + len);
                    self.bump_ascii(2);
                }
                Some(byte) if !byte.is_ascii() => {
                    let ch = self.peek_char();
                    if !ch.is_whitespace() {
                        return Ok(());
                    }
                    self.pos += ch.len_utf8();
                    self.column += 1;
                }
                _ => return Ok(()),
            }
        }
    }

    /// The length of the run of bytes at `pos` that satisfy `keep`.
    fn run_len(&self, keep: impl Fn(u8) -> bool) -> usize {
        let rest = self.rest();
        rest.iter()
            .position(|&byte| !keep(byte))
            .unwrap_or(rest.len())
    }

    fn lex_number(&mut self, span: Span) -> Result<TokenKind<'s>, FrontendError> {
        let start = self.pos;
        self.bump_ascii(self.run_len(|byte| byte.is_ascii_digit()));
        let text = &self.source[start..self.pos];
        text.parse::<i64>()
            .map(TokenKind::Int)
            .map_err(|_| FrontendError::IntegerOverflow {
                literal: text.to_string(),
                span,
            })
    }

    fn lex_ident(&mut self) -> TokenKind<'s> {
        let start = self.pos;
        self.bump_ascii(self.run_len(|byte| byte.is_ascii_alphanumeric() || byte == b'_'));
        match &self.source[start..self.pos] {
            "void" => TokenKind::KwVoid,
            "int" => TokenKind::KwInt,
            "if" => TokenKind::KwIf,
            "else" => TokenKind::KwElse,
            "while" => TokenKind::KwWhile,
            "for" => TokenKind::KwFor,
            "return" => TokenKind::KwReturn,
            name => TokenKind::Ident(name),
        }
    }

    fn lex_symbol(&mut self, span: Span) -> Result<TokenKind<'s>, FrontendError> {
        let byte = self.rest()[0];
        if !byte.is_ascii() {
            let ch = self.peek_char();
            return Err(FrontendError::UnexpectedChar { ch, span });
        }
        self.bump_ascii(1);
        let two = |lexer: &mut Self, next: u8, double: TokenKind<'s>, single: TokenKind<'s>| {
            if lexer.peek() == Some(next) {
                lexer.bump_ascii(1);
                double
            } else {
                single
            }
        };
        let kind = match byte {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semicolon,
            b',' => TokenKind::Comma,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'^' => TokenKind::Caret,
            b'~' => TokenKind::Tilde,
            b'=' => two(self, b'=', TokenKind::EqEq, TokenKind::Assign),
            b'!' => two(self, b'=', TokenKind::NotEq, TokenKind::Bang),
            b'&' => two(self, b'&', TokenKind::AndAnd, TokenKind::Amp),
            b'|' => two(self, b'|', TokenKind::OrOr, TokenKind::Pipe),
            b'<' => {
                if self.peek() == Some(b'<') {
                    self.bump_ascii(1);
                    TokenKind::Shl
                } else {
                    two(self, b'=', TokenKind::Le, TokenKind::Lt)
                }
            }
            b'>' => {
                if self.peek() == Some(b'>') {
                    self.bump_ascii(1);
                    TokenKind::Shr
                } else {
                    two(self, b'=', TokenKind::Ge, TokenKind::Gt)
                }
            }
            other => {
                return Err(FrontendError::UnexpectedChar {
                    ch: char::from(other),
                    span,
                })
            }
        };
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<TokenKind<'_>> {
        lex(source).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_the_fir_snippet() {
        let toks = kinds("sum = sum + a[i] * c[i]; i = i + 1;");
        assert_eq!(toks[0], TokenKind::Ident("sum"));
        assert_eq!(toks[1], TokenKind::Assign);
        assert!(toks.contains(&TokenKind::LBracket));
        assert!(toks.contains(&TokenKind::Star));
        assert_eq!(*toks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn keywords_and_identifiers() {
        let toks = kinds("void int if else while for return whilex");
        assert_eq!(
            toks[..8],
            [
                TokenKind::KwVoid,
                TokenKind::KwInt,
                TokenKind::KwIf,
                TokenKind::KwElse,
                TokenKind::KwWhile,
                TokenKind::KwFor,
                TokenKind::KwReturn,
                TokenKind::Ident("whilex"),
            ]
        );
    }

    #[test]
    fn two_character_operators() {
        let toks = kinds("<= >= == != && || << >> < >");
        assert_eq!(
            toks[..10],
            [
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Shl,
                TokenKind::Shr,
                TokenKind::Lt,
                TokenKind::Gt,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("a // line comment\n /* block\n comment */ b");
        assert_eq!(
            toks,
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"), TokenKind::Eof]
        );
    }

    #[test]
    fn unterminated_comment_is_reported() {
        let err = lex("x /* never closed").unwrap_err();
        assert!(matches!(err, FrontendError::UnterminatedComment { .. }));
    }

    #[test]
    fn unexpected_character_is_reported() {
        let err = lex("a @ b").unwrap_err();
        assert!(matches!(err, FrontendError::UnexpectedChar { ch: '@', .. }));
    }

    #[test]
    fn integer_overflow_is_reported() {
        let err = lex("99999999999999999999").unwrap_err();
        assert!(matches!(err, FrontendError::IntegerOverflow { .. }));
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].span, Span::new(1, 1));
        assert_eq!(toks[1].span, Span::new(2, 3));
    }
}
