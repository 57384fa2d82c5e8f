//! Recursive-descent parser for the C subset.
//!
//! Every stage recurses once per level of nesting, so one count bounds it:
//! statement bodies, parentheses, index brackets and unary and binary
//! operators each open a level (a flat sum's left-deep tree, one per `+`).

use crate::ast::{AstBinOp, Expr, Function, LValue, NameId, Stmt, TranslationUnit};
use crate::error::FrontendError;
use crate::token::{Span, Token, TokenKind};
use fpfa_cdfg::{BinOp, UnOp};

/// The deepest nesting the parser accepts: every stage of the flow fits a
/// 2 MiB thread stack at this depth, with room to spare.
pub const MAX_DEPTH: usize = 256;

/// Parses a token stream into a translation unit whose names borrow from
/// the tokens' source.
///
/// # Errors
/// Returns [`FrontendError::UnexpectedToken`] (or another frontend error) on
/// the first syntax problem, and [`FrontendError::TooDeep`] when the
/// nesting exceeds [`MAX_DEPTH`].
pub fn parse<'s>(tokens: &[Token<'s>]) -> Result<TranslationUnit<'s>, FrontendError> {
    Parser {
        tokens,
        pos: 0,
        depth: 0,
        occurrences: 0,
    }
    .translation_unit()
}

struct Parser<'t, 's> {
    tokens: &'t [Token<'s>],
    pos: usize,
    /// Nesting levels open at the current token.
    depth: usize,
    /// Name occurrences met so far in the current function.
    occurrences: u32,
}

impl<'s> Parser<'_, 's> {
    fn peek(&self) -> Token<'s> {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> TokenKind<'s> {
        self.peek().kind
    }

    fn span(&self) -> Span {
        self.peek().span
    }

    /// Steps past the current token; the last one (end of input) stays.
    fn bump(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    fn eat(&mut self, kind: TokenKind<'s>) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<'s>, what: &str) -> Result<(), FrontendError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn unexpected(&self, expected: &str) -> FrontendError {
        FrontendError::UnexpectedToken {
            expected: expected.to_string(),
            found: self.peek_kind().to_string(),
            span: self.span(),
        }
    }

    /// Opens one more level of nesting at the current token.
    fn descend(&mut self) -> Result<(), FrontendError> {
        if self.depth == MAX_DEPTH {
            return Err(FrontendError::TooDeep {
                limit: MAX_DEPTH,
                span: self.span(),
            });
        }
        self.depth += 1;
        Ok(())
    }

    /// The id of the next name occurrence of the current function.
    fn occurrence(&mut self) -> NameId {
        let id = NameId(self.occurrences);
        self.occurrences += 1;
        id
    }

    fn ident(&mut self, what: &str) -> Result<(&'s str, Span), FrontendError> {
        let span = self.span();
        match self.peek_kind() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok((name, span))
            }
            _ => Err(self.unexpected(what)),
        }
    }

    // ------------------------------------------------------------------
    // Grammar
    // ------------------------------------------------------------------

    fn translation_unit(&mut self) -> Result<TranslationUnit<'s>, FrontendError> {
        let mut unit = TranslationUnit::default();
        while self.peek_kind() != TokenKind::Eof {
            unit.functions.push(self.function()?);
        }
        Ok(unit)
    }

    fn function(&mut self) -> Result<Function<'s>, FrontendError> {
        let span = self.span();
        // Return type: void or int (ignored; the subset has no return value).
        if !self.eat(TokenKind::KwVoid) && !self.eat(TokenKind::KwInt) {
            return Err(self.unexpected("`void` or `int` return type"));
        }
        let (name, _) = self.ident("function name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        // Parameter list: empty or `void`.
        if !self.eat(TokenKind::KwVoid) && self.peek_kind() != TokenKind::RParen {
            return Err(FrontendError::Unsupported {
                feature: "function parameters".into(),
                span: self.span(),
            });
        }
        self.expect(TokenKind::RParen, "`)`")?;
        self.occurrences = 0;
        let body = self.block()?;
        Ok(Function {
            name,
            body,
            occurrences: self.occurrences as usize,
            span,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt<'s>>, FrontendError> {
        self.descend()?;
        self.expect(TokenKind::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while self.peek_kind() != TokenKind::RBrace {
            if self.peek_kind() == TokenKind::Eof {
                return Err(self.unexpected("`}`"));
            }
            stmts.push(self.statement()?);
        }
        self.expect(TokenKind::RBrace, "`}`")?;
        self.depth -= 1;
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let span = self.span();
        match self.peek_kind() {
            TokenKind::Semicolon => {
                self.bump();
                Ok(Stmt::Empty { span })
            }
            TokenKind::KwInt => self.declaration(),
            TokenKind::KwIf => self.if_statement(),
            TokenKind::KwWhile => self.while_statement(),
            TokenKind::KwFor => self.for_statement(),
            TokenKind::KwReturn => Err(FrontendError::Unsupported {
                feature:
                    "return statements (kernels communicate through arrays and final scalar values)"
                        .into(),
                span,
            }),
            TokenKind::Ident(_) => self.assignment(),
            _ => Err(self.unexpected("a statement")),
        }
    }

    fn declaration(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let span = self.span();
        self.expect(TokenKind::KwInt, "`int`")?;
        let (name, _) = self.ident("variable name")?;
        let id = self.occurrence();
        if self.eat(TokenKind::LBracket) {
            let len_span = self.span();
            let len = match self.peek_kind() {
                TokenKind::Int(v) => {
                    self.bump();
                    v
                }
                _ => {
                    return Err(FrontendError::BadArraySize {
                        name: name.to_string(),
                        span: len_span,
                    })
                }
            };
            if len <= 0 {
                return Err(FrontendError::BadArraySize {
                    name: name.to_string(),
                    span: len_span,
                });
            }
            self.expect(TokenKind::RBracket, "`]`")?;
            self.expect(TokenKind::Semicolon, "`;`")?;
            Ok(Stmt::DeclArray {
                name,
                id,
                len,
                span,
            })
        } else {
            let init = if self.eat(TokenKind::Assign) {
                Some(self.expression()?)
            } else {
                None
            };
            self.expect(TokenKind::Semicolon, "`;`")?;
            Ok(Stmt::DeclScalar {
                name,
                id,
                init,
                span,
            })
        }
    }

    fn assignment(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let stmt = self.assignment_clause()?;
        self.expect(TokenKind::Semicolon, "`;`")?;
        Ok(stmt)
    }

    fn if_statement(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let span = self.span();
        self.expect(TokenKind::KwIf, "`if`")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let cond = self.expression()?;
        self.expect(TokenKind::RParen, "`)`")?;
        let then_branch = self.block_or_single()?;
        let else_branch = if self.eat(TokenKind::KwElse) {
            self.block_or_single()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            span,
        })
    }

    fn while_statement(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let span = self.span();
        self.expect(TokenKind::KwWhile, "`while`")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let cond = self.expression()?;
        self.expect(TokenKind::RParen, "`)`")?;
        let body = self.block_or_single()?;
        Ok(Stmt::While { cond, body, span })
    }

    /// `for (init; cond; step) body` is desugared to
    /// `init; while (cond) { body; step; }`.
    ///
    /// The init and step clauses must be assignments (or empty); the
    /// desugared form is returned as a two-statement `If`-free sequence
    /// wrapped in the surrounding block by the caller.
    fn for_statement(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let span = self.span();
        self.expect(TokenKind::KwFor, "`for`")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let init = if self.peek_kind() == TokenKind::Semicolon {
            self.bump();
            None
        } else {
            Some(self.assignment()?)
        };
        let cond = if self.peek_kind() == TokenKind::Semicolon {
            // An empty condition would loop forever; the mapping flow cannot
            // handle that, so reject it here.
            return Err(FrontendError::Unsupported {
                feature: "`for` loops without a condition".into(),
                span: self.span(),
            });
        } else {
            self.expression()?
        };
        self.expect(TokenKind::Semicolon, "`;`")?;
        let step = if self.peek_kind() == TokenKind::RParen {
            None
        } else {
            Some(self.assignment_clause()?)
        };
        self.expect(TokenKind::RParen, "`)`")?;
        let mut body = self.block_or_single()?;
        if let Some(step) = step {
            body.push(step);
        }
        let while_stmt = Stmt::While { cond, body, span };
        Ok(match init {
            Some(init) => Stmt::Block {
                body: vec![init, while_stmt],
                span,
            },
            None => while_stmt,
        })
    }

    /// An assignment without its semicolon: the body of an assignment
    /// statement, or the step clause of a `for` loop.
    fn assignment_clause(&mut self) -> Result<Stmt<'s>, FrontendError> {
        let span = self.span();
        let (name, name_span) = self.ident("assignment target")?;
        let id = self.occurrence();
        let target = if self.eat(TokenKind::LBracket) {
            let index = self.expression()?;
            self.expect(TokenKind::RBracket, "`]`")?;
            LValue::Index {
                name,
                id,
                index,
                span: name_span,
            }
        } else {
            LValue::Var {
                name,
                id,
                span: name_span,
            }
        };
        self.expect(TokenKind::Assign, "`=`")?;
        let value = self.expression()?;
        Ok(Stmt::Assign {
            target,
            value,
            span,
        })
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt<'s>>, FrontendError> {
        if self.peek_kind() == TokenKind::LBrace {
            self.block()
        } else {
            self.descend()?;
            let stmt = self.statement()?;
            self.depth -= 1;
            Ok(vec![stmt])
        }
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expression(&mut self) -> Result<Expr<'s>, FrontendError> {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr<'s>, FrontendError> {
        let depth = self.depth;
        let mut lhs = self.unary_expr()?;
        while let Some((op, prec)) = binary_op(self.peek_kind()) {
            if prec < min_prec {
                break;
            }
            let span = self.span();
            // Each operator nests the tree built so far one level deeper.
            self.descend()?;
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr<'s>, FrontendError> {
        let span = self.span();
        let op = match self.peek_kind() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Bang => Some(UnOp::Not),
            TokenKind::Tilde => Some(UnOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            self.descend()?;
            self.bump();
            let operand = self.unary_expr()?;
            self.depth -= 1;
            return Ok(Expr::Unary {
                op,
                operand: Box::new(operand),
                span,
            });
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr<'s>, FrontendError> {
        let span = self.span();
        match self.peek_kind() {
            TokenKind::Int(value) => {
                self.bump();
                Ok(Expr::Literal { value, span })
            }
            TokenKind::LParen => {
                self.descend()?;
                self.bump();
                let e = self.expression()?;
                self.expect(TokenKind::RParen, "`)`")?;
                self.depth -= 1;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                let id = self.occurrence();
                if self.peek_kind() == TokenKind::LBracket {
                    self.descend()?;
                    self.bump();
                    let index = self.expression()?;
                    self.expect(TokenKind::RBracket, "`]`")?;
                    self.depth -= 1;
                    Ok(Expr::Index {
                        name,
                        id,
                        index: Box::new(index),
                        span,
                    })
                } else if self.peek_kind() == TokenKind::LParen {
                    Err(FrontendError::Unsupported {
                        feature: format!(
                            "call to `{name}` (function calls are not part of the subset)"
                        ),
                        span,
                    })
                } else {
                    Ok(Expr::Var { name, id, span })
                }
            }
            _ => Err(self.unexpected("an expression")),
        }
    }
}

/// Operator token → AST operator and precedence (higher binds tighter).
fn binary_op(kind: TokenKind<'_>) -> Option<(AstBinOp, u8)> {
    let (op, prec) = match kind {
        TokenKind::Star => (AstBinOp::Word(BinOp::Mul), 10),
        TokenKind::Slash => (AstBinOp::Word(BinOp::Div), 10),
        TokenKind::Percent => (AstBinOp::Word(BinOp::Rem), 10),
        TokenKind::Plus => (AstBinOp::Word(BinOp::Add), 9),
        TokenKind::Minus => (AstBinOp::Word(BinOp::Sub), 9),
        TokenKind::Shl => (AstBinOp::Word(BinOp::Shl), 8),
        TokenKind::Shr => (AstBinOp::Word(BinOp::Shr), 8),
        TokenKind::Lt => (AstBinOp::Word(BinOp::Lt), 7),
        TokenKind::Le => (AstBinOp::Word(BinOp::Le), 7),
        TokenKind::Gt => (AstBinOp::Word(BinOp::Gt), 7),
        TokenKind::Ge => (AstBinOp::Word(BinOp::Ge), 7),
        TokenKind::EqEq => (AstBinOp::Word(BinOp::Eq), 6),
        TokenKind::NotEq => (AstBinOp::Word(BinOp::Ne), 6),
        TokenKind::Amp => (AstBinOp::Word(BinOp::And), 5),
        TokenKind::Caret => (AstBinOp::Word(BinOp::Xor), 4),
        TokenKind::Pipe => (AstBinOp::Word(BinOp::Or), 3),
        TokenKind::AndAnd => (AstBinOp::LogicalAnd, 2),
        TokenKind::OrOr => (AstBinOp::LogicalOr, 1),
        _ => return None,
    };
    Some((op, prec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<TranslationUnit<'_>, FrontendError> {
        parse(&lex(src).unwrap())
    }

    #[test]
    fn parses_the_paper_fir_example() {
        let unit = parse_src(
            r#"
            void main() {
                int a[5];
                int c[5];
                int sum;
                int i;
                sum = 0; i = 0;
                while (i < 5) {
                    sum = sum + a[i] * c[i]; i = i + 1;
                }
            }
            "#,
        )
        .unwrap();
        let main = unit.function("main").unwrap();
        assert_eq!(main.body.len(), 7);
        assert!(matches!(main.body.last().unwrap(), Stmt::While { .. }));
    }

    #[test]
    fn precedence_mul_over_add() {
        let unit = parse_src("void main() { int x; x = 1 + 2 * 3; }").unwrap();
        let Stmt::Assign { value, .. } = &unit.functions[0].body[1] else {
            panic!("expected assignment");
        };
        let Expr::Binary { op, rhs, .. } = value else {
            panic!("expected binary expression");
        };
        assert_eq!(*op, AstBinOp::Word(BinOp::Add));
        assert!(matches!(
            rhs.as_ref(),
            Expr::Binary {
                op: AstBinOp::Word(BinOp::Mul),
                ..
            }
        ));
    }

    #[test]
    fn parentheses_override_precedence() {
        let unit = parse_src("void main() { int x; x = (1 + 2) * 3; }").unwrap();
        let Stmt::Assign { value, .. } = &unit.functions[0].body[1] else {
            panic!("expected assignment");
        };
        assert!(matches!(
            value,
            Expr::Binary {
                op: AstBinOp::Word(BinOp::Mul),
                ..
            }
        ));
    }

    #[test]
    fn parses_if_else_and_unaries() {
        let unit = parse_src(
            "void main() { int x; int y; x = 1; if (!x && ~x != -1) { y = 2; } else y = 3; }",
        )
        .unwrap();
        assert!(matches!(
            unit.functions[0].body.last().unwrap(),
            Stmt::If { .. }
        ));
    }

    #[test]
    fn for_loops_are_desugared() {
        let unit = parse_src(
            "void main() { int s; int i; s = 0; for (i = 0; i < 4; i = i + 1) { s = s + i; } }",
        )
        .unwrap();
        // The for loop becomes a block containing init + while.
        let Stmt::Block {
            body: desugared, ..
        } = unit.functions[0].body.last().unwrap()
        else {
            panic!("expected desugared for loop");
        };
        assert_eq!(desugared.len(), 2);
        let Stmt::While { body, .. } = &desugared[1] else {
            panic!("expected while inside desugared for");
        };
        // Body = original statement + step.
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn rejects_function_calls() {
        let err = parse_src("void main() { int x; x = f(1); }").unwrap_err();
        assert!(matches!(err, FrontendError::Unsupported { .. }));
    }

    #[test]
    fn rejects_bad_array_sizes() {
        assert!(matches!(
            parse_src("void main() { int a[0]; }").unwrap_err(),
            FrontendError::BadArraySize { .. }
        ));
        assert!(matches!(
            parse_src("void main() { int a[n]; }").unwrap_err(),
            FrontendError::BadArraySize { .. }
        ));
    }

    #[test]
    fn reports_unexpected_tokens_with_position() {
        let err = parse_src("void main() { int x = ; }").unwrap_err();
        let FrontendError::UnexpectedToken { span, .. } = err else {
            panic!("expected unexpected-token error");
        };
        assert_eq!(span.line, 1);
    }

    #[test]
    fn rejects_missing_brace() {
        let err = parse_src("void main() { int x;").unwrap_err();
        assert!(matches!(err, FrontendError::UnexpectedToken { .. }));
    }

    #[test]
    fn parses_multiple_functions() {
        let unit = parse_src("void main() { } void other() { }").unwrap();
        assert_eq!(unit.functions.len(), 2);
    }
}
