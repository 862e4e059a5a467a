//! A token cursor with the error-recovery helpers shared by all three
//! IDL parsers.
//!
//! Each front end builds a recursive-descent parser over [`Cursor`].
//! The cursor never runs past the trailing [`TokenKind::Eof`] token, and
//! the `recover_*` helpers implement panic-mode recovery to statement
//! boundaries so a single syntax error does not hide the rest of a file.

use crate::diag::Diagnostics;
use crate::lex::{Token, TokenKind};
use crate::source::Span;

/// A cursor over a lexed token stream (`'t`) whose text borrows the
/// source (`'s`).
pub struct Cursor<'t, 's> {
    toks: &'t [Token<'s>],
    pos: usize,
    /// Diagnostics sink shared with the front end.
    pub diags: Diagnostics,
}

impl<'t, 's> Cursor<'t, 's> {
    /// Wraps `toks`, which must be terminated by [`TokenKind::Eof`].
    ///
    /// # Panics
    /// Panics if `toks` is empty or not EOF-terminated.
    #[must_use]
    pub fn new(toks: &'t [Token<'s>]) -> Self {
        assert!(
            matches!(toks.last(), Some(t) if t.kind == TokenKind::Eof),
            "token stream must end with Eof"
        );
        Cursor {
            toks,
            pos: 0,
            diags: Diagnostics::new(),
        }
    }

    /// The current token (never past EOF).
    #[must_use]
    pub fn peek(&self) -> &'t Token<'s> {
        &self.toks[self.pos]
    }

    /// The token after the current one, clamped at EOF.
    #[must_use]
    pub fn peek2(&self) -> &'t Token<'s> {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)]
    }

    /// Span of the current token.
    #[must_use]
    pub fn span(&self) -> Span {
        self.peek().span
    }

    /// True at the trailing EOF token.
    #[must_use]
    pub fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    /// Current token index — lets callers detect a parse step that
    /// consumed nothing (the guard against error-recovery livelock).
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Advances and returns the consumed token.
    pub fn bump(&mut self) -> &'t Token<'s> {
        let t = &self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the current token if it equals `kind`.
    pub fn eat(&mut self, kind: &TokenKind<'_>) -> bool {
        if &self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consumes the current token if it is the identifier `kw`.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().kind.is_ident(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// True if the current token is the identifier `kw`.
    #[must_use]
    pub fn at_kw(&self, kw: &str) -> bool {
        self.peek().kind.is_ident(kw)
    }

    /// Requires `kind`; on mismatch records an error and leaves the
    /// cursor in place. Returns whether the token was consumed.
    pub fn expect(&mut self, kind: &TokenKind<'_>, context: &str) -> bool {
        if self.eat(kind) {
            true
        } else {
            let found = self.peek().kind.describe();
            let span = self.span();
            self.diags.error(
                format!("expected {} {context}, found {found}", kind.describe()),
                span,
            );
            false
        }
    }

    /// Requires the identifier `kw` as a keyword.
    pub fn expect_kw(&mut self, kw: &str, context: &str) -> bool {
        if self.eat_kw(kw) {
            true
        } else {
            let found = self.peek().kind.describe();
            let span = self.span();
            self.diags
                .error(format!("expected `{kw}` {context}, found {found}"), span);
            false
        }
    }

    /// Requires any identifier and returns its text — a slice of the
    /// source — and span.
    ///
    /// On mismatch records an error and synthesizes the name `"<error>"`
    /// so callers can keep building their AST.
    pub fn expect_ident(&mut self, context: &str) -> (&'s str, Span) {
        let span = self.span();
        if let TokenKind::Ident(s) = self.peek().kind {
            self.bump();
            (s, span)
        } else {
            let found = self.peek().kind.describe();
            self.diags.error(
                format!("expected identifier {context}, found {found}"),
                span,
            );
            ("<error>", span)
        }
    }

    /// Requires an integer literal; returns 0 on mismatch after
    /// recording an error.
    pub fn expect_int(&mut self, context: &str) -> (u64, Span) {
        let span = self.span();
        if let TokenKind::Int(v) = self.peek().kind {
            self.bump();
            (v, span)
        } else {
            let found = self.peek().kind.describe();
            self.diags
                .error(format!("expected integer {context}, found {found}"), span);
            (0, span)
        }
    }

    /// Panic-mode recovery: skips tokens until after the next `;`, or
    /// until a `}` or EOF (which are left for the caller).
    pub fn recover_to_semi(&mut self) {
        let mut depth = 0usize;
        loop {
            match &self.peek().kind {
                TokenKind::Eof => return,
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::RBrace if depth == 0 => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    depth -= 1;
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Skips a balanced `{ ... }` body the cursor currently points into,
    /// stopping after the matching `}`.
    pub fn recover_to_close_brace(&mut self) {
        let mut depth = 1usize;
        loop {
            match &self.peek().kind {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        return;
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::source::SourceFile;

    /// Tokens of `text` (leaked so they may outlive the call; tests
    /// only).
    fn cursor_for(text: &str) -> (Vec<Token<'static>>, Diagnostics) {
        let f: &'static SourceFile = Box::leak(Box::new(SourceFile::new("t", text)));
        let mut d = Diagnostics::new();
        (lex(f, &mut d), d)
    }

    #[test]
    fn eat_and_expect() {
        let (toks, _) = cursor_for("interface Mail ;");
        let mut c = Cursor::new(&toks);
        assert!(c.eat_kw("interface"));
        let (name, _) = c.expect_ident("after `interface`");
        assert_eq!(name, "Mail");
        assert!(c.expect(&TokenKind::Semi, "after declaration"));
        assert!(c.at_eof());
        assert!(!c.diags.has_errors());
    }

    #[test]
    fn expect_reports_and_stays() {
        let (toks, _) = cursor_for("42");
        let mut c = Cursor::new(&toks);
        assert!(!c.expect(&TokenKind::Semi, "here"));
        assert!(c.diags.has_errors());
        // Did not consume the mismatched token.
        assert_eq!(c.peek().kind, TokenKind::Int(42));
    }

    #[test]
    fn recover_to_semi_skips_nested_braces() {
        let (toks, _) = cursor_for("junk { a; b; } more ; next");
        let mut c = Cursor::new(&toks);
        c.recover_to_semi();
        assert!(c.peek().kind.is_ident("next"));
    }

    #[test]
    fn recover_stops_at_rbrace() {
        let (toks, _) = cursor_for("junk } tail");
        let mut c = Cursor::new(&toks);
        c.recover_to_semi();
        assert_eq!(c.peek().kind, TokenKind::RBrace);
    }

    #[test]
    fn recover_close_brace() {
        let (toks, _) = cursor_for("a { b { c } d } after");
        let mut c = Cursor::new(&toks);
        c.bump(); // a
        c.bump(); // {
        c.recover_to_close_brace();
        assert!(c.peek().kind.is_ident("after"));
    }

    #[test]
    fn pos_tracks_consumption() {
        let (toks, _) = cursor_for("a b");
        let mut c = Cursor::new(&toks);
        let p0 = c.pos();
        c.bump();
        assert!(c.pos() > p0);
        // recover_to_semi at `}` consumes nothing — callers must check.
        let (toks, _) = cursor_for("}");
        let mut c = Cursor::new(&toks);
        let p0 = c.pos();
        c.recover_to_semi();
        assert_eq!(c.pos(), p0);
    }

    #[test]
    fn bump_clamps_at_eof() {
        let (toks, _) = cursor_for("");
        let mut c = Cursor::new(&toks);
        c.bump();
        c.bump();
        assert!(c.at_eof());
    }
}
