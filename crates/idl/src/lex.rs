//! A lexer for the C-family token set shared by the CORBA, ONC RPC, and
//! MIG interface definition languages.
//!
//! The three IDLs Flick parses share C's lexical structure: identifiers,
//! decimal/hex/octal integers, floating literals, character and string
//! literals, the usual punctuation, and both comment styles.  Keywords
//! are *not* distinguished here — each front end owns its keyword table
//! and matches identifier text itself, which is what lets one lexer
//! serve three languages.

use std::borrow::Cow;

use crate::diag::Diagnostics;
use crate::source::{SourceFile, Span};

/// The lexical class of a [`Token`].  Text payloads borrow the source
/// (`'s`): lexing copies no identifier.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind<'s> {
    /// An identifier (or keyword; front ends decide).
    Ident(&'s str),
    /// An integer literal with its decoded value.
    Int(u64),
    /// A floating-point literal with its decoded value.
    Float(f64),
    /// A string literal with escapes decoded (borrowed when it has
    /// none).
    Str(Cow<'s, str>),
    /// A character literal with escapes decoded.
    Char(char),
    /// A `#`-introduced directive, captured to end of line (e.g.
    /// `#include <x.idl>`, `#pragma prefix "org"`); text excludes `#`.
    Directive(&'s str),

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
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `::`
    ColonColon,
    /// `=`
    Eq,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
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
    /// `?`
    Question,
    /// `.`
    Dot,
    /// `@` (used by MIG for IPC flags)
    At,
    /// End of input; always the final token.
    Eof,
}

impl TokenKind<'_> {
    /// A short human-readable name for error messages.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(v) => format!("integer `{v}`"),
            TokenKind::Float(v) => format!("float `{v}`"),
            TokenKind::Str(_) => "string literal".to_string(),
            TokenKind::Char(_) => "character literal".to_string(),
            TokenKind::Directive(_) => "preprocessor directive".to_string(),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{}`", other.punct_str()),
        }
    }

    fn punct_str(&self) -> &'static str {
        match self {
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Lt => "<",
            TokenKind::Gt => ">",
            TokenKind::Le => "<=",
            TokenKind::Ge => ">=",
            TokenKind::EqEq => "==",
            TokenKind::Ne => "!=",
            TokenKind::Comma => ",",
            TokenKind::Semi => ";",
            TokenKind::Colon => ":",
            TokenKind::ColonColon => "::",
            TokenKind::Eq => "=",
            TokenKind::Star => "*",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Amp => "&",
            TokenKind::Pipe => "|",
            TokenKind::Caret => "^",
            TokenKind::Tilde => "~",
            TokenKind::Bang => "!",
            TokenKind::Shl => "<<",
            TokenKind::Shr => ">>",
            TokenKind::Question => "?",
            TokenKind::Dot => ".",
            TokenKind::At => "@",
            _ => unreachable!("punct_str on non-punct"),
        }
    }

    /// True for identifier tokens whose text equals `kw`.
    #[must_use]
    pub fn is_ident(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if *s == kw)
    }
}

/// A lexed token: kind plus source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Token<'s> {
    /// Lexical class and payload.
    pub kind: TokenKind<'s>,
    /// Where in the source the token came from.
    pub span: Span,
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn span_from(&self, lo: usize) -> Span {
        Span::new(lo as u32, self.pos as u32)
    }
}

/// Source bytes per token the token vector is first sized for.  The
/// densest interface the compile benchmark feeds the lexer (`flick-perf`'s
/// synthetic 15-operation one, 5.05 bytes a token with `Eof`) fills it
/// without a regrowth, and so do the canonical modules' sources (5.9
/// to 10.2); the comment-heavy ones (`bench.idl`, `list.x`) leave
/// about half of it unused.
const BYTES_PER_TOKEN: usize = 5;

/// Lexes `file` into a token stream terminated by [`TokenKind::Eof`].
///
/// Lexical errors (unterminated strings/comments, stray bytes) are
/// recorded in `diags`; the lexer skips the offending bytes and keeps
/// going so parsers always receive a well-terminated stream.
#[must_use]
pub fn lex<'s>(file: &'s SourceFile, diags: &mut Diagnostics) -> Vec<Token<'s>> {
    let mut lx = Lexer {
        src: file.text(),
        bytes: file.text().as_bytes(),
        pos: 0,
    };
    let mut out = Vec::with_capacity(file.text().len() / BYTES_PER_TOKEN + 1);
    loop {
        skip_trivia(&mut lx, diags);
        let lo = lx.pos;
        let Some(b) = lx.peek() else {
            out.push(Token {
                kind: TokenKind::Eof,
                span: lx.span_from(lo),
            });
            break;
        };
        let kind = match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => lex_ident(&mut lx),
            b'0'..=b'9' => lex_number(&mut lx, diags),
            b'"' => lex_string(&mut lx, diags),
            b'\'' => lex_char(&mut lx, diags),
            b'#' => lex_directive(&mut lx),
            _ => match lex_punct(&mut lx) {
                Some(k) => k,
                None => {
                    lx.bump();
                    diags.error(
                        format!("unexpected character `{}`", b as char),
                        lx.span_from(lo),
                    );
                    continue;
                }
            },
        };
        out.push(Token {
            kind,
            span: lx.span_from(lo),
        });
    }
    out
}

fn skip_trivia(lx: &mut Lexer<'_>, diags: &mut Diagnostics) {
    loop {
        match lx.peek() {
            Some(b' ' | b'\t' | b'\r' | b'\n') => {
                lx.bump();
            }
            Some(b'/') if lx.peek2() == Some(b'/') => {
                while let Some(b) = lx.peek() {
                    if b == b'\n' {
                        break;
                    }
                    lx.bump();
                }
            }
            Some(b'/') if lx.peek2() == Some(b'*') => {
                let lo = lx.pos;
                lx.bump();
                lx.bump();
                let mut closed = false;
                while let Some(b) = lx.bump() {
                    if b == b'*' && lx.eat(b'/') {
                        closed = true;
                        break;
                    }
                }
                if !closed {
                    diags.error("unterminated block comment", lx.span_from(lo));
                }
            }
            _ => break,
        }
    }
}

fn lex_ident<'s>(lx: &mut Lexer<'s>) -> TokenKind<'s> {
    let lo = lx.pos;
    while let Some(b) = lx.peek() {
        if b.is_ascii_alphanumeric() || b == b'_' {
            lx.bump();
        } else {
            break;
        }
    }
    TokenKind::Ident(&lx.src[lo..lx.pos])
}

fn lex_number(lx: &mut Lexer<'_>, diags: &mut Diagnostics) -> TokenKind<'static> {
    let lo = lx.pos;
    // Hexadecimal.
    if lx.peek() == Some(b'0') && matches!(lx.peek2(), Some(b'x' | b'X')) {
        lx.bump();
        lx.bump();
        let digits_lo = lx.pos;
        while lx.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
            lx.bump();
        }
        if lx.pos == digits_lo {
            diags.error("hexadecimal literal needs digits", lx.span_from(lo));
            return TokenKind::Int(0);
        }
        return match u64::from_str_radix(&lx.src[digits_lo..lx.pos], 16) {
            Ok(v) => TokenKind::Int(v),
            Err(_) => {
                diags.error("integer literal overflows 64 bits", lx.span_from(lo));
                TokenKind::Int(0)
            }
        };
    }
    while lx.peek().is_some_and(|b| b.is_ascii_digit()) {
        lx.bump();
    }
    // Float: fraction and/or exponent.
    let is_float = (lx.peek() == Some(b'.') && lx.peek2().is_some_and(|b| b.is_ascii_digit()))
        || matches!(lx.peek(), Some(b'e' | b'E'));
    if is_float {
        if lx.eat(b'.') {
            while lx.peek().is_some_and(|b| b.is_ascii_digit()) {
                lx.bump();
            }
        }
        if matches!(lx.peek(), Some(b'e' | b'E')) {
            lx.bump();
            if matches!(lx.peek(), Some(b'+' | b'-')) {
                lx.bump();
            }
            while lx.peek().is_some_and(|b| b.is_ascii_digit()) {
                lx.bump();
            }
        }
        let text = &lx.src[lo..lx.pos];
        return match text.parse::<f64>() {
            Ok(v) => TokenKind::Float(v),
            Err(_) => {
                diags.error("malformed float literal", lx.span_from(lo));
                TokenKind::Float(0.0)
            }
        };
    }
    let text = &lx.src[lo..lx.pos];
    // Leading-zero literals are octal, as in C.
    let (radix, digits) = if text.len() > 1 && text.starts_with('0') {
        (8, &text[1..])
    } else {
        (10, text)
    };
    match u64::from_str_radix(digits, radix) {
        Ok(v) => TokenKind::Int(v),
        Err(_) => {
            diags.error(
                if radix == 8 {
                    "malformed octal literal"
                } else {
                    "integer literal overflows 64 bits"
                },
                lx.span_from(lo),
            );
            TokenKind::Int(0)
        }
    }
}

fn decode_escape(lx: &mut Lexer<'_>, diags: &mut Diagnostics, lo: usize) -> char {
    match lx.bump() {
        Some(b'n') => '\n',
        Some(b't') => '\t',
        Some(b'r') => '\r',
        Some(b'0') => '\0',
        Some(b'\\') => '\\',
        Some(b'\'') => '\'',
        Some(b'"') => '"',
        Some(b'a') => '\x07',
        Some(b'b') => '\x08',
        Some(b'f') => '\x0c',
        Some(b'v') => '\x0b',
        Some(b'x') => {
            let mut v: u32 = 0;
            let mut any = false;
            while let Some(b) = lx.peek() {
                if let Some(d) = (b as char).to_digit(16) {
                    v = v * 16 + d;
                    any = true;
                    lx.bump();
                } else {
                    break;
                }
            }
            if !any {
                diags.error("\\x escape needs hex digits", lx.span_from(lo));
            }
            char::from_u32(v & 0xff).unwrap_or('\0')
        }
        other => {
            diags.error(
                format!(
                    "unknown escape `\\{}`",
                    other.map_or(String::from("<eof>"), |b| (b as char).to_string())
                ),
                lx.span_from(lo),
            );
            '\0'
        }
    }
}

fn lex_string<'s>(lx: &mut Lexer<'s>, diags: &mut Diagnostics) -> TokenKind<'s> {
    let lo = lx.pos;
    lx.bump(); // opening quote
    let body = lx.pos;
    // The literal is its own text until the first byte that does not
    // decode to itself: an escape, or a non-ASCII byte (each decodes as
    // one `char`).  Only from there on is it copied.
    let mut owned: Option<String> = None;
    let end = loop {
        let at = lx.pos;
        let (c, decoded) = match lx.bump() {
            None | Some(b'\n') => {
                diags.error("unterminated string literal", lx.span_from(lo));
                break at;
            }
            Some(b'"') => break at,
            Some(b'\\') => (decode_escape(lx, diags, lo), true),
            Some(b) => (b as char, !b.is_ascii()),
        };
        if decoded || owned.is_some() {
            owned
                .get_or_insert_with(|| lx.src[body..at].to_string())
                .push(c);
        }
    };
    TokenKind::Str(match owned {
        Some(s) => Cow::Owned(s),
        None => Cow::Borrowed(&lx.src[body..end]),
    })
}

fn lex_char(lx: &mut Lexer<'_>, diags: &mut Diagnostics) -> TokenKind<'static> {
    let lo = lx.pos;
    lx.bump(); // opening quote
    let c = match lx.bump() {
        None | Some(b'\'') => {
            diags.error("empty character literal", lx.span_from(lo));
            '\0'
        }
        Some(b'\\') => decode_escape(lx, diags, lo),
        Some(b) => b as char,
    };
    if !lx.eat(b'\'') {
        diags.error("unterminated character literal", lx.span_from(lo));
    }
    TokenKind::Char(c)
}

fn lex_directive<'s>(lx: &mut Lexer<'s>) -> TokenKind<'s> {
    lx.bump(); // '#'
    let lo = lx.pos;
    while let Some(b) = lx.peek() {
        if b == b'\n' {
            break;
        }
        lx.bump();
    }
    TokenKind::Directive(lx.src[lo..lx.pos].trim())
}

fn lex_punct(lx: &mut Lexer<'_>) -> Option<TokenKind<'static>> {
    let b = lx.peek()?;
    let kind = match b {
        b'(' => TokenKind::LParen,
        b')' => TokenKind::RParen,
        b'{' => TokenKind::LBrace,
        b'}' => TokenKind::RBrace,
        b'[' => TokenKind::LBracket,
        b']' => TokenKind::RBracket,
        b',' => TokenKind::Comma,
        b';' => TokenKind::Semi,
        b'*' => TokenKind::Star,
        b'+' => TokenKind::Plus,
        b'-' => TokenKind::Minus,
        b'/' => TokenKind::Slash,
        b'%' => TokenKind::Percent,
        b'&' => TokenKind::Amp,
        b'|' => TokenKind::Pipe,
        b'^' => TokenKind::Caret,
        b'~' => TokenKind::Tilde,
        b'?' => TokenKind::Question,
        b'.' => TokenKind::Dot,
        b'@' => TokenKind::At,
        b':' => {
            lx.bump();
            return Some(if lx.eat(b':') {
                TokenKind::ColonColon
            } else {
                TokenKind::Colon
            });
        }
        b'<' => {
            lx.bump();
            return Some(if lx.eat(b'<') {
                TokenKind::Shl
            } else if lx.eat(b'=') {
                TokenKind::Le
            } else {
                TokenKind::Lt
            });
        }
        b'>' => {
            lx.bump();
            return Some(if lx.eat(b'>') {
                TokenKind::Shr
            } else if lx.eat(b'=') {
                TokenKind::Ge
            } else {
                TokenKind::Gt
            });
        }
        b'=' => {
            lx.bump();
            return Some(if lx.eat(b'=') {
                TokenKind::EqEq
            } else {
                TokenKind::Eq
            });
        }
        b'!' => {
            lx.bump();
            return Some(if lx.eat(b'=') {
                TokenKind::Ne
            } else {
                TokenKind::Bang
            });
        }
        _ => return None,
    };
    lx.bump();
    Some(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The token kinds of `text`, which must lex cleanly (leaked so the
    /// kinds may outlive the call; tests only).
    fn lex_ok(text: &str) -> Vec<TokenKind<'static>> {
        let f: &'static SourceFile = Box::leak(Box::new(SourceFile::new("t", text)));
        let mut d = Diagnostics::new();
        let toks = lex(f, &mut d);
        assert!(!d.has_errors(), "{}", d.render_all(f));
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_punct() {
        let k = lex_ok("interface Mail { void send(in string msg); };");
        assert_eq!(k[0], TokenKind::Ident("interface"));
        assert_eq!(k[1], TokenKind::Ident("Mail"));
        assert_eq!(k[2], TokenKind::LBrace);
        assert_eq!(*k.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn integer_radices() {
        let k = lex_ok("10 0x20 017 0");
        assert_eq!(
            k[..4],
            [
                TokenKind::Int(10),
                TokenKind::Int(0x20),
                TokenKind::Int(0o17),
                TokenKind::Int(0)
            ]
        );
    }

    #[test]
    fn onc_program_number() {
        // From the paper's ONC RPC example: `= 0x20000001;`
        let k = lex_ok("= 0x20000001;");
        assert_eq!(k[1], TokenKind::Int(0x2000_0001));
    }

    #[test]
    fn floats() {
        let k = lex_ok("1.5 2e3 4.25e-2");
        assert_eq!(k[0], TokenKind::Float(1.5));
        assert_eq!(k[1], TokenKind::Float(2000.0));
        assert_eq!(k[2], TokenKind::Float(0.0425));
    }

    #[test]
    fn dot_is_not_float() {
        let k = lex_ok("a.b 1 . 2");
        assert_eq!(k[1], TokenKind::Dot);
    }

    #[test]
    fn strings_and_chars() {
        let k = lex_ok(r#""hi\n\t\"x\"" 'a' '\n' '\x41'"#);
        assert_eq!(k[0], TokenKind::Str("hi\n\t\"x\"".into()));
        assert_eq!(k[1], TokenKind::Char('a'));
        assert_eq!(k[2], TokenKind::Char('\n'));
        assert_eq!(k[3], TokenKind::Char('A'));
    }

    #[test]
    fn comments_are_trivia() {
        let k = lex_ok("a // line\n /* block \n still */ b");
        assert_eq!(k.len(), 3); // a, b, EOF
    }

    #[test]
    fn multi_char_punct() {
        let k = lex_ok(":: << >> <= >= == != < > = !");
        assert_eq!(
            k[..11],
            [
                TokenKind::ColonColon,
                TokenKind::Shl,
                TokenKind::Shr,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eq,
                TokenKind::Bang,
            ]
        );
    }

    #[test]
    fn directives_captured() {
        let k = lex_ok("#include <mail.idl>\ninterface X {};");
        assert_eq!(k[0], TokenKind::Directive("include <mail.idl>"));
    }

    #[test]
    fn text_payloads_borrow_the_source() {
        // Identifier at end of input, identifier directly before a
        // directive, directive at end of input: the three places a
        // borrowed slice's end is easiest to get wrong.
        let k = lex_ok("struct tail");
        assert_eq!(k[1], TokenKind::Ident("tail"));
        let k = lex_ok("abc#pragma x\ndef#last");
        assert_eq!(
            k[..4],
            [
                TokenKind::Ident("abc"),
                TokenKind::Directive("pragma x"),
                TokenKind::Ident("def"),
                TokenKind::Directive("last"),
            ]
        );
        // A literal without escapes is a slice; one with them is not.
        let k = lex_ok(r#""plain" "a\tb" """#);
        assert!(matches!(&k[0], TokenKind::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&k[1], TokenKind::Str(Cow::Owned(s)) if s == "a\tb"));
        assert_eq!(k[2], TokenKind::Str("".into()));
    }

    #[test]
    fn non_ascii_string_bytes_decode_one_char_each() {
        let f = SourceFile::new("t", "\"a\u{e9}b\"");
        let mut d = Diagnostics::new();
        let toks = lex(&f, &mut d);
        assert_eq!(toks[0].kind, TokenKind::Str("a\u{c3}\u{a9}b".into()));
    }

    #[test]
    fn unterminated_string_recovers() {
        let f = SourceFile::new("t", "\"oops\nnext");
        let mut d = Diagnostics::new();
        let toks = lex(&f, &mut d);
        assert!(d.has_errors());
        // lexing continued: `next` plus EOF follow the broken string
        assert!(toks.iter().any(|t| t.kind.is_ident("next")));
    }

    #[test]
    fn stray_byte_reported_and_skipped() {
        let f = SourceFile::new("t", "a $ b");
        let mut d = Diagnostics::new();
        let toks = lex(&f, &mut d);
        assert_eq!(d.error_count(), 1);
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn spans_cover_tokens() {
        let f = SourceFile::new("t", "abc 42");
        let mut d = Diagnostics::new();
        let toks = lex(&f, &mut d);
        assert_eq!(f.snippet(toks[0].span), "abc");
        assert_eq!(f.snippet(toks[1].span), "42");
    }
}
