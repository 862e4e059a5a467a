//! The one text sink both Rust emitters write through.
//!
//! An emitter *writes*: every line goes into one output buffer, sized
//! once, as a list of [`Piece`]s — no `String` is built only to be
//! appended, and no line goes through `core::fmt`.  Names of generated
//! locals are [`Tmp`]s and composed expressions are tuples of pieces or
//! [`Show`] closures, so they cost nothing until the line that
//! mentions them is written.  Integers and indentation are spelled by
//! `flick_cast::printer`'s `decimal` and `pad`, which the C printer
//! writes with too.

use std::borrow::Cow;

use flick_cast::printer::{decimal, pad};
use flick_pres::Name;

/// Text that appends its own spelling to the output buffer.
pub(crate) trait Piece {
    fn write(&self, out: &mut String);
}

impl Piece for str {
    fn write(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl Piece for String {
    fn write(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl Piece for Name {
    fn write(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl Piece for Cow<'_, str> {
    fn write(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl Piece for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl<T: Piece + ?Sized> Piece for &T {
    fn write(&self, out: &mut String) {
        (**self).write(out);
    }
}

macro_rules! integer_pieces {
    (unsigned: $($u:ty),*; signed: $($s:ty),*) => {
        $(impl Piece for $u {
            fn write(&self, out: &mut String) {
                decimal(out, *self as u64, false);
            }
        })*
        $(impl Piece for $s {
            fn write(&self, out: &mut String) {
                decimal(out, self.unsigned_abs() as u64, *self < 0);
            }
        })*
    };
}
integer_pieces!(unsigned: u8, u16, u32, u64, usize; signed: i8, i16, i32, i64, isize);

/// A tuple of pieces is the chain of them, written in order.
macro_rules! tuple_pieces {
    ($(($($p:ident),+))*) => {
        $(impl<$($p: Piece),+> Piece for ($($p,)+) {
            #[allow(non_snake_case)]
            fn write(&self, out: &mut String) {
                let ($($p,)+) = self;
                $($p.write(out);)+
            }
        })*
    };
}
tuple_pieces! {
    (A, B) (A, B, C) (A, B, C, D) (A, B, C, D, E) (A, B, C, D, E, F)
}

/// Output buffer, indentation and the temporary counter.
pub(crate) struct CodeWriter {
    out: String,
    tmp: u32,
    /// Nesting level: [`CodeWriter::open`] enters one, and
    /// [`CodeWriter::close`] leaves it; every line is indented to it.
    depth: usize,
}

/// The name of a generated local: `_<prefix><n>`.
#[derive(Clone, Copy)]
pub(crate) struct Tmp {
    prefix: &'static str,
    n: u32,
}

impl Piece for Tmp {
    fn write(&self, out: &mut String) {
        out.push('_');
        out.push_str(self.prefix);
        decimal(out, u64::from(self.n), false);
    }
}

/// A piece of text that is written where it is mentioned: wraps a
/// closure over the output buffer.
pub(crate) struct Show<F>(pub F);

impl<F: Fn(&mut String)> Piece for Show<F> {
    fn write(&self, out: &mut String) {
        (self.0)(out);
    }
}

impl CodeWriter {
    /// A writer whose buffer already holds `bytes` of capacity.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        CodeWriter {
            out: String::with_capacity(bytes),
            tmp: 0,
            depth: 0,
        }
    }

    /// The next temporary: numbered across prefixes, in request order.
    pub(crate) fn fresh(&mut self, prefix: &'static str) -> Tmp {
        self.tmp += 1;
        Tmp {
            prefix,
            n: self.tmp,
        }
    }

    /// Restarts temporary numbering (a new generated function whose
    /// locals number from 1).
    pub(crate) fn restart_tmps(&mut self) {
        self.tmp = 0;
    }

    /// Appends `p` as is.
    pub(crate) fn push(&mut self, p: impl Piece) {
        p.write(&mut self.out);
    }

    /// Writes the indentation of the tracked nesting level; the caller
    /// finishes the line itself (a line assembled from several writes).
    pub(crate) fn indent_here(&mut self) {
        pad(&mut self.out, 4 * self.depth);
    }

    /// One line at the tracked nesting level; a line of several pieces
    /// is spelled `put!(w; …)`.
    pub(crate) fn put(&mut self, p: impl Piece) {
        self.indent_here();
        p.write(&mut self.out);
        self.out.push('\n');
    }

    /// A line that opens a block: what follows nests one level deeper.
    pub(crate) fn open(&mut self, p: impl Piece) {
        self.put(p);
        self.depth += 1;
    }

    /// Enters one nesting level without writing (the end of an
    /// `open!` line, or of a block-opening line assembled by pushes).
    pub(crate) fn nest(&mut self) {
        self.depth += 1;
    }

    /// The line that closes the innermost open block.
    pub(crate) fn close(&mut self, text: &str) {
        self.depth -= 1;
        self.put(text);
    }

    /// Where the next byte will be written: a line begun here can be
    /// [`cut`](CodeWriter::cut) once what follows shows it unneeded.
    pub(crate) fn mark(&self) -> usize {
        self.out.len()
    }

    /// Writes the decimal `n` at the mark `at`: a number known only
    /// once the text after it is written (a sum's constant part, put in
    /// front of its terms).  The text after `at` moves along.
    pub(crate) fn insert(&mut self, at: usize, n: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut n = n;
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        let text = std::str::from_utf8(&digits[i..]).expect("ASCII digits");
        self.out.insert_str(at, text);
    }

    /// Removes the text between two marks (a line's, or the tail of
    /// one written since the first mark).
    pub(crate) fn cut(&mut self, from: usize, to: usize) {
        self.out.drain(from..to);
    }

    /// The finished text.  Every block opened must have been closed.
    pub(crate) fn finish(self) -> String {
        debug_assert_eq!(self.depth, 0, "an open block was never closed");
        self.out
    }
}

/// `put!(w; piece, …)` / `open!(w; piece, …)`: a line of pieces at the
/// tracked nesting level, as [`CodeWriter::put`] / [`CodeWriter::open`].
macro_rules! put {
    ($w:expr; $($p:expr),+ $(,)?) => {{
        $w.indent_here();
        $($w.push(&$p);)+
        $w.push("\n");
    }};
}
macro_rules! open {
    ($w:expr; $($p:expr),+ $(,)?) => {{
        $crate::writer::put!($w; $($p),+);
        $w.nest();
    }};
}
pub(crate) use {open, put};

#[cfg(test)]
mod tests {
    use super::*;

    fn spell(p: impl Piece) -> String {
        let mut s = String::new();
        p.write(&mut s);
        s
    }

    #[test]
    fn pieces_spell_as_display_does() {
        for n in [0, 9, 10, 99, 100, u32::MAX] {
            let t = Tmp { prefix: "len", n };
            assert_eq!(spell(t), format!("_len{n}"));
        }
        assert_eq!(spell(u8::MAX), u8::MAX.to_string());
        assert_eq!(spell(u16::MAX), u16::MAX.to_string());
        assert_eq!(spell(u32::MAX), u32::MAX.to_string());
        assert_eq!(spell(u64::MAX), u64::MAX.to_string());
        assert_eq!(spell(usize::MAX), usize::MAX.to_string());
        assert_eq!(spell(i8::MAX), i8::MAX.to_string());
        assert_eq!(spell(i16::MAX), i16::MAX.to_string());
        assert_eq!(spell(i32::MAX), i32::MAX.to_string());
        assert_eq!(spell(i64::MAX), i64::MAX.to_string());
        assert_eq!(spell(isize::MAX), isize::MAX.to_string());
        for n in [i64::MIN, -1, 0, 1] {
            assert_eq!(spell(n), n.to_string());
        }
        assert_eq!(spell(i8::MIN), i8::MIN.to_string());
        assert_eq!(spell(("a", 7u8, Name::from("b"), true)), "a7btrue");
    }

    #[test]
    fn tracked_lines_indent_to_their_nesting() {
        let mut w = CodeWriter::with_capacity(0);
        let v = w.fresh("v");
        open!(w; "fn f(", v, ": u8) {");
        w.open("match x {");
        put!(w; "0 => ", 1u8, ",");
        w.close("}");
        w.put("y");
        w.close("}");
        put!(w; "// ", true);
        assert_eq!(
            w.finish(),
            "fn f(_v1: u8) {\n    match x {\n        0 => 1,\n    }\n    y\n}\n// true\n"
        );
    }

    #[test]
    fn every_level_indents_four_spaces_past_one_slice() {
        let mut w = CodeWriter::with_capacity(0);
        for _ in 0..20 {
            w.open("{");
        }
        w.put("x");
        for _ in 0..20 {
            w.close("}");
        }
        let text = w.finish();
        for (depth, line) in text.lines().enumerate().take(21) {
            assert_eq!(line.len() - line.trim_start().len(), 4 * depth, "{line:?}");
        }
    }
}
