//! The one text sink both Rust emitters write through.
//!
//! An emitter *writes*: every line goes into one output buffer, sized
//! once, as `format_args!` — no `String` is built only to be appended.
//! Names of generated locals are [`Tmp`]s and composed expressions are
//! [`Show`] closures, both `Display`, so they cost nothing until the
//! line that mentions them is written.

use std::fmt::{self, Display, Write as _};

/// Output buffer, indentation and the temporary counter.
pub(crate) struct CodeWriter {
    out: String,
    tmp: u32,
    /// Nesting level [`CodeWriter::open`] / [`CodeWriter::close`]
    /// track for an emitter that does not pass depths around.
    depth: usize,
}

/// The name of a generated local: `_<prefix><n>`.
#[derive(Clone, Copy)]
pub(crate) struct Tmp {
    prefix: &'static str,
    n: u32,
}

impl Display for Tmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_{}{}", self.prefix, self.n)
    }
}

/// A piece of text that is written where it is mentioned: wraps a
/// closure over a formatter as `Display`.
pub(crate) struct Show<F>(pub F);

impl<F: Fn(&mut fmt::Formatter<'_>) -> fmt::Result> Display for Show<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.0)(f)
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

    /// Appends `s` as is.
    pub(crate) fn push(&mut self, s: &str) {
        self.out.push_str(s);
    }

    /// Writes the indentation of `depth` levels; the caller finishes
    /// the line itself (a line assembled from several writes).
    pub(crate) fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.out.push_str("    ");
        }
    }

    /// One literal line at `depth`.
    pub(crate) fn line(&mut self, depth: usize, s: &str) {
        self.indent(depth);
        self.out.push_str(s);
        self.out.push('\n');
    }

    /// One formatted line at `depth`; spelled `line!(w, depth, "…")`.
    pub(crate) fn line_fmt(&mut self, depth: usize, args: fmt::Arguments<'_>) {
        self.indent(depth);
        let _ = self.out.write_fmt(args);
        self.out.push('\n');
    }

    /// One line at the tracked nesting level.
    pub(crate) fn put(&mut self, text: impl Display) {
        self.line_fmt(self.depth, format_args!("{text}"));
    }

    /// A line that opens a block: what follows nests one level deeper.
    pub(crate) fn open(&mut self, text: impl Display) {
        self.put(text);
        self.depth += 1;
    }

    /// The line that closes the innermost open block.
    pub(crate) fn close(&mut self, text: &str) {
        self.depth -= 1;
        self.line(self.depth, text);
    }

    /// The finished text.
    pub(crate) fn finish(self) -> String {
        self.out
    }
}

impl fmt::Write for CodeWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.out.push_str(s);
        Ok(())
    }
}

/// `line!(w, depth, "fmt", args…)`: one formatted line through
/// [`CodeWriter::line_fmt`], the arguments written straight into the
/// output buffer.
macro_rules! line {
    ($w:expr, $depth:expr, $($fmt:tt)+) => {
        $w.line_fmt($depth, format_args!($($fmt)+))
    };
}
pub(crate) use line;

/// `put!(w, "fmt", args…)` / `open!(w, "fmt", args…)`: a formatted
/// [`CodeWriter::put`] / [`CodeWriter::open`].
macro_rules! put {
    ($w:expr, $($fmt:tt)+) => { $w.put(format_args!($($fmt)+)) };
}
macro_rules! open {
    ($w:expr, $($fmt:tt)+) => { $w.open(format_args!($($fmt)+)) };
}
pub(crate) use {open, put};
