//! Source files and byte spans.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// A half-open byte range `[lo, hi)` into a [`SourceFile`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first byte covered by the span.
    pub lo: u32,
    /// Byte offset one past the last byte covered by the span.
    pub hi: u32,
}

impl Span {
    /// A span covering `[lo, hi)`.
    #[must_use]
    pub fn new(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi, "span lo {lo} > hi {hi}");
        Span { lo, hi }
    }

    /// The empty span at offset zero, used for synthesized constructs.
    #[must_use]
    pub fn dummy() -> Self {
        Span { lo: 0, hi: 0 }
    }

    /// The smallest span covering both `self` and `other`.
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Length of the span in bytes.
    #[must_use]
    pub fn len(self) -> u32 {
        self.hi - self.lo
    }

    /// True if the span covers no bytes.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.lo == self.hi
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// A value paired with the span it was parsed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Spanned<T> {
    /// The value itself.
    pub node: T,
    /// Where the value came from.
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Pairs `node` with `span`.
    pub fn new(node: T, span: Span) -> Self {
        Spanned { node, span }
    }
}

/// One-based line/column position, for diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineCol {
    /// One-based line number.
    pub line: u32,
    /// One-based column number (in bytes).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An IDL source file: a name, its full text, and a line index.
///
/// `SourceFile` is cheaply cloneable (the text is shared).  The text and
/// the name are each copied once, into their shared allocation; the line
/// index is built on first use, because only diagnostic rendering reads
/// it.
#[derive(Clone)]
pub struct SourceFile {
    name: Arc<str>,
    text: Arc<str>,
    line_starts: OnceLock<Arc<[u32]>>,
}

impl SourceFile {
    /// Wraps `text` under the display name `name`.
    #[must_use]
    pub fn new(name: impl AsRef<str>, text: impl AsRef<str>) -> Self {
        let text: Arc<str> = Arc::from(text.as_ref());
        assert!(
            text.len() <= u32::MAX as usize,
            "source file larger than 4 GiB"
        );
        SourceFile {
            name: Arc::from(name.as_ref()),
            text,
            line_starts: OnceLock::new(),
        }
    }

    /// The byte offset each line starts at, indexed on first use.
    fn line_starts(&self) -> &[u32] {
        self.line_starts.get_or_init(|| {
            let breaks = self.text.bytes().enumerate().filter(|&(_, b)| b == b'\n');
            std::iter::once(0)
                .chain(breaks.map(|(i, _)| i as u32 + 1))
                .collect()
        })
    }

    /// The display name given at construction (typically a path).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The complete source text.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The text covered by `span`.
    ///
    /// # Panics
    /// Panics if the span is out of bounds or splits a UTF-8 character.
    #[must_use]
    pub fn snippet(&self, span: Span) -> &str {
        &self.text[span.lo as usize..span.hi as usize]
    }

    /// Line/column of a byte offset.
    #[must_use]
    pub fn line_col(&self, pos: u32) -> LineCol {
        let line_starts = self.line_starts();
        let line_idx = match line_starts.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: pos - line_starts[line_idx] + 1,
        }
    }

    /// The full text of the (one-based) line `line`, without its newline.
    #[must_use]
    pub fn line_text(&self, line: u32) -> &str {
        let idx = (line - 1) as usize;
        let line_starts = self.line_starts();
        let lo = line_starts[idx] as usize;
        let hi = line_starts
            .get(idx + 1)
            .map_or(self.text.len(), |&h| h as usize);
        self.text[lo..hi].trim_end_matches(['\n', '\r'])
    }

    /// Number of lines in the file (a trailing newline does not add one).
    #[must_use]
    pub fn line_count(&self) -> u32 {
        self.line_starts().len() as u32
    }
}

impl fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SourceFile")
            .field("name", &self.name)
            .field("bytes", &self.text.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_and_len() {
        let a = Span::new(2, 5);
        let b = Span::new(7, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
        assert_eq!(b.to(a), Span::new(2, 9));
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Span::dummy().is_empty());
    }

    #[test]
    fn line_col_lookup() {
        let f = SourceFile::new("t.idl", "abc\ndef\n\nxyz");
        assert_eq!(f.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(f.line_col(3), LineCol { line: 1, col: 4 });
        assert_eq!(f.line_col(4), LineCol { line: 2, col: 1 });
        assert_eq!(f.line_col(8), LineCol { line: 3, col: 1 });
        assert_eq!(f.line_col(9), LineCol { line: 4, col: 1 });
        assert_eq!(f.line_text(1), "abc");
        assert_eq!(f.line_text(3), "");
        assert_eq!(f.line_text(4), "xyz");
        assert_eq!(f.line_count(), 4);
    }

    #[test]
    fn snippet_extracts() {
        let f = SourceFile::new("t.idl", "interface Mail {};");
        assert_eq!(f.snippet(Span::new(10, 14)), "Mail");
    }

    #[test]
    fn crlf_line_text_trims() {
        let f = SourceFile::new("t.idl", "one\r\ntwo\r\n");
        assert_eq!(f.line_text(1), "one");
        assert_eq!(f.line_text(2), "two");
    }
}
