//! The one identifier type every IR shares.
//!
//! A [`Name`] is an immutable string that is made where a front end
//! (or a presentation generator) *declares* it and shared by every IR
//! that mentions it afterwards: AOI, MINT, PRES, CAST and the marshal
//! MIR all hold the same name.  Text of up to [`INLINE`] bytes — most
//! IDL identifiers — is held in the name itself, so making one takes
//! nothing from the heap and a clone copies 24 bytes; longer text is
//! allocated once and reference-counted.  It lives in this crate
//! because this is the one crate every IR already depends on.
//!
//! It compares, orders and hashes as the `str` it holds — a map keyed
//! by `Name` is looked up with a `&str` — and its [`StableHash`] feeds
//! exactly the bytes a `String` would, so content hashes do not know
//! which of the two a field is, nor which form the name took.
//!
//! [`StableHash`]: crate::StableHash

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The longest text a name holds in place: what the 24 bytes of a
/// shared name leave after the form's tag and the length byte.
const INLINE: usize = 22;

/// A cheap-to-clone immutable identifier.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// Text the compiler itself spells (`_return`, `_length`, `u8`):
    /// never allocated.
    Static(&'static str),
    /// Text of at most [`INLINE`] bytes, held in place: never
    /// allocated, and a clone is a copy.  `buf[..len]` is always
    /// whole `&str`s copied end to end, so it is UTF-8.
    Inline { len: u8, buf: [u8; INLINE] },
    /// Longer text: allocated once, shared after.  `Arc`, not `Rc`, so
    /// the IRs holding names stay `Send + Sync`.
    Shared(Arc<str>),
}

/// The text of an inline name.
fn inline_str(len: u8, buf: &[u8; INLINE]) -> &str {
    let bytes = &buf[..usize::from(len)];
    // SAFETY: an inline name's bytes are only ever written by
    // `Composer::write_str`, which copies whole `&str`s end to end, so
    // `bytes` is valid UTF-8.  Checking it again on every read
    // (`str::from_utf8`) made whole compiles measurably slower.
    unsafe { std::str::from_utf8_unchecked(bytes) }
}

/// Builds a name's text in place, moving it to the heap only once it
/// outgrows [`INLINE`] bytes.
struct Composer {
    len: u8,
    buf: [u8; INLINE],
    spill: Option<String>,
}

impl Composer {
    fn new() -> Composer {
        Composer {
            len: 0,
            buf: [0; INLINE],
            spill: None,
        }
    }

    fn finish(self) -> Name {
        match self.spill {
            Some(text) => Name(Repr::Shared(Arc::from(text))),
            None => Name(Repr::Inline {
                len: self.len,
                buf: self.buf,
            }),
        }
    }
}

impl fmt::Write for Composer {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if let Some(text) = &mut self.spill {
            text.push_str(s);
            return Ok(());
        }
        let (start, end) = (usize::from(self.len), usize::from(self.len) + s.len());
        if end <= INLINE {
            self.buf[start..end].copy_from_slice(s.as_bytes());
            self.len = end as u8;
        } else {
            let mut text = String::with_capacity(end);
            text.push_str(inline_str(self.len, &self.buf));
            text.push_str(s);
            self.spill = Some(text);
        }
        Ok(())
    }
}

impl Name {
    /// A name the compiler spells itself; takes nothing from the heap.
    #[must_use]
    pub const fn from_static(s: &'static str) -> Name {
        Name(Repr::Static(s))
    }

    /// A name composed from parts, `Name::from_fmt(format_args!("{a}_{b}"))`,
    /// written straight into the name: no `String` is built to be
    /// copied, and the heap is touched only when the text is longer
    /// than a name holds in place.
    #[must_use]
    pub fn from_fmt(args: fmt::Arguments<'_>) -> Name {
        if let Some(s) = args.as_str() {
            return Name::from_static(s);
        }
        let mut text = Composer::new();
        fmt::Write::write_fmt(&mut text, args)
            .expect("a Display implementation returned an error unexpectedly");
        text.finish()
    }

    /// The text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Inline { len, buf } => inline_str(*len, buf),
            Repr::Shared(s) => s,
        }
    }
}

impl Default for Name {
    fn default() -> Name {
        Name::from_static("")
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        if s.len() > INLINE {
            return Name(Repr::Shared(Arc::from(s)));
        }
        let mut text = Composer::new();
        let _ = fmt::Write::write_str(&mut text, s);
        text.finish()
    }
}

/// Takes the text over: a short name is copied in place (and the
/// `String` freed), a long one moves into its one shared allocation.
impl From<String> for Name {
    fn from(s: String) -> Name {
        if s.len() > INLINE {
            Name(Repr::Shared(Arc::from(s)))
        } else {
            Name::from(s.as_str())
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

/// Prints as the quoted string a `String` field would, so `{:?}`
/// renderings of the IRs do not change with the field's type.
impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// As `str` hashes, which is what [`Borrow<str>`] promises.
impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn behaves_as_the_str_it_holds() {
        let shared = Name::from("Point");
        let fixed = Name::from_static("Point");
        assert_eq!(shared, fixed);
        assert_eq!(shared, "Point");
        assert_eq!(&*shared, "Point");
        assert_eq!(format!("{shared} {shared:?}"), "Point \"Point\"");
        let (a, b) = (Name::from("a"), Name::from_static("b"));
        assert!(a < b);
        assert_eq!(Name::default(), "");
    }

    #[test]
    fn maps_keyed_by_name_are_looked_up_by_str() {
        let mut h = HashMap::new();
        h.insert(Name::from("x"), 1);
        h.insert(Name::from_static("y"), 2);
        assert_eq!(
            (h.get("x"), h.get("y"), h.get("z")),
            (Some(&1), Some(&2), None)
        );
        let mut b = BTreeMap::new();
        b.insert(Name::from_static("x"), 1);
        assert_eq!(b.get("x"), Some(&1));
    }

    #[test]
    fn a_clone_of_a_long_name_shares_the_allocation() {
        // A name of at most `INLINE` bytes is copied by a clone; a
        // longer one is allocated once and shared by every clone.
        let a = Name::from("a_name_too_long_to_fit_in_place");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        let short = Name::from("short");
        assert!(!std::ptr::eq(short.as_str(), short.clone().as_str()));
    }

    #[test]
    fn names_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Name>();
    }
}
