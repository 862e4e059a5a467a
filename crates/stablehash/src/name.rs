//! The one identifier type every IR shares.
//!
//! A [`Name`] is an immutable string that is allocated where a front
//! end (or a presentation generator) *declares* it and reference-counted
//! by every IR that mentions it afterwards: AOI, MINT, PRES, CAST and
//! the marshal MIR all hold the same allocation.  It lives in this
//! crate because this is the one crate every IR already depends on.
//!
//! It compares, orders and hashes as the `str` it holds — a map keyed
//! by `Name` is looked up with a `&str` — and its [`StableHash`] feeds
//! exactly the bytes a `String` would, so content hashes do not know
//! which of the two a field is.
//!
//! [`StableHash`]: crate::StableHash

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheap-to-clone immutable identifier.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// Text the compiler itself spells (`_return`, `_length`, `u8`):
    /// never allocated.
    Static(&'static str),
    /// Text from a source file: allocated once, shared after.  `Arc`,
    /// not `Rc`, so the IRs holding names stay `Send + Sync`.
    Shared(Arc<str>),
}

impl Name {
    /// A name the compiler spells itself; takes nothing from the heap.
    #[must_use]
    pub const fn from_static(s: &'static str) -> Name {
        Name(Repr::Static(s))
    }

    /// The text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
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
        Name(Repr::Shared(Arc::from(s)))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Repr::Shared(Arc::from(s)))
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
    fn a_clone_shares_the_allocation() {
        let a = Name::from("shared");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn names_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Name>();
    }
}
