//! The `Name` contract, over every form a name takes.
//!
//! A name of at most 22 bytes is held in place, a longer one in one
//! shared allocation, and a name the compiler spells itself is a
//! `&'static str`.  Whatever the form, a name is the `str` it holds:
//! it compares, orders, hashes and content-hashes as that `str`.  These
//! tests cover every length from 0 to 40 (both sides of the in-place
//! limit), a multi-byte character straddling byte 22, and every
//! constructor — `From<&str>`, `From<String>` and `Name::from_fmt`.
//!
//! Allocations are counted per thread by the counting allocator below,
//! so tests running side by side do not see one another's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use flick_stablehash::{hash_of, Name};

/// Counts this thread's allocations and hands every request to the
/// system allocator.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// is a plain thread-local `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `f` returns, and how many allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn std_hash<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Texts of every length from 0 to 40 bytes, plus ones whose two-byte
/// `é` starts at byte 21 (ending at 23) or 22 (ending at 24): one byte
/// either side of the in-place limit.
fn texts() -> Vec<String> {
    let mut texts: Vec<String> = (0..=40)
        .map(|n| (0..n).map(|i| char::from(b'a' + (i % 26) as u8)).collect())
        .collect();
    for before in [20, 21, 22] {
        texts.push(format!("{}é{}", "x".repeat(before), "y".repeat(3)));
        texts.push(format!("{}é", "x".repeat(before)));
    }
    texts
}

/// Every way to make a name of `text`.
fn every_form(text: &str) -> [Name; 3] {
    let (head, tail) = text.split_at(text.len() / 2);
    [
        Name::from(text),
        Name::from(text.to_owned()),
        Name::from_fmt(format_args!("{head}{tail}")),
    ]
}

#[test]
fn a_name_is_24_bytes_and_crosses_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Name>();
    assert_eq!(std::mem::size_of::<Name>(), 24);
}

#[test]
fn every_constructor_holds_the_text_at_every_length() {
    for text in texts() {
        for name in every_form(&text) {
            assert_eq!(name.as_str(), text);
            assert_eq!(&*name, text.as_str());
            assert_eq!(name.len(), text.len());
            assert_eq!(format!("{name}"), text);
            assert_eq!(format!("{name:?}"), format!("{text:?}"));
        }
    }
}

#[test]
fn a_name_compares_orders_and_hashes_as_its_str() {
    let texts = texts();
    for a in &texts {
        let names = every_form(a);
        for name in &names {
            assert_eq!(std_hash(name), std_hash(a.as_str()), "{a:?}");
            assert_eq!(hash_of(name), hash_of(a.as_str()), "{a:?}");
            assert_eq!(hash_of(name), hash_of(a), "{a:?}");
            assert_eq!(name, &names[0], "{a:?}");
            assert!(*name == *a.as_str());
        }
        for b in &texts {
            let want: Ordering = a.as_str().cmp(b.as_str());
            for (x, y) in names.iter().zip(every_form(b)) {
                assert_eq!(x.cmp(&y), want, "{a:?} against {b:?}");
                assert_eq!(x.partial_cmp(&y), Some(want), "{a:?} against {b:?}");
                assert_eq!(*x == y, a == b, "{a:?} against {b:?}");
            }
        }
    }
    let fixed = Name::from_static("Point");
    assert_eq!(fixed, Name::from("Point"));
    assert_eq!(std_hash(&fixed), std_hash("Point"));
    assert_eq!(hash_of(&fixed), hash_of("Point"));
}

#[test]
fn a_short_name_allocates_nothing_and_a_long_one_once() {
    for text in texts() {
        let (name, made) = counted(|| Name::from(text.as_str()));
        let want = usize::from(text.len() > 22);
        assert_eq!(made, want, "Name::from({text:?})");
        let (composed, made) = counted(|| Name::from_fmt(format_args!("{}", name)));
        assert!(made <= 2 * want, "Name::from_fmt({text:?}) made {made}");
        assert_eq!(composed, name);
    }
    let (name, made) = counted(|| Name::from_fmt(format_args!("{}_{}_impl", "Mail", "send")));
    assert_eq!((name.as_str(), made), ("Mail_send_impl", 0));
    let (name, made) = counted(|| Name::from_fmt(format_args!("anon_seq_{}", 7)));
    assert_eq!((name.as_str(), made), ("anon_seq_7", 0));
}

#[test]
fn a_clone_allocates_nothing() {
    for text in texts() {
        for name in every_form(&text) {
            let (copy, made) = counted(|| name.clone());
            assert_eq!(made, 0, "cloning {text:?}");
            assert_eq!(copy, name);
        }
    }
    let fixed = Name::from_static("_return");
    assert_eq!(counted(|| fixed.clone()).1, 0);
}
