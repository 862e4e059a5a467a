//! Robustness properties of the shared lexer: it must never panic and
//! must always produce an EOF-terminated stream with in-bounds spans,
//! whatever bytes arrive.
//!
//! Deterministic pseudo-random generation (seeded SplitMix64) stands
//! in for a property-testing framework so the suite runs offline.

use flick_idl::diag::Diagnostics;
use flick_idl::lex::{lex, TokenKind};
use flick_idl::source::SourceFile;

/// SplitMix64 — tiny deterministic generator for the test corpus.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A string of up to `max` chars drawn from `pool`.
fn random_text(rng: &mut Rng, pool: &[char], max: usize) -> String {
    let len = rng.below(max + 1);
    (0..len).map(|_| pool[rng.below(pool.len())]).collect()
}

/// Printable ASCII plus assorted multibyte and whitespace chars — the
/// equivalent of "any non-control text" arbitrary inputs.
fn wide_pool() -> Vec<char> {
    let mut pool: Vec<char> = (b' '..=b'~').map(char::from).collect();
    pool.extend(['\n', '\t', 'é', 'ß', '中', '文', 'λ', '→', '🦀', '\u{2028}']);
    pool
}

#[test]
fn lexer_never_panics_and_terminates() {
    let pool = wide_pool();
    let mut rng = Rng(0x1D1_5EED);
    for _ in 0..256 {
        let text = random_text(&mut rng, &pool, 400);
        let f = SourceFile::new("fuzz", text.clone());
        let mut d = Diagnostics::new();
        let toks = lex(&f, &mut d);
        assert!(!toks.is_empty());
        assert_eq!(&toks.last().unwrap().kind, &TokenKind::Eof);
        for t in &toks {
            assert!(t.span.lo <= t.span.hi);
            assert!((t.span.hi as usize) <= text.len());
        }
    }
}

#[test]
fn spans_are_monotonic() {
    let pool: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789 <>(){};:=+*/,.\"'#\\\n-"
        .chars()
        .collect();
    let mut rng = Rng(0x5EED_0002);
    for _ in 0..256 {
        let text = random_text(&mut rng, &pool, 300);
        let f = SourceFile::new("fuzz", text);
        let mut d = Diagnostics::new();
        let toks = lex(&f, &mut d);
        for w in toks.windows(2) {
            assert!(w[0].span.lo <= w[1].span.lo, "tokens out of order");
        }
    }
}

#[test]
fn lexing_valid_idents_is_lossless() {
    let first: Vec<char> = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
        .chars()
        .collect();
    let rest: Vec<char> = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
        .chars()
        .collect();
    let mut rng = Rng(0x5EED_0003);
    for _ in 0..128 {
        let n_words = rng.below(20);
        let words: Vec<String> = (0..n_words)
            .map(|_| {
                let mut w = String::new();
                w.push(first[rng.below(first.len())]);
                for _ in 0..rng.below(11) {
                    w.push(rest[rng.below(rest.len())]);
                }
                w
            })
            .collect();
        let text = words.join(" ");
        let f = SourceFile::new("fuzz", text);
        let mut d = Diagnostics::new();
        let toks = lex(&f, &mut d);
        assert!(!d.has_errors());
        let lexed: Vec<&str> = toks
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(lexed, words);
    }
}
