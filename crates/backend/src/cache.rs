//! The per-stub plan cache: content-addressed memoization of lowering
//! and optimization, held in memory for the life of a compile session.
//!
//! Every pass except the module-wide ones reads only the stub it
//! rewrites, so the planner's per-stub work — lower, verify, optimize —
//! can be memoized per stub, keyed by content:
//!
//! * [`StubKey::pres_hash`] — [`flick_pres::stub_hash`], a structural
//!   digest of everything the lowerer reads for the stub;
//! * [`StubKey::enc_fp`] — the wire-encoding fingerprint;
//! * [`StubKey::passes`] — which passes ran (their order and
//!   constants are fixed by the pass table).
//!
//! An entry is the planned [`PlanUnit`] itself; there is no second tier
//! and no serialized form (DESIGN §8b records what those cost).  A plan
//! holds no reference into the presentation it was lowered from —
//! lowering copied in every fact it needs, all of them covered by
//! `pres_hash` — so an entry is valid for any presentation whose stub
//! hashes the same, however an edit elsewhere renumbered its arena: a
//! hit is a lookup and a clone.

use std::collections::BTreeMap;

use flick_pres::Name;

use crate::mir::{PlanNode, StubPlan};
use crate::passes::PassSet;

/// Compiles an entry may sit unused before the sweep after each compile
/// drops it.  A plan is cheap to rebuild and, as a tree, several times
/// the size of the source text it came from (DESIGN §8b has both
/// numbers), so the cache holds the working set of the last few
/// compiles — enough for an undo, or a switch back to an earlier
/// configuration — rather than a history.
const MAX_IDLE_COMPILES: u64 = 8;

/// The content key one cached stub plan is filed under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct StubKey {
    /// Structural digest of the stub's PRES/MINT inputs.
    pub pres_hash: u64,
    /// Encoding fingerprint.
    pub enc_fp: u64,
    /// The passes planning ran.
    pub passes: PassSet,
}

/// What a cache did: over its lifetime ([`PlanCache::stats`]) or during
/// one compile (`BackendTrace::cache`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Stubs restored from the cache.
    pub hits: u64,
    /// Stubs that fell through to planning.
    pub misses: u64,
    /// Entries dropped after sitting unused.
    pub evictions: u64,
}

/// One planned stub: its plan plus the outline bodies it registered.
pub(crate) type PlanUnit = (StubPlan, BTreeMap<Name, PlanNode>);

#[derive(Debug)]
struct Entry {
    /// The unit as planned.
    unit: PlanUnit,
    /// The compile that last stored or restored this entry.
    last_used: u64,
}

/// An in-memory store of optimized stub plans, bounded to what recent
/// compiles used.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Ordered, so that what the allocator sees of a session repeats
    /// from run to run (a hash map's random seed decides when the
    /// sweep's removals force a rehash).
    entries: BTreeMap<StubKey, Entry>,
    /// Compiles begun so far — the clock `Entry::last_used` reads.
    compile: u64,
    stats: CacheStats,
    /// `stats` as the current compile began.
    at_begin: CacheStats,
}

impl PlanCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Opens one compile's worth of lookups.
    pub(crate) fn begin(&mut self) {
        self.compile += 1;
        self.at_begin = self.stats;
    }

    /// Closes the compile [`PlanCache::begin`] opened: drops the entries
    /// no compile has used for [`MAX_IDLE_COMPILES`] and returns what
    /// the cache did since `begin`.
    pub(crate) fn finish(&mut self) -> CacheStats {
        let idle_since = self.compile.saturating_sub(MAX_IDLE_COMPILES);
        let held = self.entries.len();
        self.entries.retain(|_, e| e.last_used > idle_since);
        self.stats.evictions += (held - self.entries.len()) as u64;
        CacheStats {
            hits: self.stats.hits - self.at_begin.hits,
            misses: self.stats.misses - self.at_begin.misses,
            evictions: self.stats.evictions - self.at_begin.evictions,
        }
    }

    /// A copy of the unit cached under `key`.  Counts the lookup as a
    /// hit or a miss.
    pub(crate) fn restore(&mut self, key: &StubKey) -> Option<PlanUnit> {
        let compile = self.compile;
        let restored = self.entries.get_mut(key).map(|entry| {
            entry.last_used = compile;
            entry.unit.clone()
        });
        match restored {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        restored
    }

    /// Files a freshly planned `unit` under `key`.
    pub(crate) fn store(&mut self, key: StubKey, unit: &PlanUnit) {
        let entry = Entry {
            unit: unit.clone(),
            last_used: self.compile,
        };
        self.entries.insert(key, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;
    use crate::passes::plan_module;
    use flick_idl::diag::Diagnostics;
    use flick_pres::{PresC, Side, Stub};

    fn corba(idl: &str, iface: &str) -> PresC {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        flick_presgen::corba_c(&aoi, iface, Side::Client, &mut d).expect("presentation")
    }

    /// `stub` of `p`, planned alone and not through any cache.
    fn unit_for(p: &PresC, stub: &Stub, enc: &Encoding, passes: PassSet) -> PlanUnit {
        let mut one = p.clone();
        one.stubs = vec![stub.clone()];
        let mut mir = plan_module(&one, enc, passes, true, None, None)
            .expect("pipeline")
            .mir;
        (mir.stubs.remove(0), mir.outlines)
    }

    fn key(i: u64) -> StubKey {
        StubKey {
            pres_hash: i,
            enc_fp: 0,
            passes: PassSet::all(),
        }
    }

    /// Stores `unit` and restores it in the next compile.
    fn through_the_cache(unit: &PlanUnit) -> PlanUnit {
        let mut cache = PlanCache::new();
        cache.begin();
        cache.store(key(1), unit);
        cache.finish();
        cache.begin();
        cache.restore(&key(1)).expect("stored above")
    }

    const IDL: &str = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        typedef sequence<Rect> RectSeq;
        union U switch (long) { case 1: Point p; default: string s; };
        interface I { void put(in RectSeq rs, in U u, in string note); };
    ";

    #[test]
    fn roundtrip_preserves_optimized_plans() {
        let p = corba(IDL, "I");
        for (enc, passes) in [
            (Encoding::xdr(), PassSet::all()),
            (Encoding::cdr_be(), PassSet::all()),
            (Encoding::xdr(), PassSet::none()),
            (Encoding::mach3(), PassSet::all()),
        ] {
            let unit = unit_for(&p, &p.stubs[0], &enc, passes);
            let back = through_the_cache(&unit);
            assert_eq!(
                format!("{unit:?}"),
                format!("{back:?}"),
                "{} plans must survive store and restore",
                enc.name
            );
        }
    }

    #[test]
    fn roundtrip_preserves_recursive_outlines() {
        let aoi = flick_frontend_onc::parse_str(
            "l.x",
            r"
            struct node { int v; node *next; };
            program L { version V { void put(node n) = 1; } = 1; } = 9;
            ",
        );
        let mut d = Diagnostics::new();
        let p = flick_presgen::rpcgen_c(&aoi, "L", Side::Client, &mut d).unwrap();
        let stub = p
            .stubs
            .iter()
            .find(|s| !s.request.slots.is_empty())
            .expect("a stub with arguments");
        let unit = unit_for(&p, stub, &Encoding::xdr(), PassSet::all());
        assert!(
            unit.1.contains_key("node"),
            "recursive body stays out of line"
        );
        let back = through_the_cache(&unit);
        assert_eq!(format!("{unit:?}"), format!("{back:?}"));
    }

    #[test]
    fn lru_bound_evicts_oldest() {
        let p = corba(IDL, "I");
        let stub = &p.stubs[0];
        let unit = unit_for(&p, stub, &Encoding::xdr(), PassSet::all());
        let mut cache = PlanCache::new();
        cache.begin();
        cache.store(key(1), &unit);
        cache.store(key(2), &unit);
        assert_eq!(cache.finish().evictions, 0);
        // Entry 1 is used by every later compile, entry 2 by none.
        for _ in 1..MAX_IDLE_COMPILES {
            cache.begin();
            assert!(cache.restore(&key(1)).is_some());
            assert_eq!(cache.finish().evictions, 0, "2 is idle, not yet too long");
        }
        cache.begin();
        assert!(cache.restore(&key(1)).is_some());
        assert_eq!(cache.finish().evictions, 1);
        assert_eq!(cache.stats().evictions, 1);
        cache.begin();
        assert!(cache.restore(&key(2)).is_none(), "2 sat unused");
        assert!(cache.restore(&key(1)).is_some());
        let last = cache.finish();
        assert_eq!((last.hits, last.misses, last.evictions), (1, 1, 0));
    }

    #[test]
    fn restored_plans_ignore_arena_numbering() {
        // The same operation behind an earlier one whose argument type
        // grows from a scalar to a struct, taking the arena slots the
        // later operation's nodes had: a plan stored from one
        // presentation is, as it is, the plan of the other.
        let with_first = |arg: &str| {
            IDL.replace(
                "interface I {",
                &format!(
                    "struct Earlier {{ double d; string s; }};
                     interface I {{ void first(in {arg} e);"
                ),
            )
        };
        let a = corba(&with_first("long"), "I");
        let b = corba(&with_first("Earlier"), "I");
        let (put_a, put_b) = (&a.stubs[1], &b.stubs[1]);
        assert_eq!(put_a.name, put_b.name);
        assert_ne!(
            put_a.request.slots[0].pres, put_b.request.slots[0].pres,
            "the arenas must number the stub's nodes differently"
        );
        assert_eq!(
            flick_pres::stub_hash(&a, put_a),
            flick_pres::stub_hash(&b, put_b),
            "an edit elsewhere leaves the stub's content hash alone"
        );
        let enc = Encoding::xdr();
        let stored = unit_for(&a, put_a, &enc, PassSet::all());
        let mut cache = PlanCache::new();
        cache.begin();
        cache.store(key(1), &stored);
        let back = cache.restore(&key(1)).expect("stored");
        let direct = unit_for(&b, put_b, &enc, PassSet::all());
        assert_eq!(
            format!("{direct:?}"),
            format!("{back:?}"),
            "a cached plan must be usable against an equivalent presentation"
        );
    }
}
