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
//! and no serialized form (DESIGN §8b records what those cost).
//!
//! ## `PresId` portability
//!
//! A planned stub refers back into the presentation through `PresId`s,
//! which are arena indices — meaningless after an edit elsewhere in the
//! source shifts the arena.  Entries therefore record every `PresId`
//! as a position in a *structural expansion* of the stub's slot trees:
//! a preorder walk that records every visit (repeats of shared nodes
//! included) and cuts only at cycles.  That sequence is a function of
//! the stub's structure alone — the same structure covered by
//! `pres_hash` — so position `i` denotes the structurally-same node in
//! any presentation with the same hash, regardless of how its arena
//! numbers or shares subtrees.  Restoring an entry rewrites each
//! `PresId` to the node at its position in the *current* presentation.

use std::collections::{BTreeMap, HashMap};

use flick_pres::{Name, PresC, PresId, PresNode, Stub};

use crate::mir::{for_each_child, PlanNode, PlanResult, StubPlan};
use crate::passes::PassSet;

/// Guard against pathological structural expansions (deeply shared
/// DAGs expand multiplicatively).  Hitting the cap makes the stub
/// uncacheable, never incorrect.
const MAX_EXPANSION: usize = 1 << 20;

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
    /// The unit as planned.  Its `PresId`s belong to the presentation
    /// that stored it and are never read: `positions` replaces them.
    unit: PlanUnit,
    /// The structural position of each `PresId` in `unit`, in
    /// [`for_each_pres_id`] order.
    positions: Vec<u32>,
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
    /// The last structural expansion's buffers, kept for the next.
    expansion: Expansion,
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

    /// The unit cached under `key`, rewritten against `presc` (whose
    /// `stub` has the content hash the entry was filed under).  Counts
    /// the lookup as a hit or a miss.
    pub(crate) fn restore(
        &mut self,
        key: &StubKey,
        presc: &PresC,
        stub: &Stub,
    ) -> Option<PlanUnit> {
        let compile = self.compile;
        let expansion = &mut self.expansion;
        let restored = self.entries.get_mut(key).and_then(|entry| {
            let expansion = expansion.of(presc, stub).ok()?;
            entry.last_used = compile;
            let mut unit = entry.unit.clone();
            let mut positions = entry.positions.iter();
            for_each_pres_id(&mut unit, &mut |id| {
                let pos = positions.next().expect("one position per PresId");
                *id = expansion[*pos as usize];
            });
            Some(unit)
        });
        match restored {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        restored
    }

    /// Files a freshly planned `unit` under `key`.  A stub whose
    /// expansion exceeds the cap, or whose plan names a presentation
    /// node outside its own slot trees, is simply not stored.
    pub(crate) fn store(&mut self, key: StubKey, presc: &PresC, stub: &Stub, unit: &PlanUnit) {
        let Ok(expansion) = self.expansion.of(presc, stub) else {
            return;
        };
        let mut first_at = HashMap::with_capacity(expansion.len());
        for (pos, id) in expansion.iter().enumerate() {
            first_at.entry(*id).or_insert(pos as u32);
        }
        let mut unit = unit.clone();
        let mut positions = Vec::new();
        let mut inside = true;
        for_each_pres_id(&mut unit, &mut |id| match first_at.get(id) {
            Some(pos) => positions.push(*pos),
            None => inside = false,
        });
        if inside {
            let last_used = self.compile;
            self.entries.insert(
                key,
                Entry {
                    unit,
                    positions,
                    last_used,
                },
            );
        }
    }
}

/// Applies `f` to every `PresId` a unit holds, in one fixed order — the
/// order [`Entry::positions`] is recorded and replayed in.
fn for_each_pres_id(unit: &mut PlanUnit, f: &mut impl FnMut(&mut PresId)) {
    fn node_ids(node: &mut PlanNode, f: &mut impl FnMut(&mut PresId)) {
        match node {
            PlanNode::Packed { pres, .. }
            | PlanNode::MemcpyArray { pres, .. }
            | PlanNode::FixedArray { pres, .. }
            | PlanNode::Struct { pres, .. } => f(pres),
            PlanNode::CountedArray {
                elem_pres, pres, ..
            } => {
                f(elem_pres);
                f(pres);
            }
            _ => {}
        }
        for_each_child(node, |child| node_ids(child, f));
    }
    let (plan, outlines) = unit;
    for msg in [&mut plan.request, &mut plan.reply] {
        for slot in &mut msg.slots {
            f(&mut slot.pres);
            node_ids(&mut slot.node, f);
        }
    }
    for body in outlines.values_mut() {
        node_ids(body, f);
    }
}

/// The buffers a structural expansion is computed in.
#[derive(Debug, Default)]
struct Expansion {
    out: Vec<PresId>,
    stack: Vec<PresId>,
}

impl Expansion {
    /// The structural expansion of one stub's slot trees: element `i`
    /// is the node at structural position `i`.
    fn of(&mut self, presc: &PresC, stub: &Stub) -> PlanResult<&[PresId]> {
        self.out.clear();
        self.stack.clear();
        for msg in [&stub.request, &stub.reply] {
            for slot in &msg.slots {
                expand(presc, slot.pres, &mut self.out, &mut self.stack)?;
            }
        }
        Ok(&self.out)
    }
}

fn expand(
    presc: &PresC,
    id: PresId,
    out: &mut Vec<PresId>,
    stack: &mut Vec<PresId>,
) -> PlanResult<()> {
    // Cut only at cycles, not at sharing: repeats of a shared subtree
    // re-enumerate so positions depend on structure alone.
    if stack.contains(&id) {
        return Ok(());
    }
    if out.len() >= MAX_EXPANSION {
        return Err(format!(
            "presentation expansion exceeds {MAX_EXPANSION} nodes"
        ));
    }
    out.push(id);
    stack.push(id);
    match presc.pres.get(id) {
        PresNode::Void
        | PresNode::Direct { .. }
        | PresNode::EnumMap { .. }
        | PresNode::TerminatedString { .. } => {}
        PresNode::FixedArray { elem, .. }
        | PresNode::OptPtr { elem, .. }
        | PresNode::CountedSeq { elem, .. }
        | PresNode::OptionalPtr { elem, .. } => expand(presc, *elem, out, stack)?,
        PresNode::StructMap { fields, .. } => {
            for (_, f) in fields {
                expand(presc, *f, out, stack)?;
            }
        }
        PresNode::UnionMap {
            discrim,
            cases,
            default,
            ..
        } => {
            expand(presc, *discrim, out, stack)?;
            for (_, _, c) in cases {
                expand(presc, *c, out, stack)?;
            }
            if let Some((_, d)) = default {
                expand(presc, *d, out, stack)?;
            }
        }
    }
    stack.pop();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;
    use crate::passes::plan_module;
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

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
    fn through_the_cache(p: &PresC, stub: &Stub, unit: &PlanUnit) -> PlanUnit {
        let mut cache = PlanCache::new();
        cache.begin();
        cache.store(key(1), p, stub, unit);
        cache.finish();
        cache.begin();
        cache.restore(&key(1), p, stub).expect("stored above")
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
            let back = through_the_cache(&p, &p.stubs[0], &unit);
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
        let back = through_the_cache(&p, stub, &unit);
        assert_eq!(format!("{unit:?}"), format!("{back:?}"));
    }

    #[test]
    fn lru_bound_evicts_oldest() {
        let p = corba(IDL, "I");
        let stub = &p.stubs[0];
        let unit = unit_for(&p, stub, &Encoding::xdr(), PassSet::all());
        let mut cache = PlanCache::new();
        cache.begin();
        cache.store(key(1), &p, stub, &unit);
        cache.store(key(2), &p, stub, &unit);
        assert_eq!(cache.finish().evictions, 0);
        // Entry 1 is used by every later compile, entry 2 by none.
        for _ in 1..MAX_IDLE_COMPILES {
            cache.begin();
            assert!(cache.restore(&key(1), &p, stub).is_some());
            assert_eq!(cache.finish().evictions, 0, "2 is idle, not yet too long");
        }
        cache.begin();
        assert!(cache.restore(&key(1), &p, stub).is_some());
        assert_eq!(cache.finish().evictions, 1);
        assert_eq!(cache.stats().evictions, 1);
        cache.begin();
        assert!(cache.restore(&key(2), &p, stub).is_none(), "2 sat unused");
        assert!(cache.restore(&key(1), &p, stub).is_some());
        let last = cache.finish();
        assert_eq!((last.hits, last.misses, last.evictions), (1, 1, 0));
    }

    #[test]
    fn structural_positions_ignore_arena_numbering() {
        // The same operation behind an earlier one whose argument type
        // grows from a scalar to a struct, taking the arena slots the
        // later operation's nodes had: store against one presentation,
        // restore against the other.
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
        cache.store(key(1), &a, put_a, &stored);
        let back = cache.restore(&key(1), &b, put_b).expect("stored");
        let direct = unit_for(&b, put_b, &enc, PassSet::all());
        assert_eq!(
            format!("{direct:?}"),
            format!("{back:?}"),
            "a cached plan must be usable against an equivalent presentation"
        );
    }
}
