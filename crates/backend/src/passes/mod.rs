//! The MIR pass manager: Flick's §3 optimizations as named, ordered
//! rewrites over [`StubPlans`].
//!
//! Lowering produces naive MIR (datum-by-datum marshaling, every named
//! aggregate out of line, no storage classes); each [`MirPass`] then
//! makes one class of optimization decision.  The passes, their order
//! and what each decides are written once, in the [`PASSES`] table;
//! [`PASS_NAMES`], `flickc --passes`, name validation and the
//! per-stub / module-wide split are all read from it.  Which of them a
//! compile runs is one [`PassSet`].
//!
//! `fuse-transcode` is special: its decision applies when an
//! encoding-*pair* (gateway) plan is built, not to endpoint MIR — see
//! [`fuse`] — but it lives in the shared vocabulary so `--disable-pass`
//! validation, plan-cache keys, and ablations treat it uniformly.
//!
//! One planner, [`plan_module`], runs them: each stub is lowered and
//! taken through the per-stub passes on its own (or restored from a
//! [`PlanCache`]), the units are merged, the two module-wide passes run
//! over the merged module, and an outline garbage collection leaves
//! only reachable out-of-line bodies.  It times each pass, counts its
//! decisions, and optionally runs the MIR verifier after every step
//! (debug/test builds).

use std::time::Instant;

use flick_pres::{Name, PresC, Stub};

use crate::cache::{CacheStats, PlanCache, PlanUnit, StubKey};
use crate::encoding::Encoding;
use crate::mir::{self, PlanNode, PlanResult, StubPlans};
use crate::plan::lower_stub;
use crate::verify::verify;

mod chunks;
mod classify;
mod dead_slot;
pub(crate) mod demux;
mod fuse;
mod hoist;
mod inline;
mod memcpy;
pub(crate) mod merge_prefix;
mod reply_alias;
pub(crate) mod reuse;

pub use chunks::FormChunks;
pub use classify::ClassifyStorage;
pub use dead_slot::DeadSlot;
pub use demux::DemuxSwitch;
pub use fuse::FuseTranscode;
pub use hoist::HoistChecks;
pub use inline::InlineMarshal;
pub use memcpy::CoalesceMemcpy;
pub use merge_prefix::MergePrefix;
pub(crate) use reply_alias::position_independent as reply_alias_position_independent;
pub use reply_alias::ReplyAlias;
pub use reuse::ReuseSlots;

/// Read-only context every pass runs against: passes requery the
/// presentation and encoding rather than trusting lowered caches.
pub struct PassCx<'a> {
    /// The presentation being compiled.
    pub presc: &'a PresC,
    /// The target wire encoding.
    pub enc: &'a Encoding,
}

/// One optimization rewrite over the MIR.
pub trait MirPass {
    /// The stable pass name (`flickc --passes`, `--disable-pass`).
    fn name(&self) -> &'static str;

    /// Rewrites `mir` in place, returning how many decisions it made
    /// (for `--stats` counters).
    ///
    /// # Errors
    /// Returns a message if the MIR contains a shape the pass cannot
    /// handle.
    fn run(&self, mir: &mut StubPlans, cx: &PassCx) -> PlanResult<u64>;
}

/// What a pass needs in front of it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Reads only the stub it rewrites: run per stub, memoized per stub.
    Stub,
    /// Needs every stub at once (it decides the demux trie): skipped
    /// per stub and run over the merged module.
    Module,
}

/// One row of the pass table.
struct PassRow {
    name: &'static str,
    /// The pass's span under the planning phase, and its decision
    /// counter: spelled here once, not formatted per compile.
    span: &'static str,
    counter: &'static str,
    scope: Scope,
    /// Why the pass cannot be disabled, for the one that cannot.
    required: Option<&'static str>,
    pass: &'static dyn MirPass,
}

macro_rules! row {
    ($name:literal, $scope:expr, $pass:expr) => {
        PassRow {
            name: $name,
            span: concat!("backend.plan.", $name),
            counter: concat!("pass.", $name, ".decisions"),
            scope: $scope,
            required: None,
            pass: $pass,
        }
    };
}

/// The eleven passes in pipeline order (the §3 endpoint optimizations
/// plus the gateway's transcode fusion).  Module-wide rows come last,
/// so stopping after any pass means the same thing per stub as it
/// would over the whole module.
const PASSES: &[PassRow] = &[
    // §3.1: drop slots the PRES mapping hides.
    row!("dead-slot", Scope::Stub, &DeadSlot),
    // §3.1: size classes for messages and elements.
    PassRow {
        required: Some(
            "it is the size-class analysis that form-chunks, hoist-checks \
             and both emitters read, not an optimization",
        ),
        ..row!("classify-storage", Scope::Stub, &ClassifyStorage)
    },
    // §3.1: arena-vs-owned residence per slot (in-buffer strings).
    row!("reuse-slots", Scope::Stub, &ReuseSlots),
    // §3.1: one up-front `ensure` per message.
    row!("hoist-checks", Scope::Stub, &HoistChecks),
    // §3.2: packed regions; strided chunk arrays.
    row!("form-chunks", Scope::Stub, &FormChunks),
    // §3.2: scalar arrays become copy/swap runs.
    row!("coalesce-memcpy", Scope::Stub, &CoalesceMemcpy),
    // §4: encoding-pair runs become bulk copies.
    row!("fuse-transcode", Scope::Stub, &FuseTranscode),
    // §3.3: absorb out-of-line marshal calls.
    row!("inline-marshal", Scope::Stub, &InlineMarshal),
    // §3.2: echoed replies reuse request bytes.
    row!("reply-alias", Scope::Stub, &ReplyAlias),
    // §3.4: word-wise server demultiplex trie.
    row!("demux-switch", Scope::Module, &DemuxSwitch),
    // §3.4: shared unmarshal prefix above the trie.
    row!("merge-prefix", Scope::Module, &MergePrefix),
];

/// The names of [`PASSES`], in pipeline order.
pub const PASS_NAMES: [&str; PASSES.len()] = {
    let mut names = [""; PASSES.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = PASSES[i].name;
        i += 1;
    }
    names
};

/// The position of the pass called `name` in pipeline order.
///
/// # Errors
/// Returns the one diagnostic for a name that is not a pass.
pub fn pass_position(name: &str) -> Result<usize, String> {
    PASS_NAMES.iter().position(|p| *p == name).ok_or_else(|| {
        format!(
            "unknown pass `{name}` (known passes: {})",
            PASS_NAMES.join(", ")
        )
    })
}

/// Which passes a compile runs: a subset of the table, always in table
/// order.  The one value behind `--no-opt`, `--disable-pass`, every
/// ablation variant and the plan cache's key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PassSet(u16);

impl PassSet {
    /// Every pass — the Flick configuration.
    #[must_use]
    pub fn all() -> PassSet {
        PassSet((1 << PASSES.len()) - 1)
    }

    /// The shape of traditional stub code (`--no-opt`): no optimization,
    /// only the size-class analysis and a demux switch.
    #[must_use]
    pub fn none() -> PassSet {
        let bit = |name| 1 << pass_position(name).expect("named in the table");
        PassSet(bit("classify-storage") | bit("demux-switch"))
    }

    /// This set with the named pass removed (removing an absent pass
    /// changes nothing).
    ///
    /// # Errors
    /// Returns a diagnostic if `name` is not a pass, or is the pass
    /// everything downstream depends on.
    pub fn without(self, name: &str) -> Result<PassSet, String> {
        let i = pass_position(name)?;
        match PASSES[i].required {
            Some(why) => Err(format!("pass `{name}` cannot be disabled: {why}")),
            None => Ok(PassSet(self.0 & !(1 << i))),
        }
    }

    /// Whether the named pass is in the set (`false` for a name that is
    /// not a pass).
    #[must_use]
    pub fn contains(self, name: &str) -> bool {
        self.rows().any(|r| r.name == name)
    }

    /// The scheduled rows, in pipeline order.
    fn rows(self) -> impl Iterator<Item = &'static PassRow> {
        PASSES
            .iter()
            .enumerate()
            .filter(move |(i, _)| self.0 & (1 << i) != 0)
            .map(|(_, row)| row)
    }
}

/// Wall time + decision count for one executed pass.
#[derive(Clone, Debug)]
pub struct PassSpan {
    /// Pass name (or `"lower"` for the lowering step itself).
    pub name: &'static str,
    /// The span's name in a compile trace: `backend.plan.<name>`.
    pub span: &'static str,
    /// The name of the pass's decision counter,
    /// `pass.<name>.decisions`; lowering has none (it reports through
    /// `plan.stubs`).
    pub counter: Option<&'static str>,
    /// Wall time spent in the pass.
    pub ns: u64,
    /// Decisions the pass made.
    pub decisions: u64,
}

/// A `--dump-mir` request: dump after the named pass, or after the
/// whole pipeline when `after` is `None`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MirDump {
    /// Pass name to dump after (`"lower"` is also accepted).
    pub after: Option<String>,
}

/// What planning one presentation produced.
#[derive(Debug)]
pub struct Planned {
    /// The MIR: optimized, or as it stood after the `stop_after` pass.
    pub mir: StubPlans,
    /// Lowering, then every scheduled pass in order.  Per-stub work is
    /// summed over the stubs that were planned, so a span is zero when
    /// every stub was restored from the cache.
    pub passes: Vec<PassSpan>,
    /// What the plan cache did, when one was given.
    pub cache: Option<CacheStats>,
}

/// Plans every stub of `presc`: restores each stub the `cache` holds,
/// lowers and optimizes the rest one stub at a time, merges the units
/// in presentation order, runs the module-wide passes over the merged
/// module, and drops the outline bodies nothing reaches.  `verify_mir`
/// runs the MIR verifier after lowering and after every pass.
///
/// `stop_after` (`--dump-mir=PASS`) ends the run after the named pass
/// — `"lower"` runs none — leaving the MIR as that pass left it, with
/// no outline GC; such a run neither reads nor fills the cache.
///
/// # Errors
/// Returns a message if lowering or a pass fails, if the verifier
/// rejects an intermediate MIR, or if `stop_after` names a pass that is
/// not in `passes`.
pub fn plan_module(
    presc: &PresC,
    enc: &Encoding,
    passes: PassSet,
    verify_mir: bool,
    stop_after: Option<&str>,
    cache: Option<&mut PlanCache>,
) -> PlanResult<Planned> {
    let scheduled: Vec<&PassRow> = passes.rows().collect();
    // The leading scheduled passes this run executes.
    let running = match stop_after {
        None => &scheduled[..],
        Some("lower") => &[],
        Some(name) => {
            let at = scheduled
                .iter()
                .position(|r| r.name == name)
                .ok_or_else(|| {
                    format!("--dump-mir: pass `{name}` did not run (disabled or not scheduled)")
                })?;
            &scheduled[..=at]
        }
    };
    let mut cache = cache.filter(|_| stop_after.is_none());
    let cx = PassCx { presc, enc };
    let n = presc.stubs.len();

    // Restore every stub the cache holds.
    let mut units: Vec<Option<PlanUnit>> = vec![None; n];
    let mut keys = Vec::new();
    if let Some(cache) = cache.as_deref_mut() {
        cache.begin();
        let enc_fp = enc.fingerprint();
        let hashes = flick_pres::stub_hashes(presc);
        for ((unit, stub), pres_hash) in units.iter_mut().zip(&presc.stubs).zip(hashes) {
            let key = StubKey {
                pres_hash,
                enc_fp,
                passes,
            };
            *unit = cache.restore(&key, presc, stub);
            keys.push(key);
        }
    }

    // Plan the rest, each stub on its own.  One span for lowering and
    // one per scheduled pass, whether or not this run reaches it.
    let mut spans: Vec<PassSpan> = std::iter::once(("lower", "backend.plan.lower", None))
        .chain(scheduled.iter().map(|r| (r.name, r.span, Some(r.counter))))
        .map(|(name, span, counter)| PassSpan {
            name,
            span,
            counter,
            ns: 0,
            decisions: 0,
        })
        .collect();
    for (i, stub) in presc.stubs.iter().enumerate() {
        if units[i].is_none() {
            let unit = plan_stub(&cx, running, verify_mir, stub, &mut spans)?;
            if let Some(cache) = cache.as_deref_mut() {
                cache.store(keys[i], presc, stub, &unit);
            }
            units[i] = Some(unit);
        }
    }

    // Merge in presentation order, later outline registrations winning
    // — the same as one map filled stub by stub.
    let ran = |pass: &str| running.iter().any(|r| r.name == pass);
    let mut mir = StubPlans {
        stubs: Vec::with_capacity(n),
        outlines: std::collections::BTreeMap::new(),
        hoist: ran("hoist-checks"),
        memcpy: ran("coalesce-memcpy"),
        demux: mir::Demux::Linear,
    };
    for unit in units {
        let (plan, outlines) = unit.expect("every stub restored or planned");
        mir.stubs.push(plan);
        mir.outlines.extend(outlines);
    }
    if verify_mir {
        verify(&mir, presc, enc).map_err(|e| format!("MIR verify after merge: {e}"))?;
    }

    // The demux trie needs every stub's wire name at once, so the
    // module-wide passes run here even when every stub was restored.
    run_passes(&mut mir, &cx, running, verify_mir, None, &mut spans)?;
    if stop_after.is_none() {
        gc_outlines(&mut mir);
        if verify_mir {
            verify(&mir, presc, enc).map_err(|e| format!("MIR verify after outline GC: {e}"))?;
        }
    }

    Ok(Planned {
        mir,
        passes: spans,
        cache: cache.map(PlanCache::finish),
    })
}

/// Lowers one stub and runs the per-stub passes of `running` over it
/// alone, adding the time and decisions to `spans`.  Every pass but the
/// module-wide ones reads only the stub it rewrites, which is what
/// makes a stub the unit of planning and caching.
fn plan_stub(
    cx: &PassCx,
    running: &[&PassRow],
    verify_mir: bool,
    stub: &Stub,
    spans: &mut [PassSpan],
) -> PlanResult<PlanUnit> {
    let t = Instant::now();
    let (plan, outlines) = lower_stub(cx.presc, cx.enc, stub)?;
    spans[0].ns += t.elapsed().as_nanos() as u64;
    spans[0].decisions += 1;
    let mut mir = StubPlans {
        stubs: vec![plan],
        outlines,
        hoist: false,
        memcpy: false,
        demux: mir::Demux::Linear,
    };
    if verify_mir {
        verify(&mir, cx.presc, cx.enc)
            .map_err(|e| format!("MIR verify after lowering `{}`: {e}", stub.name))?;
    }
    run_passes(&mut mir, cx, running, verify_mir, Some(&stub.name), spans)?;
    let plan = mir.stubs.pop().expect("passes keep the unit's one stub");
    Ok((plan, mir.outlines))
}

/// Runs the passes of `running` that have one scope over `mir` — the
/// per-stub passes over the single-stub unit of `stub`, or (`stub` =
/// `None`) the module-wide passes over the merged module — adding each
/// pass's time and decisions to its span and verifying after each.  The
/// one loop over the scheduled passes.
fn run_passes(
    mir: &mut StubPlans,
    cx: &PassCx,
    running: &[&PassRow],
    verify_mir: bool,
    stub: Option<&str>,
    spans: &mut [PassSpan],
) -> PlanResult<()> {
    let scope = if stub.is_some() {
        Scope::Stub
    } else {
        Scope::Module
    };
    let on = || stub.map_or(String::new(), |s| format!(" on `{s}`"));
    for (row, span) in running.iter().zip(&mut spans[1..]) {
        if row.scope != scope {
            continue;
        }
        let name = row.name;
        let t = Instant::now();
        span.decisions += row
            .pass
            .run(mir, cx)
            .map_err(|e| format!("pass {name}{}: {e}", on()))?;
        span.ns += t.elapsed().as_nanos() as u64;
        if verify_mir {
            verify(mir, cx.presc, cx.enc)
                .map_err(|e| format!("MIR verify after {name}{}: {e}", on()))?;
        }
    }
    Ok(())
}

/// Drops outline bodies no stub reaches.  Naive lowering outlines
/// every named aggregate; after chunking and inlining some of those
/// bodies have no remaining call sites (e.g. an aggregate absorbed
/// into a packed chunk), and emitting them would change output.
fn gc_outlines(mir: &mut StubPlans) {
    if mir.outlines.is_empty() {
        return;
    }
    use std::collections::BTreeSet;
    let mut work: Vec<&Name> = Vec::new();
    for stub in &mir.stubs {
        for msg in [&stub.request, &stub.reply] {
            for slot in &msg.slots {
                collect_outline_keys(&slot.node, &mut work);
            }
        }
    }
    let mut reachable = BTreeSet::new();
    while let Some(key) = work.pop() {
        if reachable.insert(key.clone()) {
            if let Some(body) = mir.outlines.get(key) {
                collect_outline_keys(body, &mut work);
            }
        }
    }
    mir.outlines.retain(|k, _| reachable.contains(k));
}

fn collect_outline_keys<'a>(node: &'a PlanNode, out: &mut Vec<&'a Name>) {
    if let PlanNode::Outline { key } = node {
        out.push(key);
    }
    for child in node.children() {
        collect_outline_keys(child, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::Demux;
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    fn presc(idl: &str, iface: &str) -> PresC {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        flick_presgen::corba_c(&aoi, iface, Side::Client, &mut d).expect("presentation")
    }

    const IDL: &str = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        typedef sequence<Rect> RectSeq;
        interface I { void put(in RectSeq rs); };
    ";

    fn plan(p: &PresC, passes: PassSet, stop_after: Option<&str>) -> PlanResult<Planned> {
        plan_module(p, &Encoding::xdr(), passes, true, stop_after, None)
    }

    fn names(set: PassSet) -> Vec<&'static str> {
        set.rows().map(|r| r.name).collect()
    }

    #[test]
    fn the_table_and_its_names_cannot_drift() {
        // Every row's pass reports its row's name, and names are unique.
        for (i, row) in PASSES.iter().enumerate() {
            assert_eq!(row.pass.name(), row.name);
            assert_eq!(row.span, format!("backend.plan.{}", row.name));
            assert_eq!(row.counter, format!("pass.{}.decisions", row.name));
            assert_eq!(PASS_NAMES[i], row.name);
            assert_eq!(pass_position(row.name), Ok(i), "duplicate name");
        }
        // Module-wide rows are last: the planner runs them after every
        // per-stub pass, in table order.
        let first_wide = PASSES
            .iter()
            .position(|r| r.scope == Scope::Module)
            .unwrap();
        assert!(PASSES[first_wide..]
            .iter()
            .all(|r| r.scope == Scope::Module));
    }

    #[test]
    fn default_pipeline_schedules_all_eleven_passes_in_order() {
        assert_eq!(names(PassSet::all()), PASS_NAMES.to_vec());
        assert!(PassSet::all().contains("form-chunks"));
        assert!(!PassSet::all().contains("frobnicate"));
    }

    #[test]
    fn flags_gate_their_passes_but_not_classify_or_demux() {
        assert_eq!(
            names(PassSet::none()),
            vec!["classify-storage", "demux-switch"]
        );
        assert!(!PassSet::none().contains("form-chunks"));
    }

    #[test]
    fn disabling_unknown_pass_is_an_error() {
        let err = PassSet::all().without("frobnicate").unwrap_err();
        assert!(err.contains("unknown pass `frobnicate` (known passes: dead-slot, "));
        let set = PassSet::all().without("form-chunks").expect("known pass");
        assert!(!set.contains("form-chunks"));
        // Removing an already-absent pass stays fine.
        assert_eq!(set.without("form-chunks"), Ok(set));
        // The size-class analysis is not an optimization: every later
        // pass and both emitters read what it writes.
        let err = PassSet::all().without("classify-storage").unwrap_err();
        assert!(err.contains("cannot be disabled"), "{err}");
    }

    #[test]
    fn fingerprint_tracks_output_affecting_config_only() {
        let p = presc(IDL, "I");
        let mut cache = PlanCache::new();
        let mut stats = |passes, verify| {
            plan_module(&p, &Encoding::xdr(), passes, verify, None, Some(&mut cache))
                .expect("runs")
                .cache
                .expect("a cache was given")
        };
        assert_eq!(stats(PassSet::all(), true).misses, 1);
        // Verifying changes how the result is computed, not what it
        // is — it must not invalidate caches.
        assert_eq!(stats(PassSet::all(), false).hits, 1);
        // The set of passes does.
        let no_chunks = PassSet::all().without("form-chunks").unwrap();
        assert_eq!(stats(no_chunks, true).misses, 1);
    }

    #[test]
    fn pipeline_reports_one_span_per_pass() {
        let p = presc(IDL, "I");
        let run = plan(&p, PassSet::all(), None).expect("runs");
        let names: Vec<_> = run.passes.iter().map(|s| s.name).collect();
        let mut expect = vec!["lower"];
        expect.extend(PASS_NAMES);
        assert_eq!(names, expect);
        // The chunking pass made at least one decision on rects.
        let chunks = run.passes.iter().find(|s| s.name == "form-chunks").unwrap();
        assert!(chunks.decisions >= 1, "{:?}", run.passes);
    }

    #[test]
    fn stub_pipeline_skips_demux_and_matches_module_run() {
        let p = presc(IDL, "I");
        let cx = PassCx {
            presc: &p,
            enc: &Encoding::xdr(),
        };
        let all: Vec<&PassRow> = PassSet::all().rows().collect();
        let mut spans = vec![
            PassSpan {
                name: "",
                span: "",
                counter: None,
                ns: 0,
                decisions: 0,
            };
            1 + all.len()
        ];
        let (plan_one, outlines) =
            plan_stub(&cx, &all, true, &p.stubs[0], &mut spans).expect("runs");
        for (row, span) in all.iter().zip(&spans[1..]) {
            assert_eq!(span.ns == 0, row.scope == Scope::Module, "{}", row.name);
        }
        let whole = plan(&p, PassSet::all(), None).expect("runs");
        assert_eq!(
            format!("{plan_one:?}"),
            format!("{:?}", whole.mir.stubs[0]),
            "per-stub optimization must match the whole-module result"
        );
        assert_eq!(format!("{outlines:?}"), format!("{:?}", whole.mir.outlines));
    }

    #[test]
    fn disabling_demux_falls_back_to_linear() {
        let p = presc(IDL, "I");
        let no_demux = PassSet::all().without("demux-switch").unwrap();
        let run = plan(&p, no_demux, None).expect("runs");
        assert_eq!(run.mir.demux, Demux::Linear);
        let run = plan(&p, PassSet::all(), None).expect("runs");
        assert!(matches!(run.mir.demux, Demux::Trie(_)));
    }

    #[test]
    fn dump_mir_after_pass_and_at_end() {
        let p = presc(IDL, "I");
        let dump_after =
            |passes: PassSet, stop| plan(&p, passes, stop).map(|run| mir::dump(&run.mir));
        let dump = dump_after(PassSet::all(), None).expect("runs");
        assert!(dump.contains("stub "), "{dump}");
        assert!(dump.contains("demux: trie"), "{dump}");
        // Stopped after a per-stub pass: its rewrite is there, nothing
        // later is — the module-wide passes included.
        let dump = dump_after(PassSet::all(), Some("form-chunks")).expect("runs");
        assert!(dump.contains("packed"), "{dump}");
        assert!(dump.contains("memcpy: false, demux: linear"), "{dump}");
        let lowered = dump_after(PassSet::all(), Some("lower")).expect("runs");
        assert!(!lowered.contains("packed"), "{lowered}");
        assert!(lowered.contains("outline Rect:"), "naive: {lowered}");
        // A dump point that never runs is a pipeline error.
        let no_chunks = PassSet::all().without("form-chunks").unwrap();
        let err = dump_after(no_chunks, Some("form-chunks")).unwrap_err();
        assert!(err.contains("did not run"), "{err}");
    }
}
