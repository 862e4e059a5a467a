//! The MIR pass manager: Flick's §3 optimizations as named, ordered
//! rewrites over [`StubPlans`].
//!
//! Lowering produces naive MIR (datum-by-datum marshaling, every named
//! aggregate out of line, no storage classes); each [`MirPass`] then
//! makes one class of optimization decision:
//!
//! | order | pass              | §     | decision                              |
//! |-------|-------------------|-------|---------------------------------------|
//! | 1     | `dead-slot`       | §3.1  | drop slots the PRES mapping hides     |
//! | 2     | `classify-storage`| §3.1  | size classes for messages & elements  |
//! | 3     | `reuse-slots`     | §3.1  | arena-vs-owned residence per slot     |
//! | 4     | `hoist-checks`    | §3.1  | one up-front `ensure` per message     |
//! | 5     | `form-chunks`     | §3.2  | packed regions; strided chunk arrays  |
//! | 6     | `coalesce-memcpy` | §3.2  | scalar arrays become copy/swap runs   |
//! | 7     | `fuse-transcode`  | §4    | encoding-pair runs become bulk copies |
//! | 8     | `inline-marshal`  | §3.3  | absorb out-of-line marshal calls      |
//! | 9     | `reply-alias`     | §3.2  | echoed replies reuse request bytes    |
//! | 10    | `demux-switch`    | §3.4  | word-wise server demultiplex trie     |
//! | 11    | `merge-prefix`    | §3.4  | shared unmarshal prefix above the trie|
//!
//! `fuse-transcode` is special: its decision applies when an
//! encoding-*pair* (gateway) plan is built, not to endpoint MIR — see
//! [`fuse`] — but it lives in the shared vocabulary so `--disable-pass`
//! validation, pipeline fingerprints, and ablations treat it uniformly.
//!
//! One planner, [`plan_module`], runs them: each stub is lowered and
//! taken through the per-stub passes on its own (or restored from a
//! [`PlanCache`]), the units are merged, the two module-wide passes run
//! over the merged module, and an outline garbage collection leaves
//! only reachable out-of-line bodies.  It times each pass, counts its
//! decisions, and optionally runs the MIR verifier after every step
//! (debug/test builds).

use std::time::Instant;

use flick_pres::{PresC, Stub};
use flick_stablehash::StableHasher;

use crate::cache::{CacheStats, PlanCache, PlanUnit, StubKey};
use crate::encoding::Encoding;
use crate::mir::{self, PlanNode, PlanResult, StubPlans};
use crate::opts::OptFlags;
use crate::plan::{lower_stub, LowerOpts, Parallelism, PARALLEL_MIN_STUBS};
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

/// The eleven passes in pipeline order (the §3 endpoint optimizations
/// plus the gateway's transcode fusion).
pub const PASS_NAMES: [&str; 11] = [
    "dead-slot",
    "classify-storage",
    "reuse-slots",
    "hoist-checks",
    "form-chunks",
    "coalesce-memcpy",
    "fuse-transcode",
    "inline-marshal",
    "reply-alias",
    "demux-switch",
    "merge-prefix",
];

/// Passes that need every stub at once (they decide the demux trie):
/// the planner skips them per stub and runs them over the merged
/// module.  Scheduled last, so stopping after any pass means the same
/// thing per stub as it would over the whole module.
const MODULE_WIDE_PASSES: [&str; 2] = ["demux-switch", "merge-prefix"];

/// Read-only context every pass runs against: passes requery the
/// presentation and encoding rather than trusting lowered caches.
pub struct PassCx<'a> {
    /// The presentation being compiled.
    pub presc: &'a PresC,
    /// The target wire encoding.
    pub enc: &'a Encoding,
}

/// One optimization rewrite over the MIR.
pub trait MirPass: Send + Sync {
    /// The stable pass name (`flickc --passes`, `--disable-pass`).
    fn name(&self) -> &'static str;

    /// Rewrites `mir` in place, returning how many decisions it made
    /// (for `--stats` counters).
    ///
    /// # Errors
    /// Returns a message if the MIR contains a shape the pass cannot
    /// handle.
    fn run(&self, mir: &mut StubPlans, cx: &PassCx) -> PlanResult<u64>;

    /// Absorbs every configuration knob that changes this pass's
    /// *output* into `h`.  The pass name is hashed separately; the
    /// default covers passes with no configuration.
    fn config_hash(&self, _h: &mut StableHasher) {}
}

/// Wall time + decision count for one executed pass.
#[derive(Clone, Debug)]
pub struct PassSpan {
    /// Pass name (or `"lower"` for the lowering step itself).
    pub name: &'static str,
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

/// An ordered, toggleable set of MIR passes plus lowering options.
pub struct PassPipeline {
    lower: LowerOpts,
    passes: Vec<Box<dyn MirPass>>,
    /// Run the MIR verifier after lowering and between passes.
    pub verify: bool,
    /// How planning schedules independent stubs.
    pub parallel: Parallelism,
}

impl PassPipeline {
    /// The pipeline the boolean [`OptFlags`] facade describes.
    /// `classify-storage` and `demux-switch` always run (emitters
    /// depend on storage classes and a demux decision); the other
    /// passes follow their flags.
    #[must_use]
    pub fn from_opts(opts: &OptFlags) -> PassPipeline {
        let mut passes: Vec<Box<dyn MirPass>> = Vec::new();
        if opts.dead_slot {
            passes.push(Box::new(DeadSlot));
        }
        passes.push(Box::new(ClassifyStorage));
        if opts.reuse_slots {
            passes.push(Box::new(ReuseSlots));
        }
        if opts.hoist_checks {
            passes.push(Box::new(HoistChecks {
                threshold: opts.bounded_threshold,
            }));
        }
        if opts.chunking {
            passes.push(Box::new(FormChunks));
        }
        if opts.memcpy {
            passes.push(Box::new(CoalesceMemcpy));
        }
        if opts.fuse_transcode {
            passes.push(Box::new(FuseTranscode));
        }
        if opts.inline_marshal {
            passes.push(Box::new(InlineMarshal));
        }
        if opts.reply_alias {
            passes.push(Box::new(ReplyAlias));
        }
        passes.push(Box::new(DemuxSwitch));
        if opts.merge_prefix {
            passes.push(Box::new(MergePrefix));
        }
        PassPipeline {
            lower: LowerOpts {
                param_mgmt: opts.param_mgmt,
            },
            passes,
            verify: cfg!(debug_assertions),
            parallel: Parallelism::Auto,
        }
    }

    /// A stable fingerprint of everything about this pipeline that can
    /// change its *output*: the pass list (names, order, per-pass
    /// configuration) and the lowering options.  `verify` and
    /// `parallel` are deliberately excluded — they affect only how the
    /// same result is computed.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.passes.len() as u64);
        for pass in &self.passes {
            h.write_str(pass.name());
            pass.config_hash(&mut h);
        }
        h.write_bool(self.lower.param_mgmt);
        h.finish()
    }

    /// One zeroed span for lowering and one per scheduled pass.
    fn zero_spans(&self) -> Vec<PassSpan> {
        std::iter::once("lower")
            .chain(self.passes.iter().map(|p| p.name()))
            .map(|name| PassSpan {
                name,
                ns: 0,
                decisions: 0,
            })
            .collect()
    }

    /// Names of the passes currently scheduled, in order.
    #[must_use]
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Removes the named pass from the schedule.  Removing a pass that
    /// a flag already excluded is a no-op; an unknown name is an error.
    ///
    /// # Errors
    /// Returns a diagnostic naming the unknown pass.
    pub fn disable(&mut self, name: &str) -> Result<(), String> {
        if !PASS_NAMES.contains(&name) {
            return Err(format!(
                "unknown pass `{name}` (known passes: {})",
                PASS_NAMES.join(", ")
            ));
        }
        self.passes.retain(|p| p.name() != name);
        Ok(())
    }
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
/// lowers and optimizes the rest one stub at a time (on worker threads
/// when there are enough of them), merges the units in presentation
/// order, runs the module-wide passes over the merged module, and
/// drops the outline bodies nothing reaches.
///
/// `stop_after` (`--dump-mir=PASS`) ends the run after the named pass
/// — `"lower"` runs none — leaving the MIR as that pass left it, with
/// no outline GC; such a run neither reads nor fills the cache.
///
/// # Errors
/// Returns a message if lowering or a pass fails, if the verifier
/// rejects an intermediate MIR, or if `stop_after` names a pass that is
/// not scheduled.
pub fn plan_module(
    presc: &PresC,
    enc: &Encoding,
    pipeline: &PassPipeline,
    stop_after: Option<&str>,
    cache: Option<&mut PlanCache>,
) -> PlanResult<Planned> {
    let scheduled = pipeline.pass_names();
    // How many leading scheduled passes this run executes.
    let limit = match stop_after {
        None => scheduled.len(),
        Some("lower") => 0,
        Some(name) => {
            1 + scheduled.iter().position(|p| *p == name).ok_or_else(|| {
                format!("--dump-mir: pass `{name}` did not run (disabled or not scheduled)")
            })?
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
        let (enc_fp, pipe_fp) = (enc.fingerprint(), pipeline.fingerprint());
        for (unit, stub) in units.iter_mut().zip(&presc.stubs) {
            let key = StubKey {
                pres_hash: flick_pres::stub_hash(presc, stub),
                enc_fp,
                pipe_fp,
            };
            *unit = cache.restore(&key, presc, stub);
            keys.push(key);
        }
    }

    // Plan the rest, each stub on its own.
    let misses: Vec<usize> = (0..n).filter(|&i| units[i].is_none()).collect();
    let plan_one = |&i: &usize| plan_stub(&cx, pipeline, limit, &presc.stubs[i]);
    let threads = match pipeline.parallel {
        Parallelism::Sequential => 1,
        Parallelism::Threads(t) => t.max(1),
        Parallelism::Auto if misses.len() >= PARALLEL_MIN_STUBS => {
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(8)
        }
        Parallelism::Auto => 1,
    };
    let planned: Vec<(PlanUnit, Vec<PassSpan>)> = if threads <= 1 || misses.len() <= 1 {
        misses.iter().map(plan_one).collect::<PlanResult<_>>()?
    } else {
        let chunk = misses.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let workers: Vec<_> = misses
                .chunks(chunk)
                .map(|idxs| {
                    scope.spawn(move || idxs.iter().map(plan_one).collect::<PlanResult<Vec<_>>>())
                })
                .collect();
            // Chunks were dealt contiguously, so concatenation restores
            // presentation order exactly.
            let mut all = Vec::with_capacity(misses.len());
            for worker in workers {
                all.extend(
                    worker
                        .join()
                        .unwrap_or_else(|_| Err("planning worker panicked".to_string()))?,
                );
            }
            Ok::<_, String>(all)
        })?
    };
    let mut spans = pipeline.zero_spans();
    for (&i, (unit, unit_spans)) in misses.iter().zip(planned) {
        for (total, span) in spans.iter_mut().zip(unit_spans) {
            total.ns += span.ns;
            total.decisions += span.decisions;
        }
        if let Some(cache) = cache.as_deref_mut() {
            cache.store(keys[i], presc, &presc.stubs[i], &unit);
        }
        units[i] = Some(unit);
    }

    // Merge in presentation order, later outline registrations winning
    // — the same as one map filled stub by stub.
    let ran = |pass: &str| scheduled[..limit].contains(&pass);
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
    if pipeline.verify {
        verify(&mir, presc, enc).map_err(|e| format!("MIR verify after merge: {e}"))?;
    }

    // The demux trie needs every stub's wire name at once, so the
    // module-wide passes run here even when every stub was restored.
    run_passes(&mut mir, &cx, pipeline, limit, None, &mut spans)?;
    if stop_after.is_none() {
        gc_outlines(&mut mir);
        if pipeline.verify {
            verify(&mir, presc, enc).map_err(|e| format!("MIR verify after outline GC: {e}"))?;
        }
    }

    Ok(Planned {
        mir,
        passes: spans,
        cache: cache.map(PlanCache::finish),
    })
}

/// Lowers one stub and runs the per-stub passes over it alone.  Every
/// pass but the module-wide ones reads only the stub it rewrites, which
/// is what makes a stub the unit of planning, threading and caching.
fn plan_stub(
    cx: &PassCx,
    pipeline: &PassPipeline,
    limit: usize,
    stub: &Stub,
) -> PlanResult<(PlanUnit, Vec<PassSpan>)> {
    let mut spans = pipeline.zero_spans();
    let t = Instant::now();
    let (plan, outlines) = lower_stub(cx.presc, cx.enc, pipeline.lower, stub)?;
    spans[0].ns = t.elapsed().as_nanos() as u64;
    spans[0].decisions = 1;
    let mut mir = StubPlans {
        stubs: vec![plan],
        outlines,
        hoist: false,
        memcpy: false,
        demux: mir::Demux::Linear,
    };
    if pipeline.verify {
        verify(&mir, cx.presc, cx.enc)
            .map_err(|e| format!("MIR verify after lowering `{}`: {e}", stub.name))?;
    }
    run_passes(&mut mir, cx, pipeline, limit, Some(&stub.name), &mut spans)?;
    let plan = mir.stubs.pop().expect("passes keep the unit's one stub");
    Ok(((plan, mir.outlines), spans))
}

/// Runs, of the first `limit` scheduled passes, those of one scope over
/// `mir` — the per-stub passes over the single-stub unit of `stub`, or
/// (`stub` = `None`) the module-wide passes over the merged module —
/// adding each pass's time and decisions to its span and verifying
/// after each.  The one loop over the pipeline's passes.
fn run_passes(
    mir: &mut StubPlans,
    cx: &PassCx,
    pipeline: &PassPipeline,
    limit: usize,
    stub: Option<&str>,
    spans: &mut [PassSpan],
) -> PlanResult<()> {
    let on = || stub.map_or(String::new(), |s| format!(" on `{s}`"));
    for (pass, span) in pipeline.passes[..limit].iter().zip(&mut spans[1..]) {
        let name = pass.name();
        if MODULE_WIDE_PASSES.contains(&name) == stub.is_some() {
            continue;
        }
        let t = Instant::now();
        span.decisions += pass
            .run(mir, cx)
            .map_err(|e| format!("pass {name}{}: {e}", on()))?;
        span.ns += t.elapsed().as_nanos() as u64;
        if pipeline.verify {
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
    use std::collections::BTreeSet;
    let mut work: Vec<String> = Vec::new();
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
            if let Some(body) = mir.outlines.get(&key) {
                collect_outline_keys(body, &mut work);
            }
        }
    }
    mir.outlines.retain(|k, _| reachable.contains(k));
}

pub(crate) fn collect_outline_keys(node: &PlanNode, out: &mut Vec<String>) {
    match node {
        PlanNode::Outline { key } => out.push(key.clone()),
        PlanNode::Struct { fields, .. } => {
            for (_, f) in fields {
                collect_outline_keys(f, out);
            }
        }
        PlanNode::Union { cases, default, .. } => {
            for (_, _, c) in cases {
                collect_outline_keys(c, out);
            }
            if let Some((_, d)) = default {
                collect_outline_keys(d, out);
            }
        }
        PlanNode::CountedArray { elem, .. }
        | PlanNode::FixedArray { elem, .. }
        | PlanNode::Optional { elem, .. } => collect_outline_keys(elem, out),
        _ => {}
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

    #[test]
    fn default_pipeline_schedules_all_eleven_passes_in_order() {
        let pipe = PassPipeline::from_opts(&OptFlags::all());
        assert_eq!(pipe.pass_names(), PASS_NAMES.to_vec());
    }

    #[test]
    fn flags_gate_their_passes_but_not_classify_or_demux() {
        let pipe = PassPipeline::from_opts(&OptFlags::none());
        assert_eq!(pipe.pass_names(), vec!["classify-storage", "demux-switch"]);
    }

    #[test]
    fn disabling_unknown_pass_is_an_error() {
        let mut pipe = PassPipeline::from_opts(&OptFlags::all());
        assert!(pipe
            .disable("frobnicate")
            .unwrap_err()
            .contains("unknown pass"));
        pipe.disable("form-chunks").expect("known pass");
        assert!(!pipe.pass_names().contains(&"form-chunks"));
        // Disabling an already-absent pass stays fine.
        pipe.disable("form-chunks").expect("idempotent");
    }

    #[test]
    fn pipeline_reports_one_span_per_pass() {
        let p = presc(IDL, "I");
        let pipe = PassPipeline::from_opts(&OptFlags::all());
        let run = plan_module(&p, &Encoding::xdr(), &pipe, None, None).expect("runs");
        let names: Vec<_> = run.passes.iter().map(|s| s.name).collect();
        let mut expect = vec!["lower"];
        expect.extend(PASS_NAMES);
        assert_eq!(names, expect);
        // The chunking pass made at least one decision on rects.
        let chunks = run.passes.iter().find(|s| s.name == "form-chunks").unwrap();
        assert!(chunks.decisions >= 1, "{:?}", run.passes);
    }

    #[test]
    fn fingerprint_tracks_output_affecting_config_only() {
        let base = PassPipeline::from_opts(&OptFlags::all());
        // verify/parallel change how the result is computed, not what
        // it is — they must not invalidate caches.
        let mut same = PassPipeline::from_opts(&OptFlags::all());
        same.verify = !same.verify;
        same.parallel = Parallelism::Sequential;
        assert_eq!(base.fingerprint(), same.fingerprint());

        let mut disabled = PassPipeline::from_opts(&OptFlags::all());
        disabled.disable("form-chunks").unwrap();
        assert_ne!(base.fingerprint(), disabled.fingerprint());

        let mut thr = OptFlags::all();
        thr.bounded_threshold += 1;
        assert_ne!(
            base.fingerprint(),
            PassPipeline::from_opts(&thr).fingerprint(),
            "hoist threshold is pass configuration"
        );
    }

    #[test]
    fn stub_pipeline_skips_demux_and_matches_module_run() {
        let p = presc(IDL, "I");
        let pipe = PassPipeline::from_opts(&OptFlags::all());
        let cx = PassCx {
            presc: &p,
            enc: &Encoding::xdr(),
        };
        let ((plan, outlines), spans) =
            plan_stub(&cx, &pipe, pipe.passes.len(), &p.stubs[0]).expect("runs");
        for span in &spans {
            let skipped = MODULE_WIDE_PASSES.contains(&span.name);
            assert_eq!(span.ns == 0, skipped, "{span:?}");
        }
        let whole = plan_module(&p, &Encoding::xdr(), &pipe, None, None).expect("runs");
        assert_eq!(
            format!("{plan:?}"),
            format!("{:?}", whole.mir.stubs[0]),
            "per-stub optimization must match the whole-module result"
        );
        assert_eq!(format!("{outlines:?}"), format!("{:?}", whole.mir.outlines));
    }

    #[test]
    fn disabling_demux_falls_back_to_linear() {
        let p = presc(IDL, "I");
        let mut pipe = PassPipeline::from_opts(&OptFlags::all());
        pipe.disable("demux-switch").unwrap();
        let run = plan_module(&p, &Encoding::xdr(), &pipe, None, None).expect("runs");
        assert_eq!(run.mir.demux, Demux::Linear);
        let pipe = PassPipeline::from_opts(&OptFlags::all());
        let run = plan_module(&p, &Encoding::xdr(), &pipe, None, None).expect("runs");
        assert!(matches!(run.mir.demux, Demux::Trie(_)));
    }

    #[test]
    fn dump_mir_after_pass_and_at_end() {
        let p = presc(IDL, "I");
        let pipe = PassPipeline::from_opts(&OptFlags::all());
        let dump_after = |pipe: &PassPipeline, stop| {
            plan_module(&p, &Encoding::xdr(), pipe, stop, None).map(|run| mir::dump(&run.mir))
        };
        let dump = dump_after(&pipe, None).expect("runs");
        assert!(dump.contains("stub "), "{dump}");
        assert!(dump.contains("demux: trie"), "{dump}");
        // Stopped after a per-stub pass: its rewrite is there, nothing
        // later is — the module-wide passes included.
        let dump = dump_after(&pipe, Some("form-chunks")).expect("runs");
        assert!(dump.contains("packed"), "{dump}");
        assert!(dump.contains("memcpy: false, demux: linear"), "{dump}");
        let lowered = dump_after(&pipe, Some("lower")).expect("runs");
        assert!(!lowered.contains("packed"), "{lowered}");
        assert!(lowered.contains("outline Rect:"), "naive: {lowered}");
        // A dump point that never runs is a pipeline error.
        let mut no_chunks = PassPipeline::from_opts(&OptFlags::all());
        no_chunks.disable("form-chunks").unwrap();
        let err = dump_after(&no_chunks, Some("form-chunks")).unwrap_err();
        assert!(err.contains("did not run"), "{err}");
    }
}
