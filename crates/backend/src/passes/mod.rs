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
//! The pipeline times each pass, counts its decisions, optionally runs
//! the MIR verifier between passes (debug/test builds), and finishes
//! with an outline garbage collection so only reachable out-of-line
//! bodies survive.

use std::time::{Duration, Instant};

use flick_pres::{PresC, Stub};
use flick_stablehash::StableHasher;

use crate::encoding::Encoding;
use crate::mir::{self, PlanNode, PlanResult, StubPlans};
use crate::opts::OptFlags;
use crate::plan::{lower_presc, lower_stub, LowerOpts, Parallelism};
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

/// Passes that need every stub at once (they decide the demux trie),
/// so the per-stub cache pipeline skips them and the caller re-runs
/// them over the merged module.
pub(crate) const MODULE_WIDE_PASSES: [&str; 2] = ["demux-switch", "merge-prefix"];

/// Read-only context every pass runs against: passes requery the
/// presentation and encoding rather than trusting lowered caches.
pub struct PassCx<'a> {
    /// The presentation being compiled.
    pub presc: &'a PresC,
    /// The target wire encoding.
    pub enc: &'a Encoding,
}

/// Limits on one pass execution: a decision cap, a wall-clock
/// deadline, or both.  An empty budget never stops a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassBudget {
    /// Maximum decisions the pass may make (`flickc --pass-budget`).
    pub decisions: Option<u64>,
    /// Instant past which the pass must stop making new decisions
    /// (`flickc --pass-budget-ms`, converted per pass invocation).
    pub deadline: Option<Instant>,
}

impl PassBudget {
    /// True once `made` decisions — or the wall clock — exhaust this
    /// budget.  Passes that can stop early consult this before each
    /// new decision.
    #[must_use]
    pub fn spent(&self, made: u64) -> bool {
        self.decisions.is_some_and(|b| made >= b)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
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

    /// Like [`MirPass::run`] but bounded by a [`PassBudget`].  Returns
    /// the decision count plus whether the budget stopped (or would
    /// have stopped) the pass.  The default runs to completion and
    /// merely *reports* a decision overrun; passes that can stop early
    /// (`dead-slot`, `reuse-slots`, `reply-alias`, `merge-prefix`,
    /// `inline-marshal`) override this to actually cap their work.
    ///
    /// # Errors
    /// Same as [`MirPass::run`].
    fn run_budgeted(
        &self,
        mir: &mut StubPlans,
        cx: &PassCx,
        budget: &PassBudget,
    ) -> PlanResult<(u64, bool)> {
        let d = self.run(mir, cx)?;
        Ok((d, budget.decisions.is_some_and(|b| d > b)))
    }
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
    /// How lowering schedules independent stubs.
    pub parallel: Parallelism,
    /// Per-pass decision budget: a pass exceeding it reports an
    /// overrun (and, where supported, stops making new decisions).
    pub budget: Option<u64>,
    /// Per-pass wall-time budget in milliseconds: a pass running past
    /// it reports an `ms` overrun (and, where supported, stops making
    /// new decisions at the deadline).
    pub budget_ms: Option<u64>,
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
            budget: None,
            budget_ms: None,
        }
    }

    /// The budget one pass invocation runs under (the wall-time budget
    /// becomes a fresh deadline per pass).
    pub(crate) fn pass_budget(&self) -> PassBudget {
        PassBudget {
            decisions: self.budget,
            deadline: self
                .budget_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
        }
    }

    /// A stable fingerprint of everything about this pipeline that can
    /// change its *output*: the pass list (names, order, per-pass
    /// configuration), the lowering options, and the decision budget.
    /// `verify` and `parallel` are deliberately excluded — they affect
    /// only how the same result is computed.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.passes.len() as u64);
        for pass in &self.passes {
            h.write_str(pass.name());
            pass.config_hash(&mut h);
        }
        h.write_bool(self.lower.param_mgmt);
        for budget in [self.budget, self.budget_ms] {
            match budget {
                None => h.write_tag(0),
                Some(b) => {
                    h.write_tag(1);
                    h.write_u64(b);
                }
            }
        }
        h.finish()
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

/// The result of one pipeline run.
#[derive(Debug)]
pub struct PipelineRun {
    /// The optimized MIR.
    pub mir: StubPlans,
    /// Per-pass timing + decision spans, in execution order
    /// (lowering first).
    pub passes: Vec<PassSpan>,
    /// The rendered `--dump-mir` output, if requested.
    pub mir_dump: Option<String>,
    /// Names of passes that overran the decision budget.
    pub overruns: Vec<&'static str>,
    /// `(pass, ms over)` for passes that ran past the wall-time
    /// budget.
    pub overruns_ms: Vec<(&'static str, u64)>,
}

/// Lowers `presc` and runs every scheduled pass over it.
///
/// # Errors
/// Returns a message if lowering or a pass fails, if the verifier
/// rejects an intermediate MIR, or if `dump` names a pass that never
/// ran.
pub fn run_pipeline(
    presc: &PresC,
    enc: &Encoding,
    pipeline: &PassPipeline,
    dump: Option<&MirDump>,
) -> PlanResult<PipelineRun> {
    let cx = PassCx { presc, enc };
    let t0 = Instant::now();
    let mut mir = lower_presc(presc, enc, pipeline.lower, pipeline.parallel)?;
    let mut spans = vec![PassSpan {
        name: "lower",
        ns: t0.elapsed().as_nanos() as u64,
        decisions: mir.stubs.len() as u64,
    }];
    if pipeline.verify {
        verify(&mir, presc, enc).map_err(|e| format!("MIR verify after lowering: {e}"))?;
    }
    let mut mir_dump = dump
        .filter(|d| d.after.as_deref() == Some("lower"))
        .map(|_| mir::dump(&mir));

    let mut overruns = Vec::new();
    let mut overruns_ms = Vec::new();
    for pass in &pipeline.passes {
        let t = Instant::now();
        let budget = pipeline.pass_budget();
        let (decisions, overran) = pass
            .run_budgeted(&mut mir, &cx, &budget)
            .map_err(|e| format!("pass {}: {e}", pass.name()))?;
        let ns = t.elapsed().as_nanos() as u64;
        if overran {
            overruns.push(pass.name());
        }
        if let Some(over) = ms_overrun(pipeline.budget_ms, ns) {
            overruns_ms.push((pass.name(), over));
        }
        spans.push(PassSpan {
            name: pass.name(),
            ns,
            decisions,
        });
        if pipeline.verify {
            verify(&mir, presc, enc)
                .map_err(|e| format!("MIR verify after {}: {e}", pass.name()))?;
        }
        if dump.is_some_and(|d| d.after.as_deref() == Some(pass.name())) {
            mir_dump = Some(mir::dump(&mir));
        }
    }

    gc_outlines(&mut mir);
    if pipeline.verify {
        verify(&mir, presc, enc).map_err(|e| format!("MIR verify after outline GC: {e}"))?;
    }

    match dump {
        Some(MirDump { after: None }) => mir_dump = Some(mir::dump(&mir)),
        Some(MirDump { after: Some(name) }) if mir_dump.is_none() => {
            return Err(format!(
                "--dump-mir: pass `{name}` did not run (disabled or not scheduled)"
            ));
        }
        _ => {}
    }

    Ok(PipelineRun {
        mir,
        passes: spans,
        mir_dump,
        overruns,
        overruns_ms,
    })
}

/// How many milliseconds (at least 1) a pass of `ns` wall time ran
/// past the `budget_ms` wall-time budget, if it did.
pub(crate) fn ms_overrun(budget_ms: Option<u64>, ns: u64) -> Option<u64> {
    let ms = budget_ms?;
    let limit = ms.saturating_mul(1_000_000);
    if ns > limit {
        Some(((ns - limit) / 1_000_000).max(1))
    } else {
        None
    }
}

/// The per-stub unit of work the plan cache stores: one stub lowered
/// and optimized in isolation.
#[derive(Debug)]
pub(crate) struct StubUnit {
    /// The optimized single-stub MIR (demux decision not yet made).
    pub mir: StubPlans,
    /// Per-pass spans for this unit (lowering first).
    pub passes: Vec<PassSpan>,
    /// Passes that overran the decision budget on this unit.
    pub overruns: Vec<&'static str>,
    /// `(pass, ms over)` wall-time overruns on this unit.
    pub overruns_ms: Vec<(&'static str, u64)>,
}

/// Lowers and optimizes a *single* stub through every scheduled pass
/// except the module-wide ones (`demux-switch` and `merge-prefix`
/// need every stub's request code at once, so the caller runs them
/// over the merged module).  All other passes only read the stub they
/// rewrite, which is what makes per-stub caching sound.
///
/// # Errors
/// Same failure modes as [`run_pipeline`].
pub(crate) fn run_stub_pipeline(
    presc: &PresC,
    enc: &Encoding,
    pipeline: &PassPipeline,
    stub: &Stub,
) -> PlanResult<StubUnit> {
    let cx = PassCx { presc, enc };
    let t0 = Instant::now();
    let (plan, outlines) = lower_stub(presc, enc, pipeline.lower, stub)?;
    let mut mir = StubPlans {
        stubs: vec![plan],
        outlines,
        hoist: false,
        memcpy: false,
        demux: crate::mir::Demux::Linear,
    };
    let mut spans = vec![PassSpan {
        name: "lower",
        ns: t0.elapsed().as_nanos() as u64,
        decisions: 1,
    }];
    if pipeline.verify {
        verify(&mir, presc, enc)
            .map_err(|e| format!("MIR verify after lowering `{}`: {e}", stub.name))?;
    }
    let mut overruns = Vec::new();
    let mut overruns_ms = Vec::new();
    for pass in &pipeline.passes {
        if MODULE_WIDE_PASSES.contains(&pass.name()) {
            continue;
        }
        let t = Instant::now();
        let budget = pipeline.pass_budget();
        let (decisions, overran) = pass
            .run_budgeted(&mut mir, &cx, &budget)
            .map_err(|e| format!("pass {} on `{}`: {e}", pass.name(), stub.name))?;
        let ns = t.elapsed().as_nanos() as u64;
        if overran {
            overruns.push(pass.name());
        }
        if let Some(over) = ms_overrun(pipeline.budget_ms, ns) {
            overruns_ms.push((pass.name(), over));
        }
        spans.push(PassSpan {
            name: pass.name(),
            ns,
            decisions,
        });
        if pipeline.verify {
            verify(&mir, presc, enc)
                .map_err(|e| format!("MIR verify after {} on `{}`: {e}", pass.name(), stub.name))?;
        }
    }
    gc_outlines(&mut mir);
    if pipeline.verify {
        verify(&mir, presc, enc)
            .map_err(|e| format!("MIR verify after outline GC on `{}`: {e}", stub.name))?;
    }
    Ok(StubUnit {
        mir,
        passes: spans,
        overruns,
        overruns_ms,
    })
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
        let run = run_pipeline(&p, &Encoding::xdr(), &pipe, None).expect("runs");
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

        let mut budgeted = PassPipeline::from_opts(&OptFlags::all());
        budgeted.budget = Some(3);
        assert_ne!(base.fingerprint(), budgeted.fingerprint());
    }

    #[test]
    fn budget_overrun_reported_and_inline_stops_early() {
        let p = presc(IDL, "I");
        let mut opts = OptFlags::all();
        opts.chunking = false; // keep Outline call sites for inline-marshal
        let mut pipe = PassPipeline::from_opts(&opts);
        pipe.budget = Some(0);
        let run = run_pipeline(&p, &Encoding::xdr(), &pipe, None).expect("runs");
        assert!(
            run.overruns.contains(&"inline-marshal"),
            "{:?}",
            run.overruns
        );
        let inl = run
            .passes
            .iter()
            .find(|s| s.name == "inline-marshal")
            .unwrap();
        assert_eq!(inl.decisions, 0, "budget 0 means no inlining decisions");
        assert!(
            run.mir.outlines.contains_key("Rect"),
            "un-inlined call sites must still resolve: {:?}",
            run.mir.outlines.keys().collect::<Vec<_>>()
        );

        // A generous budget changes nothing and reports no overruns.
        let mut roomy = PassPipeline::from_opts(&opts);
        roomy.budget = Some(1_000_000);
        let run = run_pipeline(&p, &Encoding::xdr(), &roomy, None).expect("runs");
        assert!(run.overruns.is_empty(), "{:?}", run.overruns);
    }

    #[test]
    fn wall_time_budget_zero_stops_passes_and_reports_ms_overruns() {
        let p = presc(IDL, "I");
        let mut opts = OptFlags::all();
        opts.chunking = false; // keep Outline call sites for inline-marshal
        let mut pipe = PassPipeline::from_opts(&opts);
        // A 0 ms budget makes every pass's deadline already past: the
        // early-stopping passes must make no decisions, and every pass
        // must report an ms overrun of at least 1.
        pipe.budget_ms = Some(0);
        let run = run_pipeline(&p, &Encoding::xdr(), &pipe, None).expect("runs");
        let inl = run
            .passes
            .iter()
            .find(|s| s.name == "inline-marshal")
            .unwrap();
        assert_eq!(inl.decisions, 0, "deadline already past: no inlining");
        assert!(
            run.mir.outlines.contains_key("Rect"),
            "un-inlined call sites must still resolve"
        );
        let named: Vec<_> = run.overruns_ms.iter().map(|(n, _)| *n).collect();
        assert_eq!(named, pipe.pass_names(), "every pass overran 0 ms");
        assert!(run.overruns_ms.iter().all(|&(_, ms)| ms >= 1));

        // A generous wall-time budget reports nothing.
        let mut roomy = PassPipeline::from_opts(&opts);
        roomy.budget_ms = Some(60_000);
        let run = run_pipeline(&p, &Encoding::xdr(), &roomy, None).expect("runs");
        assert!(run.overruns_ms.is_empty(), "{:?}", run.overruns_ms);
    }

    #[test]
    fn wall_time_budget_is_in_the_fingerprint() {
        let base = PassPipeline::from_opts(&OptFlags::all());
        let mut timed = PassPipeline::from_opts(&OptFlags::all());
        timed.budget_ms = Some(5);
        assert_ne!(base.fingerprint(), timed.fingerprint());
        // Decision and wall-time budgets of the same value must not
        // collide.
        let mut dec = PassPipeline::from_opts(&OptFlags::all());
        dec.budget = Some(5);
        assert_ne!(dec.fingerprint(), timed.fingerprint());
    }

    #[test]
    fn stub_pipeline_skips_demux_and_matches_module_run() {
        let p = presc(IDL, "I");
        let pipe = PassPipeline::from_opts(&OptFlags::all());
        let unit = run_stub_pipeline(&p, &Encoding::xdr(), &pipe, &p.stubs[0]).expect("runs");
        assert_eq!(unit.mir.demux, Demux::Linear);
        assert!(!unit.passes.iter().any(|s| s.name == "demux-switch"));
        let whole = run_pipeline(&p, &Encoding::xdr(), &pipe, None).expect("runs");
        assert_eq!(
            format!("{:?}", unit.mir.stubs[0]),
            format!("{:?}", whole.mir.stubs[0]),
            "per-stub optimization must match the whole-module result"
        );
        assert_eq!(
            format!("{:?}", unit.mir.outlines),
            format!("{:?}", whole.mir.outlines)
        );
    }

    #[test]
    fn disabling_demux_falls_back_to_linear() {
        let p = presc(IDL, "I");
        let mut pipe = PassPipeline::from_opts(&OptFlags::all());
        pipe.disable("demux-switch").unwrap();
        let run = run_pipeline(&p, &Encoding::xdr(), &pipe, None).expect("runs");
        assert_eq!(run.mir.demux, Demux::Linear);
        let run = run_pipeline(
            &p,
            &Encoding::xdr(),
            &PassPipeline::from_opts(&OptFlags::all()),
            None,
        )
        .expect("runs");
        assert!(matches!(run.mir.demux, Demux::Trie(_)));
    }

    #[test]
    fn dump_mir_after_pass_and_at_end() {
        let p = presc(IDL, "I");
        let pipe = PassPipeline::from_opts(&OptFlags::all());
        let run = run_pipeline(&p, &Encoding::xdr(), &pipe, Some(&MirDump { after: None }))
            .expect("runs");
        let dump = run.mir_dump.expect("final dump");
        assert!(dump.contains("stub "), "{dump}");
        let run = run_pipeline(
            &p,
            &Encoding::xdr(),
            &pipe,
            Some(&MirDump {
                after: Some("form-chunks".to_string()),
            }),
        )
        .expect("runs");
        assert!(run.mir_dump.expect("after-pass dump").contains("packed"));
        // A dump point that never runs is a pipeline error.
        let mut no_chunks = PassPipeline::from_opts(&OptFlags::all());
        no_chunks.disable("form-chunks").unwrap();
        let err = run_pipeline(
            &p,
            &Encoding::xdr(),
            &no_chunks,
            Some(&MirDump {
                after: Some("form-chunks".to_string()),
            }),
        )
        .unwrap_err();
        assert!(err.contains("did not run"), "{err}");
    }
}
