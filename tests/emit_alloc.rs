//! The emission allocation budget: the Rust emitter writes through one
//! buffer and borrows the plan (DESIGN "How the emitters write"), so
//! what it takes from the heap is small, and independent of how deep
//! the plan nests.
//!
//! Counted, not timed: the measuring thread's own allocation events
//! (`flick_bench::allocwatch`) around each compiler phase of three
//! canonical modules.  The per-phase counts are printed so
//! EXPERIMENTS.md can quote them (`--nocapture`); only emission is held
//! to a ceiling here.

use flick::{BackEnd, Frontend};
use flick_backend::mir::PlanNode;
use flick_backend::{emit_c, emit_rust, passes, StubPlans};
use flick_bench::allocwatch::{thread_alloc_events, PeakAlloc};
use flick_bench::regen::{self, Job};
use flick_idl::diag::Diagnostics;
use flick_pres::{PresC, Side};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = thread_alloc_events();
    let out = f();
    (out, thread_alloc_events() - before)
}

fn job(out_name: &str) -> Job {
    let found = regen::jobs().into_iter().find(|j| j.out_name == out_name);
    found.expect("a canonical module")
}

/// Compiles `job` phase by phase; returns the presentation, the plans
/// and the back end for further emission, and the emit-rust count.
fn phases(job: &Job) -> (PresC, StubPlans, BackEnd, usize) {
    let mut diags = Diagnostics::new();
    let (aoi, parse) = counted(|| match job.frontend {
        Frontend::Corba => flick_frontend_corba::parse_str(job.file, job.source),
        Frontend::Onc => flick_frontend_onc::parse_str(job.file, job.source),
        Frontend::Mig => unreachable!("no canonical module is a MIG subsystem"),
    });
    let (presc, presgen) = counted(|| {
        let presc = job
            .style
            .generate(&aoi, job.iface, Side::Server, &mut diags);
        presc.expect("presentation")
    });
    let mut be = BackEnd::new(job.transport);
    be.passes = job.opts;
    let (planned, plan) = counted(|| {
        passes::plan_module(&presc, &be.encoding, be.passes, false, None, None).expect("plan")
    });
    let (_, c) = counted(|| {
        let unit = emit_c::emit(&presc, &planned.mir, &be);
        flick_cast::Printer::new().unit(&unit)
    });
    let (rust, emit) = counted(|| emit_rust::emit(&presc, &planned.mir, &be).expect("emit"));
    println!(
        "{:<16} parse {parse:>5}  presgen {presgen:>5}  plan {plan:>5}  \
         emit-c+print-c {c:>5}  emit-rust {emit:>5}  ({} bytes of Rust)",
        job.out_name,
        rust.len()
    );
    (presc, planned.mir, be, emit)
}

#[test]
fn emission_stays_within_its_allocation_budget() {
    // Ceilings one above the counts this emitter landed with, 11 / 10 /
    // 6 (its predecessor: 1 598 / 1 504 / 216).
    for (module, ceiling) in [
        ("onc_bench.rs", 12),
        ("varied_iiop.rs", 11),
        ("list_onc.rs", 7),
    ] {
        let (.., emit) = phases(&job(module));
        assert!(
            emit <= ceiling,
            "{module}: emit_rust made {emit} allocations, budget {ceiling}"
        );
    }
}

/// `plans` with the first request slot of every stub wrapped in `depth`
/// one-element arrays: the same plan, nested deeper.
fn nested(plans: &StubPlans, depth: usize) -> StubPlans {
    let mut plans = plans.clone();
    for stub in &mut plans.stubs {
        if let Some(slot) = stub.request.slots.first_mut() {
            for _ in 0..depth {
                slot.node = PlanNode::FixedArray {
                    len: 1,
                    elem: Box::new(std::mem::replace(&mut slot.node, PlanNode::Void)),
                    elem_pres: slot.pres,
                    pres: slot.pres,
                    elem_type: String::new(),
                };
            }
        }
    }
    plans
}

#[test]
fn emission_allocations_do_not_grow_with_nesting() {
    let (presc, plans, be, flat) = phases(&job("onc_bench.rs"));
    let count = |depth| {
        let plans = nested(&plans, depth);
        counted(|| emit_rust::emit(&presc, &plans, &be).expect("emit")).1
    };
    let (shallow, deep) = (count(1), count(8));
    println!("onc_bench.rs     emit-rust flat {flat}  nested x1 {shallow}  nested x8 {deep}");
    // An emitter that cloned a subtree to walk it would pay for the
    // wrapped plan again at every level (this one's predecessor: 2 009
    // and 6 339).  The one thing that may differ is a growth of the
    // output buffer, whose first size is a guess.
    assert!(
        deep <= shallow + 1,
        "nesting a plan deeper cost allocations: {shallow} at depth 1, {deep} at depth 8"
    );
}
