//! The compiler's allocation budget.  A name is allocated where it is
//! declared and shared by every IR after (DESIGN "Who owns a name"),
//! phases read their input by reference, and the Rust emitter writes
//! through one buffer and borrows the plan (DESIGN "How the emitters
//! write") — so what a compile takes from the heap is small,
//! independent of how deep the plan nests, and independent of how often
//! a type is used.
//!
//! Counted, not timed: the measuring thread's own allocation events
//! (`flick_bench::allocwatch`) around each compiler phase of three
//! canonical modules.  The per-phase counts are printed so
//! EXPERIMENTS.md can quote them (`--nocapture`).

use flick::{BackEnd, Frontend, Style, Transport};
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

/// Allocation events of the phases held to a ceiling.
#[derive(Clone, Copy, Debug)]
struct Counts {
    parse: usize,
    presgen: usize,
    plan: usize,
    emit_rust: usize,
}

/// Compiles `job` phase by phase; returns the presentation, the plans
/// and the back end for further emission, and the per-phase counts.
fn phases(job: &Job) -> (PresC, StubPlans, BackEnd, Counts) {
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
    let counts = Counts {
        parse,
        presgen,
        plan,
        emit_rust: emit,
    };
    (presc, planned.mir, be, counts)
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
        let (.., c) = phases(&job(module));
        assert!(
            c.emit_rust <= ceiling,
            "{module}: emit_rust made {} allocations, budget {ceiling}",
            c.emit_rust
        );
    }
}

#[test]
fn parse_presgen_and_plan_stay_within_their_allocation_budgets() {
    // Ceilings about a tenth above the counts the phases landed with,
    // per module as parse / presgen / plan: 70 / 93 / 130, 79 / 84 / 70
    // and 36 / 29 / 37.  Before names were shared and inputs borrowed:
    // 255 / 370 / 465, 241 / 360 / 215 and 70 / 105 / 85.
    for (module, ceiling) in [
        ("onc_bench.rs", [77, 103, 143]),
        ("varied_iiop.rs", [87, 93, 77]),
        ("list_onc.rs", [40, 32, 41]),
    ] {
        let (.., c) = phases(&job(module));
        let made = [("parse", c.parse), ("presgen", c.presgen), ("plan", c.plan)];
        for ((phase, made), ceiling) in made.into_iter().zip(ceiling) {
            assert!(
                made <= ceiling,
                "{module}: {phase} made {made} allocations, budget {ceiling}"
            );
        }
    }
}

/// Presgen + plan allocation events for an interface whose `ops`
/// operations all take one struct of `fields` string members.
fn shared_struct_compile(ops: usize, fields: usize) -> usize {
    use std::fmt::Write as _;
    let mut idl = String::from("struct S {");
    for f in 0..fields {
        let _ = write!(idl, " string f{f};");
    }
    idl.push_str(" }; interface I {");
    for o in 0..ops {
        let _ = write!(idl, " void op{o}(in S s);");
    }
    idl.push_str(" };");
    let aoi = flick_frontend_corba::parse_str("shared.idl", &idl);
    let mut diags = Diagnostics::new();
    let be = BackEnd::new(Transport::IiopTcp);
    counted(|| {
        let presc = Style::CorbaC
            .generate(&aoi, "I", Side::Server, &mut diags)
            .expect("presentation");
        passes::plan_module(&presc, &be.encoding, be.passes, false, None, None).expect("plan")
    })
    .1
}

#[test]
fn using_a_type_again_costs_the_same_whatever_its_size() {
    // Eight more operations over the same struct: what they add must
    // not depend on how many members the struct has.  A phase that
    // copied the type per use (a `Type` clone in presgen, a body clone
    // per call site in the planner) would pay per member, per use.
    let added = |fields| shared_struct_compile(16, fields) - shared_struct_compile(8, fields);
    let (small, large) = (added(4), added(32));
    println!("shared struct   8 more ops over 4 members {small}, over 32 members {large}");
    assert_eq!(
        small, large,
        "eight more uses of a struct cost {small} allocations at 4 members, {large} at 32"
    );
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
                    pres: slot.pres,
                    elem_type: Default::default(),
                };
            }
        }
    }
    plans
}

#[test]
fn emission_allocations_do_not_grow_with_nesting() {
    let (presc, plans, be, counts) = phases(&job("onc_bench.rs"));
    let flat = counts.emit_rust;
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
