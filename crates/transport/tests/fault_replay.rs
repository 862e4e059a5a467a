//! Deterministic fault replay: a [`FaultPlan`] is a pure function of
//! `(seed, message sequence)`, so re-running the same seed over the
//! same traffic must reproduce the run exactly — the per-kind injected
//! counters AND the sequence of `fault` events in the journal.  That
//! is what makes a flight recording from a failing fuzz run
//! actionable: the schedule it shows can be replayed at will.

use flick_transport::fault::{FaultConfig, FaultPlan, FAULT_KINDS};

/// Runs one seeded plan over a fixed traffic pattern, returning the
/// per-kind injected counters and the journal's fault-kind sequence.
fn run(seed: u64) -> ([u64; FAULT_KINDS.len()], Vec<&'static str>) {
    flick_telemetry::events::journal().reset();
    let mut plan: FaultPlan<Vec<u8>> = FaultPlan::new(FaultConfig {
        reorder: 100,
        truncate: 100,
        bitflip: 100,
        delay: 100,
        ..FaultConfig::lossy(seed, 150, 150)
    });
    for i in 0..400u32 {
        // Varied but deterministic traffic: size cycles with i.
        let msg = vec![i as u8; 8 + (i as usize % 64)];
        let _delivered = plan.apply(msg);
    }
    let counters = FAULT_KINDS.map(|k| plan.injected(k));
    let kinds = flick_telemetry::events::snapshot()
        .into_iter()
        .filter(|e| e.kind == "fault")
        .map(|e| e.op)
        .collect();
    (counters, kinds)
}

#[test]
fn same_seed_replays_counters_and_journal_exactly() {
    flick_telemetry::set_enabled(true);
    let (counters_a, kinds_a) = run(0xFEED_5EED);
    let (counters_b, kinds_b) = run(0xFEED_5EED);

    assert_eq!(
        counters_a, counters_b,
        "same seed, same traffic: identical fault.injected counter vector"
    );
    assert_eq!(
        kinds_a, kinds_b,
        "same seed, same traffic: identical journal event sequence"
    );
    assert!(
        counters_a.iter().sum::<u64>() > 0,
        "the schedule actually injected faults"
    );
    assert_eq!(
        kinds_a.len() as u64,
        counters_a.iter().sum::<u64>(),
        "every injection journaled exactly once"
    );

    // A different seed produces a different schedule (sanity that the
    // equality above is not vacuous).
    let (counters_c, kinds_c) = run(0xDEAD_BEEF);
    assert!(
        counters_a != counters_c || kinds_a != kinds_c,
        "different seed must not replay the same schedule"
    );
    flick_telemetry::set_enabled(false);
}
