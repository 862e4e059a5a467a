//! Exact metrics repeat exactly.
//!
//! The allocation counters are process-wide, so this file holds one
//! test only: nothing else may allocate while it counts.

use flick_perf::inputs;
use flick_perf::run::{run_passes, Depth, WorkloadRun};

fn smoke(name: &str, seed: u64) -> WorkloadRun {
    let run = run_passes(name, seed, 0.2, None, Depth::Smoke);
    assert_eq!(run.failed, 0, "{name}: {:?}", run.failures);
    run
}

/// Exact metrics are counts: two runs of one seed in one process agree
/// to the last bit, and another seed changes the inputs but not the
/// shape of the counts.
#[test]
fn counts_repeat_exactly_and_keep_their_shape_across_seeds() {
    for name in ["rpc_small", "bridge", "fanin"] {
        let (a, b, other) = (smoke(name, 1), smoke(name, 1), smoke(name, 2));
        for (x, y) in [(&a, &b), (&a, &other)] {
            assert_eq!(
                x.e2e.bytes_out_per_op.to_bits(),
                y.e2e.bytes_out_per_op.to_bits(),
                "{name}"
            );
            assert_eq!(
                x.e2e.allocs_per_op.to_bits(),
                y.e2e.allocs_per_op.to_bits(),
                "{name}"
            );
            assert_eq!(
                x.counts.alloc_bytes_per_op.to_bits(),
                y.counts.alloc_bytes_per_op.to_bits()
            );
            assert!(x.counts.peak_heap_bytes > 0);
            for (cx, cy) in x.cell_counts.iter().zip(&y.cell_counts) {
                assert_eq!(cx.name, cy.name);
                assert_eq!(
                    cx.bytes_out_per_op, cy.bytes_out_per_op,
                    "{name}/{}",
                    cx.name
                );
                assert_eq!(cx.allocs_per_op, cy.allocs_per_op, "{name}/{}", cx.name);
            }
        }
        // The first run of a process also pays one-time lazy
        // initialisation after its single set-up took the heap
        // baseline (a full run takes it at the fifth), so the peak is
        // compared between the later two.
        assert_eq!(
            b.counts.peak_heap_bytes, other.counts.peak_heap_bytes,
            "{name}"
        );
    }
    // The inputs themselves do differ.
    let mut r1 = inputs::Rng::new(1, 9);
    let mut r2 = inputs::Rng::new(2, 9);
    assert_ne!(inputs::ints(&mut r1, 16), inputs::ints(&mut r2, 16));
    assert_ne!(
        inputs::wide_idl(1, 0, inputs::WIDE_OPS),
        inputs::wide_idl(2, 0, inputs::WIDE_OPS)
    );
}
