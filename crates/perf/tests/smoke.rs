//! End-to-end checks of the benchmark itself: every workload runs with
//! its checks on, exact metrics repeat, the reference kernel is pinned,
//! and `BENCHMARK.json` says what the code says.

use flick_perf::json::{self, Value};
use flick_perf::run::{run_passes, Depth, WorkloadRun};
use flick_perf::{ledger, metrics, refk, workloads};

fn smoke(name: &str, seed: u64) -> WorkloadRun {
    let run = run_passes(name, seed, 0.2, None, Depth::Smoke);
    assert_eq!(run.failed, 0, "{name}: {:?}", run.failures);
    assert!(run.failures.is_empty(), "{name}: {:?}", run.failures);
    assert!(run.attempted > 0);
    run
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    for w in &workloads::ALL {
        let run = smoke(w.name, 1);
        let e = &run.e2e;
        for (metric, value) in [
            ("setup_s", e.setup_s),
            ("ops_per_s", e.ops_per_s),
            ("op_p50_us", e.op_p50_us),
            ("payload_MBps", e.payload_mbps),
            ("bytes_out_per_op", e.bytes_out_per_op),
            ("allocs_per_op", e.allocs_per_op),
        ] {
            assert!(
                value.is_finite() && value > 0.0,
                "{}/{metric} = {value}",
                w.name
            );
        }
        // The heap counters are process-wide and other tests run beside
        // this one, so the peak is only exact in `exact_counts.rs`.
        assert!(e.peak_heap_kb.is_finite());
        for cell in &run.cells {
            assert!(
                cell.batches > 0 && cell.attempted > 0,
                "{}/{}",
                w.name,
                cell.name
            );
        }
    }
}

/// The reference kernel is frozen: if this hash moves, every recorded
/// number is on a different scale.
#[test]
fn reference_kernel_output_is_pinned() {
    assert_eq!(refk::work(), REFK_HASH);
    assert_eq!(refk::work(), refk::work());
    assert!(refk::sample() > 0.0);
    assert_eq!(
        refk::normalize(3.0 * 50_000.0, 40_000.0, 60_000.0),
        3.0 * refk::REF_NOMINAL_NS
    );
}

const REFK_HASH: u64 = 991_180_898_415_770_372;

#[test]
fn the_ledger_fills_every_declared_row() {
    let ledger = ledger::fill("fanin", 1, 1.0);
    assert_eq!(ledger.failed, 0, "{:?}", ledger.failures);
    let declared = metrics::per_layer();
    assert_eq!(ledger.values.len(), declared.len());
    for ((name, value, unit), d) in ledger.values.iter().zip(&declared) {
        assert_eq!((name, unit), (&d.name, &d.unit));
        // Tracing overhead is a difference of two noisy numbers.
        let signed = name == "trace.overhead_share";
        assert!(
            value.is_finite() && (signed || *value >= 0.0),
            "{name} = {value}"
        );
    }
    let get = |n: &str| {
        ledger
            .values
            .iter()
            .find(|(name, _, _)| name == n)
            .unwrap()
            .1
    };
    assert_eq!(get("runtime.context.blob_bytes"), 24.0);
    assert_eq!(get("fabric.shed_share"), 0.0);
    assert_eq!(get("bridge.rejected_share"), 0.0);
    assert!(get("compile.cache.hit_share") > 0.9);
    assert!(get("fabric.replies_per_read") > 1.0, "replies are batched");
    // Spans were kept for every workload that has any.
    for (workload, spans) in &ledger.spans {
        assert_eq!(spans.is_empty(), workload == "marshal", "{workload}");
    }
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    v.elements()
        .iter()
        .map(|e| match e.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("`{key}` is {other:?}"),
        })
        .collect()
}

/// `BENCHMARK.json` is what `--describe` prints, and stays within the
/// gate's limits.
#[test]
fn benchmark_json_agrees_with_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text.trim_end(),
        metrics::benchmark_json(),
        "run `flick-perf --describe > BENCHMARK.json`"
    );
    let doc = json::parse(&text).expect("valid JSON");
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names = strings(doc.get("workloads").unwrap(), "name");
    assert_eq!(names, workloads::ALL.map(|w| w.name.to_string()));
    for why in strings(doc.get("workloads").unwrap(), "why") {
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let e2e = strings(doc.get("end_to_end").unwrap(), "name");
    assert!(e2e.contains(&"setup_s".to_string()));
    let per_layer = strings(doc.get("per_layer").unwrap(), "name");
    assert!((1..=128).contains(&per_layer.len()));
    let mut all: Vec<String> = names.into_iter().chain(e2e).chain(per_layer).collect();
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    assert!(all.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
    all.sort();
    let before = all.len();
    all.dedup();
    assert_eq!(all.len(), before, "a name is used once");
    for d in doc.get("end_to_end").unwrap().elements() {
        let bound = d.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
}
