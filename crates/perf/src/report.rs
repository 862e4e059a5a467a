//! Result documents: what a run prints and what `--compare` reads.

use crate::json::Value;
use crate::ledger::Ledger;
use crate::metrics;
use crate::run::WorkloadRun;

fn metric(value: f64, unit: &str) -> Value {
    Value::obj([
        ("value", Value::Num(value)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

/// The seven end-to-end metrics of `run` as `(name, value, unit)`, in
/// declared order.
///
/// # Panics
/// When the metric table declares a name this function does not know.
#[must_use]
pub fn end_to_end(run: &WorkloadRun) -> Vec<(String, f64, &'static str)> {
    let e = &run.e2e;
    metrics::end_to_end()
        .into_iter()
        .map(|d| {
            let value = match d.name.as_str() {
                "setup_s" => e.setup_s,
                "ops_per_s" => e.ops_per_s,
                "op_p50_us" => e.op_p50_us,
                "payload_MBps" => e.payload_mbps,
                "bytes_out_per_op" => e.bytes_out_per_op,
                "allocs_per_op" => e.allocs_per_op,
                "peak_heap_kb" => e.peak_heap_kb,
                other => panic!("no end-to-end metric `{other}`"),
            };
            (d.name, value, d.unit)
        })
        .collect()
}

fn metrics_object(values: &[(String, f64, &'static str)]) -> Value {
    Value::obj(values.iter().map(|(n, v, u)| (n.clone(), metric(*v, u))))
}

/// The one-line object a single-workload run ends with: exactly
/// `correct`, `attempted`, `failed` and `metrics`.
#[must_use]
pub fn last_line(attempted: u64, failed: u64, values: &[(String, f64, &'static str)]) -> String {
    Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics_object(values)),
    ])
    .render()
}

/// One workload's entry in a result document.
#[must_use]
pub fn workload_entry(run: &WorkloadRun) -> Value {
    let cells = run
        .cells
        .iter()
        .zip(&run.cell_counts)
        .map(|(t, c)| {
            Value::obj([
                ("name", Value::Str(t.name.clone())),
                ("ops_per_batch", Value::Num(t.ops_per_batch as f64)),
                ("batches", Value::Num(t.batches as f64)),
                ("ns_per_op", Value::Num(t.ns_per_op)),
                ("raw_ns_per_op", Value::Num(t.raw_ns_per_op)),
                ("p50_ns", Value::Num(t.p50_ns())),
                ("bytes_out_per_op", Value::Num(c.bytes_out_per_op)),
                ("allocs_per_op", Value::Num(c.allocs_per_op)),
                ("attempted", Value::Num(t.attempted as f64)),
                ("failed", Value::Num(t.failed as f64)),
            ])
        })
        .collect();
    Value::obj([
        ("correct", Value::Bool(run.failed == 0)),
        ("attempted", Value::Num(run.attempted as f64)),
        ("failed", Value::Num(run.failed as f64)),
        ("disturbed", Value::Bool(run.host.disturbed())),
        ("ref_samples", Value::Num(run.host.samples as f64)),
        ("raw_ops_per_s", Value::Num(run.raw_ops_per_s)),
        ("raw_setup_s", Value::Num(run.setup_raw_s)),
        ("end_to_end", metrics_object(&end_to_end(run))),
        ("cells", Value::Arr(cells)),
    ])
}

/// One workload's ledger entry in a result document.
#[must_use]
pub fn ledger_entry(ledger: &Ledger) -> Value {
    Value::obj([
        ("correct", Value::Bool(ledger.failed == 0)),
        ("attempted", Value::Num(ledger.attempted as f64)),
        ("failed", Value::Num(ledger.failed as f64)),
        ("disturbed", Value::Bool(ledger.disturbed)),
        ("per_layer", metrics_object(&ledger.values)),
    ])
}

/// Prints `values` one per line, `scope/name value unit`.
pub fn print_metrics(scope: &str, values: &[(String, f64, &'static str)]) {
    for (name, value, unit) in values {
        println!("{scope}/{name:<44} {value:>16.6} {unit}");
    }
}

/// Prints what a run saw of each cell.
pub fn print_cells(run: &WorkloadRun) {
    for (t, c) in run.cells.iter().zip(&run.cell_counts) {
        println!(
            "{}/cell {:<28} {:>12.1} ns/op (raw {:>12.1}) median of {:>5} batches x {:>4} ops; {:>9.1} B out, {:>9.2} allocs per op",
            run.name, t.name, t.ns_per_op, t.raw_ns_per_op, t.batches, t.ops_per_batch,
            c.bytes_out_per_op, c.allocs_per_op
        );
    }
    println!(
        "{}/host ref {:.0} ns (nominal {:.0}), spread p90/p10 {:.2} over {} samples{}",
        run.name,
        run.host.ref_ns,
        crate::refk::REF_NOMINAL_NS,
        run.host.ref_spread,
        run.host.samples,
        if run.host.disturbed() {
            " -- DISTURBED: the reference itself moved more than 1.5x"
        } else {
            ""
        }
    );
    println!(
        "{}/ops attempted {} failed {} ({:.4}% of attempted)",
        run.name,
        run.attempted,
        run.failed,
        100.0 * run.failed as f64 / run.attempted.max(1) as f64
    );
    for f in &run.failures {
        println!("{}/FAILED {f}", run.name);
    }
}
