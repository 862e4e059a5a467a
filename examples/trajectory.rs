//! The benchmark's trajectory: `BENCH_trajectory.json` at the repository
//! root holds one `flick-perf` result document per landed change, oldest
//! first, and this tool adds to it and gates on it.
//!
//! ```text
//! cargo run --release -p flick-perf -- --seconds 1 --out bench.json
//! cargo run --release --example trajectory -- check bench.json
//! cargo run --release --example trajectory -- append bench.json LABEL DATE
//! ```
//!
//! `check` judges each workload's end-to-end metrics in the document
//! against the trajectory's last entry, with `flick_perf::compare::judge`
//! and the bound `flick-perf` declares for the metric.  An exact count
//! (bytes out, allocations and peak heap per op, which repeat exactly on
//! any host and at any run length) that leaves its bound, either way,
//! fails the check: a regression is a regression, and a gain belongs in
//! the trajectory, so the change that makes it appends its document.  A
//! time metric only warns, because the last entry was measured on
//! another host, on another day.  A document with a failed op fails too.

use std::process::ExitCode;

use flick_perf::compare::{judge, Verdict};
use flick_perf::json::{self, Value};
use flick_perf::metrics;
use flick_perf::stats::median;

/// Where the trajectory lives.
const TRAJECTORY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_trajectory.json");

/// The end-to-end metrics that are counts, not times.
const EXACT: [&str; 3] = ["bytes_out_per_op", "allocs_per_op", "peak_heap_kb"];

/// One workload × metric judged.
struct Row {
    workload: String,
    metric: String,
    last: Vec<f64>,
    fresh: Vec<f64>,
    verdict: Verdict,
    /// An exact count, whose verdict gates.
    exact: bool,
}

/// Every value of `workload`'s end-to-end `metric` across a document's
/// runs.
fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .map_or(&[][..], Value::elements)
        .iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// The workloads a document ran, in its order.
fn workloads(doc: &Value) -> Vec<&str> {
    let first = doc.get("runs").and_then(|r| r.elements().first());
    let ran = first.and_then(|run| run.get("workloads"));
    ran.map_or(&[][..], Value::members)
        .iter()
        .map(|(name, _)| name.as_str())
        .collect()
}

/// How many ops of a document's runs failed.
fn failed(doc: &Value) -> f64 {
    let runs = doc.get("runs").map_or(&[][..], Value::elements);
    runs.iter()
        .flat_map(|run| run.get("workloads").map_or(&[][..], Value::members))
        .filter_map(|(_, w)| w.get("failed")?.as_f64())
        .sum()
}

/// Judges every end-to-end metric of every workload `fresh` ran against
/// `last` (a workload or metric `last` lacks is skipped).
fn judge_docs(last: &Value, fresh: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in workloads(fresh) {
        for d in metrics::end_to_end() {
            let (l, f) = (values(last, w, &d.name), values(fresh, w, &d.name));
            if l.is_empty() || f.is_empty() {
                continue;
            }
            let bound = d.bound.unwrap_or(0.0);
            rows.push(Row {
                workload: w.to_string(),
                verdict: judge(&l, &f, d.better == "higher", bound),
                exact: EXACT.contains(&d.name.as_str()),
                metric: d.name,
                last: l,
                fresh: f,
            });
        }
    }
    rows
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn entries(trajectory: &Value) -> &[Value] {
    trajectory.get("entries").map_or(&[][..], Value::elements)
}

fn check(doc_path: &str) -> Result<bool, String> {
    let trajectory = read(TRAJECTORY)?;
    let last = entries(&trajectory)
        .last()
        .ok_or("the trajectory has no entries")?;
    let label = match last.get("label") {
        Some(Value::Str(label)) => label.as_str(),
        _ => "(unlabelled)",
    };
    let fresh = read(doc_path)?;
    let rows = judge_docs(
        last.get("document").ok_or("an entry without a document")?,
        &fresh,
    );
    if rows.is_empty() {
        return Err(format!("{doc_path}: no workload in common with {label}"));
    }
    println!("against the last entry, {label}:");
    println!(
        "{:<10} {:<17} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "last", "this", "change"
    );
    let mut ok = true;
    for r in &rows {
        let (l, f) = (median(&r.last), median(&r.fresh));
        let verdict = match (r.verdict, r.exact) {
            (Verdict::Unchanged, _) => "unchanged",
            (Verdict::Improved, true) => "IMPROVED: append this document to the trajectory",
            (Verdict::Regressed, true) => "REGRESSED",
            (Verdict::Unresolved, true) => "UNRESOLVED",
            (_, false) => "warning only (time, another host)",
        };
        ok &= !r.exact || r.verdict == Verdict::Unchanged;
        println!(
            "{:<10} {:<17} {l:>16.6} {f:>16.6} {:>+8.3}%  {verdict}",
            r.workload,
            r.metric,
            100.0 * (f / l - 1.0)
        );
    }
    let failures = failed(&fresh);
    if failures > 0.0 {
        println!("{failures} ops failed");
        ok = false;
    }
    println!(
        "trajectory check: {}",
        if ok {
            "ok"
        } else {
            "an exact count left its bound"
        }
    );
    Ok(ok)
}

fn append(doc_path: &str, label: &str, date: &str) -> Result<(), String> {
    let trajectory = read(TRAJECTORY)?;
    let mut kept: Vec<Value> = entries(&trajectory).to_vec();
    kept.push(Value::obj([
        ("label", Value::Str(label.to_string())),
        ("date", Value::Str(date.to_string())),
        ("document", read(doc_path)?),
    ]));
    let about = trajectory.get("about").cloned().unwrap_or(Value::Null);
    // One entry per line, so a change's diff is the line it adds.
    let lines: Vec<String> = kept.iter().map(Value::render).collect();
    let text = format!(
        "{{\"about\": {},\n\"entries\": [\n{}\n]}}\n",
        about.render(),
        lines.join(",\n")
    );
    std::fs::write(TRAJECTORY, text).map_err(|e| format!("{TRAJECTORY}: {e}"))
}

const USAGE: &str = "usage: trajectory check DOC.json | trajectory append DOC.json LABEL DATE";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let done = match args[..] {
        ["check", doc] => check(doc).map(|ok| if ok { 0 } else { 1 }),
        ["append", doc, label, date] => append(doc, label, date).map(|()| 0),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match done {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("trajectory: {e}");
            ExitCode::from(2)
        }
    }
}
