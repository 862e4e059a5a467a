//! The command line: one workload for the gate, all six for people.

use crate::json::{self, Value};
use crate::ledger;
use crate::report;
use crate::run::{self, Depth};
use crate::stats;
use crate::{compare, metrics, trace, workloads};

const USAGE: &str = "\
flick-perf: host-drift-corrected benchmark of the flick stack

  flick-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
             [--repeat N] [--out FILE] [--trace-out FILE]
  flick-perf --compare PARENT.json CHANGE.json
  flick-perf --describe

  --workload NAME  run one of: marshal rpc_small rpc_bulk fanin bridge compile
                   (default: all six, one after the other)
  --seed N         seed for payload values, xid bases, cell order and the
                   synthetic IDL (default 1)
  --seconds S      measuring time per workload (default 12); both sides of a
                   comparison must use the same value
  --trace 0|1      0: end-to-end metrics (default); 1: the traced layer
                   ledger instead, and spans to trace.json
  --repeat N       run N full sets and record each end-to-end metric's
                   (max-min)/median beside its bound under `noise`;
                   exits non-zero if a spread exceeds its bound
  --out FILE       write the result document (what --compare reads)
  --trace-out FILE where a traced run writes its spans (default trace.json)
  --describe       print BENCHMARK.json as this build declares it

With --workload, the last line of output is one JSON object with exactly the
keys correct, attempted, failed and metrics.  Any failed op makes the exit
status non-zero.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<String>,
    trace_out: String,
    compare: Option<(String, String)>,
    describe: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
        repeat: 1,
        out: None,
        trace_out: "trace.json".to_string(),
        compare: None,
        describe: false,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w = value(&mut it, flag)?;
                if !workloads::exists(&w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed: not a number")?
            }
            "--seconds" => {
                a.seconds = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seconds: not a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--repeat" => {
                a.repeat = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--repeat: not a number")?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--out" => a.out = Some(value(&mut it, flag)?),
            "--trace-out" => a.trace_out = value(&mut it, flag)?,
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            "--describe" => a.describe = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn read_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// What one workload's run contributes to the output.
struct Outcome {
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64, &'static str)>,
    entry: Value,
}

/// One workload, one set: the end-to-end run, or the ledger (whose
/// kept spans replace `spans`).
fn one(name: &str, a: &Args, spans: &mut Vec<(String, Vec<trace::Span>)>) -> Outcome {
    if a.trace {
        let ledger = ledger::fill(name, a.seed, a.seconds);
        report::print_metrics(name, &ledger.values);
        for f in &ledger.failures {
            println!("{name}/FAILED {f}");
        }
        if ledger.disturbed {
            println!("{name}/host DISTURBED: the reference itself moved more than 1.5x");
        }
        let entry = report::ledger_entry(&ledger);
        *spans = ledger.spans;
        Outcome {
            attempted: ledger.attempted,
            failed: ledger.failed,
            values: ledger.values,
            entry,
        }
    } else {
        let run = run::run_passes(name, a.seed, a.seconds, None, Depth::Full);
        let values = report::end_to_end(&run);
        report::print_metrics(name, &values);
        report::print_cells(&run);
        Outcome {
            attempted: run.attempted,
            failed: run.failed,
            values,
            entry: report::workload_entry(&run),
        }
    }
}

/// Runs the command line `args` (without the program name); returns
/// the process exit status.
#[must_use]
pub fn main(args: &[String]) -> i32 {
    let a = match parse_args(args) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return 0;
        }
        Err(e) => {
            eprintln!("flick-perf: {e}\n\n{USAGE}");
            return 2;
        }
    };
    if a.describe {
        println!("{}", metrics::benchmark_json());
        return 0;
    }
    if let Some((parent, change)) = &a.compare {
        return match (read_doc(parent), read_doc(change)) {
            (Ok(p), Ok(c)) => i32::from(compare::print(&p, &c) > 0),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("flick-perf: {e}");
                2
            }
        };
    }

    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::ALL.iter().map(|w| w.name).collect(),
    };
    let mut spans = Vec::new();
    let mut runs = Vec::new();
    // workload × metric → one value per set, for `noise`.
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = String::new();
    for set in 0..a.repeat {
        if a.repeat > 1 {
            println!("== set {} of {}", set + 1, a.repeat);
        }
        let mut entries = Vec::new();
        for name in &names {
            let done = one(name, &a, &mut spans);
            attempted += done.attempted;
            failed += done.failed;
            if !a.trace {
                for (metric, value, _) in &done.values {
                    match series.iter_mut().find(|(w, m, _)| w == name && m == metric) {
                        Some((_, _, v)) => v.push(*value),
                        None => series.push((name.to_string(), metric.clone(), vec![*value])),
                    }
                }
            }
            last = report::last_line(done.attempted, done.failed, &done.values);
            entries.push((name.to_string(), done.entry));
        }
        runs.push(Value::obj([("workloads", Value::Obj(entries))]));
    }

    // The variance lives in the file, next to the bound it is held to.
    let mut too_noisy = false;
    let mut noise = Vec::new();
    if a.repeat > 1 {
        let bounds = metrics::end_to_end();
        for (w, m, values) in &series {
            let bound = bounds
                .iter()
                .find(|d| d.name == *m)
                .and_then(|d| d.bound)
                .unwrap_or(0.0);
            let spread = stats::range_share(values);
            let over = spread > bound;
            too_noisy |= over;
            println!(
                "noise {w}/{m:<17} (max-min)/median {spread:.5} bound {bound} over {} sets{}",
                values.len(),
                if over { " -- EXCEEDS ITS BOUND" } else { "" }
            );
            noise.push((
                format!("{w}/{m}"),
                Value::obj([("spread", Value::Num(spread)), ("bound", Value::Num(bound))]),
            ));
        }
    }

    if a.trace {
        if let Err(e) = std::fs::write(&a.trace_out, trace::to_json(&spans)) {
            eprintln!("flick-perf: {}: {e}", a.trace_out);
            return 2;
        }
    }
    if let Some(path) = &a.out {
        let doc = Value::obj([
            ("bench", Value::Str("flick-perf".to_string())),
            ("seed", Value::Num(a.seed as f64)),
            ("seconds", Value::Num(a.seconds)),
            ("traced", Value::Bool(a.trace)),
            ("runs", Value::Arr(runs)),
            ("noise", Value::Obj(noise)),
        ]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("flick-perf: {path}: {e}");
            return 2;
        }
    }
    println!(
        "total attempted {attempted} failed {failed} ({:.4}% of attempted)",
        100.0 * failed as f64 / attempted.max(1) as f64
    );
    if a.workload.is_some() && a.repeat == 1 {
        println!("{last}");
    }
    i32::from(failed > 0 || too_noisy)
}
