//! `--compare A.json B.json`: parent against change, metric by metric.

use crate::json::Value;
use crate::metrics;
use crate::stats;

/// What the runs say about one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is better by more than the bound.
    Improved,
    /// Neither side moved by more than the bound.
    Unchanged,
    /// The change's median is worse by more than the bound.
    Regressed,
    /// The run-to-run spread exceeds the bound and the two sides'
    /// runs overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` for a metric where `higher` is
/// better or not, with regression bound `bound`.
#[must_use]
pub fn judge(parent: &[f64], change: &[f64], higher: bool, bound: f64) -> Verdict {
    let (pm, cm) = (stats::median(parent), stats::median(change));
    // Positive when the change is better.
    let gain = if higher { cm / pm - 1.0 } else { 1.0 - cm / pm };
    let spread = |v: &[f64]| {
        let (q1, m, q3) = stats::quartiles(v);
        (q3 - q1) / m
    };
    let noisy = parent.len() > 1 && change.len() > 1 && spread(parent).max(spread(change)) > bound;
    let (pmin, pmax) = (
        stats::sorted(parent)[0],
        *stats::sorted(parent).last().expect("non-empty"),
    );
    let (cmin, cmax) = (
        stats::sorted(change)[0],
        *stats::sorted(change).last().expect("non-empty"),
    );
    let overlap = pmin <= cmax && cmin <= pmax;
    if noisy && overlap {
        Verdict::Unresolved
    } else if gain > bound {
        Verdict::Improved
    } else if gain < -bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Every value of `workload`'s end-to-end `metric` across a
/// document's runs.
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

fn failures(doc: &Value, workload: &str) -> (f64, f64) {
    let sum = |key: &str| -> f64 {
        doc.get("runs")
            .map_or(&[][..], Value::elements)
            .iter()
            .filter_map(|run| run.get("workloads")?.get(workload)?.get(key)?.as_f64())
            .sum()
    };
    (sum("failed"), sum("attempted"))
}

/// Prints the comparison of two result documents; returns how many
/// workload × metric pairs regressed.
#[must_use]
pub fn print(parent: &Value, change: &Value) -> usize {
    let mut regressed = 0;
    println!(
        "{:<10} {:<17} {:>14} {:>27} {:>14} {:>27} {:>9}  verdict (bound)",
        "workload", "metric", "parent median", "[q1, q3]", "change median", "[q1, q3]", "change"
    );
    let workloads: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
    for w in workloads {
        for d in metrics::end_to_end() {
            let (p, c) = (values(parent, w, &d.name), values(change, w, &d.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let bound = d.bound.unwrap_or(0.0);
            let verdict = judge(&p, &c, d.better == "higher", bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            let (p1, pm, p3) = stats::quartiles(&p);
            let (c1, cm, c3) = stats::quartiles(&c);
            println!(
                "{:<10} {:<17} {:>14.6} {:>27} {:>14.6} {:>27} {:>+8.2}%  {} ({}% of parent median {:.6} {})",
                w,
                d.name,
                pm,
                format!("[{p1:.6}, {p3:.6}]"),
                cm,
                format!("[{c1:.6}, {c3:.6}]"),
                100.0 * (cm / pm - 1.0),
                verdict.label(),
                100.0 * bound,
                pm,
                d.unit,
            );
        }
        for (side, doc) in [("parent", parent), ("change", change)] {
            let (failed, attempted) = failures(doc, w);
            if attempted > 0.0 {
                println!(
                    "{w:<10} {side} failures: {failed} of {attempted} attempted ({:.4}%)",
                    100.0 * failed / attempted
                );
            }
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        let faster = [110.0, 110.4, 109.6, 110.1, 109.9];
        assert_eq!(judge(&steady, &faster, true, 0.05), Verdict::Improved);
        assert_eq!(judge(&steady, &faster, false, 0.05), Verdict::Regressed);
        assert_eq!(judge(&steady, &steady, true, 0.05), Verdict::Unchanged);
        // Spread wider than the bound, runs overlapping: cannot tell.
        let noisy_a = [90.0, 100.0, 112.0, 95.0, 108.0];
        let noisy_b = [93.0, 104.0, 115.0, 99.0, 110.0];
        assert_eq!(judge(&noisy_a, &noisy_b, true, 0.05), Verdict::Unresolved);
        // Noisy but every run of the change beats every run of the parent.
        let far = [150.0, 165.0, 180.0, 158.0, 171.0];
        assert_eq!(judge(&noisy_a, &far, true, 0.05), Verdict::Improved);
    }
}
