//! Point-in-time observability snapshots for benches, tests, and the
//! `--stats` surface.
//!
//! Thin views over `flick_telemetry`: the full registry in text or
//! JSON, and per-operation tables distilled from the
//! `rpc.<op>.{rtt,server}` histograms the trace spans feed and the
//! `bridge.<op>.*` counters.

/// The metric registry as human-readable text (empty while nothing has
/// been registered).
#[inline]
#[must_use]
pub fn snapshot_text() -> String {
    flick_telemetry::global().snapshot().to_text()
}

/// The metric registry as one JSON object keyed by metric name.
#[inline]
#[must_use]
pub fn snapshot_json() -> String {
    flick_telemetry::global().snapshot().to_json()
}

/// A per-operation latency table over every `rpc.<op>.rtt` and
/// `rpc.<op>.server` histogram: operation, side, count, and
/// p50/p90/p99/max in nanoseconds (bucket upper bounds).  Empty when
/// no RPC span has recorded.
#[must_use]
pub fn per_op_table() -> String {
    let snap = flick_telemetry::global().snapshot();
    let mut rows = Vec::new();
    for (name, value) in &snap.metrics {
        let Some(rest) = name.strip_prefix("rpc.") else {
            continue;
        };
        let (op, side) = if let Some(op) = rest.strip_suffix(".rtt") {
            (op, "client rtt")
        } else if let Some(op) = rest.strip_suffix(".server") {
            (op, "server")
        } else {
            continue;
        };
        let flick_telemetry::MetricValue::Histogram(h) = value else {
            continue;
        };
        if h.count == 0 {
            continue;
        }
        rows.push(format!(
            "{:<24} {:<10} {:>7} {:>12} {:>12} {:>12} {:>12}",
            op,
            side,
            h.count,
            h.percentile(0.50),
            h.percentile(0.90),
            h.percentile(0.99),
            h.percentile(1.0),
        ));
    }
    if rows.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "{:<24} {:<10} {:>7} {:>12} {:>12} {:>12} {:>12}\n",
        "op", "side", "count", "p50(ns)", "p90(ns)", "p99(ns)", "max(ns)"
    );
    for row in rows {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// A per-operation gateway table over every `bridge.<op>.{forwarded,
/// rejected,fallback}` counter — the proxy-side companion to
/// [`per_op_table`], so bridge traffic breaks down by operation the
/// same way RPC latency does.  Empty when no per-op bridge counter has
/// recorded.
#[must_use]
pub fn bridge_op_table() -> String {
    let snap = flick_telemetry::global().snapshot();
    // op name -> [forwarded, rejected, fallback]
    let mut ops: Vec<(String, [u64; 3])> = Vec::new();
    for (name, value) in &snap.metrics {
        let Some(rest) = name.strip_prefix("bridge.") else {
            continue;
        };
        let Some((op, kind)) = rest.rsplit_once('.') else {
            continue; // the global bridge.{forwarded,...} totals
        };
        let slot = match kind {
            "forwarded" => 0,
            "rejected" => 1,
            "fallback" => 2,
            _ => continue,
        };
        let flick_telemetry::MetricValue::Counter(n) = value else {
            continue;
        };
        let row = match ops.iter_mut().find(|(o, _)| o == op) {
            Some((_, counts)) => counts,
            None => {
                ops.push((op.to_string(), [0; 3]));
                &mut ops.last_mut().expect("just pushed").1
            }
        };
        row[slot] = *n;
    }
    ops.retain(|(_, c)| c.iter().any(|&n| n > 0));
    if ops.is_empty() {
        return String::new();
    }
    ops.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = format!(
        "{:<24} {:>10} {:>10} {:>10}\n",
        "op", "forwarded", "rejected", "fallback"
    );
    for (op, c) in ops {
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>10}\n",
            op, c[0], c[1], c[2]
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridge_op_table_breaks_counters_down_by_operation() {
        flick_telemetry::global()
            .counter("bridge.stats_unit_send.forwarded")
            .add(7);
        flick_telemetry::global()
            .counter("bridge.stats_unit_send.rejected")
            .add(2);
        let table = bridge_op_table();
        assert!(table.contains("stats_unit_send"), "table: {table}");
        assert!(table.starts_with("op "), "header row first: {table}");
        let row = table
            .lines()
            .find(|l| l.contains("stats_unit_send"))
            .unwrap();
        assert!(row.contains('7') && row.contains('2'), "row: {row}");
    }

    #[test]
    fn per_op_table_lists_rpc_histograms() {
        flick_telemetry::global()
            .histogram("rpc.stats_unit_op.rtt")
            .record(1000);
        flick_telemetry::global()
            .histogram("rpc.stats_unit_op.server")
            .record(500);
        let table = per_op_table();
        assert!(table.contains("stats_unit_op"), "table: {table}");
        assert!(table.contains("client rtt"));
        assert!(table.contains("server"));
        assert!(table.starts_with("op "), "header row first: {table}");
        assert!(snapshot_text().contains("rpc.stats_unit_op.rtt"));
        assert!(snapshot_json().contains("\"rpc.stats_unit_op.rtt\""));
    }
}
