//! Compile-pass trace reports.
//!
//! The compiler records one [`Span`] per pipeline phase (parse,
//! presgen, plan, emit…) plus named decision counters from the
//! marshal-plan optimizer (runs chunked, memcpys coalesced, …).
//! `flickc --timings` and `--stats` print these.

use std::borrow::Cow;

use crate::json;

/// One timed phase of a pipeline run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Phase name, e.g. `"parse"` or `"backend.plan"` — nearly always
    /// a literal, so it is borrowed rather than copied.
    pub name: Cow<'static, str>,
    /// Wall time spent in the phase.
    pub nanos: u64,
}

/// Per-phase wall times plus named decision counters for one compile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Phases in execution order.
    pub spans: Vec<Span>,
    /// `(name, value)` decision counters in insertion order.
    pub counters: Vec<(Cow<'static, str>, u64)>,
}

impl TraceReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty report with room for `spans` phases and `counters`
    /// decision counters.
    #[must_use]
    pub fn with_capacity(spans: usize, counters: usize) -> Self {
        TraceReport {
            spans: Vec::with_capacity(spans),
            counters: Vec::with_capacity(counters),
        }
    }

    /// Appends a timed phase.
    pub fn push_span(&mut self, name: impl Into<Cow<'static, str>>, nanos: u64) {
        self.spans.push(Span {
            name: name.into(),
            nanos,
        });
    }

    /// Appends a timed sub-phase of `parent` as the dotted span
    /// `"{parent}.{name}"` (spans stay a flat list; nesting lives in
    /// the names, e.g. `backend.plan.form-chunks`).
    pub fn push_subspan(&mut self, parent: &str, name: &str, nanos: u64) {
        self.push_span(format!("{parent}.{name}"), nanos);
    }

    /// Sets a decision counter, replacing any previous value.
    pub fn set_counter(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        let name = name.into();
        if let Some(slot) = self.counters.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.counters.push((name, value));
        }
    }

    /// The span recorded for `name`, if any.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Whether a phase of this name was recorded.
    #[must_use]
    pub fn has_phase(&self, name: &str) -> bool {
        self.span(name).is_some()
    }

    /// A decision counter's value, if set.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Sum of all span times.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.spans.iter().map(|s| s.nanos).sum()
    }

    /// A human-readable table: phases with times and % of total, then
    /// counters.
    #[must_use]
    pub fn to_text(&self) -> String {
        let total = self.total_nanos();
        let mut out = String::new();
        for s in &self.spans {
            let pct = if total == 0 {
                0.0
            } else {
                s.nanos as f64 * 100.0 / total as f64
            };
            out.push_str(&format!(
                "{:<20} {:>12}  {:5.1}%\n",
                s.name,
                fmt_nanos(s.nanos),
                pct
            ));
        }
        out.push_str(&format!("{:<20} {:>12}\n", "total", fmt_nanos(total)));
        if !self.counters.is_empty() {
            out.push('\n');
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<32} {v}\n"));
            }
        }
        out
    }

    /// The report as one JSON object with `spans`, `total_ns`, and
    /// `counters` fields.  Spans keep execution order; counters are
    /// sorted by name so diffs between runs are stable.
    #[must_use]
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut o = json::ObjectWriter::new();
                o.str_field("name", &s.name).u64_field("ns", s.nanos);
                o.finish()
            })
            .collect::<Vec<_>>()
            .join(",");
        let mut sorted: Vec<&(Cow<'static, str>, u64)> = self.counters.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut counters = json::ObjectWriter::new();
        for (name, v) in sorted {
            counters.u64_field(name, *v);
        }
        let mut root = json::ObjectWriter::new();
        root.raw("spans", &format!("[{spans}]"))
            .u64_field("total_ns", self.total_nanos())
            .raw("counters", &counters.finish());
        root.finish()
    }
}

/// `1234` → `"1.23µs"`, etc.  Durations stay readable across the
/// ns–s range a compile can span.
fn fmt_nanos(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_counters_round_trip() {
        let mut r = TraceReport::new();
        r.push_span("parse", 1_000);
        r.push_span("presgen", 3_000);
        r.set_counter("plan.memcpy_runs", 4);
        r.set_counter("plan.memcpy_runs", 5);
        assert!(r.has_phase("parse"));
        assert!(!r.has_phase("emit"));
        assert_eq!(r.span("presgen").unwrap().nanos, 3_000);
        assert_eq!(r.counter("plan.memcpy_runs"), Some(5));
        assert_eq!(r.total_nanos(), 4_000);
    }

    #[test]
    fn subspans_get_dotted_names() {
        let mut r = TraceReport::new();
        r.push_span("backend.plan", 9_000);
        r.push_subspan("backend.plan", "form-chunks", 2_000);
        r.push_subspan("backend.plan", "inline-marshal", 1_000);
        assert!(r.has_phase("backend.plan.form-chunks"));
        assert_eq!(r.span("backend.plan.inline-marshal").unwrap().nanos, 1_000);
    }

    #[test]
    fn text_report_shows_phases_and_percentages() {
        let mut r = TraceReport::new();
        r.push_span("parse", 250);
        r.push_span("emit", 750);
        r.set_counter("mint_nodes", 12);
        let text = r.to_text();
        assert!(text.contains("parse"));
        assert!(text.contains("25.0%"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("total"));
        assert!(text.contains("mint_nodes"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let mut r = TraceReport::new();
        r.push_span("parse", 10);
        r.set_counter("casts", 2);
        let j = r.to_json();
        assert_eq!(
            j,
            "{\"spans\":[{\"name\":\"parse\",\"ns\":10}],\"total_ns\":10,\
             \"counters\":{\"casts\":2}}"
        );
    }

    #[test]
    fn json_counters_sort_by_name() {
        let mut r = TraceReport::new();
        r.set_counter("zeta", 1);
        r.set_counter("alpha", 2);
        r.set_counter("mid", 3);
        let j = r.to_json();
        let a = j.find("\"alpha\"").unwrap();
        let m = j.find("\"mid\"").unwrap();
        let z = j.find("\"zeta\"").unwrap();
        assert!(a < m && m < z, "{j}");
        // Insertion order is preserved for callers reading the struct.
        assert_eq!(r.counters[0].0, "zeta");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_nanos(999), "999ns");
        assert_eq!(fmt_nanos(1_500), "1.50µs");
        assert_eq!(fmt_nanos(2_000_000), "2.00ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }
}
