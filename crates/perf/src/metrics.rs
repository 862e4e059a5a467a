//! The metric tables: names, units and directions, exactly as
//! `BENCHMARK.json` lists them (a test keeps the two in step).

use crate::json::Value;
use crate::workloads;
use flick::PASS_NAMES;

/// How long the gate lets one run measure, seconds.
pub const RUN_SECONDS: u32 = 12;

/// `BENCHMARK.json`, as this build declares it.
#[must_use]
pub fn benchmark_json() -> String {
    let s = |v: &str| Value::Str(v.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "crates/perf/Cargo.toml",
        "--",
    ];
    let decls = |list: Vec<Decl>| {
        Value::Arr(
            list.into_iter()
                .map(|d| {
                    let mut pairs = vec![
                        ("name", s(&d.name)),
                        ("unit", s(d.unit)),
                        ("better", s(d.better)),
                    ];
                    if let Some(b) = d.bound {
                        pairs.push(("bound", Value::Num(b)));
                    }
                    Value::obj(pairs)
                })
                .collect(),
        )
    };
    let doc = Value::obj([
        (
            "command",
            Value::Arr(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Arr(vec![s("crates/perf")])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| Value::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", decls(end_to_end())),
        ("per_layer", decls(per_layer())),
    ]);
    pretty(&doc, 0)
}

/// Indented rendering: one member per line, leaf objects and arrays
/// on one line.
fn pretty(v: &Value, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    let leaf = |v: &Value| !matches!(v, Value::Arr(_) | Value::Obj(_));
    let key = |k: &str| Value::Str(k.to_string()).render();
    match v {
        Value::Obj(pairs) if pairs.iter().all(|(_, v)| leaf(v)) => {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", key(k), v.render()))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
        Value::Obj(pairs) => {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", key(k), pretty(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
        Value::Arr(items) if items.iter().all(leaf) => {
            let body: Vec<String> = items.iter().map(Value::render).collect();
            format!("[{}]", body.join(", "))
        }
        Value::Arr(items) => {
            let body: Vec<String> = items
                .iter()
                .map(|v| format!("{pad}{}", pretty(v, depth + 1)))
                .collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        other => other.render(),
    }
}

/// One metric's declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct Decl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Relative worsening that counts as a regression (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

fn decl(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> Decl {
    Decl {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The seven end-to-end metrics every workload reports.
#[must_use]
pub fn end_to_end() -> Vec<Decl> {
    vec![
        decl("setup_s", "s", "lower", Some(0.25)),
        decl("ops_per_s", "op/s", "higher", Some(0.10)),
        decl("op_p50_us", "us", "lower", Some(0.10)),
        decl("payload_MBps", "MB/s", "higher", Some(0.10)),
        decl("bytes_out_per_op", "B", "lower", Some(0.001)),
        decl("allocs_per_op", "count", "lower", Some(0.001)),
        decl("peak_heap_kb", "KB", "lower", Some(0.02)),
    ]
}

/// The marshal cells' names, in cell order.
#[must_use]
pub fn marshal_cells() -> Vec<String> {
    let mut names = Vec::new();
    for size in ["256", "64k"] {
        for ty in ["ints", "rects", "dirents"] {
            for enc in ["onc", "iiop"] {
                names.push(format!("{enc}.{ty}.{size}"));
            }
        }
    }
    names.push("onc.stat".to_string());
    names.push("iiop.stat".to_string());
    names
}

/// The per-layer metrics of the traced ledger, by layer.
#[must_use]
pub fn per_layer() -> Vec<Decl> {
    let mut d = Vec::new();
    let ns = |d: &mut Vec<Decl>, name: &str| d.push(decl(name, "ns", "lower", None));
    // stubs: backend passes + emit_rust, over runtime::{buf,xdr,cdr}
    for cell in marshal_cells() {
        ns(&mut d, &format!("stubs.{cell}.encode_ns"));
        ns(&mut d, &format!("stubs.{cell}.decode_ns"));
    }
    ns(&mut d, "stubs.onc.dispatch_ns");
    ns(&mut d, "stubs.iiop.dispatch_by_name_ns");
    d.push(decl(
        "baselines.rpcgen.speedup_geomean",
        "x",
        "higher",
        None,
    ));
    d.push(decl(
        "baselines.orbeline.speedup_geomean",
        "x",
        "higher",
        None,
    ));
    // runtime.oncrpc / runtime.giop / context
    for f in [
        "call_header_write",
        "accept_call",
        "frame_record",
        "scan_record",
        "read_reply_verdict",
    ] {
        ns(&mut d, &format!("runtime.oncrpc.{f}_ns"));
    }
    for f in ["put_request_header", "get_request_header", "reply_header"] {
        ns(&mut d, &format!("runtime.giop.{f}_ns"));
    }
    ns(&mut d, "runtime.context.stamp_ns");
    d.push(decl("runtime.context.blob_bytes", "count", "lower", None));
    // call paths
    for t in ["onc_stream", "onc_dgram", "giop"] {
        ns(&mut d, &format!("rpc.small.{t}.call_ns"));
    }
    for t in ["onc_stream", "giop"] {
        ns(&mut d, &format!("rpc.bulk.{t}.call_ns"));
    }
    for t in ["onc_stream", "onc_dgram", "giop"] {
        d.push(decl(
            &format!("rpc.small.{t}.header_bytes"),
            "count",
            "lower",
            None,
        ));
    }
    for f in [
        "client_encode",
        "client_decode",
        "server_handle_self",
        "handler_work",
    ] {
        ns(&mut d, &format!("rpc.{f}_ns"));
    }
    // transport
    ns(&mut d, "transport.stream.small_ns");
    ns(&mut d, "transport.stream.bulk_ns_per_kib");
    ns(&mut d, "transport.datagram.small_ns");
    // runtime.fabric
    ns(&mut d, "fabric.pump_self_ns");
    d.push(decl("fabric.pumps_per_call", "count", "lower", None));
    d.push(decl("fabric.replies_per_read", "count", "higher", None));
    d.push(decl("fabric.call_p99_us", "us", "lower", None));
    d.push(decl("fabric.shed_share", "share", "lower", None));
    d.push(decl("fabric.expired_share", "share", "lower", None));
    d.push(decl("fabric.mt.calls_per_s", "op/s", "higher", None));
    d.push(decl("fabric.mt.call_p50_us", "us", "lower", None));
    d.push(decl("fabric.mt.call_p99_us", "us", "lower", None));
    // runtime.bridge + generated transcode
    ns(&mut d, "bridge.handle_record_self_ns");
    ns(&mut d, "bridge.upstream_ns");
    ns(&mut d, "bridge.supervisor_ns");
    ns(&mut d, "transcode.request_ns");
    ns(&mut d, "transcode.reply_ns");
    d.push(decl("transcode.fused_speedup", "x", "higher", None));
    d.push(decl("bridge.fallback_share", "share", "lower", None));
    d.push(decl("bridge.rejected_share", "share", "lower", None));
    // compiler
    for f in [
        "cold.corpus",
        "cold.wide",
        "warm.edit1",
        "parse",
        "presgen",
        "plan",
        "emit_rust",
        "emit_c",
    ] {
        ns(&mut d, &format!("compile.{f}_ns"));
    }
    ns(&mut d, "compile.mt.wide48_ns");
    d.push(decl("compile.cache.hit_share", "share", "higher", None));
    d.push(decl("compile.gen.rust_bytes", "count", "lower", None));
    d.push(decl("compile.gen.c_bytes", "count", "lower", None));
    for pass in PASS_NAMES {
        d.push(decl(
            &format!("backend.pass.{pass}.decisions"),
            "count",
            "higher",
            None,
        ));
    }
    // memory / host / harness
    d.push(decl("alloc.bytes_per_op", "count", "lower", None));
    d.push(decl("peak_rss_mb", "MB", "lower", None));
    ns(&mut d, "host.ref_ns");
    d.push(decl("host.ref_spread", "x", "lower", None));
    ns(&mut d, "host.clock_ns");
    d.push(decl("raw.ops_per_s", "op/s", "higher", None));
    d.push(decl("trace.overhead_share", "share", "lower", None));
    d.push(decl("trace.accounted_share", "share", "higher", None));
    d
}
