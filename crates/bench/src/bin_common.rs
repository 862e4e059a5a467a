//! The shared driver behind the Figure 4–6 binaries.
//!
//! One figure = one link model.  For each workload and message size we
//! *measure* marshal/unmarshal with the real stubs (Flick's generated
//! ONC stubs vs the rpcgen and PowerRPC baselines — the paper's
//! "three compilers supporting ONC transports"), then combine with the
//! link model scaled to this host.  Output is reported in
//! *paper-equivalent Mbps*: host-scaled throughput divided by the
//! host/SPARC speed factor, directly comparable to the paper's axes.

use flick_baselines::{powerrpc, rpcgen};
use flick_transport::netmodel::PAPER_SPARC_MEMCPY_BPS;
use flick_transport::NetModel;

use crate::endtoend::throughput;
use crate::figures::{fmt_size, measure_baseline, measure_flick_iiop, measure_flick_onc, Workload};
use crate::paper_sizes_ints;

/// Prints one end-to-end figure for `base_model`.
pub fn end_to_end_figure(title: &str, subtitle: &str, base_model: NetModel) {
    let host_bps = crate::hostcal::measure_memcpy_bps();
    let factor = host_bps / PAPER_SPARC_MEMCPY_BPS;
    let net = base_model.scaled_to_host(host_bps);
    println!("{title}");
    println!("{subtitle}");
    println!(
        "host memcpy {:.1} GB/s -> scale factor {:.0}x vs the paper's SPARC; \
         throughput below is in paper-equivalent Mbps\n",
        host_bps / 1e9,
        factor
    );

    // The paper's Flick column ran XDR on big-endian SPARCs, where the
    // encoded and in-memory layouts coincide and the memcpy optimization
    // applies.  On this host that configuration is Flick's native-order
    // CDR back end (GIOP lets the sender choose byte order); we also
    // print Flick/XDR, which on a little-endian host must byte-swap.
    for w in [Workload::Ints, Workload::Rects] {
        println!("== {} ==", w.name());
        println!(
            "{:>8} {:>12} {:>12} {:>12} {:>12} {:>9}",
            "size", "Flick", "Flick/XDR", "rpcgen", "PowerRPC", "Flick x"
        );
        for &bytes in &paper_sizes_ints() {
            let flick = measure_flick_iiop(w, bytes);
            let flick_xdr = measure_flick_onc(w, bytes);
            let mut rp = rpcgen::RpcgenStyle::new();
            let mut pw = powerrpc::PowerRpcStyle::new();
            let rp_m = measure_baseline(&mut rp, w, bytes).expect("rpcgen marshals");
            let pw_m = measure_baseline(&mut pw, w, bytes).expect("powerrpc marshals");

            let f = throughput(&net, bytes, &flick) / factor / 1e6;
            let fx = throughput(&net, bytes, &flick_xdr) / factor / 1e6;
            let r = throughput(&net, bytes, &rp_m) / factor / 1e6;
            let p = throughput(&net, bytes, &pw_m) / factor / 1e6;
            println!(
                "{:>8} {:>10.2}Mb {:>10.2}Mb {:>10.2}Mb {:>10.2}Mb {:>8.2}x",
                fmt_size(bytes),
                f,
                fx,
                r,
                p,
                f / r.max(p),
            );
        }
        println!();
    }
    println!(
        "effective link bandwidth (paper ttcp): {:.1} Mbps",
        base_model.effective_bandwidth_bps / 1e6
    );
    emit_telemetry_snapshot();
}

/// Prints the global telemetry snapshot that accumulated while the
/// figure ran (marshal counts, byte totals, latency histograms).
///
/// Prints nothing unless collection was switched on
/// (`FLICK_TELEMETRY=1` or [`flick_telemetry::set_enabled`]).  Set
/// `FLICK_TELEMETRY_JSON=1` for machine-readable output.
pub fn emit_telemetry_snapshot() {
    if !flick_telemetry::enabled() {
        return;
    }
    let snap = flick_telemetry::global().snapshot();
    if snap.is_empty() {
        return;
    }
    if std::env::var_os("FLICK_TELEMETRY_JSON").is_some_and(|v| v == "1") {
        println!("{}", snap.to_json());
    } else {
        println!("\n== telemetry snapshot ==");
        print!("{}", snap.to_text());
        let ops = flick_runtime::stats::per_op_table();
        if !ops.is_empty() {
            println!("\n== per-operation RPC latency ==");
            print!("{ops}");
        }
        let bridged = flick_runtime::stats::bridge_op_table();
        if !bridged.is_empty() {
            println!("\n== per-operation bridge outcomes ==");
            print!("{bridged}");
        }
    }
}
