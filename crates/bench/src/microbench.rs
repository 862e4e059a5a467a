//! A minimal self-contained micro-benchmark harness.
//!
//! The `benches/` targets use this instead of an external framework so
//! the workspace builds with no registry dependencies.  Measurement
//! reuses [`crate::endtoend::time_one`] (best-of-N, ~1 ms batches) and
//! reports ns/iter plus throughput when a byte count is given.

use std::time::Duration;

use crate::endtoend::time_one;

/// Formats a per-iteration duration at a sensible precision.
#[must_use]
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Formats bytes-per-second as a human throughput figure.
#[must_use]
pub fn fmt_throughput(bytes: u64, per_iter: Duration) -> String {
    let secs = per_iter.as_secs_f64();
    if secs <= 0.0 {
        return "inf".to_string();
    }
    let bps = bytes as f64 / secs;
    if bps >= 1e9 {
        format!("{:.3} GB/s", bps / 1e9)
    } else if bps >= 1e6 {
        format!("{:.3} MB/s", bps / 1e6)
    } else {
        format!("{:.1} KB/s", bps / 1e3)
    }
}

/// Times `f` and prints one aligned result line:
/// `group/name    time: 1.234 µs/iter   thrpt: 830.4 MB/s`.
/// Returns the measured per-iteration duration.
pub fn bench<F: FnMut()>(group: &str, name: &str, throughput_bytes: Option<u64>, f: F) -> Duration {
    let per_iter = time_one(f);
    let label = format!("{group}/{name}");
    if flick_telemetry::enabled() {
        let reg = flick_telemetry::global();
        reg.histogram(&format!("bench.{label}.ns"))
            .record(per_iter.as_nanos() as u64);
        if let Some(b) = throughput_bytes {
            reg.counter(&format!("bench.{label}.bytes")).add(b);
        }
    }
    match throughput_bytes {
        Some(b) => println!(
            "{label:<44} time: {:>12}/iter   thrpt: {:>12}",
            fmt_duration(per_iter),
            fmt_throughput(b, per_iter)
        ),
        None => println!("{label:<44} time: {:>12}/iter", fmt_duration(per_iter)),
    }
    per_iter
}

/// Prints a section header for a group of related measurements.
pub fn group_header(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_are_stable() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(1_500)), "1.500 µs");
        assert_eq!(fmt_duration(Duration::from_millis(2)), "2.000 ms");
        assert_eq!(
            fmt_throughput(1_000_000_000, Duration::from_secs(1)),
            "1.000 GB/s"
        );
    }
}
