//! Transport send/recv metrics hooks.
//!
//! Same contract as `flick_runtime::metrics`, and the same
//! [`Dir`] quad per direction: every hook is `#[inline]` and records
//! nothing until `flick_telemetry::enabled()` is true.  Sends and
//! receives are one-shot events (count + bytes + size histogram); the
//! interesting latency — time blocked in `recv` — is captured by
//! timing the receive call itself.

use flick_runtime::metrics::Dir;
use std::sync::OnceLock;

/// Which transport flavor an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// In-process TCP-like byte stream (IIOP, ONC-over-TCP).
    Stream,
    /// In-process UDP-like datagram socket (ONC-over-UDP).
    Datagram,
    /// Mach 3 port-space message queues.
    Mach,
    /// Fluke kernel IPC.
    Fluke,
}

impl Kind {
    /// Metric-name component.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Stream => "stream",
            Kind::Datagram => "datagram",
            Kind::Mach => "mach",
            Kind::Fluke => "fluke",
        }
    }
}

#[inline]
fn record(kind: Kind, recv: bool, bytes: u64, ns: u64) {
    if !flick_telemetry::enabled() {
        return;
    }
    static DIRS: OnceLock<[[Dir; 4]; 2]> = OnceLock::new();
    let dirs = DIRS.get_or_init(|| {
        let kinds = [Kind::Stream, Kind::Datagram, Kind::Mach, Kind::Fluke];
        Dir::table("transport", kinds.map(Kind::name), ["send", "recv"])
    });
    dirs[usize::from(recv)][kind as usize].record(bytes, ns);
}

/// Records one sent message of `bytes` size — the per-kind counters
/// here plus a `send` event in the trace journal, attached to whatever
/// span is live on the sending thread.
#[inline]
pub fn sent(kind: Kind, bytes: u64) {
    record(kind, false, bytes, 0);
    flick_runtime::trace::wire_send(bytes);
}

/// Records one received message of `bytes` size that took `ns`
/// nanoseconds to arrive — time a `flick_telemetry::stopwatch()` saw
/// blocked in `recv`; zero skips the latency histogram.
#[inline]
pub fn received(kind: Kind, bytes: u64, ns: u64) {
    record(kind, true, bytes, ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_recv_events_land_in_the_registry() {
        flick_telemetry::set_enabled(true);
        sent(Kind::Datagram, 100);
        received(Kind::Datagram, 100, 2_000);
        let s = flick_telemetry::global().snapshot();
        assert!(s.counter("transport.datagram.send.msgs").unwrap() >= 1);
        assert!(s.counter("transport.datagram.recv.bytes").unwrap() >= 100);
        assert!(matches!(
            s.get("transport.datagram.recv.ns"),
            Some(flick_telemetry::MetricValue::Histogram(h)) if h.count >= 1
        ));
        flick_telemetry::set_enabled(false);
    }
}
