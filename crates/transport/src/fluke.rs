//! In-process Fluke-like kernel IPC.
//!
//! Fluke's fast IPC path transfers the first several words of a
//! message in machine registers, which the kernel preserves across the
//! control transfer (paper §3.2, "Specialized Transports").  This
//! channel moves [`FlukeMsg`]s — register window plus overflow buffer —
//! and exposes whether an exchange stayed register-only, which the
//! Fluke-path benchmarks report.

use crate::chan::{unbounded, Receiver, Sender};
use flick_runtime::fluke::FlukeMsg;

/// One end of a Fluke IPC connection.
pub struct FlukeEnd {
    tx: Sender<FlukeMsg>,
    rx: Receiver<FlukeMsg>,
    register_only_sends: std::cell::Cell<u64>,
    total_sends: std::cell::Cell<u64>,
}

impl FlukeEnd {
    /// Sends one IPC message.
    pub fn send(&self, msg: FlukeMsg) {
        self.total_sends.set(self.total_sends.get() + 1);
        if msg.is_register_only() {
            self.register_only_sends
                .set(self.register_only_sends.get() + 1);
        }
        crate::metrics::sent(crate::metrics::Kind::Fluke, msg.payload_bytes() as u64);
        self.tx.send(msg);
    }

    /// Receives the next message, blocking.
    #[must_use]
    pub fn recv(&self) -> Option<FlukeMsg> {
        let clock = flick_telemetry::stopwatch();
        let msg = self.rx.recv()?;
        crate::metrics::received(
            crate::metrics::Kind::Fluke,
            msg.payload_bytes() as u64,
            flick_telemetry::elapsed_ns(clock),
        );
        Some(msg)
    }

    /// `(register-only sends, total sends)` — the fast-path hit rate.
    #[must_use]
    pub fn fast_path_stats(&self) -> (u64, u64) {
        (self.register_only_sends.get(), self.total_sends.get())
    }
}

/// Creates a connected Fluke IPC pair.
#[must_use]
pub fn fluke_pair() -> (FlukeEnd, FlukeEnd) {
    let (atx, arx) = unbounded();
    let (btx, brx) = unbounded();
    (
        FlukeEnd {
            tx: atx,
            rx: brx,
            register_only_sends: std::cell::Cell::new(0),
            total_sends: std::cell::Cell::new(0),
        },
        FlukeEnd {
            tx: btx,
            rx: arx,
            register_only_sends: std::cell::Cell::new(0),
            total_sends: std::cell::Cell::new(0),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_runtime::fluke::{FlukeReader, FlukeWriter, REG_WORDS};

    #[test]
    fn small_message_rides_registers() {
        let (a, b) = fluke_pair();
        let mut w = FlukeWriter::new();
        w.put_u32(42);
        w.put_u32(7);
        a.send(w.finish());
        let m = b.recv().unwrap();
        assert!(m.is_register_only());
        let mut r = FlukeReader::new(&m);
        assert_eq!(r.get_u32().unwrap(), 42);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(a.fast_path_stats(), (1, 1));
    }

    #[test]
    fn large_message_spills() {
        let (a, b) = fluke_pair();
        let mut w = FlukeWriter::new();
        for i in 0..(REG_WORDS as u32 * 4) {
            w.put_u32(i);
        }
        a.send(w.finish());
        let m = b.recv().unwrap();
        assert!(!m.is_register_only());
        assert_eq!(a.fast_path_stats(), (0, 1));
    }
}
