//! In-process Mach-like ports.
//!
//! A port is a kernel message queue named by a right; `msg_rpc` sends
//! a request to a remote port and blocks on a local reply port, which
//! is how Mach 3 RPC (and MIG stubs) actually work.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::chan::{unbounded, Receiver, Sender};

/// A port name (send right).
pub type PortName = u32;

/// A registry of ports — the "kernel" namespace for one test/example.
#[derive(Clone, Default)]
pub struct PortSpace {
    inner: Arc<Mutex<PortSpaceInner>>,
}

/// A port's message queue: the send and receive halves.
type Queue = (Sender<Vec<u8>>, Receiver<Vec<u8>>);

#[derive(Default)]
struct PortSpaceInner {
    next: PortName,
    queues: HashMap<PortName, Queue>,
}

impl PortSpace {
    /// An empty port namespace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh port, returning its name.
    pub fn allocate(&self) -> PortName {
        let mut inner = self.inner.lock().expect("port space poisoned");
        inner.next += 1;
        let name = inner.next;
        inner.queues.insert(name, unbounded());
        name
    }

    /// Sends `msg` to `port`.  Returns false if the port is dead.
    pub fn send(&self, port: PortName, msg: Vec<u8>) -> bool {
        let tx = {
            let inner = self.inner.lock().expect("port space poisoned");
            inner.queues.get(&port).map(|(tx, _)| tx.clone())
        };
        match tx {
            Some(tx) => {
                crate::metrics::sent(crate::metrics::Kind::Mach, msg.len() as u64);
                tx.send(msg);
                true
            }
            None => false,
        }
    }

    /// Receives the next message queued at `port`, blocking.
    #[must_use]
    pub fn recv(&self, port: PortName) -> Option<Vec<u8>> {
        let rx = {
            let inner = self.inner.lock().expect("port space poisoned");
            inner.queues.get(&port).map(|(_, rx)| rx.clone())
        };
        let clock = flick_telemetry::stopwatch();
        let msg = rx.and_then(|rx| rx.recv())?;
        crate::metrics::received(
            crate::metrics::Kind::Mach,
            msg.len() as u64,
            flick_telemetry::elapsed_ns(clock),
        );
        Some(msg)
    }

    /// Destroys a port; subsequent sends fail and receivers drain.
    pub fn deallocate(&self, port: PortName) {
        self.inner
            .lock()
            .expect("port space poisoned")
            .queues
            .remove(&port);
    }

    /// The Mach RPC idiom: send `request` to `remote`, then block for
    /// one message on `reply_port`.
    #[must_use]
    pub fn msg_rpc(
        &self,
        remote: PortName,
        reply_port: PortName,
        request: Vec<u8>,
    ) -> Option<Vec<u8>> {
        if !self.send(remote, request) {
            return None;
        }
        self.recv(reply_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_recv_roundtrip() {
        let ps = PortSpace::new();
        let p = ps.allocate();
        assert!(ps.send(p, b"msg".to_vec()));
        assert_eq!(ps.recv(p).unwrap(), b"msg");
    }

    #[test]
    fn dead_port_send_fails() {
        let ps = PortSpace::new();
        let p = ps.allocate();
        ps.deallocate(p);
        assert!(!ps.send(p, vec![]));
    }

    #[test]
    fn rpc_between_threads() {
        let ps = PortSpace::new();
        let server_port = ps.allocate();
        let reply_port = ps.allocate();
        let ps2 = ps.clone();
        let server = thread::spawn(move || {
            let req = ps2.recv(server_port).unwrap();
            // Echo the request, doubled.
            let mut rep = req.clone();
            rep.extend_from_slice(&req);
            assert!(ps2.send(reply_port, rep));
        });
        let rep = ps.msg_rpc(server_port, reply_port, b"ab".to_vec()).unwrap();
        assert_eq!(rep, b"abab");
        server.join().unwrap();
    }
}
