//! Deterministic fault injection for the in-process transports.
//!
//! A [`FaultPlan`] sits between a sender and the wire and perturbs the
//! message stream the way a hostile or merely unlucky network would:
//! drop, duplicate, reorder, truncate, flip a single bit, or delay a
//! message by a few *virtual* ticks (one tick per send — no wall
//! clock, so every run with the same seed replays byte-for-byte).
//! The PRNG is SplitMix64 on `std` only; the workspace is offline and
//! carries no `rand` dependency.
//!
//! Wrappers adapt the plan to each transport flavor:
//! [`FaultyStreamEnd`] (per-record faults over the byte stream),
//! [`FaultyDatagramEnd`], [`FaultyPort`] (Mach), and [`FaultyFlukeEnd`]
//! (faulting the register window + overflow payload).  Injections are
//! counted per kind, both on the plan itself (always) and as
//! `fault.injected.<kind>` telemetry counters (when enabled).

use std::sync::{Mutex, OnceLock};

use flick_runtime::fluke::FlukeMsg;
use flick_telemetry::{global, Counter};

use crate::datagram::{DatagramEnd, TooBig};
use crate::fluke::FlukeEnd;
use crate::mach::{PortName, PortSpace};
use crate::stream::StreamEnd;

/// The workspace PRNG, re-exported from the runtime (which also uses
/// it for retransmit and reconnect jitter).  Shared with the fuzz
/// harness.
pub use flick_runtime::rng::SplitMix64;

/// The kinds of fault a plan can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Message silently discarded.
    Drop,
    /// Message delivered twice.
    Duplicate,
    /// Message delivered after the next one.
    Reorder,
    /// Message cut short at a random byte.
    Truncate,
    /// One random bit inverted.
    BitFlip,
    /// Message held for `delay_ticks` sends.
    Delay,
}

/// All kinds, in counter-array order.
pub const FAULT_KINDS: [FaultKind; 6] = [
    FaultKind::Drop,
    FaultKind::Duplicate,
    FaultKind::Reorder,
    FaultKind::Truncate,
    FaultKind::BitFlip,
    FaultKind::Delay,
];

impl FaultKind {
    /// Metric-name component.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Truncate => "truncate",
            FaultKind::BitFlip => "bitflip",
            FaultKind::Delay => "delay",
        }
    }
}

/// Per-mille probabilities for each fault kind, plus the delay depth
/// and the PRNG seed.  At most one fault applies per message; the
/// probabilities are cumulative and must sum to ≤ 1000.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// PRNG seed — same seed, same fault schedule.
    pub seed: u64,
    /// Drop probability, per mille.
    pub drop: u16,
    /// Duplicate probability, per mille.
    pub duplicate: u16,
    /// Reorder probability, per mille.
    pub reorder: u16,
    /// Truncate probability, per mille.
    pub truncate: u16,
    /// Single-bit-flip probability, per mille.
    pub bitflip: u16,
    /// Delay probability, per mille.
    pub delay: u16,
    /// How many subsequent sends a delayed message waits out.
    pub delay_ticks: u32,
}

impl FaultConfig {
    /// A clean link (all probabilities zero) with the given seed.
    #[must_use]
    pub fn clean(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop: 0,
            duplicate: 0,
            reorder: 0,
            truncate: 0,
            bitflip: 0,
            delay: 0,
            delay_ticks: 2,
        }
    }

    /// A lossy-but-honest link: drops and duplicates only (the UDP
    /// failure modes ONC retransmission exists to mask).
    #[must_use]
    pub fn lossy(seed: u64, drop: u16, duplicate: u16) -> Self {
        FaultConfig {
            drop,
            duplicate,
            ..Self::clean(seed)
        }
    }

    /// A corrupting link: truncation and bit flips (what decoders must
    /// survive).
    #[must_use]
    pub fn corrupting(seed: u64, truncate: u16, bitflip: u16) -> Self {
        FaultConfig {
            truncate,
            bitflip,
            ..Self::clean(seed)
        }
    }

    fn total(&self) -> u16 {
        self.drop + self.duplicate + self.reorder + self.truncate + self.bitflip + self.delay
    }
}

/// A message body a [`FaultPlan`] knows how to damage.
pub trait FaultPayload: Clone {
    /// Payload size in bytes (truncation/bit-flip domain).
    fn fault_len(&self) -> usize;
    /// Shortens the payload to `keep` bytes.
    fn fault_truncate(&mut self, keep: usize);
    /// Inverts bit `bit` (callers keep `bit < fault_len() * 8`).
    fn fault_flip_bit(&mut self, bit: usize);
}

impl FaultPayload for Vec<u8> {
    fn fault_len(&self) -> usize {
        self.len()
    }

    fn fault_truncate(&mut self, keep: usize) {
        self.truncate(keep);
    }

    fn fault_flip_bit(&mut self, bit: usize) {
        self[bit / 8] ^= 1 << (bit % 8);
    }
}

impl FaultPayload for FlukeMsg {
    fn fault_len(&self) -> usize {
        self.payload_bytes()
    }

    fn fault_truncate(&mut self, keep: usize) {
        let reg_bytes = self.reg_count * 4;
        if keep >= reg_bytes {
            self.overflow.truncate(keep - reg_bytes);
        } else {
            // A register window can only shrink in whole words.
            self.reg_count = keep / 4;
            self.overflow.clear();
        }
    }

    fn fault_flip_bit(&mut self, bit: usize) {
        let reg_bits = self.reg_count * 32;
        if bit < reg_bits {
            self.regs[bit / 32] ^= 1 << (bit % 32);
        } else {
            let b = bit - reg_bits;
            self.overflow[b / 8] ^= 1 << (b % 8);
        }
    }
}

/// A deterministic fault schedule over a stream of messages.
///
/// Virtual time advances one tick per [`FaultPlan::apply`]; delayed and
/// reordered messages are released on later ticks, so the whole
/// schedule is a pure function of `(seed, message sequence)`.
pub struct FaultPlan<T = Vec<u8>> {
    cfg: FaultConfig,
    rng: SplitMix64,
    tick: u64,
    /// Delayed messages: `(release_tick, message)`.
    held: Vec<(u64, T)>,
    /// A reordered message waiting for the next send to pass it.
    swapped: Option<T>,
    injected: [u64; FAULT_KINDS.len()],
}

impl<T: FaultPayload> FaultPlan<T> {
    /// Builds a plan from a config (probabilities must sum to ≤ 1000).
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        assert!(
            cfg.total() <= 1000,
            "fault probabilities sum to {} per mille (> 1000)",
            cfg.total()
        );
        FaultPlan {
            rng: SplitMix64::new(cfg.seed),
            cfg,
            tick: 0,
            held: Vec::new(),
            swapped: None,
            injected: [0; FAULT_KINDS.len()],
        }
    }

    fn record(&mut self, kind: FaultKind) {
        self.injected[kind as usize] += 1;
        metrics_injected(kind);
    }

    /// Passes one message through the schedule, returning the messages
    /// to put on the wire *now*, in order.
    pub fn apply(&mut self, msg: T) -> Vec<T> {
        self.tick += 1;
        let mut out = Vec::with_capacity(2);
        // A message reordered on the previous send goes out after the
        // current one.
        let passed = self.swapped.take();
        let roll = self.rng.below(1000) as u16;
        let mut bound = self.cfg.drop;
        if roll < bound {
            self.record(FaultKind::Drop);
        } else if roll < {
            bound += self.cfg.duplicate;
            bound
        } {
            self.record(FaultKind::Duplicate);
            out.push(msg.clone());
            out.push(msg);
        } else if roll < {
            bound += self.cfg.reorder;
            bound
        } {
            self.record(FaultKind::Reorder);
            self.swapped = Some(msg);
        } else if roll < {
            bound += self.cfg.truncate;
            bound
        } {
            let mut msg = msg;
            let len = msg.fault_len();
            if len > 0 {
                msg.fault_truncate(self.rng.below(len as u64) as usize);
                self.record(FaultKind::Truncate);
            }
            out.push(msg);
        } else if roll < {
            bound += self.cfg.bitflip;
            bound
        } {
            let mut msg = msg;
            let bits = msg.fault_len() * 8;
            if bits > 0 {
                msg.fault_flip_bit(self.rng.below(bits as u64) as usize);
                self.record(FaultKind::BitFlip);
            }
            out.push(msg);
        } else if roll < bound + self.cfg.delay {
            self.record(FaultKind::Delay);
            self.held
                .push((self.tick + u64::from(self.cfg.delay_ticks), msg));
        } else {
            out.push(msg);
        }
        if let Some(p) = passed {
            out.push(p);
        }
        // Release every delayed message that has waited out its ticks.
        let due = self.tick;
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= due {
                out.push(self.held.remove(i).1);
            } else {
                i += 1;
            }
        }
        out
    }

    /// Releases everything still held (reordered + delayed), oldest
    /// first — what a link flush/close would surface.
    pub fn flush(&mut self) -> Vec<T> {
        let mut out: Vec<T> = self.swapped.take().into_iter().collect();
        self.held.sort_by_key(|(t, _)| *t);
        out.extend(self.held.drain(..).map(|(_, m)| m));
        out
    }

    /// How many faults of `kind` this plan has injected.
    #[must_use]
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind as usize]
    }

    /// Total faults injected across all kinds.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }
}

/// Records one injected fault: the `fault.injected.<kind>` counter
/// plus a `fault` event in the trace journal, so postmortem dumps show
/// what the network did around a failing request.
#[inline]
fn metrics_injected(kind: FaultKind) {
    if !flick_telemetry::enabled() {
        return;
    }
    static HANDLES: OnceLock<[&'static Counter; FAULT_KINDS.len()]> = OnceLock::new();
    let handles = HANDLES.get_or_init(|| {
        FAULT_KINDS.map(|k| global().counter(&format!("fault.injected.{}", k.name())))
    });
    handles[kind as usize].inc();
    flick_telemetry::events::record(flick_telemetry::Event::new("fault", kind.name()));
}

// ================= transport wrappers =================

/// A [`StreamEnd`] whose *outgoing records* pass through a fault plan.
///
/// Stream faults are applied per ONC record / GIOP message rather than
/// per byte: a dropped record simply never enters the pipe, a
/// truncated one is re-framed at its shorter length — so framing stays
/// parseable and the damage lands where decoders must cope with it.
pub struct FaultyStreamEnd {
    inner: StreamEnd,
    plan: Mutex<FaultPlan<Vec<u8>>>,
}

impl FaultyStreamEnd {
    /// Wraps a stream end with a fault schedule.
    #[must_use]
    pub fn new(inner: StreamEnd, cfg: FaultConfig) -> Self {
        FaultyStreamEnd {
            inner,
            plan: Mutex::new(FaultPlan::new(cfg)),
        }
    }

    /// Writes one ONC record through the fault plan.
    pub fn write_record(&self, record: &[u8]) {
        let out = self
            .plan
            .lock()
            .expect("fault plan poisoned")
            .apply(record.to_vec());
        for rec in out {
            crate::stream::write_record(&self.inner, &rec);
        }
    }

    /// Writes one GIOP message through the fault plan.  The 12-byte
    /// header's size field is re-patched after truncation so the frame
    /// stays readable; other faults ship the bytes as damaged.
    pub fn write_giop(&self, message: &[u8]) {
        let out = self
            .plan
            .lock()
            .expect("fault plan poisoned")
            .apply(message.to_vec());
        for mut msg in out {
            if msg.len() >= flick_runtime::giop::HEADER_BYTES {
                let body = (msg.len() - flick_runtime::giop::HEADER_BYTES) as u32;
                // Honor the message's own order flag when re-patching.
                let little = msg[6] & 1 == 1;
                let bytes = if little {
                    body.to_le_bytes()
                } else {
                    body.to_be_bytes()
                };
                msg[8..12].copy_from_slice(&bytes);
                crate::stream::write_giop(&self.inner, &msg);
            }
            // A message truncated below its header is dropped outright:
            // on a real link the peer would fail the connection.
        }
    }

    /// Reads one record from the underlying stream.
    #[must_use]
    pub fn read_record(&self) -> Option<Vec<u8>> {
        crate::stream::read_record(&self.inner)
    }

    /// Reads one GIOP message from the underlying stream.
    #[must_use]
    pub fn read_giop(&self) -> Option<Vec<u8>> {
        crate::stream::read_giop(&self.inner)
    }

    /// Flushes held messages (as records) and closes the stream.
    pub fn close(&self) {
        let held = self.plan.lock().expect("fault plan poisoned").flush();
        for rec in held {
            crate::stream::write_record(&self.inner, &rec);
        }
        self.inner.close();
    }

    /// Total faults injected so far.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.plan
            .lock()
            .expect("fault plan poisoned")
            .injected_total()
    }
}

/// A [`DatagramEnd`] whose outgoing datagrams pass through a fault
/// plan.  Receives are unperturbed (wrap both ends to fault both
/// directions).
pub struct FaultyDatagramEnd {
    inner: DatagramEnd,
    plan: Mutex<FaultPlan<Vec<u8>>>,
}

impl FaultyDatagramEnd {
    /// Wraps a datagram end with a fault schedule.
    #[must_use]
    pub fn new(inner: DatagramEnd, cfg: FaultConfig) -> Self {
        FaultyDatagramEnd {
            inner,
            plan: Mutex::new(FaultPlan::new(cfg)),
        }
    }

    /// Sends one datagram through the fault plan.
    ///
    /// # Errors
    /// Fails if the (undamaged) payload exceeds the maximum size.
    pub fn send(&self, payload: &[u8]) -> Result<(), TooBig> {
        if payload.len() > self.inner.max_size() {
            return Err(TooBig {
                size: payload.len(),
                max: self.inner.max_size(),
            });
        }
        let out = self
            .plan
            .lock()
            .expect("fault plan poisoned")
            .apply(payload.to_vec());
        for d in out {
            self.inner.send(&d)?;
        }
        Ok(())
    }

    /// Receives one datagram, blocking.
    #[must_use]
    pub fn recv(&self) -> Option<flick_runtime::PooledBuf> {
        self.inner.recv()
    }

    /// Receives one datagram with a timeout.
    #[must_use]
    pub fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> crate::chan::Recv<flick_runtime::PooledBuf> {
        self.inner.recv_timeout(timeout)
    }

    /// Total faults injected so far.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.plan
            .lock()
            .expect("fault plan poisoned")
            .injected_total()
    }
}

impl flick_runtime::client::Endpoint for FaultyDatagramEnd {
    fn send(&self, payload: &[u8]) -> Result<(), &'static str> {
        FaultyDatagramEnd::send(self, payload).map_err(|_| "datagram too big")
    }

    fn recv_deadline(&self, timeout: std::time::Duration) -> flick_runtime::client::RecvOutcome {
        match self.recv_timeout(timeout) {
            crate::chan::Recv::Msg(m) => flick_runtime::client::RecvOutcome::Msg(m),
            crate::chan::Recv::TimedOut => flick_runtime::client::RecvOutcome::TimedOut,
            crate::chan::Recv::Closed => flick_runtime::client::RecvOutcome::Closed,
        }
    }
}

/// A Mach [`PortSpace`] send path with a fault plan.  All sends made
/// through this handle share one schedule, whatever their target port.
pub struct FaultyPort {
    space: PortSpace,
    plan: Mutex<FaultPlan<Vec<u8>>>,
}

impl FaultyPort {
    /// Wraps a port space's send path with a fault schedule.
    #[must_use]
    pub fn new(space: PortSpace, cfg: FaultConfig) -> Self {
        FaultyPort {
            space,
            plan: Mutex::new(FaultPlan::new(cfg)),
        }
    }

    /// Sends `msg` to `port` through the fault plan.  Returns false if
    /// the port is dead (a fully dropped message still returns true —
    /// the sender can't tell).
    pub fn send(&self, port: PortName, msg: Vec<u8>) -> bool {
        let out = self.plan.lock().expect("fault plan poisoned").apply(msg);
        let mut ok = true;
        for m in out {
            ok &= self.space.send(port, m);
        }
        ok
    }

    /// The underlying port space (for receives and allocation).
    #[must_use]
    pub fn space(&self) -> &PortSpace {
        &self.space
    }

    /// Total faults injected so far.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.plan
            .lock()
            .expect("fault plan poisoned")
            .injected_total()
    }
}

/// A [`FlukeEnd`] whose outgoing messages pass through a fault plan
/// that understands the register window + overflow split.
pub struct FaultyFlukeEnd {
    inner: FlukeEnd,
    plan: Mutex<FaultPlan<FlukeMsg>>,
}

impl FaultyFlukeEnd {
    /// Wraps a Fluke end with a fault schedule.
    #[must_use]
    pub fn new(inner: FlukeEnd, cfg: FaultConfig) -> Self {
        FaultyFlukeEnd {
            inner,
            plan: Mutex::new(FaultPlan::new(cfg)),
        }
    }

    /// Sends one IPC message through the fault plan.
    pub fn send(&self, msg: FlukeMsg) {
        let out = self.plan.lock().expect("fault plan poisoned").apply(msg);
        for m in out {
            self.inner.send(m);
        }
    }

    /// Receives the next message, blocking.
    #[must_use]
    pub fn recv(&self) -> Option<FlukeMsg> {
        self.inner.recv()
    }

    /// Total faults injected so far.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.plan
            .lock()
            .expect("fault plan poisoned")
            .injected_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: u8) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i; 8]).collect()
    }

    #[test]
    fn clean_plan_is_identity() {
        let mut p: FaultPlan = FaultPlan::new(FaultConfig::clean(7));
        for m in seq(20) {
            assert_eq!(p.apply(m.clone()), vec![m]);
        }
        assert_eq!(p.injected_total(), 0);
        assert!(p.flush().is_empty());
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            drop: 100,
            duplicate: 100,
            reorder: 100,
            truncate: 100,
            bitflip: 100,
            delay: 100,
            ..FaultConfig::clean(42)
        };
        let run = || {
            let mut p: FaultPlan = FaultPlan::new(cfg);
            let mut out = Vec::new();
            for m in seq(64) {
                out.extend(p.apply(m));
            }
            out.extend(p.flush());
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn drop_only_plan_drops_roughly_the_configured_rate() {
        let mut p: FaultPlan = FaultPlan::new(FaultConfig::lossy(3, 500, 0));
        let mut delivered = 0usize;
        for m in seq(200) {
            delivered += p.apply(m).len();
        }
        let dropped = p.injected(FaultKind::Drop);
        assert_eq!(delivered as u64 + dropped, 200);
        assert!((60..=140).contains(&dropped), "dropped {dropped} of 200");
    }

    #[test]
    fn duplicate_doubles_and_truncate_shrinks() {
        let mut p: FaultPlan = FaultPlan::new(FaultConfig {
            duplicate: 1000,
            ..FaultConfig::clean(1)
        });
        assert_eq!(p.apply(vec![9; 4]).len(), 2);

        let mut p: FaultPlan = FaultPlan::new(FaultConfig {
            truncate: 1000,
            ..FaultConfig::clean(1)
        });
        let out = p.apply(vec![9; 100]);
        assert_eq!(out.len(), 1);
        assert!(out[0].len() < 100);
        assert_eq!(p.injected(FaultKind::Truncate), 1);
    }

    #[test]
    fn reorder_swaps_adjacent_messages() {
        let mut p: FaultPlan = FaultPlan::new(FaultConfig {
            reorder: 1000,
            ..FaultConfig::clean(5)
        });
        // Every message is held for the next; the stream comes out
        // shifted: [], [b, a], [c, b]... — flush releases the last.
        assert!(p.apply(vec![1]).is_empty());
        let out = p.apply(vec![2]);
        assert_eq!(out, vec![vec![1]]); // 2 held, 1 released
        assert_eq!(p.flush(), vec![vec![2]]);
    }

    #[test]
    fn delay_releases_after_ticks() {
        let mut p: FaultPlan = FaultPlan::new(FaultConfig {
            delay: 1000,
            delay_ticks: 2,
            ..FaultConfig::clean(5)
        });
        // Give later sends a clean plan so only the first is delayed.
        let held = p.apply(vec![7]);
        assert!(held.is_empty());
        p.cfg.delay = 0;
        assert_eq!(p.apply(vec![8]), vec![vec![8]]); // tick 2 < due 3
        let out = p.apply(vec![9]); // tick 3 == due
        assert_eq!(out, vec![vec![9], vec![7]]);
    }

    #[test]
    fn bitflip_changes_exactly_one_bit() {
        let mut p: FaultPlan = FaultPlan::new(FaultConfig {
            bitflip: 1000,
            ..FaultConfig::clean(11)
        });
        let orig = vec![0u8; 16];
        let out = p.apply(orig.clone());
        let diff: u32 = out[0]
            .iter()
            .zip(&orig)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn fluke_payload_faults_respect_the_window() {
        let mut m = FlukeMsg::new();
        m.regs[0] = 0xffff_ffff;
        m.regs[1] = 0xffff_ffff;
        m.reg_count = 2;
        m.overflow = vec![0xff; 4];
        assert_eq!(m.fault_len(), 12);
        let mut t = m.clone();
        t.fault_truncate(6); // into the register window
        assert_eq!(t.reg_count, 1);
        assert!(t.overflow.is_empty());
        let mut t = m.clone();
        t.fault_truncate(10); // into the overflow
        assert_eq!(t.reg_count, 2);
        assert_eq!(t.overflow.len(), 2);
        let mut f = m.clone();
        f.fault_flip_bit(33); // second register, bit 1
        assert_eq!(f.regs[1], 0xffff_fffd);
        let mut f = m;
        f.fault_flip_bit(64); // first overflow byte, bit 0
        assert_eq!(f.overflow[0], 0xfe);
    }

    #[test]
    fn faulty_datagram_end_drops_and_duplicates() {
        let (c, s) = crate::datagram::datagram_pair(1024);
        let c = FaultyDatagramEnd::new(c, FaultConfig::lossy(9, 300, 200));
        for i in 0..50u8 {
            c.send(&[i]).unwrap();
        }
        drop(c);
        let mut got = 0usize;
        while s.recv().is_some() {
            got += 1;
        }
        assert!(got > 0 && got != 50, "faults must perturb delivery: {got}");
    }

    #[test]
    fn faulty_stream_end_reframes_truncated_records() {
        let (a, b) = crate::stream::stream_pair();
        let a = FaultyStreamEnd::new(a, FaultConfig::corrupting(13, 1000, 0));
        a.write_record(&[0xab; 64]);
        a.close();
        let rec = crate::stream::read_record(&b).unwrap_or_default();
        assert!(rec.len() < 64, "record must arrive truncated");
    }
}
