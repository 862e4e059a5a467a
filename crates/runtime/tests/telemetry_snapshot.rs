//! With collection enabled, real marshal traffic shows up in a
//! registry snapshot: message counts, byte totals, and latency
//! histograms for the CDR and XDR paths.

use flick_runtime::cdr::ByteOrder;
use flick_runtime::giop::{begin_message, finish_message, read_header, MsgType};
use flick_runtime::oncrpc::{deframe_record, frame_record, CallHeader};
use flick_runtime::{MarshalBuf, MsgReader};
use flick_telemetry::MetricValue;

fn histogram_count(s: &flick_telemetry::Snapshot, name: &str) -> u64 {
    match s.get(name) {
        Some(MetricValue::Histogram(h)) => h.count,
        other => panic!("{name} should be a histogram, got {other:?}"),
    }
}

#[test]
fn cdr_and_xdr_traffic_lands_in_the_snapshot() {
    flick_telemetry::set_enabled(true);
    flick_telemetry::global().reset();

    const ROUNDS: u64 = 10;
    let mut giop_bytes = 0u64;
    for i in 0..ROUNDS {
        // CDR encode + decode via GIOP framing.
        let mut buf = MarshalBuf::new();
        let at = begin_message(&mut buf, ByteOrder::Big, MsgType::Request);
        for j in 0..=i {
            buf.put_u32_be(j as u32);
        }
        finish_message(&mut buf, at, ByteOrder::Big);
        let data = buf.into_vec();
        giop_bytes += data.len() as u64;
        let mut r = MsgReader::new(&data);
        read_header(&mut r).expect("header parses");

        // XDR encode + decode via record marking.
        let mut buf = MarshalBuf::new();
        CallHeader {
            xid: i as u32,
            prog: 1,
            vers: 1,
            proc: 1,
        }
        .write(&mut buf);
        let framed = frame_record(&buf.into_vec());
        deframe_record(&framed).expect("record deframes");
    }

    let s = flick_telemetry::global().snapshot();

    // Counts.
    assert_eq!(s.counter("runtime.cdr.encode.msgs"), Some(ROUNDS));
    assert_eq!(s.counter("runtime.cdr.decode.msgs"), Some(ROUNDS));
    assert_eq!(s.counter("runtime.xdr.encode.msgs"), Some(ROUNDS));
    assert_eq!(s.counter("runtime.xdr.decode.msgs"), Some(ROUNDS));

    // Byte totals: encode and decode saw the same complete messages.
    assert_eq!(s.counter("runtime.cdr.encode.bytes"), Some(giop_bytes));
    assert_eq!(s.counter("runtime.cdr.decode.bytes"), Some(giop_bytes));
    let xdr_sent = s.counter("runtime.xdr.encode.bytes").unwrap();
    assert_eq!(s.counter("runtime.xdr.decode.bytes"), Some(xdr_sent));
    // 40-byte call header + 4-byte record mark, each round.
    assert_eq!(xdr_sent, ROUNDS * 44);

    // Latency histograms populated where begin/end pairs bracket work.
    assert_eq!(histogram_count(&s, "runtime.cdr.encode.ns"), ROUNDS);
    assert_eq!(histogram_count(&s, "runtime.xdr.encode.ns"), ROUNDS);
    assert_eq!(histogram_count(&s, "runtime.cdr.decode.ns"), ROUNDS);
    assert_eq!(histogram_count(&s, "runtime.xdr.decode.ns"), ROUNDS);

    // Size distributions track every message.
    assert_eq!(histogram_count(&s, "runtime.cdr.encode.size"), ROUNDS);
    assert_eq!(histogram_count(&s, "runtime.xdr.encode.size"), ROUNDS);

    // And the whole thing exports.
    let json = s.to_json();
    assert!(json.contains("\"runtime.cdr.encode.msgs\":{\"type\":\"counter\",\"value\":10}"));
    assert!(json.contains("\"runtime.xdr.encode.ns\":{\"type\":\"histogram\""));
    let text = s.to_text();
    assert!(text.contains("runtime.cdr.encode.msgs"));

    flick_telemetry::set_enabled(false);
}
