//! Whole-system exchanges: generated stubs + message framing + the
//! in-process transports, client and server on separate threads.

use std::thread;

use flick_bench::data;
use flick_bench::generated::{iiop_bench, mail_onc, onc_bench};
use flick_runtime::cdr::{ByteOrder, CdrIn, CdrOut};
use flick_runtime::giop::{self, MsgType, ReplyStatus};
use flick_runtime::oncrpc::{self, CallHeader};
use flick_runtime::{MarshalBuf, MsgReader};
use flick_transport::datagram::{datagram_pair, DEFAULT_MAX_DATAGRAM};
use flick_transport::stream::{read_giop, read_record, stream_pair, write_giop, write_record};

struct Sink {
    ints: Vec<i32>,
    dirents: usize,
}

impl onc_bench::Server for Sink {
    fn send_ints(&mut self, vals: Vec<i32>) {
        self.ints.extend(vals);
    }
    fn send_rects(&mut self, _r: Vec<onc_bench::Rect>) {}
    fn send_dirents(&mut self, entries: Vec<onc_bench::Dirent>) {
        self.dirents += entries.len();
    }
    fn echo_stat(&mut self, _s: onc_bench::Stat) -> flick_runtime::Echoed<onc_bench::Stat> {
        flick_runtime::Echoed::Unchanged
    }
}

#[test]
fn onc_rpc_over_stream_roundtrip() {
    let (client_end, server_end) = stream_pair();
    let server = thread::spawn(move || {
        let mut sink = Sink {
            ints: Vec::new(),
            dirents: 0,
        };
        let mut reply = MarshalBuf::new();
        while let Some(record) = read_record(&server_end) {
            let mut r = MsgReader::new(&record);
            let h = CallHeader::read(&mut r).expect("call header");
            assert_eq!(h.prog, 0x2000_0042);
            reply.clear();
            oncrpc::write_reply(&mut reply, h.xid, oncrpc::ReplyOutcome::Success);
            onc_bench::dispatch(h.proc, &record[r.pos()..], &mut reply, &mut sink)
                .expect("dispatch");
            write_record(&server_end, reply.as_slice());
        }
        sink
    });

    let vals = data::onc::ints(100);
    let mut buf = MarshalBuf::new();
    CallHeader {
        xid: 1,
        prog: 0x2000_0042,
        vers: 1,
        proc: 1,
    }
    .write(&mut buf);
    onc_bench::encode_send_ints_request(&mut buf, &vals);
    write_record(&client_end, buf.as_slice());
    let reply = read_record(&client_end).expect("reply");
    let mut r = MsgReader::new(reply.as_slice());
    assert_eq!(oncrpc::read_reply(&mut r).expect("ok"), 1);

    buf.clear();
    CallHeader {
        xid: 2,
        prog: 0x2000_0042,
        vers: 1,
        proc: 3,
    }
    .write(&mut buf);
    onc_bench::encode_send_dirents_request(&mut buf, &data::onc::dirents(5));
    write_record(&client_end, buf.as_slice());
    let reply = read_record(&client_end).expect("reply");
    let mut r = MsgReader::new(reply.as_slice());
    assert_eq!(oncrpc::read_reply(&mut r).expect("ok"), 2);

    client_end.close();
    let sink = server.join().expect("server");
    assert_eq!(sink.ints, data::onc::ints(100));
    assert_eq!(sink.dirents, 5);
}

#[test]
fn onc_rpc_over_udp_datagrams() {
    let (client_end, server_end) = datagram_pair(DEFAULT_MAX_DATAGRAM);
    let server = thread::spawn(move || {
        let mut sink = Sink {
            ints: Vec::new(),
            dirents: 0,
        };
        let mut reply = MarshalBuf::new();
        while let Some(datagram) = server_end.recv() {
            let datagram = datagram.as_slice();
            let mut r = MsgReader::new(datagram);
            let h = CallHeader::read(&mut r).expect("call header");
            reply.clear();
            oncrpc::write_reply(&mut reply, h.xid, oncrpc::ReplyOutcome::Success);
            onc_bench::dispatch(h.proc, &datagram[r.pos()..], &mut reply, &mut sink)
                .expect("dispatch");
            server_end.send(reply.as_slice()).expect("reply fits");
        }
        sink.ints.len()
    });

    let mut buf = MarshalBuf::new();
    CallHeader {
        xid: 9,
        prog: 0x2000_0042,
        vers: 1,
        proc: 1,
    }
    .write(&mut buf);
    onc_bench::encode_send_ints_request(&mut buf, &data::onc::ints(64));
    client_end.send(buf.as_slice()).expect("datagram fits");
    let reply = client_end.recv().expect("reply");
    let mut r = MsgReader::new(reply.as_slice());
    assert_eq!(oncrpc::read_reply(&mut r).expect("ok"), 9);

    drop(client_end);
    assert_eq!(server.join().expect("server"), 64);
}

#[test]
fn oversized_udp_message_fails_like_the_paper_says() {
    // Figure 4's note: rpcgen/PowerRPC stubs "signal an error when
    // invoked to marshal large arrays".  Our transport surfaces the
    // same failure mode for any stub that exceeds a datagram.
    let (client_end, _server_end) = datagram_pair(DEFAULT_MAX_DATAGRAM);
    let mut buf = MarshalBuf::new();
    CallHeader {
        xid: 1,
        prog: 0x2000_0042,
        vers: 1,
        proc: 1,
    }
    .write(&mut buf);
    onc_bench::encode_send_ints_request(&mut buf, &data::onc::ints(1 << 20));
    assert!(client_end.send(buf.as_slice()).is_err());
}

#[test]
fn iiop_request_reply_with_name_dispatch() {
    struct Count(usize);
    impl iiop_bench::Server for Count {
        fn send_ints(&mut self, v: Vec<i32>) {
            self.0 += v.len();
        }
        fn send_rects(&mut self, v: Vec<iiop_bench::Rect>) {
            self.0 += v.len();
        }
        fn send_dirents(&mut self, v: Vec<iiop_bench::Dirent>) {
            self.0 += v.len();
        }
        fn echo_stat(&mut self, s: iiop_bench::Stat) -> iiop_bench::Stat {
            s
        }
    }

    let order = ByteOrder::native();
    let (client_end, server_end) = stream_pair();
    let server = thread::spawn(move || {
        let mut srv = Count(0);
        while let Some(msg) = read_giop(&server_end) {
            let mut r = MsgReader::new(&msg);
            let h = giop::read_header(&mut r).expect("header");
            let cdr = CdrIn::begin(&r, h.order);
            let req = giop::get_request_header(&mut r, &cdr).expect("req header");
            let mut reply = MarshalBuf::new();
            let at = giop::begin_message(&mut reply, h.order, MsgType::Reply);
            let out = CdrOut::begin(&reply, h.order);
            giop::put_reply_header(&mut reply, &out, req.request_id, ReplyStatus::NoException);
            iiop_bench::dispatch_by_name(
                req.operation.as_bytes(),
                &msg[r.pos()..],
                &mut reply,
                &mut srv,
            )
            .expect("dispatch");
            giop::finish_message(&mut reply, at, h.order);
            write_giop(&server_end, reply.as_slice());
        }
        srv.0
    });

    let mut msg = MarshalBuf::new();
    let at = giop::begin_message(&mut msg, order, MsgType::Request);
    let cdr = CdrOut::begin(&msg, order);
    giop::put_request_header(&mut msg, &cdr, 5, true, b"obj", "send_rects");
    iiop_bench::encode_send_rects_request(&mut msg, &data::iiop::rects(12));
    giop::finish_message(&mut msg, at, order);
    write_giop(&client_end, msg.as_slice());

    let reply = read_giop(&client_end).expect("reply");
    let mut r = MsgReader::new(&reply);
    let h = giop::read_header(&mut r).expect("header");
    assert_eq!(h.msg_type, MsgType::Reply);
    let cdr = CdrIn::begin(&r, h.order);
    let rh = giop::get_reply_header(&mut r, &cdr).expect("reply header");
    assert_eq!(rh.request_id, 5);

    client_end.close();
    assert_eq!(server.join().expect("server"), 12);
}

#[test]
fn mail_string_borrows_from_receive_buffer() {
    // §3.1 parameter management: the dispatch path presents the
    // message text without copying; the server sees the bytes that
    // live in the receive buffer.
    struct Check<'a> {
        expect: &'a str,
        hits: usize,
    }
    impl mail_onc::Server for Check<'_> {
        fn send(&mut self, msg: &str) {
            assert_eq!(msg, self.expect);
            self.hits += 1;
        }
    }

    let text = "zero copy all the way";
    let mut buf = MarshalBuf::new();
    mail_onc::encode_send_request(&mut buf, text);
    let mut reply = MarshalBuf::new();
    let mut srv = Check {
        expect: text,
        hits: 0,
    };
    mail_onc::dispatch(1, buf.as_slice(), &mut reply, &mut srv).expect("dispatch");
    assert_eq!(srv.hits, 1);
}
