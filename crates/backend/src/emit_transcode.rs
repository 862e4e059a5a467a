//! Rust emission for encoding→encoding transcoder stubs.
//!
//! Turns a [`TranscodePlans`] into a standalone generated module of
//! `transcode_<op>_<message>(src: &[u8], dst: &mut MarshalBuf)`
//! functions — requests source → target, replies target → source —
//! plus dispatchers on the source procedure number (the ONC-style
//! integer discriminator on the source header).  A gateway facing the
//! other way is the module of the swapped pair
//! (`flickc --transcode=DST:SRC`).
//!
//! The generated byte behavior is pinned to the endpoint stubs: every
//! value is read exactly as the source-encoding decoder would read it
//! (same alignment skips, same bound/NUL/UTF-8/discriminator checks,
//! same error values at the same stream positions) and written exactly
//! as the target-encoding encoder would write it — through the stub
//! emitter's own wire accessors (`Get`, `Put`, `read_len`, `read_str`,
//! `put_len`, `put_str`, `align_get` / `align_put`), given the
//! gateway's streams and alignment bases.  Only the pads are
//! the gateway's own: it pads by the count it read.  A fused run is one
//! truncation check and one target reservation per region, its parts
//! moved by `put_bytes` or the stubs' swap kernel (`put_swapped`); the
//! `_naive` twins re-read and re-write slot by slot, materializing
//! strings and scalar sequences, and are what
//! `--disable-pass=fuse-transcode` routes through.
//!
//! Like the stub emitter, this one writes through the shared
//! [`CodeWriter`] and borrows the plans.

use crate::emit_rust::{
    align_get, align_put, prim_rust_ty, put_len, put_str, read_len, read_str, Get, Put,
};
use crate::encoding::{Encoding, Order, WirePrim};
use crate::transcode::{TranscodePlan, TranscodePlans, XcOp, XcPart};
use crate::writer::{open, put, CodeWriter, Piece};

/// Emits the transcoder module for `plans`.
#[must_use]
pub fn emit(plans: &TranscodePlans) -> String {
    // Four functions and four dispatcher arms per operation, a few
    // lines per rewrite step: the buffer rarely has to grow.
    let steps = plans.stats.prim_ops + plans.stats.runs + plans.stats.bulk_seqs;
    let mut e = Emit {
        plans,
        w: CodeWriter::with_capacity(4096 + 2048 * plans.stubs.len() + 512 * steps as usize),
    };
    e.module();
    e.w.finish()
}

/// One emission direction: which encoding is read and which is
/// written, and which outline helper family the direction calls.
#[derive(Clone, Copy)]
struct Dir<'a> {
    from: &'a Encoding,
    to: &'a Encoding,
    /// Helper-name suffix (`fwd` = src→dst for requests, `rev` =
    /// dst→src for replies).
    tag: &'static str,
}

struct Emit<'a> {
    plans: &'a TranscodePlans,
    w: CodeWriter,
}

impl<'a> Emit<'a> {
    fn fwd(&self) -> Dir<'a> {
        Dir {
            from: &self.plans.src,
            to: &self.plans.dst,
            tag: "fwd",
        }
    }

    fn rev(&self) -> Dir<'a> {
        Dir {
            from: &self.plans.dst,
            to: &self.plans.src,
            tag: "rev",
        }
    }

    // -----------------------------------------------------------------
    // Module shell.
    // -----------------------------------------------------------------

    fn module(&mut self) {
        let p = self.plans;
        let w = &mut self.w;
        put!(w; "//! Flick-generated transcoder — interface `", &p.interface, "`, `",
            p.src.name, "` → `", p.dst.name, "`.");
        w.push(
            "//! Generated by flick-backend; do not edit.\n\
             #![allow(clippy::all, dead_code, unused_variables, unused_mut, unused_imports, unused_parens, non_snake_case, non_camel_case_types)]\n\
             \n\
             use flick_runtime::bridge::BridgeOp;\n\
             use flick_runtime::buf::{MarshalBuf, MsgReader};\n\
             use flick_runtime::error::DecodeError;\n\
             \n\
             /// True when the `fuse-transcode` pass collapsed tiling runs;\n\
             /// false for the decode-then-re-encode ablation build.\n",
        );
        put!(w; "pub const FUSED: bool = ", p.fused, ";");
        w.push("/// Source (client-facing) encoding.\n");
        put!(w; "pub const SRC_ENCODING: &str = \"", p.src.name, "\";");
        w.push("/// Target (server-facing) encoding.\n");
        put!(w; "pub const DST_ENCODING: &str = \"", p.dst.name, "\";");
        w.push("/// Byte-order flag for outgoing GIOP headers on the target side.\n");
        put!(w; "pub const DST_LITTLE_ENDIAN: bool = ", p.dst.order == Order::Little, ";");
        w.push(
            "/// ONC RPC program / version on the source side (the wire\n\
             /// header carries 32 bits; synthesized CORBA ids truncate).\n",
        );
        put!(w; "pub const PROGRAM: u32 = ", p.program as u32, "u32;");
        put!(w; "pub const VERSION: u32 = ", p.version as u32, "u32;\n");

        self.bridge_table();
        for stub in &p.stubs {
            self.op_fns(stub);
        }
        self.dispatchers(&p.stubs);
        self.outline_helpers();
    }

    fn bridge_table(&mut self) {
        self.w
            .put("/// Per-operation gateway table consumed by `flick_runtime::bridge`.");
        self.w.open("pub static BRIDGE_OPS: &[BridgeOp] = &[");
        for s in &self.plans.stubs {
            let n = &s.op.name;
            self.w.open("BridgeOp {");
            put!(self.w; "proc_num: ", s.op.request_code, "u32,");
            put!(self.w; "name: \"", s.op.wire_name, "\",");
            put!(self.w; "oneway: ", s.op.oneway, ",");
            // Oneways tolerate duplicate delivery by construction
            // (ONC datagram semantics); two-way calls may not, so a
            // retrying upstream link must leave them alone.
            put!(self.w; "idempotent: ", s.op.oneway, ",");
            put!(self.w; "request: transcode_", n, "_request,");
            put!(self.w; "reply: transcode_", n, "_reply,");
            put!(self.w; "request_naive: transcode_", n, "_request_naive,");
            put!(self.w; "reply_naive: transcode_", n, "_reply_naive,");
            self.w.close("},");
        }
        self.w.close("];");
        self.w.put("");
    }

    // -----------------------------------------------------------------
    // Per-operation functions.
    // -----------------------------------------------------------------

    fn op_fns(&mut self, stub: &TranscodePlan) {
        let n = &stub.op.name;
        let (src, dst) = (self.plans.src.name, self.plans.dst.name);
        self.body_fn(
            &("transcode_", n, "_request"),
            &(
                ("Rewrites the `", n, "` request body "),
                (src, " → ", dst, " (fused when the plan is)."),
            ),
            &stub.request,
            self.fwd(),
            false,
        );
        self.body_fn(
            &("transcode_", n, "_reply"),
            &("Rewrites the `", n, "` reply body ", dst, " → ", (src, ".")),
            &stub.reply,
            self.rev(),
            false,
        );
        self.body_fn(
            &("transcode_", n, "_request_naive"),
            &(
                "Slot-wise `",
                n,
                "` request rewrite (the fuse-transcode ablation path).",
            ),
            &stub.naive_request,
            self.fwd(),
            true,
        );
        self.body_fn(
            &("transcode_", n, "_reply_naive"),
            &(
                "Slot-wise `",
                n,
                "` reply rewrite (the fuse-transcode ablation path).",
            ),
            &stub.naive_reply,
            self.rev(),
            true,
        );
    }

    fn body_fn(
        &mut self,
        name: &dyn Piece,
        doc: &dyn Piece,
        ops: &[XcOp],
        dir: Dir<'a>,
        naive: bool,
    ) {
        self.w.restart_tmps();
        put!(self.w; "/// ", doc);
        open!(self.w; "pub fn ", name,
            "(src: &[u8], dst: &mut MarshalBuf) -> Result<(), DecodeError> {");
        if ops.is_empty() {
            self.w.put("let _ = (src, dst);");
        } else {
            self.w.put("let mut _reader = MsgReader::new(src);");
            self.w.put("let r = &mut _reader;");
            self.w.put("let _sb = r.pos();");
            self.w.put("let _db = dst.len();");
            self.emit_ops(ops, dir, naive);
        }
        self.w.put("Ok(())");
        self.w.close("}");
        self.w.put("");
    }

    // -----------------------------------------------------------------
    // Op emission.
    // -----------------------------------------------------------------

    fn emit_ops(&mut self, ops: &[XcOp], dir: Dir<'a>, naive: bool) {
        for op in ops {
            self.emit_op(op, dir, naive);
        }
    }

    fn emit_op(&mut self, op: &XcOp, dir: Dir<'a>, naive: bool) {
        match op {
            XcOp::Prim { src, dst } => {
                align_get(&mut self.w, dir.from, "_sb", src.align);
                let v = self.w.fresh("v");
                put!(self.w; "let ", v, " = ", Get(*src, None), ";");
                align_put(&mut self.w, dir.to, "dst", "_db", dst.align);
                put!(self.w; Put(*dst, &"dst", None, &v));
            }
            XcOp::Run { bytes, parts } => {
                self.align_run(dir, parts);
                let n: u64 = parts.iter().map(|p| p.count).sum();
                self.emit_run(
                    parts,
                    &("r.bytes(", bytes, "usize)?"),
                    None,
                    &(n, " values"),
                );
            }
            XcOp::Pad { src, dst } => {
                if *src > 0 {
                    put!(self.w; "r.skip(", src, "usize)?; // source pad");
                }
                if *dst > 0 {
                    put!(self.w; "dst.put_zeros(", dst, "usize); // target pad");
                }
            }
            XcOp::Str { bound } => self.emit_str(*bound, dir, naive),
            XcOp::Counted {
                bound,
                elem,
                bulk,
                src_pad,
                dst_pad,
            } => self.emit_counted(*bound, elem, *bulk, *src_pad, *dst_pad, dir, naive),
            XcOp::Fixed { len, elem } => {
                let i = self.w.fresh("i");
                open!(self.w; "for ", i, " in 0..", len, "usize {");
                self.emit_ops(elem, dir, naive);
                self.w.close("}");
            }
            XcOp::Union {
                src_disc,
                dst_disc,
                cases,
                default,
            } => self.emit_union(*src_disc, *dst_disc, cases, default.as_deref(), dir, naive),
            XcOp::Opt {
                src_flag,
                dst_flag,
                elem,
            } => self.emit_opt(*src_flag, *dst_flag, elem, dir, naive),
            XcOp::Outline { key } => {
                put!(self.w; "xc_", dir.tag, "_", key, "(r, dst, _sb, _db)?;");
            }
        }
    }

    /// Moves a run's parts out of the source bytes `take` borrows
    /// behind its one check.  A one-kind run is a single kernel call on
    /// the whole borrow; a mixed run binds it, reserves the target once
    /// and moves each stretch infallibly — per `stride`-byte element
    /// when the borrow is a bulk sequence.
    fn emit_run(
        &mut self,
        parts: &[XcPart],
        take: &dyn Piece,
        stride: Option<u64>,
        what: &dyn Piece,
    ) {
        // Adjacent parts of one kind cross together: `Some(width)`
        // through the swap kernel, `None` by plain copy.
        let mut segs: Vec<(Option<u8>, u64)> = Vec::new();
        for p in parts {
            let kind = p.swapped().then_some(p.src.size);
            match segs.last_mut() {
                Some((k, n)) if *k == kind => *n += p.bytes(),
                _ => segs.push((kind, p.bytes())),
            }
        }
        if let [(kind, _)] = segs.as_slice() {
            let verb = if kind.is_some() { "swap" } else { "block" };
            put!(self.w; Move(*kind, take), " // fused: ", what, " ", verb, "-copied");
            return;
        }
        let c = self.w.fresh("c");
        put!(self.w; "let ", c, " = ", take, "; // fused: ", what,
            ", one check and one reservation");
        put!(self.w; "dst.ensure(", c, ".len());");
        let e = match stride {
            Some(n) => {
                let e = self.w.fresh("e");
                open!(self.w; "for ", e, " in ", c, ".chunks_exact(", n, "usize) {");
                e
            }
            None => c,
        };
        let mut off = 0;
        for (kind, n) in segs {
            self.w
                .put(Move(kind, &("&", e, "[", (off, "..", off + n), "]")));
            off += n;
        }
        if stride.is_some() {
            self.w.close("}");
        }
    }

    fn emit_str(&mut self, bound: Option<u64>, dir: Dir<'a>, naive: bool) {
        let l = read_len(&mut self.w, dir.from, "_sb", bound);
        let s = read_str(&mut self.w, dir.from, l, !naive);
        align_put(&mut self.w, dir.to, "dst", "_db", dir.to.len_prefix().align);
        if let Some(u) = put_str(&mut self.w, dir.to, "dst", &s) {
            put!(self.w; "dst.put_zeros((", u, " - ", s, ".len() % ", u, ") % ", u, ");");
        }
    }

    /// Aligns both streams for a run, at its first part.
    fn align_run(&mut self, dir: Dir<'a>, parts: &[XcPart]) {
        align_get(&mut self.w, dir.from, "_sb", parts[0].src.align);
        align_put(&mut self.w, dir.to, "dst", "_db", parts[0].dst.align);
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_counted(
        &mut self,
        bound: Option<u64>,
        elem: &[XcOp],
        bulk: Option<u64>,
        src_pad: bool,
        dst_pad: bool,
        dir: Dir<'a>,
        naive: bool,
    ) {
        let l = read_len(&mut self.w, dir.from, "_sb", bound);
        align_put(&mut self.w, dir.to, "dst", "_db", dir.to.len_prefix().align);
        put_len(&mut self.w, dir.to, "dst", &l);

        if let Some(b) = bulk {
            // The element is one tiling run: the whole sequence moves
            // behind one checked `count × size` and one truncation
            // check.  Zero-length sequences skip entirely so no stray
            // alignment is consumed (the endpoints do the same).
            let [XcOp::Run { parts, .. }] = elem else {
                unreachable!("verified: a bulk mark is backed by one run")
            };
            open!(self.w; "if ", l, " > 0 {");
            self.align_run(dir, parts);
            self.emit_run(
                parts,
                &("r.run(", l, ", ", b, ")?"),
                Some(b),
                &"every element",
            );
            self.w.close("}");
        } else if let (true, [XcOp::Prim { src, dst }]) = (naive, elem) {
            // Scalar elements: the naive path materializes the
            // presented vector, then re-encodes it.
            let ty = prim_rust_ty(*src);
            let v = self.w.fresh("v");
            let i = self.w.fresh("i");
            put!(self.w; "let mut ", v, ": Vec<", ty, "> = Vec::with_capacity(", l,
                ".min(r.remaining() / ", src.slot.max(1), " + 1));");
            open!(self.w; "for ", i, " in 0..", l, " {");
            align_get(&mut self.w, dir.from, "_sb", src.align);
            put!(self.w; v, ".push(", Get(*src, None), ");");
            self.w.close("}");
            let e = self.w.fresh("e");
            open!(self.w; "for ", e, " in &", v, " {");
            align_put(&mut self.w, dir.to, "dst", "_db", dst.align);
            put!(self.w; Put(*dst, &"dst", None, &("*", e)));
            self.w.close("}");
        } else {
            let i = self.w.fresh("i");
            open!(self.w; "for ", i, " in 0..", l, " {");
            self.emit_ops(elem, dir, naive);
            self.w.close("}");
        }

        if src_pad {
            let u = u64::from(dir.from.pad_unit.unwrap_or(4));
            put!(self.w; "r.skip((", u, " - ", l, " % ", u, ") % ", u, ")?;");
        }
        if dst_pad {
            let u = u64::from(dir.to.pad_unit.unwrap_or(4));
            put!(self.w; "dst.put_zeros((", u, " - ", l, " % ", u, ") % ", u, ");");
        }
    }

    fn emit_union(
        &mut self,
        src_disc: WirePrim,
        dst_disc: WirePrim,
        cases: &[(i64, Vec<XcOp>)],
        default: Option<&[XcOp]>,
        dir: Dir<'a>,
        naive: bool,
    ) {
        align_get(&mut self.w, dir.from, "_sb", src_disc.align);
        let d = self.w.fresh("d");
        put!(self.w; "let ", d, " = (", Get(src_disc, None), ") as i64;");
        align_put(&mut self.w, dir.to, "dst", "_db", dst_disc.align);
        put!(self.w; Put(dst_disc, &"dst", None, &d));
        open!(self.w; "match ", d, " {");
        for (v, body) in cases {
            open!(self.w; v, "i64 => {");
            self.emit_ops(body, dir, naive);
            self.w.close("}");
        }
        if let Some(body) = default {
            self.w.open("_ => {");
            self.emit_ops(body, dir, naive);
            self.w.close("}");
        } else {
            put!(self.w; "_ => return Err(DecodeError::BadDiscriminator { value: ", d, " }),");
        }
        self.w.close("}");
    }

    fn emit_opt(
        &mut self,
        src_flag: WirePrim,
        dst_flag: WirePrim,
        elem: &[XcOp],
        dir: Dir<'a>,
        naive: bool,
    ) {
        align_get(&mut self.w, dir.from, "_sb", src_flag.align);
        let f = self.w.fresh("flag");
        put!(self.w; "let ", f, " = ", Get(src_flag, None), ";");
        put!(self.w; "match ", f,
            " { 0 | 1 => {} _ => return Err(DecodeError::BadValue(\"optional flag must be 0 or 1\")) }");
        align_put(&mut self.w, dir.to, "dst", "_db", dst_flag.align);
        put!(self.w; Put(dst_flag, &"dst", None, &f));
        open!(self.w; "if ", f, " == 1 {");
        self.emit_ops(elem, dir, naive);
        self.w.close("}");
    }

    // -----------------------------------------------------------------
    // Dispatchers.
    // -----------------------------------------------------------------

    fn dispatchers(&mut self, stubs: &[TranscodePlan]) {
        for (fn_name, member, ret) in [
            ("transcode_request", "request", true),
            ("transcode_request_naive", "request_naive", true),
            ("transcode_reply", "reply", false),
            ("transcode_reply_naive", "reply_naive", false),
        ] {
            let ret_ty = if ret { "&'static str" } else { "()" };
            put!(self.w; "/// Dispatches a `", member, "` rewrite on the source procedure number.");
            open!(self.w; "pub fn ", fn_name,
                "(proc_num: u32, src: &[u8], dst: &mut MarshalBuf) -> Result<", ret_ty,
                ", DecodeError> {");
            self.w.open("match proc_num {");
            for s in stubs {
                let n = &s.op.name;
                if ret {
                    put!(self.w; s.op.request_code, "u32 => { transcode_", n, "_", member,
                        "(src, dst)?; Ok(\"", s.op.wire_name, "\") }");
                } else {
                    put!(self.w; s.op.request_code, "u32 => transcode_", n, "_", member,
                        "(src, dst),");
                }
            }
            self.w
                .put("_ => Err(DecodeError::BadHeader(\"unknown procedure\")),");
            self.w.close("}");
            self.w.close("}");
            self.w.put("");
        }
    }

    // -----------------------------------------------------------------
    // Outline helpers (recursive presentations).
    // -----------------------------------------------------------------

    fn outline_helpers(&mut self) {
        let p = self.plans;
        for (table, dir) in [
            (&p.request_outlines, self.fwd()),
            (&p.reply_outlines, self.rev()),
        ] {
            for (key, body) in table {
                self.w.restart_tmps();
                put!(self.w; "/// Out-of-line rewrite of recursive type `", key, "` (",
                    dir.from.name, " → ", dir.to.name, ").");
                open!(self.w; "fn xc_", dir.tag, "_", key,
                    "(r: &mut MsgReader<'_>, dst: &mut MarshalBuf, _sb: usize, _db: usize) -> Result<(), DecodeError> {");
                self.emit_ops(body, dir, true);
                self.w.put("Ok(())");
                self.w.close("}");
                self.w.put("");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Expression tables.
// ---------------------------------------------------------------------------

/// The statement that moves the borrowed source bytes `.1` to the
/// target: through the swap kernel at `Some(width)`, else a plain copy.
struct Move<'e>(Option<u8>, &'e dyn Piece);

impl Piece for Move<'_> {
    fn write(&self, out: &mut String) {
        match self {
            Move(Some(w), bytes) => ("dst.put_swapped(", w, ", ", bytes, ");").write(out),
            Move(None, bytes) => ("dst.put_bytes(", bytes, ");").write(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_transcode;
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    const IDL: &str = r#"
        struct Stat { long fields[30]; char tag[16]; };
        struct Rect { long x; long y; long w; long h; };
        struct Tagged { long id; long n; char tag[8]; };
        interface Bench {
            long send_ints(in sequence<long, 1024> v);
            void send_rects(in sequence<Rect, 1024> r);
            void send_tagged(in sequence<Tagged, 64> t);
            Stat echo_stat(in Stat s);
            string<64> name_of(in string<64> k);
        };
    "#;

    fn pair(src: &Encoding, dst: &Encoding, fused: bool) -> String {
        let aoi = flick_frontend_corba::parse_str("t.idl", IDL);
        let mut d = Diagnostics::new();
        let presc =
            flick_presgen::corba_c(&aoi, "Bench", Side::Server, &mut d).expect("presentation");
        compile_transcode(&presc, src, dst, fused).expect("emit").0
    }

    fn source_to(dst: &Encoding, fused: bool) -> String {
        pair(&Encoding::xdr(), dst, fused)
    }

    fn source(fused: bool) -> String {
        source_to(&Encoding::cdr_le(), fused)
    }

    /// The XDR → CDR-LE module and the module of the swapped pair.
    fn both_ways() -> [String; 2] {
        [
            source(true),
            pair(&Encoding::cdr_le(), &Encoding::xdr(), true),
        ]
    }

    /// The text of generated function `name`, up to the next one.
    fn body(src: &str, name: &str) -> String {
        src.split(&format!("pub fn {name}("))
            .nth(1)
            .and_then(|rest| rest.split("pub fn ").next())
            .unwrap_or_else(|| panic!("{name} body"))
            .to_string()
    }

    #[test]
    fn module_shell_names_the_encoding_pair() {
        let s = source(true);
        assert!(s.contains("pub const FUSED: bool = true;"));
        assert!(s.contains("pub const SRC_ENCODING: &str = \"xdr\";"));
        assert!(s.contains("pub const DST_ENCODING: &str = \"cdr-le\";"));
        assert!(s.contains("pub const DST_LITTLE_ENDIAN: bool = true;"));
        assert!(s.contains("pub static BRIDGE_OPS: &[BridgeOp]"));
        assert!(
            s.contains("idempotent: false,"),
            "two-way ops must be marked non-idempotent"
        );
        for f in [
            "pub fn transcode_send_ints_request(",
            "pub fn transcode_send_ints_reply(",
            "pub fn transcode_send_ints_request_naive(",
            "pub fn transcode_name_of_reply_naive(",
            "pub fn transcode_request(",
            "pub fn transcode_reply(",
        ] {
            assert!(s.contains(f), "missing {f} in:\n{s}");
        }
        // The gateway facing the other way is the swapped pair's module.
        assert!(!s.contains("_rev(") && !s.contains("by_name"), "{s}");
    }

    #[test]
    fn fused_source_block_copies_where_the_ablated_one_loops() {
        let fused = source(true);
        // XDR→CDR-LE disagrees on i32 order, and the stat is still one
        // region in every direction, either pair: one truncation check,
        // one target reservation, a swap-copy of the 30 words and a copy
        // of the 16 tag bytes — no loop.
        for (module, f) in both_ways()
            .iter()
            .flat_map(|m| [(m, "request"), (m, "reply")])
        {
            let b = body(module, &format!("transcode_echo_stat_{f}"));
            for line in [
                "let _c1 = r.bytes(136usize)?; // fused: 46 values",
                "dst.ensure(_c1.len());",
                "dst.put_swapped(4, &_c1[0..120]);",
                "dst.put_bytes(&_c1[120..136]);",
            ] {
                assert!(b.contains(line), "{f} lacks `{line}`:\n{b}");
            }
            assert!(!b.contains("for _"), "{f} must not loop:\n{b}");
        }
        // The reference twin and the ablated module stay slot-wise.
        let twin = body(&fused, "transcode_echo_stat_request_naive");
        assert!(
            twin.contains("for _i") && !twin.contains("// fused") && !twin.contains("put_swapped"),
            "{twin}"
        );
        let naive = source(false);
        let ablated = body(&naive, "transcode_echo_stat_request");
        assert!(
            !ablated.contains("// fused") && !ablated.contains("put_swapped"),
            "ablated primary body must stay slot-wise:\n{ablated}"
        );
        assert!(naive.contains("pub const FUSED: bool = false;"));

        // A same-order pair is what it always was: block copies, and
        // nothing of the swap path.
        let same = source_to(&Encoding::cdr_be(), true);
        assert!(
            same.contains("dst.put_bytes(r.bytes(136usize)?); // fused: 46 values block-copied")
        );
        assert!(same.contains("dst.put_bytes(r.run(_len1, 16)?); // fused: every element"));
        assert!(
            !same.contains("put_swapped") && !same.contains("dst.ensure("),
            "{same}"
        );
    }

    #[test]
    fn opposite_order_int_sequences_share_the_stubs_swap_kernel() {
        let [fused, back] = both_ways();
        // Scalars and one-kind structs alike, both gateway directions:
        // one alignment, one checked count × size, one swap-copy — and
        // nothing when empty.
        for (op, stride) in [("send_ints", 4), ("send_rects", 16)] {
            for module in [&fused, &back] {
                let b = body(module, &format!("transcode_{op}_request"));
                assert!(b.contains(" > 0 {"), "{op}:\n{b}");
                assert!(
                    b.contains(&format!(
                        "dst.put_swapped(4, r.run(_len1, {stride})?); // fused: every element"
                    )),
                    "{op}:\n{b}"
                );
                assert!(!b.contains("for _"), "{op} must not loop:\n{b}");
            }
        }
        // A mixed element keeps the one check and the one reservation;
        // what loops is infallible.
        let b = body(&fused, "transcode_send_tagged_request");
        for line in [
            "let _c2 = r.run(_len1, 16)?; // fused: every element",
            "dst.ensure(_c2.len());",
            "for _e3 in _c2.chunks_exact(16usize) {",
            "dst.put_swapped(4, &_e3[0..8]);",
            "dst.put_bytes(&_e3[8..16]);",
        ] {
            assert!(b.contains(line), "send_tagged lacks `{line}`:\n{b}");
        }
        let in_loop = b.split("chunks_exact").nth(1).expect("loop");
        assert!(!in_loop.contains('?'), "fallible op in the loop:\n{b}");
        // The reference twin and the ablated module keep the loop.
        let twin = body(&fused, "transcode_send_ints_request_naive");
        assert!(
            twin.contains("for _i") && !twin.contains("put_swapped"),
            "{twin}"
        );
        let ablated = body(&source(false), "transcode_send_rects_request");
        assert!(!ablated.contains("put_swapped"), "{ablated}");
    }

    #[test]
    fn string_rewrites_translate_framing_conventions() {
        let s = source(true);
        // XDR source: counted + padded, no NUL; CDR target: count
        // includes a NUL terminator.
        assert!(s.contains("r.skip((4 - _len"));
        assert!(s.contains(".len() + 1) as u32);"));
        assert!(s.contains("dst.put_u8(0);"));
        // Bound checks survive fusion.
        assert!(s.contains("DecodeError::BoundExceeded { got:"));
        // Borrowed on the fused path, owned on the naive twins.
        assert!(s.contains("std::str::from_utf8("));
        assert!(s.contains("String::from_utf8("));
    }
}
