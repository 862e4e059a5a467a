//! `marshal`: one generated request encode into a reused
//! `MarshalBuf`, then one decode of those bytes.
//!
//! Paper Fig. 3 — the MIR passes, `emit_rust` and
//! `runtime::{buf,xdr,cdr}` do all the work here and nothing else
//! does, so a pass shows on this workload or nowhere.

use crate::harness::{Cell, RunOut, SetupClock};
use crate::inputs::{self, rpcgen_bytes, Enc, RefEncoder, Rng};
use flick_baselines::types::{Dirent, Rect, Stat};
use flick_baselines::Marshaler;
use flick_bench::generated::{iiop_bench, onc_bench};
use flick_runtime::{DecodeError, MarshalBuf, MsgReader};
use std::hint::black_box;

/// Which half of the op a cell runs.  The workload runs `Both`; the
/// layer ledger times each half alone (`stubs.*.encode_ns` /
/// `.decode_ns`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Half {
    /// Encode, then decode.
    Both,
    /// Encode only.
    Encode,
    /// Decode only (of bytes encoded once).
    Decode,
}

struct MarshalCell<V, E, F> {
    name: String,
    payload: u64,
    half: Half,
    value: V,
    encode: E,
    decode: F,
    /// Reference encodings of `value`, none produced by the stubs.
    references: Vec<(&'static str, Vec<u8>)>,
    buf: MarshalBuf,
    last: Option<(V,)>,
}

impl<V, E, F> Cell for MarshalCell<V, E, F>
where
    V: PartialEq,
    E: Fn(&mut MarshalBuf, &V),
    F: Fn(&mut MsgReader<'_>) -> Result<(V,), DecodeError>,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn payload_bytes(&self) -> u64 {
        self.payload
    }

    fn run(&mut self, ops: usize) -> RunOut {
        let mut out = RunOut::default();
        for _ in 0..ops {
            if self.half != Half::Decode {
                self.buf.clear();
                (self.encode)(&mut self.buf, black_box(&self.value));
                out.bytes_out += self.buf.len() as u64;
            }
            if self.half != Half::Encode {
                let mut r = MsgReader::new(black_box(self.buf.as_slice()));
                match (self.decode)(&mut r) {
                    Ok(d) if r.remaining() == 0 => self.last = Some(d),
                    _ => out.failed += 1,
                }
            }
        }
        black_box(&self.last);
        out
    }

    fn verify_last(&mut self) -> Result<(), String> {
        for (who, bytes) in &self.references {
            if self.buf.as_slice() != bytes.as_slice() {
                return Err(format!(
                    "encoded bytes differ from the {who} reference ({} vs {} bytes)",
                    self.buf.len(),
                    bytes.len()
                ));
            }
        }
        match &self.last {
            Some(d) if d.0 == self.value => Ok(()),
            Some(_) => Err("decode(encode(x)) != x".to_string()),
            None if self.half == Half::Encode => Ok(()),
            None => Err("nothing decoded".to_string()),
        }
    }
}

/// Where [`cells`] collects, with what every cell shares.
struct Builder<'a> {
    cells: Vec<Box<dyn Cell>>,
    half: Half,
    suffix: &'a str,
}

impl Builder<'_> {
    #[allow(clippy::too_many_arguments)]
    fn push<V, E, F>(
        &mut self,
        name: &str,
        payload: usize,
        value: V,
        references: Vec<(&'static str, Vec<u8>)>,
        encode: E,
        decode: F,
    ) where
        V: PartialEq + 'static,
        E: Fn(&mut MarshalBuf, &V) + 'static,
        F: Fn(&mut MsgReader<'_>) -> Result<(V,), DecodeError> + 'static,
    {
        let mut cell = MarshalCell {
            name: format!("{name}{}", self.suffix),
            payload: payload as u64,
            half: self.half,
            value,
            encode,
            decode,
            references,
            buf: MarshalBuf::new(),
            last: None,
        };
        if self.half == Half::Decode {
            (cell.encode)(&mut cell.buf, &cell.value);
        }
        self.cells.push(Box::new(cell));
    }
}

/// The two message sizes: the smallest of the paper's dirent sweep and
/// a bulk one.
const SIZES: [(&str, usize); 2] = [("256", 256), ("64k", 64 * 1024)];

/// The seeded values of one message size, as every marshaler
/// (generated or baseline) is given them.
pub struct SizeValues {
    /// Size label in cell names: `256` or `64k`.
    pub label: &'static str,
    /// Encoded payload bytes.
    pub bytes: usize,
    /// `bytes / 4` integers.
    pub ints: Vec<i32>,
    /// `bytes / 16` rectangles.
    pub rects: Vec<Rect>,
    /// `bytes / 256` directory entries.
    pub dirents: Vec<Dirent>,
}

/// The workload's values for `seed`: both sizes, and the one stat
/// record.
#[must_use]
pub fn values(seed: u64) -> (Vec<SizeValues>, Stat) {
    let mut rng = Rng::new(seed, 0x3a5);
    let sized = SIZES
        .into_iter()
        .map(|(label, bytes)| SizeValues {
            label,
            bytes,
            ints: inputs::ints(&mut rng, bytes / 4),
            rects: inputs::rects(&mut rng, bytes / 16),
            dirents: inputs::dirents(&mut rng, bytes / 256),
        })
        .collect();
    (sized, inputs::stat(&mut rng))
}

/// The 14 marshal cells for `seed`, each running `half` of the op.
/// `suffix` is appended to every name (the ledger's `.encode` /
/// `.decode`).
#[must_use]
pub fn cells(seed: u64, half: Half, suffix: &str) -> Vec<Box<dyn Cell>> {
    let (sized, stat) = values(seed);
    let mut b = Builder {
        cells: Vec::new(),
        half,
        suffix,
    };
    let xdr = || RefEncoder::new(Enc::Xdr);
    let cdr = || RefEncoder::new(Enc::Cdr);
    for SizeValues {
        label,
        bytes,
        ints,
        rects,
        dirents,
    } in sized
    {
        b.push(
            &format!("onc.ints.{label}"),
            bytes,
            ints.clone(),
            vec![
                ("XDR", xdr().ints(&ints).into_bytes()),
                (
                    "rpcgen",
                    rpcgen_bytes(|m| {
                        m.marshal_ints(&ints);
                    }),
                ),
            ],
            |b, v: &Vec<i32>| onc_bench::encode_send_ints_request(b, v),
            onc_bench::decode_send_ints_request,
        );
        b.push(
            &format!("iiop.ints.{label}"),
            bytes,
            ints.clone(),
            vec![("CDR", cdr().ints(&ints).into_bytes())],
            |b, v: &Vec<i32>| iiop_bench::encode_send_ints_request(b, v),
            iiop_bench::decode_send_ints_request,
        );
        b.push(
            &format!("onc.rects.{label}"),
            bytes,
            inputs::onc::rects(&rects),
            vec![
                ("XDR", xdr().rects(&rects).into_bytes()),
                (
                    "rpcgen",
                    rpcgen_bytes(|m| {
                        m.marshal_rects(&rects);
                    }),
                ),
            ],
            |b, v: &Vec<onc_bench::Rect>| onc_bench::encode_send_rects_request(b, v),
            onc_bench::decode_send_rects_request,
        );
        b.push(
            &format!("iiop.rects.{label}"),
            bytes,
            inputs::iiop::rects(&rects),
            vec![("CDR", cdr().rects(&rects).into_bytes())],
            |b, v: &Vec<iiop_bench::Rect>| iiop_bench::encode_send_rects_request(b, v),
            iiop_bench::decode_send_rects_request,
        );
        b.push(
            &format!("onc.dirents.{label}"),
            bytes,
            inputs::onc::dirents(&dirents),
            vec![
                ("XDR", xdr().dirents(&dirents).into_bytes()),
                (
                    "rpcgen",
                    rpcgen_bytes(|m| {
                        m.marshal_dirents(&dirents);
                    }),
                ),
            ],
            |b, v: &Vec<onc_bench::Dirent>| onc_bench::encode_send_dirents_request(b, v),
            onc_bench::decode_send_dirents_request,
        );
        b.push(
            &format!("iiop.dirents.{label}"),
            bytes,
            inputs::iiop::dirents(&dirents),
            vec![("CDR", cdr().dirents(&dirents).into_bytes())],
            |b, v: &Vec<iiop_bench::Dirent>| iiop_bench::encode_send_dirents_request(b, v),
            iiop_bench::decode_send_dirents_request,
        );
    }
    b.push(
        "onc.stat",
        136,
        inputs::onc::stat(&stat),
        vec![("XDR", xdr().stat(&stat).into_bytes())],
        |b, v: &onc_bench::Stat| onc_bench::encode_echo_stat_request(b, v),
        onc_bench::decode_echo_stat_request,
    );
    b.push(
        "iiop.stat",
        136,
        inputs::iiop::stat(&stat),
        vec![("CDR", cdr().stat(&stat).into_bytes())],
        |b, v: &iiop_bench::Stat| iiop_bench::encode_echo_stat_request(b, v),
        iiop_bench::decode_echo_stat_request,
    );
    b.cells
}

/// Set-up of the `marshal` workload.
pub fn build(seed: u64, clock: &mut SetupClock) -> Vec<Box<dyn Cell>> {
    // Inputs and rigs are one stage here: a cell's rig is its buffer.
    let cells = cells(seed, Half::Both, "");
    clock.step();
    cells
}
