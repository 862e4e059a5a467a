//! Content addressing of stubs: a stable structural hash over
//! everything in a PRES-C presentation that feeds one stub's plan.
//!
//! The incremental backend memoizes per-stub lowering and optimization
//! keyed by `(stub_hash, encoding fingerprint, pipeline fingerprint)`.
//! For that key to be sound, [`stub_hash`] must cover every input the
//! lowerer reads for the stub — its operation metadata, each slot's
//! binding, the PRES conversion trees, the presented C types, and the
//! MINT message structure — and nothing that is merely incidental
//! (arena indices, declaration positions in sibling interfaces).  Two
//! presentations that assign different `PresId`/`MintId` numbers to
//! identical structures therefore produce the same digest, which is
//! exactly what lets an edited sibling interface leave this stub's
//! cache entry valid.
//!
//! PRES trees can be cyclic (ONC linked lists tie knots with
//! reserve/patch), so traversal carries an in-progress stack and hashes
//! a cycle as the re-entry depth — the same de Bruijn scheme
//! `flick_mint::subgraph_hash` uses.
//!
//! The digest is of a byte stream, written to a tape before it is
//! absorbed: stubs of one interface share most of their PRES and MINT
//! nodes, and a [`flick_stablehash::TapeMemo`] per arena lets each
//! cycle-free node write its stream once for the whole presentation
//! ([`stub_hashes`]) rather than once per stub that reaches it.

use flick_mint::write_subgraph;
use flick_stablehash::{digest, digest_each, Frame, StableHash, TapeMemo};

use crate::node::{AllocSem, AllocStrategy, PresId, PresNode};
use crate::stub::{MessagePres, Stub, StubKind};
use crate::PresC;

/// Digest of everything `stub`'s plan depends on within `presc`.
#[must_use]
pub fn stub_hash(presc: &PresC, stub: &Stub) -> u64 {
    let mut hasher = StubHasher::new(presc);
    hasher.write(stub);
    digest(&hasher.tape)
}

/// [`stub_hash`] of every stub of `presc`, in order, with each node of
/// the presentation walked once.
#[must_use]
pub fn stub_hashes(presc: &PresC) -> Vec<u64> {
    let mut hasher = StubHasher::new(presc);
    // Where each stub's stream begins on the tape, and the last ends.
    let mut bounds = Vec::with_capacity(presc.stubs.len() + 1);
    bounds.push(0);
    for stub in &presc.stubs {
        hasher.write(stub);
        bounds.push(hasher.tape.len());
    }
    let streams: Vec<&[u8]> = bounds
        .windows(2)
        .map(|w| &hasher.tape[w[0]..w[1]])
        .collect();
    digest_each(&streams)
}

/// The tape the stub streams of one presentation are written to, and
/// what each arena already wrote there.
struct StubHasher<'a> {
    presc: &'a PresC,
    tape: Vec<u8>,
    pres: TapeMemo,
    mint: TapeMemo,
}

impl<'a> StubHasher<'a> {
    fn new(presc: &'a PresC) -> Self {
        StubHasher {
            presc,
            // A guess that spares the first few regrowths.
            tape: Vec::with_capacity(64 * (presc.pres.len() + presc.mint.len())),
            pres: TapeMemo::new(presc.pres.len()),
            mint: TapeMemo::new(presc.mint.len()),
        }
    }

    /// Appends `stub`'s stream to the tape.
    fn write(&mut self, stub: &Stub) {
        let h = &mut self.tape;
        stub.name.stable_hash(h);
        h.write_tag(match stub.kind {
            StubKind::ClientCall => 0,
            StubKind::ServerDispatch => 1,
            StubKind::ServerWork => 2,
            StubKind::OnewaySend => 3,
        });
        stub.op.name.stable_hash(h);
        h.write_u64(stub.op.request_code);
        stub.op.wire_name.stable_hash(h);
        h.write_bool(stub.op.oneway);
        self.message(&stub.request);
        self.message(&stub.reply);
    }

    fn message(&mut self, msg: &MessagePres) {
        self.mint(msg.mint);
        self.tape.write_u64(msg.slots.len() as u64);
        for slot in &msg.slots {
            let h = &mut self.tape;
            slot.c_name.stable_hash(h);
            h.write_bool(slot.by_ref);
            h.write_bool(slot.live);
            self.pres(slot.pres);
        }
    }

    fn mint(&mut self, id: flick_mint::MintId) {
        write_subgraph(&self.presc.mint, id, &mut self.tape, &mut self.mint);
    }

    fn alloc(&mut self, alloc: &AllocSem) {
        let h = &mut self.tape;
        h.write_bool(alloc.may_use_stack);
        h.write_bool(alloc.may_use_buffer);
        h.write_tag(match alloc.fallback {
            AllocStrategy::Heap => 0,
            AllocStrategy::PresentationAllocator => 1,
        });
    }

    fn pres(&mut self, id: PresId) {
        // Recursive presentation: the re-entry depth, not the id.
        let Some(open) = self.pres.enter(&mut self.tape, id.index(), 10) else {
            return;
        };
        let presc = self.presc;
        match presc.pres.get(id) {
            PresNode::Void => self.tape.write_tag(0),
            PresNode::Direct { mint, ctype } => {
                self.tape.write_tag(1);
                self.mint(*mint);
                ctype.stable_hash(&mut self.tape);
            }
            PresNode::EnumMap { mint, ctype } => {
                self.tape.write_tag(2);
                self.mint(*mint);
                ctype.stable_hash(&mut self.tape);
            }
            PresNode::FixedArray {
                mint,
                elem,
                len,
                ctype,
            } => {
                self.tape.write_tag(3);
                self.mint(*mint);
                self.pres(*elem);
                self.tape.write_u64(*len);
                ctype.stable_hash(&mut self.tape);
            }
            PresNode::OptPtr {
                mint,
                elem,
                ctype,
                alloc,
            } => {
                self.tape.write_tag(4);
                self.mint(*mint);
                self.pres(*elem);
                ctype.stable_hash(&mut self.tape);
                self.alloc(alloc);
            }
            PresNode::TerminatedString { mint, alloc } => {
                self.tape.write_tag(5);
                self.mint(*mint);
                self.alloc(alloc);
            }
            PresNode::CountedSeq {
                mint,
                elem,
                ctype,
                length_field,
                maximum_field,
                buffer_field,
                alloc,
            } => {
                self.tape.write_tag(6);
                self.mint(*mint);
                self.pres(*elem);
                let h = &mut self.tape;
                ctype.stable_hash(h);
                length_field.stable_hash(h);
                maximum_field.stable_hash(h);
                buffer_field.stable_hash(h);
                self.alloc(alloc);
            }
            PresNode::StructMap {
                mint,
                ctype,
                fields,
            } => {
                self.tape.write_tag(7);
                self.mint(*mint);
                ctype.stable_hash(&mut self.tape);
                self.tape.write_u64(fields.len() as u64);
                for (name, field) in fields {
                    name.stable_hash(&mut self.tape);
                    self.pres(*field);
                }
            }
            PresNode::UnionMap {
                mint,
                ctype,
                discrim,
                discrim_field,
                cases,
                default,
            } => {
                self.tape.write_tag(8);
                self.mint(*mint);
                ctype.stable_hash(&mut self.tape);
                self.pres(*discrim);
                discrim_field.stable_hash(&mut self.tape);
                self.tape.write_u64(cases.len() as u64);
                for (val, name, case) in cases {
                    self.tape.write_i64(*val);
                    name.stable_hash(&mut self.tape);
                    self.pres(*case);
                }
                match default {
                    None => self.tape.write_tag(0),
                    Some((name, node)) => {
                        self.tape.write_tag(1);
                        name.stable_hash(&mut self.tape);
                        self.pres(*node);
                    }
                }
            }
            PresNode::OptionalPtr {
                mint,
                elem,
                ctype,
                alloc,
            } => {
                self.tape.write_tag(9);
                self.mint(*mint);
                self.pres(*elem);
                ctype.stable_hash(&mut self.tape);
                self.alloc(alloc);
            }
        }
        self.pres.leave(&self.tape, id.index(), open);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::PresTree;
    use crate::stub::{OpInfo, ParamBinding, Side};
    use flick_cast::{CFunction, CType, CUnit};
    use flick_mint::MintGraph;

    /// Builds a one-stub presentation; `padding` shifts every arena
    /// index without changing the stub's structure.
    fn sample(padding: usize, ctype: CType) -> PresC {
        let mut mint = MintGraph::new();
        let mut pres = PresTree::new();
        for i in 0..padding {
            let filler = mint.add(flick_mint::MintNode::integer_bits(false, 8));
            let _ = mint.array_fixed(filler, i as u64 + 1);
            let _ = pres.add(PresNode::Void);
        }
        let m = mint.i32();
        let req = mint.structure(vec![("x".into(), m)]);
        let rep = mint.void();
        let p = pres.add(PresNode::Direct {
            mint: m,
            ctype: ctype.clone(),
        });
        PresC {
            side: Side::Client,
            interface: "T".into(),
            program: 0,
            version: 0,
            mint,
            pres,
            cast: CUnit::new(),
            stubs: vec![Stub {
                name: "T_op".into(),
                kind: StubKind::ClientCall,
                decl: CFunction {
                    name: "T_op".into(),
                    ret: CType::Void,
                    params: vec![],
                    body: None,
                },
                request: MessagePres {
                    mint: req,
                    slots: vec![ParamBinding {
                        c_name: "x".into(),
                        pres: p,
                        by_ref: false,
                        live: true,
                    }],
                },
                reply: MessagePres {
                    mint: rep,
                    slots: vec![],
                },
                op: OpInfo {
                    name: "op".into(),
                    request_code: 1,
                    wire_name: "op".into(),
                    oneway: false,
                },
            }],
            style: "test".into(),
        }
    }

    #[test]
    fn hash_is_position_independent() {
        let a = sample(0, CType::Int);
        let b = sample(7, CType::Int);
        assert_eq!(
            stub_hash(&a, &a.stubs[0]),
            stub_hash(&b, &b.stubs[0]),
            "arena padding must not change the content hash"
        );
    }

    #[test]
    fn hashing_a_presentation_at_once_changes_no_hash() {
        // Three stubs over one shared struct of a shared scalar: the
        // second and third replay what the first wrote.
        let mut p = sample(2, CType::Int);
        let x = p.stubs[0].request.slots[0].pres;
        let PresNode::Direct { mint: m, .. } = *p.pres.get(x) else {
            unreachable!()
        };
        let pair = p.mint.structure(vec![("a".into(), m), ("b".into(), m)]);
        let s = p.pres.add(PresNode::StructMap {
            mint: pair,
            ctype: CType::named("Pair"),
            fields: vec![("a".into(), x), ("b".into(), x)],
        });
        p.stubs[0].request.slots[0].pres = s;
        for name in ["T_second", "T_third"] {
            let mut stub = p.stubs[0].clone();
            stub.name = name.into();
            p.stubs.push(stub);
        }
        let each: Vec<u64> = p.stubs.iter().map(|s| stub_hash(&p, s)).collect();
        assert_eq!(stub_hashes(&p), each);
        assert_ne!(each[1], each[2]);
    }

    #[test]
    fn hash_sees_presented_type_changes() {
        let a = sample(0, CType::Int);
        let b = sample(0, CType::Long);
        assert_ne!(stub_hash(&a, &a.stubs[0]), stub_hash(&b, &b.stubs[0]));
    }
}
