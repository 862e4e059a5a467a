//! The presentation-generator base library.
//!
//! This module is the analog of the paper's large shared presentation
//! library (Table 1: 6509 lines against which the CORBA and rpcgen
//! generators weigh in at a few percent).  It owns everything the
//! concrete mappings have in common:
//!
//! * translating AOI types into MINT message types (with recursion
//!   handled by reserve/patch);
//! * translating AOI types into presented C types plus PRES conversion
//!   trees, parameterized by a small [`StyleHooks`] table of naming and
//!   representation choices;
//! * assembling [`Stub`]s — signatures, slot bindings, request/reply
//!   MINT — for each operation, including operations synthesized from
//!   attributes.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use flick_aoi::{Aoi, Interface, Name, Operation, Param, ParamDir, PrimType, Type, TypeId};
use flick_cast::{CDecl, CField, CFunction, CParam, CType, CUnit};
use flick_idl::diag::{Diagnostic, Diagnostics};
use flick_mint::{ConstVal, MintGraph, MintId, MintNode};
use flick_pres::{
    AllocSem, MessagePres, OpInfo, ParamBinding, PresC, PresId, PresNode, PresTree, Side, Stub,
    StubKind,
};

/// Per-style naming and representation choices — the *only* things a
/// concrete presentation generator has to supply.
pub(crate) struct StyleHooks {
    /// Stable style name (`"corba-c"`...).
    pub style_name: &'static str,
    /// Client stub name for an operation.
    pub stub_name: fn(iface_c: &str, op: &str, code: u64) -> Name,
    /// Server work-function name for an operation.
    pub work_name: fn(iface_c: &str, op: &str, code: u64) -> Name,
    /// Sequence member names `(length, maximum, buffer)`.
    pub seq_fields: (&'static str, &'static str, &'static str),
    /// Append a `CORBA_Environment *ev`-style trailing parameter.
    pub env_param: Option<(&'static str, &'static str)>,
    /// Leading object-handle parameter type name, if any (CORBA's
    /// `Mail obj`); `None` puts a trailing `CLIENT *` handle instead.
    pub leading_handle: bool,
    /// Whether ONC-style optional (self-referential) types are
    /// presentable in this mapping (paper §2.2.1 footnote 3).
    pub allows_optional: bool,
    /// Whether AOI exceptions are presentable in this mapping.
    pub allows_exceptions: bool,
}

/// Flattens a scoped AOI name (`Geo::Point`) to a C identifier — the
/// AOI's own name when it has no scope to flatten.
pub(crate) fn flatten(name: &Name) -> Name {
    if name.contains("::") {
        Name::from_fmt(format_args!("{}", Flat(name)))
    } else {
        name.clone()
    }
}

/// Writes a scoped AOI name with each `::` as `_`, as
/// `str::replace("::", "_")` would, without building the `String`.
struct Flat<'a>(&'a str);

impl fmt::Display for Flat<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = self.0.split("::");
        f.write_str(parts.next().unwrap_or_default())?;
        for part in parts {
            f.write_str("_")?;
            f.write_str(part)?;
        }
        Ok(())
    }
}

/// The AOI is read through `aoi`, a reference that outlives `&mut
/// self`: the generators match on `aoi.types.get(ty)` in place while
/// they fill the builder's own trees.
pub(crate) struct Builder<'a> {
    aoi: &'a Aoi,
    pub mint: MintGraph,
    pub pres: PresTree,
    pub cast: CUnit,
    pub diags: Diagnostics,
    hooks: StyleHooks,
    /// What each AOI type already translated to, indexed by `TypeId`.
    mint_memo: Vec<Option<MintId>>,
    pres_memo: Vec<Option<PresId>>,
    /// The presented C type, and `T *` once a by-reference use (or an
    /// optional, or a sequence buffer) asked for it: every parameter
    /// passed by address shares one pointer type.
    ctype_memo: Vec<(Option<CType>, Option<CType>)>,
    /// The trailing `CLIENT *` and `CORBA_Environment *` handle types,
    /// built once for every stub that takes them.
    clnt_ptr: Option<CType>,
    env_ptr: Option<CType>,
    emitted: HashSet<Name>,
    anon_seq: usize,
    /// `is_fixed_size`'s walk path, kept empty between calls.
    fixed_path: Vec<TypeId>,
}

impl<'a> Builder<'a> {
    pub(crate) fn new(aoi: &'a Aoi, hooks: StyleHooks) -> Self {
        let types = aoi.types.len();
        let named_ptr = |name| CType::ptr(CType::Named(Name::from_static(name)));
        Builder {
            aoi,
            mint: MintGraph::new(),
            pres: PresTree::new(),
            cast: CUnit::new(),
            diags: Diagnostics::new(),
            mint_memo: vec![None; types],
            pres_memo: vec![None; types],
            ctype_memo: vec![(None, None); types],
            clnt_ptr: (!hooks.leading_handle).then(|| named_ptr("CLIENT")),
            env_ptr: hooks.env_param.map(|(ty_name, _)| named_ptr(ty_name)),
            hooks,
            emitted: HashSet::new(),
            anon_seq: 0,
            fixed_path: Vec::new(),
        }
    }

    // ---------------- AOI → MINT ----------------

    /// The MINT message type for an AOI type.
    pub(crate) fn mint_of(&mut self, ty: TypeId) -> MintId {
        if let Some(m) = self.mint_memo[ty.index()] {
            return m;
        }
        let aoi = self.aoi;
        // Aliases share their target's node outright, so recursive
        // references through a typedef land on one shared slot.
        if let Type::Alias { target, .. } = aoi.types.get(ty) {
            let t = self.mint_of(*target);
            self.mint_memo[ty.index()] = Some(t);
            return t;
        }
        // Reserve first so recursive references find the slot.
        let slot = self.mint.reserve();
        self.mint_memo[ty.index()] = Some(slot);
        let node = match aoi.types.get(ty) {
            Type::Prim(p) => self.mint_prim(*p),
            Type::String { bound } => {
                let c = self.mint.char8();
                MintNode::Array {
                    elem: c,
                    len: flick_mint::LenBound {
                        min: 0,
                        max: *bound,
                    },
                }
            }
            Type::Array { elem, len } => {
                let e = self.mint_of(*elem);
                MintNode::Array {
                    elem: e,
                    len: flick_mint::LenBound::fixed(*len),
                }
            }
            Type::Sequence { elem, bound } => {
                let e = self.mint_of(*elem);
                MintNode::Array {
                    elem: e,
                    len: flick_mint::LenBound {
                        min: 0,
                        max: *bound,
                    },
                }
            }
            Type::Opaque { fixed_len, bound } => {
                let b = self.mint.u8();
                let len = match fixed_len {
                    Some(n) => flick_mint::LenBound::fixed(*n),
                    None => flick_mint::LenBound {
                        min: 0,
                        max: *bound,
                    },
                };
                MintNode::Array { elem: b, len }
            }
            Type::Struct { fields, .. } => {
                let slots = fields
                    .iter()
                    .map(|f| (f.name.clone(), self.mint_of(f.ty)))
                    .collect();
                MintNode::Struct { slots }
            }
            Type::Union {
                discriminator,
                cases,
                ..
            } => {
                let d = self.mint_of(*discriminator);
                let mut arms = Vec::new();
                let mut default = None;
                for c in cases {
                    let body = match c.ty {
                        Some(t) => self.mint_of(t),
                        None => self.mint.void(),
                    };
                    for l in &c.labels {
                        match l {
                            flick_aoi::UnionLabel::Value(v) => arms.push((*v, body)),
                            flick_aoi::UnionLabel::Default => default = Some(body),
                        }
                    }
                }
                MintNode::Union {
                    discrim: d,
                    cases: arms,
                    default,
                }
            }
            Type::Enum { .. } => MintNode::integer_bits(false, 32),
            Type::Alias { .. } => unreachable!("aliases resolved before reservation"),
            Type::Optional { elem } => {
                let e = self.mint_of(*elem);
                let b = self.mint.boolean();
                let v = self.mint.void();
                MintNode::Union {
                    discrim: b,
                    cases: vec![(0, v), (1, e)],
                    default: None,
                }
            }
            // Object references travel as object-key strings.
            Type::ObjRef { .. } => {
                let c = self.mint.char8();
                MintNode::Array {
                    elem: c,
                    len: flick_mint::LenBound { min: 0, max: None },
                }
            }
        };
        self.mint.patch(slot, node);
        slot
    }

    fn mint_prim(&mut self, p: PrimType) -> MintNode {
        match p {
            PrimType::Void => MintNode::Void,
            PrimType::Boolean => MintNode::Scalar(flick_mint::ScalarKind::Bool),
            PrimType::Char => MintNode::Scalar(flick_mint::ScalarKind::Char8),
            PrimType::Octet => MintNode::integer_bits(false, 8),
            PrimType::Short => MintNode::integer_bits(true, 16),
            PrimType::UShort => MintNode::integer_bits(false, 16),
            PrimType::Long => MintNode::integer_bits(true, 32),
            PrimType::ULong => MintNode::integer_bits(false, 32),
            PrimType::LongLong => MintNode::integer_bits(true, 64),
            PrimType::ULongLong => MintNode::integer_bits(false, 64),
            PrimType::Float => MintNode::Scalar(flick_mint::ScalarKind::Float32),
            PrimType::Double => MintNode::Scalar(flick_mint::ScalarKind::Float64),
        }
    }

    // ---------------- AOI → C types ----------------

    /// The presented C type for an AOI type, emitting supporting
    /// declarations (typedefs, struct/enum definitions) on first use.
    pub(crate) fn ctype_of(&mut self, ty: TypeId) -> CType {
        if let Some(c) = &self.ctype_memo[ty.index()].0 {
            return c.clone();
        }
        let aoi = self.aoi;
        let c = match aoi.types.get(ty) {
            Type::Prim(p) => prim_ctype(*p),
            Type::String { .. } => CType::ptr(CType::Char),
            Type::Array { elem, len } => CType::Array(Arc::new(self.ctype_of(*elem)), Some(*len)),
            Type::Sequence { elem, .. } => {
                let name = self.seq_typedef_name(*elem);
                self.emit_seq_typedef(&name, *elem);
                CType::Named(name)
            }
            Type::Opaque {
                fixed_len: Some(n), ..
            } => CType::array(CType::Char, *n),
            Type::Opaque { .. } => {
                let octet = aoi.types.iter().find_map(|(id, t)| {
                    if matches!(t, Type::Prim(PrimType::Octet)) {
                        Some(id)
                    } else {
                        None
                    }
                });
                // Variable opaque presents like a sequence of octets.
                let name = Name::from_fmt(format_args!("opaque_seq_{}", self.anon_seq));
                self.anon_seq += 1;
                if let Some(octet) = octet {
                    self.emit_seq_typedef(&name, octet);
                } else {
                    self.emit_seq_typedef_raw(&name, CType::ptr(CType::UChar));
                }
                CType::Named(name)
            }
            Type::Struct { name, fields } => {
                let cname = flatten(name);
                // Memoize the named type *before* the fields so that
                // recursive members (via sequence/optional) terminate.
                self.ctype_memo[ty.index()].0 = Some(CType::Named(cname.clone()));
                self.emit_struct_typedef(&cname, fields);
                CType::Named(cname)
            }
            Type::Union {
                name,
                discriminator,
                cases,
            } => {
                let cname = flatten(name);
                self.ctype_memo[ty.index()].0 = Some(CType::Named(cname.clone()));
                self.emit_union_typedef(&cname, *discriminator, cases);
                CType::Named(cname)
            }
            Type::Enum { name, items } => {
                let cname = flatten(name);
                if self.emitted.insert(cname.clone()) {
                    self.cast.push(CDecl::Enum {
                        tag: cname.clone(),
                        items: items.clone(),
                    });
                    self.cast.push(CDecl::Typedef {
                        name: cname.clone(),
                        ty: CType::UInt,
                    });
                }
                CType::Named(cname)
            }
            Type::Alias { name, target } => {
                let cname = flatten(name);
                let under = self.ctype_of(*target);
                if self.emitted.insert(cname.clone()) {
                    self.cast.push(CDecl::Typedef {
                        name: cname.clone(),
                        ty: under,
                    });
                }
                CType::Named(cname)
            }
            Type::Optional { elem } => self.ctype_ptr_of(*elem),
            Type::ObjRef { .. } => CType::ptr(CType::Char),
        };
        self.ctype_memo[ty.index()].0 = Some(c.clone());
        c
    }

    /// `T *` for the presented C type `T` of `ty`, built once per type.
    fn ctype_ptr_of(&mut self, ty: TypeId) -> CType {
        if let Some(p) = &self.ctype_memo[ty.index()].1 {
            return p.clone();
        }
        let p = CType::ptr(self.ctype_of(ty));
        self.ctype_memo[ty.index()].1 = Some(p.clone());
        p
    }

    fn seq_typedef_name(&mut self, elem: TypeId) -> Name {
        let resolved = self.aoi.types.get(self.aoi.types.resolve(elem));
        match resolved.name() {
            Some(n) => Name::from_fmt(format_args!("{}_seq", Flat(n))),
            None => match resolved {
                Type::Prim(p) => Name::from_fmt(format_args!("{}_seq", p.name())),
                Type::String { .. } => Name::from_static("string_seq"),
                _ => {
                    let n = Name::from_fmt(format_args!("anon_seq_{}", self.anon_seq));
                    self.anon_seq += 1;
                    n
                }
            },
        }
    }

    fn emit_seq_typedef(&mut self, name: &Name, elem: TypeId) {
        if !self.emitted.insert(name.clone()) {
            return;
        }
        let buffer = self.ctype_ptr_of(elem);
        self.emit_seq_typedef_raw(name, buffer);
    }

    /// The counted struct `name` whose buffer member has type `buffer`.
    fn emit_seq_typedef_raw(&mut self, name: &Name, buffer: CType) {
        let (len_f, max_f, buf_f) = self.hooks.seq_fields;
        self.emitted.insert(name.clone());
        self.cast.push(CDecl::Typedef {
            name: name.clone(),
            ty: CType::StructDef {
                tag: None,
                fields: vec![
                    CField {
                        name: Name::from_static(max_f),
                        ty: CType::UInt,
                    },
                    CField {
                        name: Name::from_static(len_f),
                        ty: CType::UInt,
                    },
                    CField {
                        name: Name::from_static(buf_f),
                        ty: buffer,
                    },
                ],
            },
        });
    }

    fn emit_struct_typedef(&mut self, cname: &Name, fields: &[flick_aoi::Field]) {
        if !self.emitted.insert(cname.clone()) {
            return;
        }
        let cfields: Vec<CField> = fields
            .iter()
            .map(|f| CField {
                name: f.name.clone(),
                ty: spell_self_ref(self.ctype_of(f.ty), cname),
            })
            .collect();
        self.cast.push(CDecl::Struct {
            tag: cname.clone(),
            fields: cfields,
        });
        self.cast.push(CDecl::Typedef {
            name: cname.clone(),
            ty: CType::StructRef(cname.clone()),
        });
    }

    fn emit_union_typedef(
        &mut self,
        cname: &Name,
        discriminator: TypeId,
        cases: &[flick_aoi::UnionCase],
    ) {
        if !self.emitted.insert(cname.clone()) {
            return;
        }
        let disc_c = self.ctype_of(discriminator);
        let arms: Vec<CField> = cases
            .iter()
            .filter_map(|c| {
                c.ty.map(|t| CField {
                    name: c.name.clone(),
                    ty: self.ctype_of(t),
                })
            })
            .collect();
        self.cast.push(CDecl::Struct {
            tag: cname.clone(),
            fields: vec![
                CField {
                    name: Name::from_static("_d"),
                    ty: disc_c,
                },
                CField {
                    name: Name::from_static("_u"),
                    ty: CType::StructDef {
                        tag: None,
                        fields: arms,
                    },
                },
            ],
        });
        self.cast.push(CDecl::Typedef {
            name: cname.clone(),
            ty: CType::StructRef(cname.clone()),
        });
    }

    // ---------------- AOI → PRES ----------------

    /// The PRES conversion tree for an AOI type under this style.
    pub(crate) fn pres_of(&mut self, ty: TypeId, alloc: AllocSem) -> PresId {
        if let Some(p) = self.pres_memo[ty.index()] {
            return p;
        }
        let aoi = self.aoi;
        if let Type::Alias { target, .. } = aoi.types.get(ty) {
            // Emit the typedef, then share the target's conversion so a
            // recursive type has exactly one PRES node.
            let _ = self.ctype_of(ty);
            let t = self.pres_of(*target, alloc);
            self.pres_memo[ty.index()] = Some(t);
            return t;
        }
        let slot = self.pres.reserve();
        self.pres_memo[ty.index()] = Some(slot);
        let mint = self.mint_of(ty);
        let node = match aoi.types.get(ty) {
            Type::Prim(PrimType::Void) => PresNode::Void,
            Type::Prim(p) => PresNode::Direct {
                mint,
                ctype: prim_ctype(*p),
            },
            Type::String { .. } => PresNode::TerminatedString { mint, alloc },
            Type::Array { elem, len } => {
                let e = self.pres_of(*elem, alloc);
                PresNode::FixedArray {
                    mint,
                    elem: e,
                    len: *len,
                    ctype: self.ctype_of(ty),
                }
            }
            Type::Sequence { elem, .. } => {
                let e = self.pres_of(*elem, alloc);
                self.counted_seq(mint, e, ty, alloc)
            }
            Type::Opaque {
                fixed_len: Some(n), ..
            } => {
                let u8m = self.mint.u8();
                let e = self.pres.add(PresNode::Direct {
                    mint: u8m,
                    ctype: CType::Char,
                });
                PresNode::FixedArray {
                    mint,
                    elem: e,
                    len: *n,
                    ctype: self.ctype_of(ty),
                }
            }
            Type::Opaque { .. } => {
                let u8m = self.mint.u8();
                let e = self.pres.add(PresNode::Direct {
                    mint: u8m,
                    ctype: CType::UChar,
                });
                self.counted_seq(mint, e, ty, alloc)
            }
            Type::Struct { fields, .. } => {
                let fps: Vec<(Name, PresId)> = fields
                    .iter()
                    .map(|f| (f.name.clone(), self.pres_of(f.ty, alloc)))
                    .collect();
                PresNode::StructMap {
                    mint,
                    ctype: self.ctype_of(ty),
                    fields: fps,
                }
            }
            Type::Union {
                discriminator,
                cases,
                ..
            } => {
                let d = self.pres_of(*discriminator, alloc);
                let mut arms = Vec::new();
                let mut default = None;
                for c in cases {
                    let body = match c.ty {
                        Some(t) => self.pres_of(t, alloc),
                        None => self.pres.add(PresNode::Void),
                    };
                    for l in &c.labels {
                        match l {
                            flick_aoi::UnionLabel::Value(v) => {
                                arms.push((*v, c.name.clone(), body));
                            }
                            flick_aoi::UnionLabel::Default => {
                                default = Some((c.name.clone(), body));
                            }
                        }
                    }
                }
                PresNode::UnionMap {
                    mint,
                    ctype: self.ctype_of(ty),
                    discrim: d,
                    discrim_field: Name::from_static("_d"),
                    cases: arms,
                    default,
                }
            }
            Type::Enum { .. } => PresNode::EnumMap {
                mint,
                ctype: self.ctype_of(ty),
            },
            Type::Alias { .. } => unreachable!("aliases resolved before reservation"),
            Type::Optional { elem } => {
                if !self.hooks.allows_optional {
                    self.diags.push(Diagnostic::error_nospan(format!(
                        "the {} presentation cannot express ONC-style optional \
                         (self-referential) types",
                        self.hooks.style_name
                    )));
                }
                let e = self.pres_of(*elem, alloc);
                PresNode::OptionalPtr {
                    mint,
                    elem: e,
                    ctype: self.ctype_of(ty),
                    alloc,
                }
            }
            Type::ObjRef { .. } => PresNode::TerminatedString { mint, alloc },
        };
        self.pres.patch(slot, node);
        slot
    }

    /// The counted-sequence presentation of `ty` under this style's
    /// member names.
    fn counted_seq(&mut self, mint: MintId, elem: PresId, ty: TypeId, alloc: AllocSem) -> PresNode {
        let (len_f, max_f, buf_f) = self.hooks.seq_fields;
        PresNode::CountedSeq {
            mint,
            elem,
            ctype: self.ctype_of(ty),
            length_field: Name::from_static(len_f),
            maximum_field: Name::from_static(max_f),
            buffer_field: Name::from_static(buf_f),
            alloc,
        }
    }

    // ---------------- stub assembly ----------------

    /// True if the encoded size of the type is statically fixed.
    pub(crate) fn is_fixed_size(&mut self, ty: TypeId) -> bool {
        fn walk(aoi: &Aoi, ty: TypeId, seen: &mut Vec<TypeId>) -> bool {
            if seen.contains(&ty) {
                return false; // recursion implies variability
            }
            seen.push(ty);
            let r = match aoi.types.get(ty) {
                Type::Prim(_) | Type::Enum { .. } => true,
                Type::String { .. }
                | Type::Sequence { .. }
                | Type::Optional { .. }
                | Type::ObjRef { .. } => false,
                Type::Opaque { fixed_len, .. } => fixed_len.is_some(),
                Type::Array { elem, .. } => walk(aoi, *elem, seen),
                Type::Struct { fields, .. } => fields.iter().all(|f| walk(aoi, f.ty, seen)),
                Type::Union { .. } => false,
                Type::Alias { target, .. } => walk(aoi, *target, seen),
            };
            seen.pop();
            r
        }
        walk(self.aoi, ty, &mut self.fixed_path)
    }

    /// The C parameter type for a parameter of `ty` in direction `dir`.
    fn param_ctype(&mut self, ty: TypeId, dir: ParamDir) -> (CType, bool) {
        let is_aggregate = matches!(
            self.aoi.types.get(self.aoi.types.resolve(ty)),
            Type::Struct { .. }
                | Type::Union { .. }
                | Type::Sequence { .. }
                | Type::Array { .. }
                | Type::Opaque { .. }
        );
        // Aggregates pass by address; everything returns through a
        // pointer, and pointer-valued presentations (strings) become
        // pointer-to-pointer.
        if is_aggregate || dir != ParamDir::In {
            (self.ctype_ptr_of(ty), true)
        } else {
            (self.ctype_of(ty), false)
        }
    }

    /// True for a leading-underscore scalar `in` parameter: wire
    /// padding the presentation never surfaces — it stays in the
    /// message (and MINT) but gets no C parameter, and its binding is
    /// marked dead so the `dead-slot` pass can drop its marshal work.
    fn is_suppressed(&self, p: &Param) -> bool {
        let resolved = self.aoi.types.resolve(p.ty);
        p.name.starts_with('_')
            && p.dir == ParamDir::In
            && matches!(self.aoi.types.get(resolved), Type::Prim(t) if *t != PrimType::Void)
    }

    /// Builds the stub for one operation.  Every list it fills is
    /// sized once, from the operation, before it is built.
    pub(crate) fn build_stub(&mut self, iface: &Interface, op: &Operation, side: Side) -> Stub {
        let iface_c = flatten(&iface.name);
        let name = match side {
            Side::Client => (self.hooks.stub_name)(&iface_c, &op.name, op.request_code),
            Side::Server => (self.hooks.work_name)(&iface_c, &op.name, op.request_code),
        };
        let alloc = match side {
            Side::Client => AllocSem::heap_only(),
            Side::Server => AllocSem::server_in_param(),
        };

        let ret_resolved = self.aoi.types.resolve(op.ret);
        let ret_is_void = matches!(self.aoi.types.get(ret_resolved), Type::Prim(PrimType::Void));
        let returns = usize::from(!ret_is_void);
        let requests = op.request_params().count();
        let replies = returns + op.reply_params().count();
        let surfaced = op.params.iter().filter(|p| !self.is_suppressed(p)).count();
        let handles = usize::from(self.hooks.leading_handle)
            + usize::from(self.clnt_ptr.is_some())
            + usize::from(self.env_ptr.is_some());

        let mut params = Vec::with_capacity(surfaced + handles);
        if self.hooks.leading_handle {
            if self.emitted.insert(iface_c.clone()) {
                self.cast.push(CDecl::Typedef {
                    name: iface_c.clone(),
                    ty: CType::ptr(CType::Void),
                });
            }
            params.push(CParam {
                name: Name::from_static("obj"),
                ty: CType::Named(iface_c),
            });
        }

        let mut req_slots = Vec::with_capacity(requests);
        let mut rep_slots = Vec::with_capacity(replies);

        // Return value first in the reply, per wire convention.
        if !ret_is_void {
            let p = self.pres_of(op.ret, alloc);
            rep_slots.push(ParamBinding {
                c_name: Name::from_static("_return"),
                pres: p,
                by_ref: false,
                live: true,
            });
        }

        for param in &op.params {
            let suppressed = self.is_suppressed(param);
            let (cty, by_ref) = self.param_ctype(param.ty, param.dir);
            if !suppressed {
                params.push(CParam {
                    name: param.name.clone(),
                    ty: cty,
                });
            }
            let p = self.pres_of(param.ty, alloc);
            let binding = ParamBinding {
                c_name: param.name.clone(),
                pres: p,
                by_ref: by_ref && !suppressed,
                live: !suppressed,
            };
            if param.dir.in_request() {
                req_slots.push(binding.clone());
            }
            if param.dir.in_reply() {
                rep_slots.push(binding);
            }
        }

        if let Some(clnt) = &self.clnt_ptr {
            params.push(CParam {
                name: Name::from_static("clnt"),
                ty: clnt.clone(),
            });
        }
        if let (Some((ty_name, pname)), Some(env)) = (self.hooks.env_param, &self.env_ptr) {
            let ty_name = Name::from_static(ty_name);
            if self.emitted.insert(ty_name.clone()) {
                self.cast.push(CDecl::Struct {
                    tag: ty_name.clone(),
                    fields: vec![CField {
                        name: Name::from_static("_major"),
                        ty: CType::Int,
                    }],
                });
                self.cast.push(CDecl::Typedef {
                    name: ty_name.clone(),
                    ty: CType::StructRef(ty_name),
                });
            }
            params.push(CParam {
                name: Name::from_static(pname),
                ty: env.clone(),
            });
        }

        // Reject exceptions when the style has no such concept.
        if !op.raises.is_empty() && !self.hooks.allows_exceptions {
            self.diags.push(Diagnostic::error_nospan(format!(
                "the {} presentation cannot express exceptions (operation `{}::{}`)",
                self.hooks.style_name, iface.name, op.name
            )));
        }

        let ret_c = if ret_is_void {
            CType::Void
        } else {
            // Variable-size results are returned through a pointer the
            // stub allocates; fixed-size ones by value.
            let pointer_valued = matches!(
                self.aoi.types.get(ret_resolved),
                Type::String { .. } | Type::Optional { .. } | Type::ObjRef { .. }
            );
            let base = self.ctype_of(op.ret);
            if pointer_valued || self.is_fixed_size(op.ret) {
                base
            } else {
                self.ctype_ptr_of(op.ret)
            }
        };

        // Whole-message MINT types: the request carries the operation
        // discriminator as a typed literal constant ahead of the
        // argument slots — MINT's view of "opcode + body".  Every
        // slot's type was translated with its presentation above, so
        // these lookups add no node ahead of the discriminator's.
        let u32m = self.mint.u32();
        let disc = self
            .mint
            .constant(u32m, ConstVal::Unsigned(op.request_code));
        let mut req_mint_slots = Vec::with_capacity(1 + requests);
        req_mint_slots.push((Name::from_static("_op"), disc));
        for p in op.request_params() {
            req_mint_slots.push((p.name.clone(), self.mint_of(p.ty)));
        }
        let request_mint = self.mint.structure(req_mint_slots);
        let reply_mint = if op.oneway {
            self.mint.void()
        } else {
            let mut rep_mint_slots = Vec::with_capacity(replies);
            if !ret_is_void {
                rep_mint_slots.push((Name::from_static("_return"), self.mint_of(op.ret)));
            }
            for p in op.reply_params() {
                rep_mint_slots.push((p.name.clone(), self.mint_of(p.ty)));
            }
            self.mint.structure(rep_mint_slots)
        };

        Stub {
            decl: CFunction {
                name: name.clone(),
                ret: ret_c,
                params,
                body: None,
            },
            name: String::from(name.as_str()),
            kind: match side {
                Side::Client => {
                    if op.oneway {
                        StubKind::OnewaySend
                    } else {
                        StubKind::ClientCall
                    }
                }
                Side::Server => StubKind::ServerWork,
            },
            request: MessagePres {
                mint: request_mint,
                slots: req_slots,
            },
            reply: MessagePres {
                mint: reply_mint,
                slots: rep_slots,
            },
            op: OpInfo {
                name: op.name.clone(),
                request_code: op.request_code,
                wire_name: op.name.clone(),
                oneway: op.oneway,
            },
        }
    }

    /// The `_get_`/`_set_` operations the interface's attributes expand
    /// to; they follow its declared operations.
    pub(crate) fn attribute_ops(&self, iface: &Interface) -> Vec<Operation> {
        let mut ops = Vec::new();
        let declared = iface.ops.iter().map(|o| o.request_code).max();
        let mut next_code = declared.unwrap_or(0) + 1;
        let void = self.aoi.types.iter().find_map(|(id, t)| {
            if matches!(t, Type::Prim(PrimType::Void)) {
                Some(id)
            } else {
                None
            }
        });
        for attr in &iface.attrs {
            let void = void.expect("void type must exist when attributes are present");
            ops.push(Operation {
                name: Name::from_fmt(format_args!("_get_{}", attr.name)),
                oneway: false,
                ret: attr.ty,
                params: vec![],
                raises: vec![],
                request_code: next_code,
            });
            next_code += 1;
            if !attr.readonly {
                ops.push(Operation {
                    name: Name::from_fmt(format_args!("_set_{}", attr.name)),
                    oneway: false,
                    ret: void,
                    params: vec![Param {
                        name: Name::from_static("value"),
                        dir: ParamDir::In,
                        ty: attr.ty,
                    }],
                    raises: vec![],
                    request_code: next_code,
                });
                next_code += 1;
            }
        }
        ops
    }

    /// Assembles the final PRES-C.
    pub(crate) fn finish(self, iface: &Interface, side: Side, stubs: Vec<Stub>) -> PresC {
        PresC {
            side,
            interface: iface.name.to_string(),
            program: iface.program,
            version: iface.version,
            mint: self.mint,
            pres: self.pres,
            cast: self.cast,
            stubs,
            style: self.hooks.style_name.to_string(),
        }
    }
}

/// The C type presenting an AOI primitive.
pub(crate) fn prim_ctype(p: PrimType) -> CType {
    match p {
        PrimType::Void => CType::Void,
        PrimType::Boolean => CType::UChar,
        PrimType::Char => CType::Char,
        PrimType::Octet => CType::UChar,
        PrimType::Short => CType::Short,
        PrimType::UShort => CType::UShort,
        PrimType::Long => CType::Int,
        PrimType::ULong => CType::UInt,
        PrimType::LongLong => CType::LongLong,
        PrimType::ULongLong => CType::ULongLong,
        PrimType::Float => CType::Float,
        PrimType::Double => CType::Double,
    }
}

/// Shared driver: generates a PRES-C for `iface_name` with `hooks`.
pub(crate) fn generate(
    aoi: &Aoi,
    iface_name: &str,
    side: Side,
    hooks: StyleHooks,
    diags: &mut Diagnostics,
) -> Option<PresC> {
    let Some(iface) = aoi.interface(iface_name) else {
        diags.push(Diagnostic::error_nospan(format!(
            "interface `{iface_name}` not found in the AOI contract"
        )));
        return None;
    };
    let mut b = Builder::new(aoi, hooks);
    let attribute_ops = b.attribute_ops(iface);
    let stubs: Vec<Stub> = iface
        .ops
        .iter()
        .chain(&attribute_ops)
        .map(|op| b.build_stub(iface, op, side))
        .collect();
    let had_errors = b.diags.has_errors();
    diags.append(&mut b.diags);
    if had_errors {
        return None;
    }
    Some(b.finish(iface, side, stubs))
}

/// `ty`, a member of struct `tag`, with a pointer to the struct itself
/// (XDR's optional data, `node *next;`) spelled `struct tag *`: inside
/// its own definition the typedef that names it does not exist yet, and
/// `rpcgen -h` spells it so too.
fn spell_self_ref(ty: CType, tag: &Name) -> CType {
    match &ty {
        CType::Pointer(to) if matches!(&**to, CType::Named(n) if n == tag) => {
            CType::ptr(CType::StructRef(tag.clone()))
        }
        _ => ty,
    }
}
