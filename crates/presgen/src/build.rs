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
    pub stub_name: fn(iface_c: &str, op: &str, code: u64) -> String,
    /// Server work-function name for an operation.
    pub work_name: fn(iface_c: &str, op: &str, code: u64) -> String,
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
        name.replace("::", "_").into()
    } else {
        name.clone()
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
    ctype_memo: Vec<Option<CType>>,
    emitted: HashSet<Name>,
    anon_seq: usize,
}

impl<'a> Builder<'a> {
    pub(crate) fn new(aoi: &'a Aoi, hooks: StyleHooks) -> Self {
        let types = aoi.types.len();
        Builder {
            aoi,
            mint: MintGraph::new(),
            pres: PresTree::new(),
            cast: CUnit::new(),
            diags: Diagnostics::new(),
            hooks,
            mint_memo: vec![None; types],
            pres_memo: vec![None; types],
            ctype_memo: vec![None; types],
            emitted: HashSet::new(),
            anon_seq: 0,
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
        if let Some(c) = &self.ctype_memo[ty.index()] {
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
                let name = Name::from(format!("opaque_seq_{}", self.anon_seq));
                self.anon_seq += 1;
                if let Some(octet) = octet {
                    self.emit_seq_typedef(&name, octet);
                } else {
                    self.emit_seq_typedef_raw(&name, CType::UChar);
                }
                CType::Named(name)
            }
            Type::Struct { name, fields } => {
                let cname = flatten(name);
                // Memoize the named type *before* the fields so that
                // recursive members (via sequence/optional) terminate.
                self.ctype_memo[ty.index()] = Some(CType::Named(cname.clone()));
                self.emit_struct_typedef(&cname, fields);
                CType::Named(cname)
            }
            Type::Union {
                name,
                discriminator,
                cases,
            } => {
                let cname = flatten(name);
                self.ctype_memo[ty.index()] = Some(CType::Named(cname.clone()));
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
            Type::Optional { elem } => CType::ptr(self.ctype_of(*elem)),
            Type::ObjRef { .. } => CType::ptr(CType::Char),
        };
        self.ctype_memo[ty.index()] = Some(c.clone());
        c
    }

    fn seq_typedef_name(&mut self, elem: TypeId) -> Name {
        let resolved = self.aoi.types.get(self.aoi.types.resolve(elem));
        match resolved.name() {
            Some(n) => format!("{}_seq", n.replace("::", "_")).into(),
            None => match resolved {
                Type::Prim(p) => format!("{}_seq", p.name()).into(),
                Type::String { .. } => Name::from_static("string_seq"),
                _ => {
                    let n = format!("anon_seq_{}", self.anon_seq);
                    self.anon_seq += 1;
                    n.into()
                }
            },
        }
    }

    fn emit_seq_typedef(&mut self, name: &Name, elem: TypeId) {
        if !self.emitted.insert(name.clone()) {
            return;
        }
        let elem_c = self.ctype_of(elem);
        self.emit_seq_typedef_raw(name, elem_c);
    }

    fn emit_seq_typedef_raw(&mut self, name: &Name, elem_c: CType) {
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
                        ty: CType::ptr(elem_c),
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
                ty: self.ctype_of(f.ty),
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
    pub(crate) fn is_fixed_size(&self, ty: TypeId) -> bool {
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
        walk(self.aoi, ty, &mut Vec::new())
    }

    /// The C parameter type for a parameter of `ty` in direction `dir`.
    fn param_ctype(&mut self, ty: TypeId, dir: ParamDir) -> (CType, bool) {
        let base = self.ctype_of(ty);
        let is_aggregate = matches!(
            self.aoi.types.get(self.aoi.types.resolve(ty)),
            Type::Struct { .. }
                | Type::Union { .. }
                | Type::Sequence { .. }
                | Type::Array { .. }
                | Type::Opaque { .. }
        );
        match dir {
            ParamDir::In => {
                if is_aggregate {
                    (CType::ptr(base), true)
                } else {
                    (base, false)
                }
            }
            ParamDir::Out | ParamDir::InOut => {
                // Everything returns through a pointer; pointer-valued
                // presentations (strings) become pointer-to-pointer.
                (CType::ptr(base), true)
            }
        }
    }

    /// Builds the stub for one operation.
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

        let mut params = Vec::new();
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

        let mut req_slots = Vec::new();
        let mut rep_slots = Vec::new();

        // Return value first in the reply, per wire convention.
        let ret_resolved = self.aoi.types.resolve(op.ret);
        let ret_is_void = matches!(self.aoi.types.get(ret_resolved), Type::Prim(PrimType::Void));
        if !ret_is_void {
            let p = self.pres_of(op.ret, alloc);
            rep_slots.push(ParamBinding {
                c_name: Name::from_static("_return"),
                pres: p,
                by_ref: false,
                live: true,
            });
        }

        for Param {
            name: pname,
            dir,
            ty,
        } in &op.params
        {
            // Suppressed parameters: a leading-underscore scalar `in`
            // parameter is wire padding the presentation never
            // surfaces — it stays in the message (and MINT) but gets
            // no C parameter, and its binding is marked dead so the
            // `dead-slot` pass can drop its marshal work.
            let resolved = self.aoi.types.resolve(*ty);
            let suppressed = pname.starts_with('_')
                && *dir == ParamDir::In
                && matches!(self.aoi.types.get(resolved), Type::Prim(p) if *p != PrimType::Void);
            let (cty, by_ref) = self.param_ctype(*ty, *dir);
            if !suppressed {
                params.push(CParam {
                    name: pname.clone(),
                    ty: cty,
                });
            }
            let p = self.pres_of(*ty, alloc);
            let binding = ParamBinding {
                c_name: pname.clone(),
                pres: p,
                by_ref: by_ref && !suppressed,
                live: !suppressed,
            };
            if dir.in_request() {
                req_slots.push(binding.clone());
            }
            if dir.in_reply() {
                rep_slots.push(binding);
            }
        }

        if !self.hooks.leading_handle {
            params.push(CParam {
                name: Name::from_static("clnt"),
                ty: CType::ptr(CType::Named(Name::from_static("CLIENT"))),
            });
        }
        if let Some((ty_name, pname)) = self.hooks.env_param {
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
                    ty: CType::StructRef(ty_name.clone()),
                });
            }
            params.push(CParam {
                name: Name::from_static(pname),
                ty: CType::ptr(CType::Named(ty_name)),
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
            let base = self.ctype_of(op.ret);
            let pointer_valued = matches!(
                self.aoi.types.get(ret_resolved),
                Type::String { .. } | Type::Optional { .. } | Type::ObjRef { .. }
            );
            if pointer_valued || self.is_fixed_size(op.ret) {
                base
            } else {
                CType::ptr(base)
            }
        };

        // Whole-message MINT types.
        let req_mint_slots: Vec<(Name, MintId)> = op
            .request_params()
            .map(|p| (p.name.clone(), self.mint_of(p.ty)))
            .collect();
        let request_mint = self.message_struct(op.request_code, req_mint_slots);
        let mut rep_mint_slots: Vec<(Name, MintId)> = Vec::new();
        if !ret_is_void {
            rep_mint_slots.push((Name::from_static("_return"), self.mint_of(op.ret)));
        }
        for p in op.reply_params() {
            rep_mint_slots.push((p.name.clone(), self.mint_of(p.ty)));
        }
        let reply_mint = if op.oneway {
            self.mint.void()
        } else {
            self.mint.structure(rep_mint_slots)
        };

        Stub {
            decl: CFunction {
                name: Name::from(name.as_str()),
                ret: ret_c,
                params,
                body: None,
            },
            name,
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

    /// Builds a request-message struct carrying the operation
    /// discriminator as a typed literal constant followed by the
    /// argument slots — MINT's view of "opcode + body".
    fn message_struct(&mut self, code: u64, mut slots: Vec<(Name, MintId)>) -> MintId {
        let u32m = self.mint.u32();
        let disc = self.mint.constant(u32m, ConstVal::Unsigned(code));
        slots.insert(0, (Name::from_static("_op"), disc));
        self.mint.structure(slots)
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
                name: format!("_get_{}", attr.name).into(),
                oneway: false,
                ret: attr.ty,
                params: vec![],
                raises: vec![],
                request_code: next_code,
            });
            next_code += 1;
            if !attr.readonly {
                ops.push(Operation {
                    name: format!("_set_{}", attr.name).into(),
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
