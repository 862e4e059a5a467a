//! Well-formedness checking for AOI contracts.
//!
//! Front ends run this after parsing; presentation generators may rely
//! on the invariants it establishes:
//!
//! * every [`TypeId`] reachable from an interface is in the table;
//! * no type has infinite size (recursion must pass through
//!   [`Type::Optional`] or [`Type::Sequence`]);
//! * union discriminators are integral/boolean/char/enum and case
//!   labels are unique, with at most one `default`;
//! * operation and parameter names are unique within their scope;
//! * request codes are unique within an interface.

use std::collections::HashSet;

use flick_idl::diag::{Diagnostic, Diagnostics};

use crate::types::{PrimType, Type, TypeId};
use crate::{Aoi, UnionLabel};

/// Checks `aoi`, appending any problems to `diags`.
pub fn validate(aoi: &Aoi, diags: &mut Diagnostics) {
    // One set of each kind for the whole walk, sized once for its
    // largest use and emptied between uses.
    let ops = aoi.interfaces.iter().map(|i| i.ops.len()).max();
    let params = aoi
        .interfaces
        .iter()
        .flat_map(|i| &i.ops)
        .map(|o| o.params.len())
        .max();
    let mut seen_iface = HashSet::with_capacity(aoi.interfaces.len());
    let mut seen_op = HashSet::with_capacity(ops.unwrap_or(0));
    let mut seen_code = HashSet::with_capacity(ops.unwrap_or(0));
    let mut seen_param = HashSet::with_capacity(params.unwrap_or(0));
    for iface in &aoi.interfaces {
        if !seen_iface.insert(iface.name.as_str()) {
            diags.push(Diagnostic::error_nospan(format!(
                "duplicate interface `{}`",
                iface.name
            )));
        }
        seen_op.clear();
        seen_code.clear();
        for op in &iface.ops {
            if !seen_op.insert(op.name.as_str()) {
                diags.push(Diagnostic::error_nospan(format!(
                    "duplicate operation `{}::{}`",
                    iface.name, op.name
                )));
            }
            if !seen_code.insert(op.request_code) {
                diags.push(Diagnostic::error_nospan(format!(
                    "duplicate request code {} in interface `{}` (operation `{}`)",
                    op.request_code, iface.name, op.name
                )));
            }
            seen_param.clear();
            for p in &op.params {
                if !seen_param.insert(p.name.as_str()) {
                    diags.push(Diagnostic::error_nospan(format!(
                        "duplicate parameter `{}` of `{}::{}`",
                        p.name, iface.name, op.name
                    )));
                }
                check_type(aoi, p.ty, diags);
            }
            check_type(aoi, op.ret, diags);
            if op.oneway {
                if !matches!(
                    aoi.types.get(aoi.types.resolve(op.ret)),
                    Type::Prim(PrimType::Void)
                ) {
                    diags.push(Diagnostic::error_nospan(format!(
                        "oneway operation `{}::{}` must return void",
                        iface.name, op.name
                    )));
                }
                if op.params.iter().any(|p| p.dir.in_reply()) {
                    diags.push(Diagnostic::error_nospan(format!(
                        "oneway operation `{}::{}` cannot have out/inout parameters",
                        iface.name, op.name
                    )));
                }
            }
        }
        for attr in &iface.attrs {
            check_type(aoi, attr.ty, diags);
        }
    }
    let mut finite = Finite {
        proven: vec![false; aoi.types.len()],
        on_path: Vec::new(),
    };
    let labels = aoi.types.iter().map(|(_, t)| match t {
        Type::Union { cases, .. } => cases.iter().map(|c| c.labels.len()).sum(),
        _ => 0,
    });
    let mut seen_label = HashSet::with_capacity(labels.max().unwrap_or(0));
    for (i, _) in aoi.types.iter() {
        check_finite(aoi, i, &mut finite, diags);
        check_union(aoi, i, &mut seen_label, diags);
    }
}

fn check_type(aoi: &Aoi, id: TypeId, diags: &mut Diagnostics) {
    if id.index() >= aoi.types.len() {
        diags.push(Diagnostic::error_nospan(format!(
            "dangling type id {id:?} (table has {} types)",
            aoi.types.len()
        )));
    }
}

/// The finiteness walk's state, shared by every root.
struct Finite {
    /// Types whose whole containment closure was walked without
    /// reaching a cycle, by `TypeId` — a later root skips them.  A type
    /// that reaches a cycle is never marked, so each root still reports
    /// the cycle its own walk finds first.
    proven: Vec<bool>,
    /// The current containment path, empty between roots.
    on_path: Vec<TypeId>,
}

/// Detects structurally infinite types: cycles in the "contains by
/// value" relation.  `Optional` and `Sequence` break containment, so a
/// linked list through `Optional` is fine while `struct S { S inner; }`
/// is not.
fn check_finite(aoi: &Aoi, root: TypeId, finite: &mut Finite, diags: &mut Diagnostics) {
    fn walk(
        aoi: &Aoi,
        id: TypeId,
        finite: &mut Finite,
        diags: &mut Diagnostics,
        reported: &mut bool,
    ) {
        if *reported || finite.proven[id.index()] {
            return;
        }
        if finite.on_path.contains(&id) {
            let name = aoi
                .types
                .get(id)
                .name()
                .map_or_else(|| format!("{id:?}"), str::to_string);
            diags.push(Diagnostic::error_nospan(format!(
                "type `{name}` contains itself by value and would have infinite size"
            )));
            *reported = true;
            return;
        }
        finite.on_path.push(id);
        match aoi.types.get(id) {
            Type::Array { elem, .. } => walk(aoi, *elem, finite, diags, reported),
            Type::Struct { fields, .. } => {
                for f in fields {
                    walk(aoi, f.ty, finite, diags, reported);
                }
            }
            Type::Union {
                discriminator,
                cases,
                ..
            } => {
                walk(aoi, *discriminator, finite, diags, reported);
                for c in cases {
                    if let Some(t) = c.ty {
                        walk(aoi, t, finite, diags, reported);
                    }
                }
            }
            Type::Alias { target, .. } => walk(aoi, *target, finite, diags, reported),
            // Containment breakers: data lives behind indirection.
            Type::Optional { .. } | Type::Sequence { .. } => {}
            Type::Prim(_)
            | Type::String { .. }
            | Type::Opaque { .. }
            | Type::Enum { .. }
            | Type::ObjRef { .. } => {}
        }
        finite.on_path.pop();
        // Nothing below `id` re-entered the path: its closure is finite.
        if !*reported {
            finite.proven[id.index()] = true;
        }
    }
    let mut reported = false;
    finite.on_path.clear();
    walk(aoi, root, finite, diags, &mut reported);
}

fn check_union(aoi: &Aoi, id: TypeId, seen: &mut HashSet<i64>, diags: &mut Diagnostics) {
    let Type::Union {
        name,
        discriminator,
        cases,
    } = aoi.types.get(id)
    else {
        return;
    };
    let disc = aoi.types.get(aoi.types.resolve(*discriminator));
    let ok =
        matches!(disc, Type::Prim(p) if p.is_discriminator()) || matches!(disc, Type::Enum { .. });
    if !ok {
        diags.push(Diagnostic::error_nospan(format!(
            "union `{name}` discriminator must be an integral, boolean, char, or enum type"
        )));
    }
    seen.clear();
    let mut defaults = 0usize;
    for c in cases {
        for l in &c.labels {
            match l {
                UnionLabel::Value(v) => {
                    if !seen.insert(*v) {
                        diags.push(Diagnostic::error_nospan(format!(
                            "union `{name}` has duplicate case label {v}"
                        )));
                    }
                }
                UnionLabel::Default => defaults += 1,
            }
        }
    }
    if defaults > 1 {
        diags.push(Diagnostic::error_nospan(format!(
            "union `{name}` has more than one default arm"
        )));
    }
    if cases.is_empty() {
        diags.push(Diagnostic::error_nospan(format!(
            "union `{name}` has no arms"
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::{Interface, Operation, Param, ParamDir};
    use crate::types::{Field, UnionCase};

    fn empty_op(name: &str, code: u64, ret: TypeId) -> Operation {
        Operation {
            name: name.into(),
            oneway: false,
            ret,
            params: vec![],
            raises: vec![],
            request_code: code,
        }
    }

    #[test]
    fn clean_contract_validates() {
        let mut aoi = Aoi::new("test");
        let void = aoi.types.prim(PrimType::Void);
        let string = aoi.types.add(Type::String { bound: None });
        let mut mail = Interface::new("Mail");
        let mut send = empty_op("send", 1, void);
        send.params.push(Param {
            name: "msg".into(),
            dir: ParamDir::In,
            ty: string,
        });
        mail.ops.push(send);
        aoi.add_interface(mail);
        let mut d = Diagnostics::new();
        aoi.validate(&mut d);
        assert!(!d.has_errors(), "{d:?}");
    }

    #[test]
    fn duplicate_ops_rejected() {
        let mut aoi = Aoi::new("test");
        let void = aoi.types.prim(PrimType::Void);
        let mut i = Interface::new("I");
        i.ops.push(empty_op("f", 1, void));
        i.ops.push(empty_op("f", 2, void));
        aoi.add_interface(i);
        let mut d = Diagnostics::new();
        aoi.validate(&mut d);
        assert!(d.has_errors());
    }

    #[test]
    fn duplicate_request_codes_rejected() {
        let mut aoi = Aoi::new("test");
        let void = aoi.types.prim(PrimType::Void);
        let mut i = Interface::new("I");
        i.ops.push(empty_op("f", 1, void));
        i.ops.push(empty_op("g", 1, void));
        aoi.add_interface(i);
        let mut d = Diagnostics::new();
        aoi.validate(&mut d);
        assert!(d.has_errors());
    }

    #[test]
    fn infinite_struct_rejected() {
        let mut aoi = Aoi::new("test");
        let long = aoi.types.prim(PrimType::Long);
        let fwd = aoi.types.add(Type::Alias {
            name: "S".into(),
            target: long,
        });
        let s = aoi.types.add(Type::Struct {
            name: "S".into(),
            fields: vec![Field {
                name: "inner".into(),
                ty: fwd,
            }],
        });
        *aoi.types.get_mut(fwd) = Type::Alias {
            name: "S".into(),
            target: s,
        };
        let mut d = Diagnostics::new();
        aoi.validate(&mut d);
        assert!(d.has_errors());
        assert!(d.iter().any(|x| x.message.contains("infinite size")));
    }

    #[test]
    fn every_root_that_reaches_a_cycle_reports_it() {
        // `S` contains itself; `T` contains `S`; `U` contains a finite
        // `P` and `T`.  Each of the alias, `S`, `T` and `U` reaches the
        // cycle and reports it once, whatever an earlier root proved
        // finite on the way.
        let mut aoi = Aoi::new("test");
        let long = aoi.types.prim(PrimType::Long);
        let fwd = aoi.types.add(Type::Alias {
            name: "S".into(),
            target: long,
        });
        let field = |name: &str, ty| Field {
            name: name.into(),
            ty,
        };
        let s = aoi.types.add(Type::Struct {
            name: "S".into(),
            fields: vec![field("inner", fwd)],
        });
        *aoi.types.get_mut(fwd) = Type::Alias {
            name: "S".into(),
            target: s,
        };
        let t = aoi.types.add(Type::Struct {
            name: "T".into(),
            fields: vec![field("n", long), field("s", fwd)],
        });
        let p = aoi.types.add(Type::Struct {
            name: "P".into(),
            fields: vec![field("a", long)],
        });
        aoi.types.add(Type::Struct {
            name: "U".into(),
            fields: vec![field("p", p), field("t", t)],
        });
        let mut d = Diagnostics::new();
        aoi.validate(&mut d);
        let messages: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
        let cycle = "type `S` contains itself by value and would have infinite size";
        assert_eq!(messages, [cycle; 4]);
    }

    #[test]
    fn linked_list_through_optional_is_finite() {
        let mut aoi = Aoi::new("test");
        let long = aoi.types.prim(PrimType::Long);
        let fwd = aoi.types.add(Type::Alias {
            name: "node".into(),
            target: long,
        });
        let opt = aoi.types.add(Type::Optional { elem: fwd });
        let node = aoi.types.add(Type::Struct {
            name: "node".into(),
            fields: vec![
                Field {
                    name: "v".into(),
                    ty: long,
                },
                Field {
                    name: "next".into(),
                    ty: opt,
                },
            ],
        });
        *aoi.types.get_mut(fwd) = Type::Alias {
            name: "node".into(),
            target: node,
        };
        let mut d = Diagnostics::new();
        aoi.validate(&mut d);
        assert!(!d.has_errors(), "{d:?}");
    }

    #[test]
    fn bad_union_discriminator_rejected() {
        let mut aoi = Aoi::new("test");
        let float = aoi.types.prim(PrimType::Float);
        let long = aoi.types.prim(PrimType::Long);
        aoi.types.add(Type::Union {
            name: "U".into(),
            discriminator: float,
            cases: vec![UnionCase {
                labels: vec![UnionLabel::Value(0)],
                name: "a".into(),
                ty: Some(long),
            }],
        });
        let mut d = Diagnostics::new();
        aoi.validate(&mut d);
        assert!(d.has_errors());
    }

    #[test]
    fn duplicate_union_labels_rejected() {
        let mut aoi = Aoi::new("test");
        let long = aoi.types.prim(PrimType::Long);
        aoi.types.add(Type::Union {
            name: "U".into(),
            discriminator: long,
            cases: vec![
                UnionCase {
                    labels: vec![UnionLabel::Value(1)],
                    name: "a".into(),
                    ty: Some(long),
                },
                UnionCase {
                    labels: vec![UnionLabel::Value(1)],
                    name: "b".into(),
                    ty: Some(long),
                },
            ],
        });
        let mut d = Diagnostics::new();
        aoi.validate(&mut d);
        assert!(d.has_errors());
    }

    #[test]
    fn oneway_with_out_param_rejected() {
        let mut aoi = Aoi::new("test");
        let void = aoi.types.prim(PrimType::Void);
        let long = aoi.types.prim(PrimType::Long);
        let mut i = Interface::new("I");
        let mut op = empty_op("f", 1, void);
        op.oneway = true;
        op.params.push(Param {
            name: "x".into(),
            dir: ParamDir::Out,
            ty: long,
        });
        i.ops.push(op);
        aoi.add_interface(i);
        let mut d = Diagnostics::new();
        aoi.validate(&mut d);
        assert!(d.has_errors());
    }
}
