//! Sun's `rpcgen` C mapping.
//!
//! Stubs are named `op_<version>` (`send_1`), take a trailing
//! `CLIENT *` handle, and server work functions are `op_<version>_svc`.
//! Sequences present as `rpcgen`-style counted structs with `len`/`val`
//! members.  This mapping has no notion of exceptions, so AOI contracts
//! that declare `raises` clauses are rejected (paper §2.2.1 fn 3); ONC
//! optional types (linked lists) are fully supported.

use flick_aoi::{Aoi, Name};
use flick_idl::diag::Diagnostics;
use flick_pres::{PresC, Side};

use crate::build::{generate, StyleHooks};

fn stub_name(_iface_c: &str, op: &str, _code: u64) -> Name {
    Name::from_fmt(format_args!("{op}_1"))
}

fn work_name(_iface_c: &str, op: &str, _code: u64) -> Name {
    Name::from_fmt(format_args!("{op}_1_svc"))
}

pub(crate) fn hooks() -> StyleHooks {
    StyleHooks {
        style_name: "rpcgen-c",
        stub_name,
        work_name,
        seq_fields: ("len", "maximum", "val"),
        env_param: None,
        leading_handle: false,
        allows_optional: true,
        allows_exceptions: false,
    }
}

/// Generates the `rpcgen` C presentation of `iface_name` for `side`.
///
/// Returns `None` (with diagnostics) if the interface is missing or
/// raises exceptions, which rpcgen presentations cannot express.
#[must_use]
pub fn rpcgen_c(aoi: &Aoi, iface_name: &str, side: Side, diags: &mut Diagnostics) -> Option<PresC> {
    generate(aoi, iface_name, side, hooks(), diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_cast::CType;
    use flick_pres::{PresNode, StubKind};

    #[test]
    fn stub_and_svc_names() {
        let aoi = flick_frontend_onc::parse_str(
            "mail.x",
            "program Mail { version V { void send(string msg) = 1; } = 1; } = 0x20000001;",
        );
        let mut d = Diagnostics::new();
        let client = rpcgen_c(&aoi, "Mail", Side::Client, &mut d).unwrap();
        assert!(client.stub("send_1").is_some());
        let server = rpcgen_c(&aoi, "Mail", Side::Server, &mut d).unwrap();
        assert!(server.stub("send_1_svc").is_some());
    }

    #[test]
    fn trailing_client_handle() {
        let aoi = flick_frontend_onc::parse_str(
            "c.x",
            "program Calc { version V { int add(int a, int b) = 1; } = 1; } = 5;",
        );
        let mut d = Diagnostics::new();
        let p = rpcgen_c(&aoi, "Calc", Side::Client, &mut d).unwrap();
        let s = p.stub("add_1").unwrap();
        let last = s.decl.params.last().unwrap();
        assert_eq!(last.name, "clnt");
        assert_eq!(last.ty, CType::ptr(CType::named("CLIENT")));
        assert_eq!(s.decl.ret, CType::Int);
    }

    #[test]
    fn presents_corba_idl_input() {
        // Cross-IDL: rpcgen presentation of a CORBA-parsed interface.
        let aoi = flick_frontend_corba::parse_str(
            "mail.idl",
            "interface Mail { void send(in string msg); };",
        );
        let mut d = Diagnostics::new();
        let p = rpcgen_c(&aoi, "Mail", Side::Client, &mut d).expect("generated");
        assert!(p.stub("send_1").is_some());
    }

    #[test]
    fn rejects_corba_exceptions() {
        let aoi = flick_frontend_corba::parse_str(
            "e.idl",
            r"
            exception Failed { string reason; };
            interface I { void risky() raises (Failed); };
            ",
        );
        let mut d = Diagnostics::new();
        let r = rpcgen_c(&aoi, "I", Side::Client, &mut d);
        assert!(r.is_none());
        assert!(d.iter().any(|x| x.message.contains("exception")));
    }

    #[test]
    fn linked_list_presents_as_optional_pointer() {
        let aoi = flick_frontend_onc::parse_str(
            "l.x",
            r"
            struct node { int v; node *next; };
            program L { version V { void put(node n) = 1; } = 1; } = 9;
            ",
        );
        let mut d = Diagnostics::new();
        let p = rpcgen_c(&aoi, "L", Side::Client, &mut d).expect("rpcgen accepts lists");
        let s = p.stub("put_1").unwrap();
        let PresNode::StructMap { fields, .. } = p.pres.get(s.request.slots[0].pres) else {
            panic!("expected struct pres");
        };
        assert!(matches!(
            p.pres.get(fields[1].1),
            PresNode::OptionalPtr { .. }
        ));
    }

    #[test]
    fn rpcgen_sequence_field_names() {
        let aoi = flick_frontend_onc::parse_str(
            "s.x",
            r"
            typedef int numbers<>;
            program P { version V { void put(numbers ns) = 1; } = 1; } = 3;
            ",
        );
        let mut d = Diagnostics::new();
        let p = rpcgen_c(&aoi, "P", Side::Client, &mut d).unwrap();
        let s = p.stub("put_1").unwrap();
        let PresNode::CountedSeq {
            length_field,
            buffer_field,
            ..
        } = p.pres.get(s.request.slots[0].pres)
        else {
            panic!("expected counted sequence");
        };
        assert_eq!(length_field, "len");
        assert_eq!(buffer_field, "val");
    }

    #[test]
    fn server_work_kind() {
        let aoi = flick_frontend_onc::parse_str(
            "w.x",
            "program P { version V { int f(int x) = 1; } = 1; } = 2;",
        );
        let mut d = Diagnostics::new();
        let p = rpcgen_c(&aoi, "P", Side::Server, &mut d).unwrap();
        assert_eq!(p.stubs[0].kind, StubKind::ServerWork);
    }
}
