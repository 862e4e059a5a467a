//! The CORBA C language mapping (OMG CORBA 2.0, chapter 14).
//!
//! Stubs are named `Interface_op`, take a leading object handle and a
//! trailing `CORBA_Environment *ev`, and sequences present as
//! `{_maximum, _length, _buffer}` structs.  As the paper notes
//! (§2.2.1 fn 3), this mapping cannot express ONC-style
//! self-referential optional types; those are rejected with a
//! diagnostic.

use flick_aoi::{Aoi, Name};
use flick_idl::diag::Diagnostics;
use flick_pres::{PresC, Side};

use crate::build::{generate, StyleHooks};

fn stub_name(iface_c: &str, op: &str, _code: u64) -> Name {
    Name::from_fmt(format_args!("{iface_c}_{op}"))
}

fn work_name(iface_c: &str, op: &str, _code: u64) -> Name {
    // The CORBA C mapping gives server work functions the same
    // signature and name shape as the client stubs (linked into a
    // different program); we suffix to keep them distinct in tests.
    Name::from_fmt(format_args!("{iface_c}_{op}_impl"))
}

pub(crate) fn hooks() -> StyleHooks {
    StyleHooks {
        style_name: "corba-c",
        stub_name,
        work_name,
        seq_fields: ("_length", "_maximum", "_buffer"),
        env_param: Some(("CORBA_Environment", "ev")),
        leading_handle: true,
        allows_optional: false,
        allows_exceptions: true,
    }
}

/// Generates the CORBA C presentation of `iface_name` for `side`.
///
/// Returns `None` (with diagnostics) if the interface is missing or
/// uses constructs the CORBA mapping cannot express.
#[must_use]
pub fn corba_c(aoi: &Aoi, iface_name: &str, side: Side, diags: &mut Diagnostics) -> Option<PresC> {
    generate(aoi, iface_name, side, hooks(), diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_cast::{CType, Printer};
    use flick_pres::{PresNode, StubKind};

    fn mail_aoi() -> Aoi {
        flick_frontend_corba::parse_str("mail.idl", "interface Mail { void send(in string msg); };")
    }

    #[test]
    fn paper_mail_send_signature() {
        // §2: "a CORBA IDL compiler for C will always produce
        // void Mail_send(Mail obj, char *msg)" (we include the
        // CORBA_Environment the paper elides for clarity).
        let aoi = mail_aoi();
        let mut d = Diagnostics::new();
        let p = corba_c(&aoi, "Mail", Side::Client, &mut d).expect("generated");
        assert!(!d.has_errors());
        let stub = p
            .stub("Mail_send")
            .expect("stub name follows the C mapping");
        assert_eq!(stub.kind, StubKind::ClientCall);
        let sig: Vec<(&str, &CType)> = stub
            .decl
            .params
            .iter()
            .map(|pa| (pa.name.as_str(), &pa.ty))
            .collect();
        assert_eq!(sig.len(), 3);
        assert_eq!(sig[0].0, "obj");
        assert_eq!(sig[1], ("msg", &CType::ptr(CType::Char)));
        assert_eq!(sig[2].0, "ev");
        assert_eq!(stub.decl.ret, CType::Void);
    }

    #[test]
    fn object_type_is_void_pointer_typedef() {
        let aoi = mail_aoi();
        let mut d = Diagnostics::new();
        let p = corba_c(&aoi, "Mail", Side::Client, &mut d).unwrap();
        let src = Printer::new().unit(&p.cast);
        assert!(src.contains("typedef void *Mail;"), "{src}");
    }

    #[test]
    fn string_presents_as_terminated_string() {
        let aoi = mail_aoi();
        let mut d = Diagnostics::new();
        let p = corba_c(&aoi, "Mail", Side::Client, &mut d).unwrap();
        let stub = p.stub("Mail_send").unwrap();
        assert_eq!(stub.request.slots.len(), 1);
        assert!(matches!(
            p.pres.get(stub.request.slots[0].pres),
            PresNode::TerminatedString { .. }
        ));
    }

    #[test]
    fn sequence_presents_as_counted_struct() {
        let aoi = flick_frontend_corba::parse_str(
            "d.idl",
            r"
            struct Point { long x; long y; };
            typedef sequence<Point> PointSeq;
            interface Draw { void paint(in PointSeq pts); };
            ",
        );
        let mut d = Diagnostics::new();
        let p = corba_c(&aoi, "Draw", Side::Client, &mut d).unwrap();
        let stub = p.stub("Draw_paint").unwrap();
        let PresNode::CountedSeq {
            length_field,
            maximum_field,
            buffer_field,
            ..
        } = p.pres.get(stub.request.slots[0].pres)
        else {
            panic!("expected CountedSeq");
        };
        assert_eq!(length_field, "_length");
        assert_eq!(maximum_field, "_maximum");
        assert_eq!(buffer_field, "_buffer");
        let src = Printer::new().unit(&p.cast);
        assert!(src.contains("unsigned int _maximum;"), "{src}");
        assert!(src.contains("Point *_buffer;"), "{src}");
        // Aggregates pass by pointer.
        assert!(stub.request.slots[0].by_ref);
    }

    #[test]
    fn attributes_expand_to_get_set() {
        let aoi = flick_frontend_corba::parse_str(
            "a.idl",
            "interface Acct { readonly attribute long balance; attribute string owner; };",
        );
        let mut d = Diagnostics::new();
        let p = corba_c(&aoi, "Acct", Side::Client, &mut d).unwrap();
        assert!(p.stub("Acct__get_balance").is_some());
        assert!(
            p.stub("Acct__set_balance").is_none(),
            "readonly has no setter"
        );
        assert!(p.stub("Acct__get_owner").is_some());
        assert!(p.stub("Acct__set_owner").is_some());
    }

    #[test]
    fn rejects_onc_optional_types() {
        // An AOI produced from ONC RPC input with a linked list: the
        // CORBA mapping must reject it (paper §2.2.1 footnote 3).
        let aoi = flick_frontend_onc::parse_str(
            "list.x",
            r"
            struct node { int v; node *next; };
            program ListProg { version V { node head(void) = 1; } = 1; } = 77;
            ",
        );
        let mut d = Diagnostics::new();
        let r = corba_c(&aoi, "ListProg", Side::Client, &mut d);
        assert!(r.is_none());
        assert!(d.has_errors());
        assert!(
            d.iter().any(|x| x.message.contains("self-referential")),
            "diagnostic explains the limitation"
        );
    }

    #[test]
    fn accepts_plain_onc_input() {
        // Cross-IDL flexibility: CORBA presentation of an ONC program.
        let aoi = flick_frontend_onc::parse_str(
            "mail.x",
            "program Mail { version V { void send(string msg) = 1; } = 1; } = 0x20000001;",
        );
        let mut d = Diagnostics::new();
        let p = corba_c(&aoi, "Mail", Side::Client, &mut d).expect("generated");
        assert!(p.stub("Mail_send").is_some());
        assert_eq!(p.program, 0x2000_0001);
    }

    #[test]
    fn server_side_allows_stack_and_buffer_alloc() {
        let aoi = mail_aoi();
        let mut d = Diagnostics::new();
        let p = corba_c(&aoi, "Mail", Side::Server, &mut d).unwrap();
        let stub = p
            .stubs
            .iter()
            .find(|s| s.kind == StubKind::ServerWork)
            .unwrap();
        let PresNode::TerminatedString { alloc, .. } = p.pres.get(stub.request.slots[0].pres)
        else {
            panic!("expected string");
        };
        assert!(alloc.may_use_stack && alloc.may_use_buffer);
    }

    #[test]
    fn oneway_has_void_reply() {
        let aoi = flick_frontend_corba::parse_str(
            "o.idl",
            "interface Log { oneway void emit(in string line); };",
        );
        let mut d = Diagnostics::new();
        let p = corba_c(&aoi, "Log", Side::Client, &mut d).unwrap();
        let stub = p.stub("Log_emit").unwrap();
        assert_eq!(stub.kind, StubKind::OnewaySend);
        assert!(matches!(
            p.mint.get(stub.reply.mint),
            flick_mint::MintNode::Void
        ));
    }

    #[test]
    fn request_mint_carries_op_discriminator() {
        let aoi = mail_aoi();
        let mut d = Diagnostics::new();
        let p = corba_c(&aoi, "Mail", Side::Client, &mut d).unwrap();
        let stub = p.stub("Mail_send").unwrap();
        let flick_mint::MintNode::Struct { slots } = p.mint.get(stub.request.mint) else {
            panic!("request is a struct");
        };
        assert_eq!(slots[0].0, "_op");
        assert!(matches!(
            p.mint.get(slots[0].1),
            flick_mint::MintNode::Const { .. }
        ));
    }
}
