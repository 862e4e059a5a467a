//! Counted arrays of byte-wide scalars, planned.  No canonical module
//! has one, so the element size class lowering gives them is pinned
//! here: XDR and Fluke pack an octet or a char into one byte of a
//! counted array (a `short` still takes a 4-byte unit), CDR packs a
//! `short` into two.  `coalesce-memcpy` is off, so each array stays a
//! `CountedArray` with its element class rather than becoming a run.

use flick_backend::layout::SizeClass;
use flick_backend::mir::PlanNode;
use flick_backend::{passes, Encoding, PassSet};
use flick_idl::diag::Diagnostics;
use flick_pres::Side;

const IDL: &str = "interface B {
    void f(in sequence<octet> o, in sequence<char> c, in sequence<short> s);
};";

/// The element class of each request slot of `f`, in order.
fn elem_classes(enc: &Encoding) -> Vec<(String, SizeClass)> {
    let aoi = flick_frontend_corba::parse_str("bytes.idl", IDL);
    let mut diags = Diagnostics::new();
    let presc = flick_presgen::corba_c(&aoi, "B", Side::Server, &mut diags).expect("presentation");
    let passes = PassSet::all().without("coalesce-memcpy").expect("a pass");
    let planned = passes::plan_module(&presc, enc, passes, true, None, None).expect("plan");
    let stub = &planned.mir.stubs[0];
    stub.request
        .slots
        .iter()
        .map(|slot| match &slot.node {
            PlanNode::CountedArray { elem_class, .. } => (slot.name.to_string(), *elem_class),
            other => panic!("{}: slot {} planned as {other:?}", enc.name, slot.name),
        })
        .collect()
}

#[test]
fn byte_wide_counted_arrays_plan_one_byte_elements() {
    for (enc, short) in [
        (Encoding::xdr(), 4),
        (Encoding::fluke(), 4),
        (Encoding::cdr_be(), 2),
        (Encoding::cdr_le(), 2),
    ] {
        let want = [
            ("o".to_string(), SizeClass::Fixed(1)),
            ("c".to_string(), SizeClass::Fixed(1)),
            ("s".to_string(), SizeClass::Fixed(short)),
        ];
        assert_eq!(elem_classes(&enc), want, "{}", enc.name);
    }
}
