//! The Fluke presentation: a thin variant of the CORBA C mapping.
//!
//! The paper's Table 1 lists the Fluke presentation generator as a
//! 301-line specialization *derived from the CORBA presentation
//! library*.  We mirror that structure: this module reuses the CORBA
//! hooks and overrides only what Fluke changes — stub naming
//! (`fluke_Mail_send`) and the absence of a `CORBA_Environment`
//! parameter (Fluke stubs report failures through their return value).

use flick_aoi::{Aoi, Name};
use flick_idl::diag::Diagnostics;
use flick_pres::{PresC, Side};

use crate::build::{generate, StyleHooks};

fn stub_name(iface_c: &str, op: &str, _code: u64) -> Name {
    Name::from_fmt(format_args!("fluke_{iface_c}_{op}"))
}

fn work_name(iface_c: &str, op: &str, _code: u64) -> Name {
    Name::from_fmt(format_args!("fluke_{iface_c}_{op}_server"))
}

pub(crate) fn hooks() -> StyleHooks {
    StyleHooks {
        // Derived from the CORBA hooks with two overrides.
        env_param: None,
        stub_name,
        work_name,
        style_name: "fluke-c",
        ..crate::corba::hooks()
    }
}

/// Generates the Fluke presentation of `iface_name` for `side`.
#[must_use]
pub fn fluke_c(aoi: &Aoi, iface_name: &str, side: Side, diags: &mut Diagnostics) -> Option<PresC> {
    generate(aoi, iface_name, side, hooks(), diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluke_names_and_no_env() {
        let aoi = flick_frontend_corba::parse_str(
            "mail.idl",
            "interface Mail { void send(in string msg); };",
        );
        let mut d = Diagnostics::new();
        let p = fluke_c(&aoi, "Mail", Side::Client, &mut d).unwrap();
        let s = p.stub("fluke_Mail_send").expect("fluke naming");
        assert!(
            s.decl.params.iter().all(|pa| pa.name != "ev"),
            "no CORBA_Environment parameter"
        );
        // Still CORBA-flavored: leading object handle.
        assert_eq!(s.decl.params[0].name, "obj");
        assert_eq!(p.style, "fluke-c");
    }
}
