//! AOI — the *Abstract Object Interface*, Flick's first intermediate
//! representation (paper §2.1.1).
//!
//! A front end translates an IDL source program into an [`Aoi`]: a
//! high-level description of the *network contract* between client and
//! server — the interfaces, the operations that may be invoked, their
//! parameters and results, attributes, and exceptions — with no
//! commitment to a target language, message encoding, or transport.
//!
//! AOI is deliberately IDL-neutral: the CORBA and ONC RPC front ends
//! produce *similar AOI representations for equivalent constructs*,
//! which is what lets one presentation generator serve many IDLs.  The
//! integration tests exercise exactly that property on the paper's
//! `Mail` example.
//!
//! Structure of the crate:
//! * [`types`] — the AOI type graph ([`Type`], [`TypeTable`]);
//! * [`interface`] — interfaces, operations, attributes, exceptions;
//! * [`validate`] — the well-formedness checker run after parsing;
//! * [`mod@print`] — a canonical pretty-printer used for debugging and for
//!   cross-IDL equivalence tests.

pub mod interface;
pub mod print;
pub mod types;
pub mod validate;

pub use interface::{
    Attribute, Exception, ExceptionId, Interface, InterfaceId, Operation, Param, ParamDir,
};
pub use types::{Field, PrimType, Type, TypeId, TypeTable, UnionCase, UnionLabel};

use flick_idl::diag::Diagnostics;
pub use flick_stablehash::Name;

/// A complete Abstract Object Interface: the output of a front end.
#[derive(Clone, Debug, Default)]
pub struct Aoi {
    /// All types referenced anywhere in the contract.
    pub types: TypeTable,
    /// The interfaces declared by the IDL program.
    pub interfaces: Vec<Interface>,
    /// Exceptions declared at any scope.
    pub exceptions: Vec<Exception>,
    /// Name of the IDL the contract came from (`"corba"`, `"onc"`),
    /// recorded for diagnostics only — consumers must not dispatch on it.
    pub source_idl: String,
}

impl Aoi {
    /// An empty contract tagged with its source IDL.
    #[must_use]
    pub fn new(source_idl: impl Into<String>) -> Self {
        Aoi {
            source_idl: source_idl.into(),
            ..Self::default()
        }
    }

    /// Looks up an interface by (scoped) name.
    #[must_use]
    pub fn interface(&self, name: &str) -> Option<&Interface> {
        self.interfaces.iter().find(|i| i.name == name)
    }

    /// Looks up an interface by id.
    ///
    /// # Panics
    /// Panics if `id` does not refer to an interface of this contract.
    #[must_use]
    pub fn interface_by_id(&self, id: InterfaceId) -> &Interface {
        &self.interfaces[id.index()]
    }

    /// Looks up an exception by id.
    ///
    /// # Panics
    /// Panics if `id` does not refer to an exception of this contract.
    #[must_use]
    pub fn exception_by_id(&self, id: ExceptionId) -> &Exception {
        &self.exceptions[id.index()]
    }

    /// Registers `iface` and returns its id.
    pub fn add_interface(&mut self, iface: Interface) -> InterfaceId {
        let id = InterfaceId::from_index(self.interfaces.len());
        self.interfaces.push(iface);
        id
    }

    /// Registers `exc` and returns its id.
    pub fn add_exception(&mut self, exc: Exception) -> ExceptionId {
        let id = ExceptionId::from_index(self.exceptions.len());
        self.exceptions.push(exc);
        id
    }

    /// Runs the well-formedness checker, recording problems in `diags`.
    pub fn validate(&self, diags: &mut Diagnostics) {
        validate::validate(self, diags);
    }

    /// Canonical textual form (see [`mod@print`]).
    #[must_use]
    pub fn to_pretty(&self) -> String {
        print::print(self)
    }
}

impl flick_stablehash::StableHash for Aoi {
    /// Hashes the canonical pretty-printed form.  The printer already
    /// renders the contract in a position-independent way (names and
    /// declaration order, not arena indices), and the cross-IDL tests
    /// pin its output, so it doubles as the contract's content address.
    fn stable_hash(&self, h: &mut Vec<u8>) {
        flick_stablehash::Frame::write_str(h, &self.to_pretty());
    }
}
