//! PRES and PRES-C — presentation mapping trees and the complete
//! C-presentation description (paper §2.2.3–§2.2.4).
//!
//! A [`PresNode`] defines a *type conversion* between a MINT message
//! type and a target-language (CAST) type: a direct scalar mapping, an
//! `OPT_PTR` pointer transformation, a counted-sequence presentation,
//! and so on.  A [`PresC`] bundles everything a back end needs to
//! implement one side (client or server) of an interface:
//!
//! * the MINT graph of every request and reply message,
//! * the CAST declarations presented to user code,
//! * one [`Stub`] per generated function, whose parameter bindings tie
//!   message slots to C parameters through PRES trees.
//!
//! The only thing *not* described here is the transport protocol —
//! message format, data encoding, and communication mechanism — which
//! is the domain of the back ends.

pub mod hash;
pub mod node;
pub mod print;
pub mod stub;

pub use hash::{stub_hash, stub_hashes};
pub use node::{AllocSem, AllocStrategy, PresId, PresNode, PresTree};
pub use stub::{MessagePres, OpInfo, ParamBinding, Side, Stub, StubKind};

use flick_cast::CUnit;
use flick_mint::MintGraph;
pub use flick_stablehash::Name;

/// A complete presentation of an interface in C, for one side.
///
/// This is the artifact a presentation generator produces and a back
/// end consumes; the paper stores it in a `.prc` file, we pass it in
/// memory (and snapshot it textually in golden tests).
#[derive(Clone, Debug)]
pub struct PresC {
    /// Which side of the interface this presentation serves.
    pub side: Side,
    /// Scoped interface name.
    pub interface: String,
    /// Transport program identity (ONC RPC program number, if any).
    pub program: u64,
    /// Transport version (ONC RPC version number, if any).
    pub version: u64,
    /// All message types.
    pub mint: MintGraph,
    /// All presentation mappings.
    pub pres: PresTree,
    /// Supporting C declarations (typedefs, structs) exposed to users.
    pub cast: CUnit,
    /// The stubs to generate.
    pub stubs: Vec<Stub>,
    /// Name of the presentation style that produced this (e.g.
    /// `"corba-c"`, `"rpcgen-c"`, `"mig-c"`), for diagnostics and the
    /// Table 1 accounting.
    pub style: String,
}

impl PresC {
    /// Finds a stub by generated name.
    #[must_use]
    pub fn stub(&self, name: &str) -> Option<&Stub> {
        self.stubs.iter().find(|s| s.name == name)
    }

    /// Textual rendering — the paper's `.prc` view (see [`mod@print`]).
    #[must_use]
    pub fn to_pretty(&self) -> String {
        print::print(self)
    }
}
