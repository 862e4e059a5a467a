//! Stub descriptions within a PRES-C presentation.

use flick_cast::CFunction;
use flick_mint::MintId;
use flick_stablehash::Name;

use crate::node::PresId;

/// Which side of an interface a presentation (or stub) serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The invoking side.
    Client,
    /// The implementing side.
    Server,
}

/// The role of a generated function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StubKind {
    /// Client-side call stub: marshal request, send, await reply,
    /// unmarshal results.
    ClientCall,
    /// Server-side dispatch function: demultiplex a request, unmarshal
    /// arguments, invoke the work function, marshal the reply.
    ServerDispatch,
    /// The prototype of the user-implemented server work function.
    ServerWork,
    /// One-way send stub (no reply expected).
    OnewaySend,
}

/// Interface-operation metadata carried with each stub.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpInfo {
    /// The IDL-level operation name.
    pub name: Name,
    /// Wire discriminator for the operation (ONC RPC procedure number,
    /// or the ordinal backing a CORBA operation-name discriminator).
    pub request_code: u64,
    /// For CORBA-style protocols, the operation name as sent on the
    /// wire (IIOP demultiplexes on a string; ONC on an integer).
    pub wire_name: Name,
    /// True if the operation never sends a reply.
    pub oneway: bool,
}

/// Binds one slot of a message to one C-level location.
///
/// For a request message the slots are the `in`/`inout` parameters in
/// order; for a reply they are the return value (named `_return` by
/// convention) followed by `out`/`inout` parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamBinding {
    /// The C parameter (or `_return`) name.
    pub c_name: Name,
    /// How the slot's data converts between message and C forms.
    pub pres: PresId,
    /// True when the stub receives/returns the value through a pointer
    /// (C out-parameters, struct parameters passed by address).
    pub by_ref: bool,
    /// False when the presentation never surfaces this slot in the
    /// generated C/Rust signature (padding-only fields, suppressed
    /// parameters).  The wire message still carries the slot; the
    /// `dead-slot` pass drops its marshal work.
    pub live: bool,
}

/// A message (request or reply) together with the presentation of each
/// of its slots.
#[derive(Clone, Debug, PartialEq)]
pub struct MessagePres {
    /// The whole-message MINT type.
    pub mint: MintId,
    /// Slot bindings in marshal order.
    pub slots: Vec<ParamBinding>,
}

/// One generated function: its exposed CAST declaration plus the MINT
/// and PRES structures a back end needs to implement it.
#[derive(Clone, Debug)]
pub struct Stub {
    /// Generated function name (e.g. `Mail_send`, `send_1`).  A
    /// `String`, unlike the identifiers inside: the benchmark harness
    /// clones it into its own `(String, String)` keys.
    pub name: String,
    /// Role of the function.
    pub kind: StubKind,
    /// The exposed C signature (body filled in by a back end).
    pub decl: CFunction,
    /// Request message and its slot presentations.
    pub request: MessagePres,
    /// Reply message and its slot presentations (void MINT for oneway).
    pub reply: MessagePres,
    /// Operation metadata.
    pub op: OpInfo,
}

impl Stub {
    /// True if this stub expects no reply message.
    #[must_use]
    pub fn is_oneway(&self) -> bool {
        self.op.oneway
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_cast::{CParam, CType};
    use flick_mint::MintGraph;

    #[test]
    fn stub_construction() {
        let mut mint = MintGraph::new();
        let req = mint.void();
        let rep = mint.void();
        let stub = Stub {
            name: "Mail_send".into(),
            kind: StubKind::ClientCall,
            decl: CFunction {
                name: "Mail_send".into(),
                ret: CType::Void,
                params: vec![CParam {
                    name: "obj".into(),
                    ty: CType::named("Mail"),
                }],
                body: None,
            },
            request: MessagePres {
                mint: req,
                slots: vec![],
            },
            reply: MessagePres {
                mint: rep,
                slots: vec![],
            },
            op: OpInfo {
                name: "send".into(),
                request_code: 1,
                wire_name: "send".into(),
                oneway: false,
            },
        };
        assert!(!stub.is_oneway());
        assert_eq!(stub.decl.params.len(), 1);
    }
}
