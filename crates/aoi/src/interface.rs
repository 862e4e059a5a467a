//! Interfaces, operations, attributes, and exceptions.
//!
//! AOI keeps these as *separate notions* even though most transports
//! ultimately implement all of them as kinds of messages — the paper
//! (§2.1.1) calls this out as the property that keeps AOI high-level
//! enough to serve many IDLs and presentations.

use flick_stablehash::Name;

use crate::types::{Field, TypeId};

/// Index of an [`Interface`] within an [`crate::Aoi`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InterfaceId(u32);

impl InterfaceId {
    /// Builds an id from a raw index.
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        InterfaceId(u32::try_from(i).expect("more than 2^32 interfaces"))
    }

    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of an [`Exception`] within an [`crate::Aoi`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExceptionId(u32);

impl ExceptionId {
    /// Builds an id from a raw index.
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        ExceptionId(u32::try_from(i).expect("more than 2^32 exceptions"))
    }

    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Direction of an operation parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParamDir {
    /// Client → server only.
    In,
    /// Server → client only.
    Out,
    /// Both directions.
    InOut,
}

impl ParamDir {
    /// True if the parameter travels in the request message.
    #[must_use]
    pub fn in_request(self) -> bool {
        matches!(self, ParamDir::In | ParamDir::InOut)
    }

    /// True if the parameter travels in the reply message.
    #[must_use]
    pub fn in_reply(self) -> bool {
        matches!(self, ParamDir::Out | ParamDir::InOut)
    }
}

/// A formal parameter of an [`Operation`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: Name,
    /// Direction.
    pub dir: ParamDir,
    /// Parameter type.
    pub ty: TypeId,
}

/// An operation (method/procedure) of an interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Operation {
    /// Unqualified operation name.
    pub name: Name,
    /// True for CORBA `oneway` operations (no reply message).
    pub oneway: bool,
    /// Return type ([`crate::PrimType::Void`] for none).
    pub ret: TypeId,
    /// Formal parameters in declaration order.
    pub params: Vec<Param>,
    /// Exceptions the operation may raise.
    pub raises: Vec<ExceptionId>,
    /// The request discriminator value carried on the wire (ONC RPC
    /// procedure number; for CORBA the operation name is the
    /// discriminator and this is a stable ordinal).
    pub request_code: u64,
}

impl Operation {
    /// Parameters that travel in the request message.
    pub fn request_params(&self) -> impl Iterator<Item = &Param> {
        self.params.iter().filter(|p| p.dir.in_request())
    }

    /// Parameters that travel in the reply message.
    pub fn reply_params(&self) -> impl Iterator<Item = &Param> {
        self.params.iter().filter(|p| p.dir.in_reply())
    }
}

/// An IDL attribute; presentations expand it to `get`/`set` operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name.
    pub name: Name,
    /// Attribute type.
    pub ty: TypeId,
    /// True for `readonly` attributes (no `set` operation).
    pub readonly: bool,
}

/// A declared exception (CORBA `exception`), with struct-like members.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exception {
    /// Scoped exception name.
    pub name: Name,
    /// Exception members.
    pub fields: Vec<Field>,
}

/// An interface: a named set of operations and attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interface {
    /// Scoped interface name (e.g. `Mail`, `Mod::Svc`).
    pub name: Name,
    /// Names of inherited interfaces (already flattened into `ops` by
    /// front ends; kept for presentation naming decisions).
    pub parents: Vec<Name>,
    /// Operations, including those synthesized from attributes by
    /// presentation generators (front ends leave attributes alone).
    pub ops: Vec<Operation>,
    /// Declared attributes.
    pub attrs: Vec<Attribute>,
    /// Transport-level identity: ONC RPC `(program, version)`; CORBA
    /// repository id hash.  `0` when the IDL has no such notion.
    pub program: u64,
    /// ONC RPC version number (0 for IDLs without versions).
    pub version: u64,
}

impl Interface {
    /// A fresh interface with the given scoped name.
    #[must_use]
    pub fn new(name: impl Into<Name>) -> Self {
        Interface {
            name: name.into(),
            parents: Vec::new(),
            ops: Vec::new(),
            attrs: Vec::new(),
            program: 0,
            version: 0,
        }
    }

    /// Finds an operation by name.
    #[must_use]
    pub fn op(&self, name: &str) -> Option<&Operation> {
        self.ops.iter().find(|o| o.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_direction_predicates() {
        assert!(ParamDir::In.in_request());
        assert!(!ParamDir::In.in_reply());
        assert!(ParamDir::Out.in_reply());
        assert!(!ParamDir::Out.in_request());
        assert!(ParamDir::InOut.in_request() && ParamDir::InOut.in_reply());
    }

    #[test]
    fn request_reply_param_split() {
        let t = TypeId::from_index(0);
        let op = Operation {
            name: "f".into(),
            oneway: false,
            ret: t,
            params: vec![
                Param {
                    name: "a".into(),
                    dir: ParamDir::In,
                    ty: t,
                },
                Param {
                    name: "b".into(),
                    dir: ParamDir::Out,
                    ty: t,
                },
                Param {
                    name: "c".into(),
                    dir: ParamDir::InOut,
                    ty: t,
                },
            ],
            raises: vec![],
            request_code: 1,
        };
        let req: Vec<_> = op.request_params().map(|p| &*p.name).collect();
        let rep: Vec<_> = op.reply_params().map(|p| &*p.name).collect();
        assert_eq!(req, ["a", "c"]);
        assert_eq!(rep, ["b", "c"]);
    }

    #[test]
    fn interface_lookup() {
        let mut i = Interface::new("Mail");
        i.ops.push(Operation {
            name: "send".into(),
            oneway: false,
            ret: TypeId::from_index(0),
            params: vec![],
            raises: vec![],
            request_code: 1,
        });
        assert!(i.op("send").is_some());
        assert!(i.op("recv").is_none());
    }
}
