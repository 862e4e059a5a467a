//! C expressions.

use crate::ctype::CType;
use flick_stablehash::Name;

/// Binary operators, with C semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// The C token for the operator.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Precedence level (higher binds tighter), mirroring C.
    #[must_use]
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Mul | BinOp::Div | BinOp::Rem => 10,
            BinOp::Add | BinOp::Sub => 9,
            BinOp::Shl | BinOp::Shr => 8,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 7,
            BinOp::Eq | BinOp::Ne => 6,
            BinOp::BitAnd => 5,
            BinOp::BitXor => 4,
            BinOp::BitOr => 3,
            BinOp::And => 2,
            BinOp::Or => 1,
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `*x`
    Deref,
    /// `&x`
    AddrOf,
}

impl UnOp {
    /// The C token for the operator.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
            UnOp::Deref => "*",
            UnOp::AddrOf => "&",
        }
    }
}

/// A C expression.  Identifiers — a variable, a member, a callee —
/// are [`Name`]s, so a name the presentation or the back end already
/// holds is shared, and a fixed one costs no allocation.
#[derive(Clone, Debug, PartialEq)]
pub enum CExpr {
    /// An identifier.
    Ident(Name),
    /// An integer literal.
    Int(i64),
    /// An unsigned integer literal printed with a `u` suffix.
    UInt(u64),
    /// A float literal.
    Float(f64),
    /// A string literal (unescaped text).
    Str(String),
    /// A character literal.
    Char(char),
    /// `f(a, b, ...)`
    Call {
        /// Callee expression (usually an identifier).
        func: Box<CExpr>,
        /// Arguments in order.
        args: Vec<CExpr>,
    },
    /// `a.b`
    Member(Box<CExpr>, Name),
    /// `a->b`
    Arrow(Box<CExpr>, Name),
    /// `a[i]`
    Index(Box<CExpr>, Box<CExpr>),
    /// A unary operation.
    Unary(UnOp, Box<CExpr>),
    /// A binary operation.
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    /// `a = b`
    Assign(Box<CExpr>, Box<CExpr>),
    /// `a += b` (and friends; the `BinOp` is the compound operator).
    AssignOp(BinOp, Box<CExpr>, Box<CExpr>),
    /// `(T) e`
    Cast(CType, Box<CExpr>),
    /// `sizeof(T)`
    SizeOfType(CType),
    /// `c ? t : f`
    Ternary(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    /// `e++` (postfix)
    PostInc(Box<CExpr>),
}

impl CExpr {
    /// An identifier expression.
    #[must_use]
    pub fn ident(name: impl Into<Name>) -> CExpr {
        CExpr::Ident(name.into())
    }

    /// A call `func(args...)`.
    #[must_use]
    pub fn call(func: impl Into<Name>, args: Vec<CExpr>) -> CExpr {
        CExpr::Call {
            func: Box::new(CExpr::ident(func)),
            args,
        }
    }

    /// `self op rhs`
    #[must_use]
    pub fn bin(self, op: BinOp, rhs: CExpr) -> CExpr {
        CExpr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// `self = rhs`
    #[must_use]
    pub fn assign(self, rhs: CExpr) -> CExpr {
        CExpr::Assign(Box::new(self), Box::new(rhs))
    }

    /// `self.field`
    #[must_use]
    pub fn member(self, field: impl Into<Name>) -> CExpr {
        CExpr::Member(Box::new(self), field.into())
    }

    /// `self->field`
    #[must_use]
    pub fn arrow(self, field: impl Into<Name>) -> CExpr {
        CExpr::Arrow(Box::new(self), field.into())
    }

    /// `self[idx]`
    #[must_use]
    pub fn index(self, idx: CExpr) -> CExpr {
        CExpr::Index(Box::new(self), Box::new(idx))
    }

    /// `&self`
    #[must_use]
    pub fn addr_of(self) -> CExpr {
        CExpr::Unary(UnOp::AddrOf, Box::new(self))
    }

    /// `*self`
    #[must_use]
    pub fn deref(self) -> CExpr {
        CExpr::Unary(UnOp::Deref, Box::new(self))
    }

    /// `(ty) self`
    #[must_use]
    pub fn cast(self, ty: CType) -> CExpr {
        CExpr::Cast(ty, Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let e = CExpr::ident("buf")
            .arrow("data")
            .index(CExpr::Int(3))
            .assign(CExpr::ident("x").bin(BinOp::Add, CExpr::Int(1)));
        match e {
            CExpr::Assign(lhs, _) => match *lhs {
                CExpr::Index(base, _) => {
                    assert!(matches!(*base, CExpr::Arrow(_, ref f) if f == "data"));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_sane() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Shl.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }
}
