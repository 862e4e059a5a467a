//! C statements.

use std::borrow::Cow;

use crate::ctype::CType;
use crate::expr::CExpr;
use flick_stablehash::Name;

/// One `case` (or `default`) of a `switch`.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchCase {
    /// Case values; empty means `default`.
    pub values: Vec<i64>,
    /// The case body (a `break` is printed automatically unless the
    /// body ends in `return` or `goto`).
    pub body: Vec<CStmt>,
}

/// A C statement.
#[derive(Clone, Debug, PartialEq)]
pub enum CStmt {
    /// `e;`
    Expr(CExpr),
    /// A local declaration `ty name [= init];`
    Decl {
        /// Variable name.
        name: Name,
        /// Variable type.
        ty: CType,
        /// Optional initializer.
        init: Option<CExpr>,
    },
    /// `if (cond) { then } [else { els }]`
    If {
        /// Condition.
        cond: CExpr,
        /// Then branch.
        then: Vec<CStmt>,
        /// Else branch, if any.
        els: Option<Vec<CStmt>>,
    },
    /// `while (cond) { body }`
    While {
        /// Condition.
        cond: CExpr,
        /// Loop body.
        body: Vec<CStmt>,
    },
    /// `for (init; cond; step) { body }`
    For {
        /// Initializer expression (e.g. `i = 0`), if any.
        init: Option<CExpr>,
        /// Condition, if any.
        cond: Option<CExpr>,
        /// Step expression, if any.
        step: Option<CExpr>,
        /// Loop body.
        body: Vec<CStmt>,
    },
    /// `switch (scrutinee) { cases }`
    Switch {
        /// Value switched on.
        scrutinee: CExpr,
        /// The cases.
        cases: Vec<SwitchCase>,
    },
    /// `return [e];`
    Return(Option<CExpr>),
    /// `break;`
    Break,
    /// `goto label;`
    Goto(Name),
    /// `label:`
    Label(Name),
    /// `{ ... }`
    Block(Vec<CStmt>),
    /// `/* text */` — used to annotate generated code with the
    /// optimization that produced it.
    Comment(Cow<'static, str>),
}

impl CStmt {
    /// Shorthand for an expression statement.
    #[must_use]
    pub fn expr(e: CExpr) -> CStmt {
        CStmt::Expr(e)
    }

    /// Shorthand for a declaration without initializer.
    #[must_use]
    pub fn decl(name: impl Into<Name>, ty: CType) -> CStmt {
        CStmt::Decl {
            name: name.into(),
            ty,
            init: None,
        }
    }

    /// Shorthand for a declaration with initializer.
    #[must_use]
    pub fn decl_init(name: impl Into<Name>, ty: CType, init: CExpr) -> CStmt {
        CStmt::Decl {
            name: name.into(),
            ty,
            init: Some(init),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let s = CStmt::decl_init("i", CType::Int, CExpr::Int(0));
        assert!(matches!(s, CStmt::Decl { ref name, init: Some(_), .. } if name == "i"));
        let s = CStmt::decl("p", CType::ptr(CType::Char));
        assert!(matches!(s, CStmt::Decl { init: None, .. }));
    }
}
