//! File-scope C declarations and translation units.

use std::borrow::Cow;

use crate::ctype::{CField, CParam, CType};
use crate::expr::CExpr;
use crate::stmt::CStmt;
use flick_stablehash::Name;

/// A function: prototype (when `body` is `None`) or definition.
#[derive(Clone, Debug, PartialEq)]
pub struct CFunction {
    /// Function name.
    pub name: Name,
    /// Return type.
    pub ret: CType,
    /// Parameters in order.
    pub params: Vec<CParam>,
    /// Body statements; `None` prints a prototype.
    pub body: Option<Vec<CStmt>>,
}

/// A file-scope declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum CDecl {
    /// `#include <...>` or `#include "..."` (text includes the braces
    /// or quotes).
    Include(Cow<'static, str>),
    /// `typedef ty name;`
    Typedef {
        /// New type name.
        name: Name,
        /// Aliased type.
        ty: CType,
    },
    /// `struct tag { fields };`
    Struct {
        /// Struct tag.
        tag: Name,
        /// Members.
        fields: Vec<CField>,
    },
    /// `enum tag { items };`
    Enum {
        /// Enum tag.
        tag: Name,
        /// `(name, value)` pairs.
        items: Vec<(Name, i64)>,
    },
    /// A global variable `ty name [= init];`
    Var {
        /// Variable name.
        name: Name,
        /// Variable type.
        ty: CType,
        /// Optional initializer.
        init: Option<CExpr>,
        /// Print with `static` linkage.
        is_static: bool,
    },
    /// A function prototype or definition.
    Function(CFunction),
    /// A free-form comment line.
    Comment(String),
    /// `#define name value`
    Define {
        /// Macro name.
        name: String,
        /// Replacement text.
        value: String,
    },
}

/// A translation unit: an ordered list of declarations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CUnit {
    /// Declarations in output order.
    pub decls: Vec<CDecl>,
}

impl CUnit {
    /// An empty unit.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a declaration.
    pub fn push(&mut self, d: CDecl) {
        self.decls.push(d);
    }

    /// All function definitions (not prototypes) in the unit.
    pub fn functions(&self) -> impl Iterator<Item = &CFunction> {
        self.decls.iter().filter_map(|d| match d {
            CDecl::Function(f) if f.body.is_some() => Some(f),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functions_filters_prototypes() {
        let mut u = CUnit::new();
        u.push(CDecl::Function(CFunction {
            name: "proto".into(),
            ret: CType::Void,
            params: vec![],
            body: None,
        }));
        u.push(CDecl::Function(CFunction {
            name: "def".into(),
            ret: CType::Void,
            params: vec![],
            body: Some(vec![]),
        }));
        let names: Vec<&str> = u.functions().map(|f| &*f.name).collect();
        assert_eq!(names, ["def"]);
    }
}
