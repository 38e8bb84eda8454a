//! Attribute type inference for the symbolic analysis.
//!
//! The solver reasons per attribute, so every attribute must have a single
//! value type across the whole formula. Types are inferred from the
//! constants the policy compares each attribute against; conflicts are
//! reported as [`AnalysisError::TypeConflict`], and ordering comparisons on
//! strings or booleans are rejected as unsupported (the runtime engine
//! evaluates them, but the analyser's witness search does not cover dense
//! string order).

use crate::constraint::{AnalysisError, Atom, CmpOp};
use drams_policy::attr::{AttributeId, AttributeValue};
use std::collections::BTreeMap;

/// The value type of an attribute, from the analyser's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValueType {
    /// UTF-8 string (equality/disequality only).
    Str,
    /// Boolean.
    Bool,
    /// Numeric; `int_only` when every constant is an integer, in which
    /// case witnesses are integers too.
    Numeric {
        /// All constants are integers.
        int_only: bool,
    },
}

impl ValueType {
    fn name(self) -> &'static str {
        match self {
            ValueType::Str => "string",
            ValueType::Bool => "bool",
            ValueType::Numeric { .. } => "numeric",
        }
    }
}

/// A typing of every attribute occurring in a formula.
#[derive(Debug, Clone, Default)]
pub(crate) struct TypeEnv {
    types: BTreeMap<AttributeId, ValueType>,
}

impl TypeEnv {
    /// Infers types from a set of atoms.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::TypeConflict`] when an attribute is compared with
    /// constants of different classes; [`AnalysisError::Unsupported`] for
    /// order comparisons on strings or booleans.
    pub(crate) fn infer(atoms: &[Atom]) -> Result<TypeEnv, AnalysisError> {
        let mut env = TypeEnv::default();
        for atom in atoms {
            let this = match &atom.value {
                AttributeValue::Str(_) => ValueType::Str,
                AttributeValue::Bool(_) => ValueType::Bool,
                AttributeValue::Int(_) => ValueType::Numeric { int_only: true },
                AttributeValue::Double(_) => ValueType::Numeric { int_only: false },
            };
            if atom.op != CmpOp::Eq && matches!(this, ValueType::Str | ValueType::Bool) {
                return Err(AnalysisError::Unsupported(format!(
                    "order comparison on {} attribute `{}`",
                    this.name(),
                    atom.attr
                )));
            }
            match env.types.get_mut(&atom.attr) {
                None => {
                    env.types.insert(atom.attr.clone(), this);
                }
                Some(existing) => match (*existing, this) {
                    (ValueType::Str, ValueType::Str) | (ValueType::Bool, ValueType::Bool) => {}
                    (ValueType::Numeric { int_only: a }, ValueType::Numeric { int_only: b }) => {
                        *existing = ValueType::Numeric { int_only: a && b };
                    }
                    (a, b) => {
                        return Err(AnalysisError::TypeConflict {
                            attr: atom.attr.to_string(),
                            types: (a.name().to_string(), b.name().to_string()),
                        })
                    }
                },
            }
        }
        Ok(env)
    }

    /// The inferred type of an attribute, if it occurs.
    #[must_use]
    pub fn get(&self, attr: &AttributeId) -> Option<ValueType> {
        self.types.get(attr).copied()
    }

    /// Iterates over all typed attributes.
    pub fn iter(&self) -> impl Iterator<Item = (&AttributeId, ValueType)> {
        self.types.iter().map(|(k, v)| (k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_policy::attr::Category;

    fn attr(name: &str) -> AttributeId {
        AttributeId::new(Category::Subject, name)
    }

    #[test]
    fn infers_basic_types() {
        let atoms = vec![
            Atom::new(attr("role"), CmpOp::Eq, AttributeValue::Str("x".into())),
            Atom::new(attr("age"), CmpOp::Lt, AttributeValue::Int(5)),
            Atom::new(attr("flag"), CmpOp::Eq, AttributeValue::Bool(true)),
        ];
        let env = TypeEnv::infer(&atoms).unwrap();
        assert_eq!(env.get(&attr("role")), Some(ValueType::Str));
        assert_eq!(
            env.get(&attr("age")),
            Some(ValueType::Numeric { int_only: true })
        );
        assert_eq!(env.get(&attr("flag")), Some(ValueType::Bool));
        assert_eq!(env.types.len(), 3);
    }

    #[test]
    fn int_and_double_unify_to_double_witnesses() {
        let atoms = vec![
            Atom::new(attr("x"), CmpOp::Gt, AttributeValue::Int(1)),
            Atom::new(attr("x"), CmpOp::Lt, AttributeValue::Double(2.5)),
        ];
        let env = TypeEnv::infer(&atoms).unwrap();
        assert_eq!(
            env.get(&attr("x")),
            Some(ValueType::Numeric { int_only: false })
        );
    }

    #[test]
    fn string_vs_numeric_conflicts() {
        let atoms = vec![
            Atom::new(attr("x"), CmpOp::Eq, AttributeValue::Str("a".into())),
            Atom::new(attr("x"), CmpOp::Eq, AttributeValue::Int(1)),
        ];
        assert!(matches!(
            TypeEnv::infer(&atoms),
            Err(AnalysisError::TypeConflict { .. })
        ));
    }

    #[test]
    fn string_ordering_is_unsupported() {
        let atoms = vec![Atom::new(
            attr("x"),
            CmpOp::Lt,
            AttributeValue::Str("a".into()),
        )];
        assert!(matches!(
            TypeEnv::infer(&atoms),
            Err(AnalysisError::Unsupported(_))
        ));
    }
}
