//! Compilation of policies into constraint formulas.
//!
//! Follows the FACPL analysis approach (paper ref \[8\]): a policy tree is
//! compiled into two boolean formulas over comparison atoms — one
//! characterising the requests that yield **Permit**, one those that yield
//! **Deny** — under the *complete-request assumption*: every attribute the
//! policy mentions is present, single-valued and well-typed. Under that
//! assumption no `Indeterminate` arises and the XACML combining algebra
//! collapses to ordinary boolean structure, which is what makes the
//! encoding exact.
//!
//! The analysable fragment excludes arithmetic over attributes, string
//! ordering and substring predicates; [`compile_bool`] reports these as
//! [`AnalysisError::Unsupported`] rather than approximating.

use drams_policy::attr::{AttributeId, AttributeValue};
use drams_policy::combining::CombiningAlg;
use drams_policy::decision::Effect;
use drams_policy::expr::{Expr, Func};
use drams_policy::policy::{Policy, PolicyChild, PolicySet};
use drams_policy::rule::Rule;
use drams_policy::target::Target;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised by the symbolic analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The policy uses a construct outside the analysable fragment.
    Unsupported(String),
    /// An attribute is used with conflicting value types.
    TypeConflict {
        /// The offending attribute.
        attr: String,
        /// The two conflicting types.
        types: (String, String),
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Unsupported(what) => {
                write!(f, "construct outside the analysable fragment: {what}")
            }
            AnalysisError::TypeConflict { attr, types } => {
                write!(
                    f,
                    "attribute `{attr}` used both as {} and as {}",
                    types.0, types.1
                )
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Comparison operator in an atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `attr == value`
    Eq,
    /// `attr < value`
    Lt,
    /// `attr <= value`
    Le,
    /// `attr > value`
    Gt,
    /// `attr >= value`
    Ge,
}

impl CmpOp {
    /// The constraint obtained by negating this one.
    #[must_use]
    pub fn negate(self) -> NegatedOp {
        match self {
            CmpOp::Eq => NegatedOp::Ne,
            CmpOp::Lt => NegatedOp::Cmp(CmpOp::Ge),
            CmpOp::Le => NegatedOp::Cmp(CmpOp::Gt),
            CmpOp::Gt => NegatedOp::Cmp(CmpOp::Le),
            CmpOp::Ge => NegatedOp::Cmp(CmpOp::Lt),
        }
    }

    /// Mirror for swapped operands: `lit op attr` ⇒ `attr mirror(op) lit`.
    #[must_use]
    pub fn mirror(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Negation of a [`CmpOp`]: either another comparison or a disequality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegatedOp {
    /// `attr != value`
    Ne,
    /// An ordinary comparison.
    Cmp(CmpOp),
}

/// An atomic constraint `attr op constant`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Atom {
    /// The constrained attribute.
    pub attr: AttributeId,
    /// The comparison.
    pub op: CmpOp,
    /// The constant operand.
    pub value: AttributeValue,
}

impl Atom {
    /// Creates an atom.
    #[must_use]
    pub fn new(attr: AttributeId, op: CmpOp, value: AttributeValue) -> Self {
        Atom { attr, op, value }
    }

    /// A stable ordering/dedup key (AttributeValue has no `Ord` because of
    /// `f64`, so atoms are keyed by their canonical encoding).
    #[must_use]
    pub fn key(&self) -> (AttributeId, CmpOp, String) {
        (self.attr.clone(), self.op, format!("{}", self.value))
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            CmpOp::Eq => "==",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{} {op} {}", self.attr, self.value)
    }
}

/// A boolean formula over atoms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Formula {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// An atomic constraint.
    Atom(Atom),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction (empty = true).
    And(Vec<Formula>),
    /// Disjunction (empty = false).
    Or(Vec<Formula>),
}

impl Formula {
    /// Smart conjunction with constant folding.
    #[must_use]
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::True,
            1 => out.remove(0),
            _ => Formula::And(out),
        }
    }

    /// Smart disjunction with constant folding.
    #[must_use]
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::False,
            1 => out.remove(0),
            _ => Formula::Or(out),
        }
    }

    /// Smart negation with constant folding and double-negation removal.
    // An associated constructor beside `and`/`or`, not `std::ops::Not`.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Collects all distinct atoms (by key) in deterministic order.
    #[must_use]
    pub fn atoms(&self) -> Vec<Atom> {
        let mut map: BTreeMap<(AttributeId, CmpOp, String), Atom> = BTreeMap::new();
        self.collect_atoms(&mut map);
        map.into_values().collect()
    }

    fn collect_atoms(&self, map: &mut BTreeMap<(AttributeId, CmpOp, String), Atom>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => {
                map.entry(a.key()).or_insert_with(|| a.clone());
            }
            Formula::Not(f) => f.collect_atoms(map),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_atoms(map);
                }
            }
        }
    }

    /// Node count, a rough complexity measure.
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(Formula::size).sum::<usize>(),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => f.write_str("true"),
            Formula::False => f.write_str("false"),
            Formula::Atom(a) => write!(f, "({a})"),
            Formula::Not(inner) => write!(f, "¬{inner}"),
            Formula::And(fs) => {
                f.write_str("(")?;
                for (i, part) in fs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ∧ ")?;
                    }
                    write!(f, "{part}")?;
                }
                f.write_str(")")
            }
            Formula::Or(fs) => {
                f.write_str("(")?;
                for (i, part) in fs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ∨ ")?;
                    }
                    write!(f, "{part}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Compiles a boolean expression into a formula.
///
/// # Errors
///
/// [`AnalysisError::Unsupported`] for constructs outside the fragment:
/// arithmetic, string ordering (`less` on strings is only detectable at
/// type-inference time, see [`crate::types::TypeEnv`]), `starts-with`,
/// `contains`, `size`, and comparisons between two attributes or two
/// literals.
pub fn compile_bool(expr: &Expr) -> Result<Formula, AnalysisError> {
    match expr {
        Expr::Lit(AttributeValue::Bool(b)) => Ok(if *b { Formula::True } else { Formula::False }),
        Expr::Lit(other) => Err(AnalysisError::Unsupported(format!(
            "non-boolean literal `{other}` in boolean position"
        ))),
        Expr::Attr(id) => Ok(Formula::Atom(Atom::new(
            id.clone(),
            CmpOp::Eq,
            AttributeValue::Bool(true),
        ))),
        Expr::Apply(func, args) => compile_apply(*func, args),
    }
}

fn compile_apply(func: Func, args: &[Expr]) -> Result<Formula, AnalysisError> {
    match func {
        Func::And => {
            let parts = args
                .iter()
                .map(compile_bool)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Formula::and(parts))
        }
        Func::Or => {
            let parts = args
                .iter()
                .map(compile_bool)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Formula::or(parts))
        }
        Func::Not => {
            if args.len() != 1 {
                return Err(AnalysisError::Unsupported("not/≠1 args".into()));
            }
            Ok(Formula::not(compile_bool(&args[0])?))
        }
        Func::Equal
        | Func::NotEqual
        | Func::Less
        | Func::LessEq
        | Func::Greater
        | Func::GreaterEq => {
            if args.len() != 2 {
                return Err(AnalysisError::Unsupported(format!(
                    "{}/{} args",
                    func.name(),
                    args.len()
                )));
            }
            let op = match func {
                Func::Equal | Func::NotEqual => CmpOp::Eq,
                Func::Less => CmpOp::Lt,
                Func::LessEq => CmpOp::Le,
                Func::Greater => CmpOp::Gt,
                Func::GreaterEq => CmpOp::Ge,
                _ => unreachable!(),
            };
            let formula = match (&args[0], &args[1]) {
                (Expr::Attr(id), Expr::Lit(v)) => {
                    Formula::Atom(Atom::new(id.clone(), op, v.clone()))
                }
                (Expr::Lit(v), Expr::Attr(id)) => {
                    Formula::Atom(Atom::new(id.clone(), op.mirror(), v.clone()))
                }
                _ => {
                    return Err(AnalysisError::Unsupported(format!(
                        "`{}` must compare an attribute with a literal",
                        func.name()
                    )))
                }
            };
            Ok(if func == Func::NotEqual {
                Formula::not(formula)
            } else {
                formula
            })
        }
        Func::In => {
            if args.len() != 2 {
                return Err(AnalysisError::Unsupported("in/≠2 args".into()));
            }
            // Under the single-valued assumption, `in(lit, attr)` is
            // equality with the lone value.
            match (&args[0], &args[1]) {
                (Expr::Lit(v), Expr::Attr(id)) => {
                    Ok(Formula::Atom(Atom::new(id.clone(), CmpOp::Eq, v.clone())))
                }
                _ => Err(AnalysisError::Unsupported(
                    "`in` must test a literal against an attribute".into(),
                )),
            }
        }
        other => Err(AnalysisError::Unsupported(format!(
            "function `{}` is outside the analysable fragment",
            other.name()
        ))),
    }
}

/// Compiles a target into its applicability formula.
///
/// # Errors
///
/// Propagates [`AnalysisError::Unsupported`] from the match expressions.
pub fn compile_target(target: &Target) -> Result<Formula, AnalysisError> {
    match target {
        Target::Any => Ok(Formula::True),
        Target::Clauses(clauses) => {
            let mut ands = Vec::new();
            for any_of in clauses {
                let mut ors = Vec::new();
                for all_of in any_of {
                    let ms = all_of
                        .iter()
                        .map(compile_bool)
                        .collect::<Result<Vec<_>, _>>()?;
                    ors.push(Formula::and(ms));
                }
                ands.push(Formula::or(ors));
            }
            Ok(Formula::and(ands))
        }
    }
}

/// The symbolic semantics of a policy element: the formulas over requests
/// under which it evaluates to Permit / Deny (its target-applicability
/// formula is kept separately for `only-one-applicable`).
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicDecision {
    /// Target applicability.
    pub applicable: Formula,
    /// Requests yielding Permit.
    pub permit: Formula,
    /// Requests yielding Deny.
    pub deny: Formula,
}

impl SymbolicDecision {
    /// Requests yielding NotApplicable (or the `only-one-applicable`
    /// error outcome): neither Permit nor Deny.
    #[must_use]
    pub fn gap(&self) -> Formula {
        Formula::and(vec![
            Formula::not(self.permit.clone()),
            Formula::not(self.deny.clone()),
        ])
    }
}

/// Compiles a rule.
///
/// # Errors
///
/// Propagates [`AnalysisError`] from target/condition compilation.
pub fn compile_rule(rule: &Rule) -> Result<SymbolicDecision, AnalysisError> {
    let target = compile_target(&rule.target)?;
    let condition = match &rule.condition {
        None => Formula::True,
        Some(c) => compile_bool(c)?,
    };
    let fires = Formula::and(vec![target.clone(), condition]);
    let (permit, deny) = match rule.effect {
        Effect::Permit => (fires, Formula::False),
        Effect::Deny => (Formula::False, fires),
    };
    Ok(SymbolicDecision {
        applicable: target,
        permit,
        deny,
    })
}

/// Combines child symbolic decisions under `alg` (complete-request
/// semantics — see module docs).
#[must_use]
pub fn combine_symbolic(alg: CombiningAlg, children: &[SymbolicDecision]) -> SymbolicDecision {
    let any_permit = Formula::or(children.iter().map(|c| c.permit.clone()).collect());
    let any_deny = Formula::or(children.iter().map(|c| c.deny.clone()).collect());
    let applicable = Formula::or(
        children
            .iter()
            .map(|c| c.applicable.clone())
            .collect::<Vec<_>>(),
    );
    let (permit, deny) = match alg {
        CombiningAlg::DenyOverrides => (
            Formula::and(vec![any_permit.clone(), Formula::not(any_deny.clone())]),
            any_deny,
        ),
        CombiningAlg::PermitOverrides => (
            any_permit.clone(),
            Formula::and(vec![any_deny, Formula::not(any_permit)]),
        ),
        CombiningAlg::FirstApplicable => {
            let mut permit_parts = Vec::new();
            let mut deny_parts = Vec::new();
            for (i, child) in children.iter().enumerate() {
                // Child i decides iff it fires and no earlier child fired.
                let mut earlier_silent = Vec::new();
                for earlier in &children[..i] {
                    earlier_silent.push(Formula::not(Formula::or(vec![
                        earlier.permit.clone(),
                        earlier.deny.clone(),
                    ])));
                }
                let guard = Formula::and(earlier_silent);
                permit_parts.push(Formula::and(vec![child.permit.clone(), guard.clone()]));
                deny_parts.push(Formula::and(vec![child.deny.clone(), guard]));
            }
            (Formula::or(permit_parts), Formula::or(deny_parts))
        }
        CombiningAlg::OnlyOneApplicable => {
            let mut permit_parts = Vec::new();
            let mut deny_parts = Vec::new();
            for (i, child) in children.iter().enumerate() {
                let mut others_inapplicable = Vec::new();
                for (j, other) in children.iter().enumerate() {
                    if i != j {
                        others_inapplicable.push(Formula::not(other.applicable.clone()));
                    }
                }
                let alone = Formula::and(others_inapplicable);
                permit_parts.push(Formula::and(vec![
                    child.applicable.clone(),
                    child.permit.clone(),
                    alone.clone(),
                ]));
                deny_parts.push(Formula::and(vec![
                    child.applicable.clone(),
                    child.deny.clone(),
                    alone,
                ]));
            }
            (Formula::or(permit_parts), Formula::or(deny_parts))
        }
        CombiningAlg::DenyUnlessPermit => (any_permit.clone(), Formula::not(any_permit)),
        CombiningAlg::PermitUnlessDeny => (Formula::not(any_deny.clone()), any_deny),
    };
    SymbolicDecision {
        applicable,
        permit,
        deny,
    }
}

/// Compiles a policy.
///
/// # Errors
///
/// Propagates [`AnalysisError`].
pub fn compile_policy(policy: &Policy) -> Result<SymbolicDecision, AnalysisError> {
    let target = compile_target(&policy.target)?;
    let children = policy
        .rules
        .iter()
        .map(compile_rule)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(gate(target, combine_symbolic(policy.algorithm, &children)))
}

/// Compiles a policy set (recursively).
///
/// # Errors
///
/// Propagates [`AnalysisError`].
pub fn compile_policy_set(set: &PolicySet) -> Result<SymbolicDecision, AnalysisError> {
    let target = compile_target(&set.target)?;
    let children = set
        .children
        .iter()
        .map(|c| match c {
            PolicyChild::Policy(p) => compile_policy(p),
            PolicyChild::Set(s) => compile_policy_set(s),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(gate(target, combine_symbolic(set.algorithm, &children)))
}

/// Gates a combined decision behind the node's own target.
fn gate(target: Formula, inner: SymbolicDecision) -> SymbolicDecision {
    SymbolicDecision {
        applicable: target.clone(),
        permit: Formula::and(vec![target.clone(), inner.permit]),
        deny: Formula::and(vec![target, inner.deny]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_policy::attr::AttributeId;
    use drams_policy::attr::Category;
    use drams_policy::combining::CombiningAlg;
    use drams_policy::decision::Effect;
    use drams_policy::policy::{Policy, PolicySet};
    use drams_policy::rule::Rule;
    use drams_policy::target::Target;

    fn role_eq(v: &str) -> Expr {
        Expr::equal(
            Expr::attr(AttributeId::new(Category::Subject, "role")),
            Expr::lit(v),
        )
    }

    #[test]
    fn compile_simple_equality() {
        let f = compile_bool(&role_eq("doctor")).unwrap();
        assert!(matches!(f, Formula::Atom(_)));
        assert_eq!(f.atoms().len(), 1);
    }

    #[test]
    fn compile_flips_literal_first_comparisons() {
        // less(5, attr) ⇒ attr > 5
        let e = Expr::Apply(
            Func::Less,
            vec![
                Expr::lit(5i64),
                Expr::attr(AttributeId::new(Category::Environment, "hour")),
            ],
        );
        match compile_bool(&e).unwrap() {
            Formula::Atom(a) => assert_eq!(a.op, CmpOp::Gt),
            other => panic!("expected atom, got {other:?}"),
        }
    }

    #[test]
    fn not_equal_compiles_to_negation() {
        let e = Expr::Apply(
            Func::NotEqual,
            vec![
                Expr::attr(AttributeId::new(Category::Subject, "role")),
                Expr::lit("x"),
            ],
        );
        assert!(matches!(compile_bool(&e).unwrap(), Formula::Not(_)));
    }

    #[test]
    fn unsupported_constructs_are_reported() {
        let arith = Expr::Apply(Func::Add, vec![Expr::lit(1i64), Expr::lit(2i64)]);
        assert!(matches!(
            compile_bool(&arith),
            Err(AnalysisError::Unsupported(_))
        ));
        let attr_attr = Expr::equal(
            Expr::attr(AttributeId::new(Category::Subject, "a")),
            Expr::attr(AttributeId::new(Category::Subject, "b")),
        );
        assert!(compile_bool(&attr_attr).is_err());
        let contains = Expr::Apply(
            Func::Contains,
            vec![
                Expr::attr(AttributeId::new(Category::Subject, "a")),
                Expr::lit("x"),
            ],
        );
        assert!(compile_bool(&contains).is_err());
    }

    #[test]
    fn smart_constructors_fold_constants() {
        assert_eq!(
            Formula::and(vec![Formula::True, Formula::True]),
            Formula::True
        );
        assert_eq!(
            Formula::and(vec![Formula::True, Formula::False]),
            Formula::False
        );
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::not(Formula::not(Formula::True)), Formula::True);
    }

    #[test]
    fn rule_symbolic_semantics() {
        let rule = Rule::builder("r", Effect::Permit)
            .target(Target::expr(role_eq("doctor")))
            .build();
        let sym = compile_rule(&rule).unwrap();
        assert_eq!(sym.deny, Formula::False);
        assert_ne!(sym.permit, Formula::False);
    }

    #[test]
    fn deny_overrides_symbolically() {
        let permit_all = compile_rule(&Rule::always("p", Effect::Permit)).unwrap();
        let deny_all = compile_rule(&Rule::always("d", Effect::Deny)).unwrap();
        let combined = combine_symbolic(CombiningAlg::DenyOverrides, &[permit_all, deny_all]);
        // Deny always fires ⇒ permit formula must be unsatisfiable
        // (structurally: permit ∧ ¬deny = true ∧ ¬true = false).
        assert_eq!(combined.permit, Formula::False);
        assert_eq!(combined.deny, Formula::True);
    }

    #[test]
    fn deny_unless_permit_is_total() {
        let na = compile_rule(
            &Rule::builder("r", Effect::Permit)
                .target(Target::expr(role_eq("nobody")))
                .build(),
        )
        .unwrap();
        let combined = combine_symbolic(CombiningAlg::DenyUnlessPermit, &[na]);
        // gap = ¬P ∧ ¬D = ¬P ∧ ¬¬P = false: no request falls through.
        let gap = combined.gap();
        // structurally this folds to a contradiction once solved; here we
        // just check both branches are non-trivial complements.
        assert_eq!(combined.deny, Formula::not(combined.permit.clone()));
        let _ = gap;
    }

    #[test]
    fn policy_set_compilation_recurses() {
        let set = PolicySet::builder("root", CombiningAlg::DenyOverrides)
            .policy(
                Policy::builder("p", CombiningAlg::PermitOverrides)
                    .target(Target::expr(role_eq("doctor")))
                    .rule(Rule::always("r", Effect::Permit))
                    .build(),
            )
            .build();
        let sym = compile_policy_set(&set).unwrap();
        assert_eq!(sym.permit.atoms().len(), 1);
    }

    #[test]
    fn formula_display_is_readable() {
        let f = compile_bool(&Expr::and(vec![role_eq("a"), Expr::not(role_eq("b"))])).unwrap();
        let s = f.to_string();
        assert!(s.contains("subject.role"));
        assert!(s.contains("∧"));
    }
}
