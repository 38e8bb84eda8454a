//! Policy/rule targets.
//!
//! A target decides *applicability*: whether a rule, policy or policy set
//! is relevant to a request at all. Structure follows XACML 3.0:
//! `Target = AND over AnyOf; AnyOf = OR over AllOf; AllOf = AND over Match`.
//! Evaluation is three-valued: `Match`, `NoMatch` or `Indeterminate`.

use crate::attr::Request;
use crate::expr::{EvalError, Expr};
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::CryptoError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Result of matching a target against a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchResult {
    /// The element applies.
    Match,
    /// The element does not apply.
    NoMatch,
    /// Matching failed (missing attribute / type error).
    Indeterminate,
}

/// A target.
///
/// `Target::Any` (the empty target) matches every request, mirroring
/// XACML's absent-target semantics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum Target {
    /// Matches everything.
    #[default]
    Any,
    /// Conjunction of disjunctions of boolean match expressions.
    ///
    /// Outer `Vec` = AnyOf list (ANDed); middle `Vec` = AllOf list (ORed);
    /// inner `Vec` = matches (ANDed).
    Clauses(Vec<Vec<Vec<Expr>>>),
}

impl Target {
    /// A target that applies to every request.
    #[must_use]
    pub fn any() -> Target {
        Target::Any
    }

    /// A target consisting of a single boolean expression.
    #[must_use]
    pub fn expr(e: Expr) -> Target {
        Target::Clauses(vec![vec![vec![e]]])
    }

    /// A target that is the conjunction of several expressions.
    #[must_use]
    pub fn all(exprs: Vec<Expr>) -> Target {
        Target::Clauses(vec![vec![exprs]])
    }

    /// Evaluates applicability for `request`.
    #[must_use]
    pub fn matches(&self, request: &Request) -> MatchResult {
        let clauses = match self {
            Target::Any => return MatchResult::Match,
            Target::Clauses(c) => c,
        };
        // Target = AND of AnyOfs
        let mut target_indeterminate = false;
        for any_of in clauses {
            // AnyOf = OR of AllOfs
            let mut any_matched = false;
            let mut any_indeterminate = false;
            for all_of in any_of {
                // AllOf = AND of Matches
                match eval_all_of(all_of, request) {
                    MatchResult::Match => {
                        any_matched = true;
                        break;
                    }
                    MatchResult::NoMatch => {}
                    MatchResult::Indeterminate => any_indeterminate = true,
                }
            }
            if any_matched {
                continue;
            }
            if any_indeterminate {
                target_indeterminate = true;
                continue;
            }
            return MatchResult::NoMatch;
        }
        if target_indeterminate {
            MatchResult::Indeterminate
        } else {
            MatchResult::Match
        }
    }

    /// Structural size (total expression nodes).
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            Target::Any => 0,
            Target::Clauses(clauses) => clauses
                .iter()
                .flat_map(|any_of| any_of.iter())
                .flat_map(|all_of| all_of.iter())
                .map(Expr::size)
                .sum(),
        }
    }
}

fn eval_all_of(all_of: &[Expr], request: &Request) -> MatchResult {
    let mut indeterminate = false;
    for m in all_of {
        match m.eval_bool(request) {
            Ok(true) => {}
            Ok(false) => return MatchResult::NoMatch,
            Err(EvalError::MissingAttribute(_)) | Err(_) => indeterminate = true,
        }
    }
    if indeterminate {
        MatchResult::Indeterminate
    } else {
        MatchResult::Match
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Any => f.write_str("any"),
            Target::Clauses(clauses) => {
                for (i, any_of) in clauses.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" AND ")?;
                    }
                    f.write_str("(")?;
                    for (j, all_of) in any_of.iter().enumerate() {
                        if j > 0 {
                            f.write_str(" OR ")?;
                        }
                        f.write_str("(")?;
                        for (k, m) in all_of.iter().enumerate() {
                            if k > 0 {
                                f.write_str(" ∧ ")?;
                            }
                            write!(f, "{m}")?;
                        }
                        f.write_str(")")?;
                    }
                    f.write_str(")")?;
                }
                Ok(())
            }
        }
    }
}

impl Encode for Target {
    fn encode(&self, w: &mut Writer) {
        match self {
            Target::Any => w.put_u8(0),
            Target::Clauses(clauses) => {
                w.put_u8(1);
                w.put_varint(clauses.len() as u64);
                for any_of in clauses {
                    w.put_varint(any_of.len() as u64);
                    for all_of in any_of {
                        w.put_varint(all_of.len() as u64);
                        for m in all_of {
                            m.encode(w);
                        }
                    }
                }
            }
        }
    }
}

impl Decode for Target {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match r.get_u8()? {
            0 => Ok(Target::Any),
            1 => {
                let n = r.get_varint()? as usize;
                check_len(n, r)?;
                let mut clauses = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    let n_any = r.get_varint()? as usize;
                    check_len(n_any, r)?;
                    let mut any_of = Vec::with_capacity(n_any.min(64));
                    for _ in 0..n_any {
                        let n_all = r.get_varint()? as usize;
                        check_len(n_all, r)?;
                        let mut all_of = Vec::with_capacity(n_all.min(64));
                        for _ in 0..n_all {
                            all_of.push(Expr::decode(r)?);
                        }
                        any_of.push(all_of);
                    }
                    clauses.push(any_of);
                }
                Ok(Target::Clauses(clauses))
            }
            other => Err(CryptoError::Malformed(format!("target tag {other}"))),
        }
    }
}

fn check_len(n: usize, r: &Reader<'_>) -> Result<(), CryptoError> {
    if n > r.remaining() {
        Err(CryptoError::Malformed("target length too large".into()))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttributeId, Category, Request};

    fn eq(cat: Category, name: &str, val: &str) -> Expr {
        Expr::equal(Expr::attr(AttributeId::new(cat, name)), Expr::lit(val))
    }

    fn doctor_request() -> Request {
        Request::builder()
            .subject("role", "doctor")
            .action("id", "read")
            .build()
    }

    #[test]
    fn any_matches_everything() {
        assert_eq!(Target::any().matches(&Request::new()), MatchResult::Match);
    }

    #[test]
    fn single_expr_match() {
        let t = Target::expr(eq(Category::Subject, "role", "doctor"));
        assert_eq!(t.matches(&doctor_request()), MatchResult::Match);
        let t2 = Target::expr(eq(Category::Subject, "role", "nurse"));
        assert_eq!(t2.matches(&doctor_request()), MatchResult::NoMatch);
    }

    #[test]
    fn missing_attribute_gives_indeterminate() {
        let t = Target::expr(eq(Category::Resource, "type", "record"));
        assert_eq!(t.matches(&doctor_request()), MatchResult::Indeterminate);
    }

    #[test]
    fn anyof_or_semantics() {
        // role == nurse OR role == doctor
        let t = Target::Clauses(vec![vec![
            vec![eq(Category::Subject, "role", "nurse")],
            vec![eq(Category::Subject, "role", "doctor")],
        ]]);
        assert_eq!(t.matches(&doctor_request()), MatchResult::Match);
    }

    #[test]
    fn allof_and_semantics() {
        let t = Target::all(vec![
            eq(Category::Subject, "role", "doctor"),
            eq(Category::Action, "id", "read"),
        ]);
        assert_eq!(t.matches(&doctor_request()), MatchResult::Match);
        let t2 = Target::all(vec![
            eq(Category::Subject, "role", "doctor"),
            eq(Category::Action, "id", "write"),
        ]);
        assert_eq!(t2.matches(&doctor_request()), MatchResult::NoMatch);
    }

    #[test]
    fn conjunction_of_anyofs() {
        // (role==doctor) AND (action==read OR action==write)
        let t = Target::Clauses(vec![
            vec![vec![eq(Category::Subject, "role", "doctor")]],
            vec![
                vec![eq(Category::Action, "id", "read")],
                vec![eq(Category::Action, "id", "write")],
            ],
        ]);
        assert_eq!(t.matches(&doctor_request()), MatchResult::Match);
    }

    #[test]
    fn no_match_beats_indeterminate_in_anyof_only_when_none_match() {
        // AnyOf: [missing-attr match (indeterminate), false match] →
        // neither matches, one indeterminate → Indeterminate overall.
        let t = Target::Clauses(vec![vec![
            vec![eq(Category::Resource, "type", "record")],
            vec![eq(Category::Subject, "role", "nurse")],
        ]]);
        assert_eq!(t.matches(&doctor_request()), MatchResult::Indeterminate);
        // But a definitive sibling match wins over the indeterminate.
        let t2 = Target::Clauses(vec![vec![
            vec![eq(Category::Resource, "type", "record")],
            vec![eq(Category::Subject, "role", "doctor")],
        ]]);
        assert_eq!(t2.matches(&doctor_request()), MatchResult::Match);
    }

    #[test]
    fn definitive_nomatch_in_and_clause_beats_indeterminate() {
        // (missing) AND (false) → NoMatch because one conjunct is a
        // definitive NoMatch at the AnyOf level.
        let t = Target::Clauses(vec![
            vec![vec![eq(Category::Resource, "type", "record")]],
            vec![vec![eq(Category::Subject, "role", "nurse")]],
        ]);
        assert_eq!(t.matches(&doctor_request()), MatchResult::NoMatch);
    }

    #[test]
    fn codec_round_trip() {
        let t = Target::Clauses(vec![
            vec![vec![eq(Category::Subject, "role", "doctor")]],
            vec![
                vec![eq(Category::Action, "id", "read")],
                vec![
                    eq(Category::Action, "id", "write"),
                    eq(Category::Subject, "ward", "icu"),
                ],
            ],
        ]);
        let bytes = t.to_canonical_bytes();
        assert_eq!(Target::from_canonical_bytes(&bytes).unwrap(), t);
        let any = Target::Any;
        assert_eq!(
            Target::from_canonical_bytes(&any.to_canonical_bytes()).unwrap(),
            any
        );
    }

    #[test]
    fn size_counts_every_match() {
        let role = eq(Category::Subject, "role", "doctor");
        let action = eq(Category::Action, "id", "read");
        let size = role.size() + action.size();
        let t = Target::all(vec![role, action]);
        assert_eq!(t.size(), size);
        assert_eq!(Target::Any.size(), 0);
    }
}
