//! Rules — the leaves of the policy tree.

use crate::attr::Request;
use crate::decision::{Effect, ExtDecision, Obligation};
use crate::expr::Expr;
use crate::target::{MatchResult, Target};
use drams_crypto::codec::{decode_seq, Decode, Encode, Reader, Writer};
use drams_crypto::CryptoError;
use serde::{Deserialize, Serialize};

/// A single access-control rule: target + optional condition + effect.
///
/// Evaluation follows XACML 3.0 §7.11:
///
/// | target        | condition | result                  |
/// |---------------|-----------|-------------------------|
/// | NoMatch       | —         | NotApplicable           |
/// | Indeterminate | —         | Indeterminate{effect}   |
/// | Match         | true      | effect                  |
/// | Match         | false     | NotApplicable           |
/// | Match         | error     | Indeterminate{effect}   |
///
/// # Example
///
/// ```
/// use drams_policy::prelude::*;
///
/// let rule = Rule::builder("r1", Effect::Permit)
///     .target(Target::expr(Expr::equal(
///         Expr::attr(AttributeId::new(Category::Subject, "role")),
///         Expr::lit("doctor"),
///     )))
///     .build();
/// let req = Request::builder().subject("role", "doctor").build();
/// assert_eq!(rule.evaluate(&req).0, ExtDecision::Permit);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Rule identifier, unique within its policy.
    pub id: String,
    /// The effect produced when the rule applies.
    pub effect: Effect,
    /// Applicability target.
    pub target: Target,
    /// Optional boolean condition, evaluated only when the target matches.
    pub condition: Option<Expr>,
    /// Obligations attached to this rule.
    pub obligations: Vec<Obligation>,
}

impl Rule {
    /// Starts building a rule.
    pub fn builder(id: impl Into<String>, effect: Effect) -> RuleBuilder {
        RuleBuilder {
            rule: Rule {
                id: id.into(),
                effect,
                target: Target::Any,
                condition: None,
                obligations: Vec::new(),
            },
        }
    }

    /// A rule that always fires with the given effect.
    pub fn always(id: impl Into<String>, effect: Effect) -> Rule {
        Rule::builder(id, effect).build()
    }

    /// Target applicability only (used by `only-one-applicable`).
    #[must_use]
    pub(crate) fn applicability(&self, request: &Request) -> MatchResult {
        self.target.matches(request)
    }

    /// Full rule evaluation.
    #[must_use]
    pub fn evaluate(&self, request: &Request) -> (ExtDecision, Vec<Obligation>) {
        match self.target.matches(request) {
            MatchResult::NoMatch => (ExtDecision::NotApplicable, Vec::new()),
            MatchResult::Indeterminate => (ExtDecision::indeterminate_for(self.effect), Vec::new()),
            MatchResult::Match => match &self.condition {
                None => self.fire(),
                Some(cond) => match cond.eval_bool(request) {
                    Ok(true) => self.fire(),
                    Ok(false) => (ExtDecision::NotApplicable, Vec::new()),
                    Err(_) => (ExtDecision::indeterminate_for(self.effect), Vec::new()),
                },
            },
        }
    }

    fn fire(&self) -> (ExtDecision, Vec<Obligation>) {
        let decision = match self.effect {
            Effect::Permit => ExtDecision::Permit,
            Effect::Deny => ExtDecision::Deny,
        };
        let obligations = self
            .obligations
            .iter()
            .filter(|o| o.fulfill_on == self.effect)
            .cloned()
            .collect();
        (decision, obligations)
    }

    /// Structural size (expression nodes in target + condition).
    #[must_use]
    pub fn size(&self) -> usize {
        self.target.size() + self.condition.as_ref().map(Expr::size).unwrap_or(0) + 1
    }
}

/// Builder for [`Rule`].
#[derive(Debug)]
pub struct RuleBuilder {
    rule: Rule,
}

impl RuleBuilder {
    /// Sets the target.
    #[must_use]
    pub fn target(mut self, target: Target) -> Self {
        self.rule.target = target;
        self
    }

    /// Sets the condition.
    #[must_use]
    pub fn condition(mut self, condition: Expr) -> Self {
        self.rule.condition = Some(condition);
        self
    }

    /// Adds an obligation.
    #[must_use]
    pub fn obligation(mut self, obligation: Obligation) -> Self {
        self.rule.obligations.push(obligation);
        self
    }

    /// Finishes building.
    #[must_use]
    pub fn build(self) -> Rule {
        self.rule
    }
}

impl Encode for Rule {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.id);
        self.effect.encode(w);
        self.target.encode(w);
        match &self.condition {
            None => w.put_u8(0),
            Some(c) => {
                w.put_u8(1);
                c.encode(w);
            }
        }
        w.put_varint(self.obligations.len() as u64);
        for o in &self.obligations {
            o.encode(w);
        }
    }
}

impl Decode for Rule {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let id = r.get_str()?;
        let effect = Effect::decode(r)?;
        let target = Target::decode(r)?;
        let condition = match r.get_u8()? {
            0 => None,
            1 => Some(Expr::decode(r)?),
            other => return Err(CryptoError::Malformed(format!("condition tag {other}"))),
        };
        let obligations = decode_seq(r)?;
        Ok(Rule {
            id,
            effect,
            target,
            condition,
            obligations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttributeId, Category};
    use drams_crypto::codec::{Decode, Encode};

    fn role_eq(val: &str) -> Expr {
        Expr::equal(
            Expr::attr(AttributeId::new(Category::Subject, "role")),
            Expr::lit(val),
        )
    }

    fn doctor() -> Request {
        Request::builder()
            .subject("role", "doctor")
            .environment("hour", 10i64)
            .build()
    }

    #[test]
    fn always_rule_fires() {
        let (d, _) = Rule::always("r", Effect::Deny).evaluate(&doctor());
        assert_eq!(d, ExtDecision::Deny);
    }

    #[test]
    fn target_nomatch_gives_not_applicable() {
        let rule = Rule::builder("r", Effect::Permit)
            .target(Target::expr(role_eq("nurse")))
            .build();
        assert_eq!(rule.evaluate(&doctor()).0, ExtDecision::NotApplicable);
    }

    #[test]
    fn target_indeterminate_flavours_by_effect() {
        let missing = Expr::equal(
            Expr::attr(AttributeId::new(Category::Resource, "ghost")),
            Expr::lit("x"),
        );
        let permit = Rule::builder("p", Effect::Permit)
            .target(Target::expr(missing.clone()))
            .build();
        assert_eq!(permit.evaluate(&doctor()).0, ExtDecision::IndeterminateP);
        let deny = Rule::builder("d", Effect::Deny)
            .target(Target::expr(missing))
            .build();
        assert_eq!(deny.evaluate(&doctor()).0, ExtDecision::IndeterminateD);
    }

    #[test]
    fn condition_false_gives_not_applicable() {
        let rule = Rule::builder("r", Effect::Permit)
            .target(Target::expr(role_eq("doctor")))
            .condition(Expr::Apply(
                crate::expr::Func::Greater,
                vec![
                    Expr::attr(AttributeId::new(Category::Environment, "hour")),
                    Expr::lit(18i64),
                ],
            ))
            .build();
        assert_eq!(rule.evaluate(&doctor()).0, ExtDecision::NotApplicable);
    }

    #[test]
    fn condition_error_gives_indeterminate() {
        let rule = Rule::builder("r", Effect::Deny)
            .condition(Expr::equal(
                Expr::attr(AttributeId::new(Category::Environment, "ghost")),
                Expr::lit(1i64),
            ))
            .build();
        assert_eq!(rule.evaluate(&doctor()).0, ExtDecision::IndeterminateD);
    }

    #[test]
    fn obligations_fire_with_matching_effect_only() {
        let rule = Rule::builder("r", Effect::Permit)
            .obligation(Obligation::new("log", Effect::Permit))
            .obligation(Obligation::new("alert", Effect::Deny))
            .build();
        let (d, obs) = rule.evaluate(&doctor());
        assert_eq!(d, ExtDecision::Permit);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].id, "log");
    }

    #[test]
    fn codec_round_trip() {
        let rule = Rule::builder("r42", Effect::Deny)
            .target(Target::expr(role_eq("doctor")))
            .condition(Expr::lit(true))
            .obligation(Obligation {
                args: vec![7i64.into()],
                ..Obligation::new("audit", Effect::Deny)
            })
            .build();
        let bytes = rule.to_canonical_bytes();
        assert_eq!(Rule::from_canonical_bytes(&bytes).unwrap(), rule);
    }

    #[test]
    fn size_counts_target_and_condition() {
        let rule = Rule::builder("r", Effect::Permit)
            .target(Target::expr(role_eq("doctor")))
            .condition(role_eq("doctor"))
            .build();
        assert_eq!(rule.size(), 2 * role_eq("doctor").size() + 1);
    }
}
