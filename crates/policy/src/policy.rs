//! Policies and policy sets — the interior nodes of the policy tree.

use crate::attr::Request;
use crate::combining::{combine, Combinable, CombiningAlg};
use crate::decision::{Effect, ExtDecision, Obligation};
use crate::rule::Rule;
use crate::target::{MatchResult, Target};
use drams_crypto::codec::{decode_seq, Decode, Encode, Reader, Writer};
use drams_crypto::sha256::Digest;
use drams_crypto::CryptoError;
use serde::{Deserialize, Serialize};

/// A policy: a target, a rule-combining algorithm and a list of rules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Policy {
    /// Policy identifier, unique within its parent.
    pub id: String,
    /// Applicability target.
    pub target: Target,
    /// How rule decisions are combined.
    pub algorithm: CombiningAlg,
    /// The rules, in document order.
    pub rules: Vec<Rule>,
    /// Policy-level obligations.
    pub obligations: Vec<Obligation>,
}

impl Policy {
    /// Starts building a policy.
    pub fn builder(id: impl Into<String>, algorithm: CombiningAlg) -> PolicyBuilder {
        PolicyBuilder {
            policy: Policy {
                id: id.into(),
                target: Target::Any,
                algorithm,
                rules: Vec::new(),
                obligations: Vec::new(),
            },
        }
    }

    /// Evaluates this policy (XACML 3.0 §7.12).
    #[must_use]
    pub fn evaluate(&self, request: &Request) -> (ExtDecision, Vec<Obligation>) {
        evaluate_node(
            &self.target,
            self.algorithm,
            &self.rules,
            &self.obligations,
            request,
        )
    }

    /// Structural size.
    #[must_use]
    pub fn size(&self) -> usize {
        self.target.size() + self.rules.iter().map(Rule::size).sum::<usize>() + 1
    }
}

/// Builder for [`Policy`].
#[derive(Debug)]
pub struct PolicyBuilder {
    policy: Policy,
}

impl PolicyBuilder {
    /// Sets the target.
    #[must_use]
    pub fn target(mut self, target: Target) -> Self {
        self.policy.target = target;
        self
    }

    /// Appends a rule.
    #[must_use]
    pub fn rule(mut self, rule: Rule) -> Self {
        self.policy.rules.push(rule);
        self
    }

    /// Appends a policy-level obligation.
    #[must_use]
    pub fn obligation(mut self, obligation: Obligation) -> Self {
        self.policy.obligations.push(obligation);
        self
    }

    /// Finishes building.
    #[must_use]
    pub fn build(self) -> Policy {
        self.policy
    }
}

/// A child of a policy set: either a policy or a nested policy set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyChild {
    /// A leaf policy.
    Policy(Policy),
    /// A nested policy set.
    Set(PolicySet),
}

impl PolicyChild {
    /// The child's identifier.
    #[must_use]
    pub fn id(&self) -> &str {
        match self {
            PolicyChild::Policy(p) => &p.id,
            PolicyChild::Set(s) => &s.id,
        }
    }
}

/// A policy set: a target, a policy-combining algorithm and children.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySet {
    /// Identifier, unique within its parent.
    pub id: String,
    /// Applicability target.
    pub target: Target,
    /// How child decisions are combined.
    pub algorithm: CombiningAlg,
    /// Child policies / policy sets, in document order.
    pub children: Vec<PolicyChild>,
    /// Set-level obligations.
    pub obligations: Vec<Obligation>,
}

impl PolicySet {
    /// Starts building a policy set.
    pub fn builder(id: impl Into<String>, algorithm: CombiningAlg) -> PolicySetBuilder {
        PolicySetBuilder {
            set: PolicySet {
                id: id.into(),
                target: Target::Any,
                algorithm,
                children: Vec::new(),
                obligations: Vec::new(),
            },
        }
    }

    /// Evaluates this policy set.
    #[must_use]
    pub fn evaluate(&self, request: &Request) -> (ExtDecision, Vec<Obligation>) {
        evaluate_node(
            &self.target,
            self.algorithm,
            &self.children,
            &self.obligations,
            request,
        )
    }

    /// Structural size (expression nodes + elements).
    #[must_use]
    pub fn size(&self) -> usize {
        self.target.size()
            + self
                .children
                .iter()
                .map(|c| match c {
                    PolicyChild::Policy(p) => p.size(),
                    PolicyChild::Set(s) => s.size(),
                })
                .sum::<usize>()
            + 1
    }

    /// Total number of rules in the subtree.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.children
            .iter()
            .map(|c| match c {
                PolicyChild::Policy(p) => p.rules.len(),
                PolicyChild::Set(s) => s.rule_count(),
            })
            .sum()
    }

    /// A version digest of the canonical encoding — this is the "policy
    /// version" the Analyser pins a logged decision to.
    #[must_use]
    pub fn version_digest(&self) -> Digest {
        self.canonical_digest()
    }
}

/// Builder for [`PolicySet`].
#[derive(Debug)]
pub struct PolicySetBuilder {
    set: PolicySet,
}

impl PolicySetBuilder {
    /// Sets the target.
    #[must_use]
    pub fn target(mut self, target: Target) -> Self {
        self.set.target = target;
        self
    }

    /// Appends a leaf policy.
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.set.children.push(PolicyChild::Policy(policy));
        self
    }

    /// Appends a nested policy set.
    #[must_use]
    pub fn set(mut self, set: PolicySet) -> Self {
        self.set.children.push(PolicyChild::Set(set));
        self
    }

    /// Appends a set-level obligation.
    #[must_use]
    pub fn obligation(mut self, obligation: Obligation) -> Self {
        self.set.obligations.push(obligation);
        self
    }

    /// Finishes building.
    #[must_use]
    pub fn build(self) -> PolicySet {
        self.set
    }
}

/// Shared Policy/PolicySet evaluation skeleton (XACML §7.12/§7.13):
/// target gating, child combining, own-obligation attachment and the
/// Indeterminate-target adjustment.
fn evaluate_node<C: Combinable>(
    target: &Target,
    algorithm: CombiningAlg,
    children: &[C],
    own_obligations: &[Obligation],
    request: &Request,
) -> (ExtDecision, Vec<Obligation>) {
    match target.matches(request) {
        MatchResult::NoMatch => (ExtDecision::NotApplicable, Vec::new()),
        MatchResult::Match => {
            let (d, mut obs) = combine(algorithm, children, request);
            let own_effect = match d {
                ExtDecision::Permit => Some(Effect::Permit),
                ExtDecision::Deny => Some(Effect::Deny),
                _ => None,
            };
            if let Some(effect) = own_effect {
                obs.extend(
                    own_obligations
                        .iter()
                        .filter(|o| o.fulfill_on == effect)
                        .cloned(),
                );
            } else {
                obs.clear();
            }
            (d, obs)
        }
        MatchResult::Indeterminate => {
            // Evaluate children anyway to determine the indeterminate
            // flavour (XACML 3.0 §7.12, table "Indeterminate" row).
            let (d, _) = combine(algorithm, children, request);
            let adjusted = match d {
                ExtDecision::NotApplicable => ExtDecision::NotApplicable,
                ExtDecision::Permit => ExtDecision::IndeterminateP,
                ExtDecision::Deny => ExtDecision::IndeterminateD,
                ind => ind,
            };
            (adjusted, Vec::new())
        }
    }
}

impl Combinable for Rule {
    fn applicability(&self, request: &Request) -> MatchResult {
        Rule::applicability(self, request)
    }
    fn evaluate(&self, request: &Request) -> (ExtDecision, Vec<Obligation>) {
        Rule::evaluate(self, request)
    }
}

impl Combinable for Policy {
    fn applicability(&self, request: &Request) -> MatchResult {
        self.target.matches(request)
    }
    fn evaluate(&self, request: &Request) -> (ExtDecision, Vec<Obligation>) {
        Policy::evaluate(self, request)
    }
}

impl Combinable for PolicyChild {
    fn applicability(&self, request: &Request) -> MatchResult {
        match self {
            PolicyChild::Policy(p) => p.target.matches(request),
            PolicyChild::Set(s) => s.target.matches(request),
        }
    }
    fn evaluate(&self, request: &Request) -> (ExtDecision, Vec<Obligation>) {
        match self {
            PolicyChild::Policy(p) => p.evaluate(request),
            PolicyChild::Set(s) => s.evaluate(request),
        }
    }
}

// ---- canonical encoding ----------------------------------------------------

impl Encode for Policy {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.id);
        self.target.encode(w);
        self.algorithm.encode(w);
        w.put_varint(self.rules.len() as u64);
        for r in &self.rules {
            r.encode(w);
        }
        w.put_varint(self.obligations.len() as u64);
        for o in &self.obligations {
            o.encode(w);
        }
    }
}

impl Decode for Policy {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let id = r.get_str()?;
        let target = Target::decode(r)?;
        let algorithm = CombiningAlg::decode(r)?;
        let rules = decode_seq(r)?;
        let obligations = decode_seq(r)?;
        Ok(Policy {
            id,
            target,
            algorithm,
            rules,
            obligations,
        })
    }
}

impl Encode for PolicyChild {
    fn encode(&self, w: &mut Writer) {
        match self {
            PolicyChild::Policy(p) => {
                w.put_u8(0);
                p.encode(w);
            }
            PolicyChild::Set(s) => {
                w.put_u8(1);
                s.encode(w);
            }
        }
    }
}

impl Decode for PolicyChild {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match r.get_u8()? {
            0 => Ok(PolicyChild::Policy(Policy::decode(r)?)),
            1 => Ok(PolicyChild::Set(PolicySet::decode(r)?)),
            other => Err(CryptoError::Malformed(format!("policy child tag {other}"))),
        }
    }
}

impl Encode for PolicySet {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.id);
        self.target.encode(w);
        self.algorithm.encode(w);
        w.put_varint(self.children.len() as u64);
        for c in &self.children {
            c.encode(w);
        }
        w.put_varint(self.obligations.len() as u64);
        for o in &self.obligations {
            o.encode(w);
        }
    }
}

impl Decode for PolicySet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let id = r.get_str()?;
        let target = Target::decode(r)?;
        let algorithm = CombiningAlg::decode(r)?;
        let children = decode_seq(r)?;
        let obligations = decode_seq(r)?;
        Ok(PolicySet {
            id,
            target,
            algorithm,
            children,
            obligations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttributeId, Category};
    use crate::expr::Expr;

    fn role_target(val: &str) -> Target {
        Target::expr(Expr::equal(
            Expr::attr(AttributeId::new(Category::Subject, "role")),
            Expr::lit(val),
        ))
    }

    fn request(role: &str) -> Request {
        Request::builder().subject("role", role).build()
    }

    fn sample_policy() -> Policy {
        Policy::builder("doctors", CombiningAlg::DenyOverrides)
            .target(role_target("doctor"))
            .rule(
                Rule::builder("allow-read", Effect::Permit)
                    .target(Target::expr(Expr::equal(
                        Expr::attr(AttributeId::new(Category::Action, "id")),
                        Expr::lit("read"),
                    )))
                    .build(),
            )
            .rule(Rule::always("default-deny", Effect::Deny))
            .build()
    }

    #[test]
    fn policy_target_gates_rules() {
        let p = sample_policy();
        assert_eq!(p.evaluate(&request("nurse")).0, ExtDecision::NotApplicable);
    }

    #[test]
    fn deny_overrides_policy_denies_with_both_rules_firing() {
        let p = sample_policy();
        let req = Request::builder()
            .subject("role", "doctor")
            .action("id", "read")
            .build();
        // allow-read permits, default-deny denies; deny-overrides → Deny.
        assert_eq!(p.evaluate(&req).0, ExtDecision::Deny);
    }

    #[test]
    fn permit_overrides_policy_permits() {
        let mut p = sample_policy();
        p.algorithm = CombiningAlg::PermitOverrides;
        let req = Request::builder()
            .subject("role", "doctor")
            .action("id", "read")
            .build();
        assert_eq!(p.evaluate(&req).0, ExtDecision::Permit);
    }

    #[test]
    fn indeterminate_target_adjusts_flavour() {
        // Policy target references a missing attribute; rules would Permit.
        let p = Policy::builder("p", CombiningAlg::PermitOverrides)
            .target(Target::expr(Expr::equal(
                Expr::attr(AttributeId::new(Category::Resource, "ghost")),
                Expr::lit("x"),
            )))
            .rule(Rule::always("r", Effect::Permit))
            .build();
        assert_eq!(
            p.evaluate(&request("doctor")).0,
            ExtDecision::IndeterminateP
        );
        // If children are NotApplicable, the whole node is NotApplicable
        // despite the indeterminate target.
        let p2 = Policy::builder("p2", CombiningAlg::PermitOverrides)
            .target(Target::expr(Expr::equal(
                Expr::attr(AttributeId::new(Category::Resource, "ghost")),
                Expr::lit("x"),
            )))
            .rule(
                Rule::builder("r", Effect::Permit)
                    .target(role_target("nobody"))
                    .build(),
            )
            .build();
        assert_eq!(
            p2.evaluate(&request("doctor")).0,
            ExtDecision::NotApplicable
        );
    }

    #[test]
    fn policy_set_nests() {
        let set = PolicySet::builder("root", CombiningAlg::FirstApplicable)
            .policy(sample_policy())
            .policy(
                Policy::builder("fallback", CombiningAlg::PermitOverrides)
                    .rule(Rule::always("deny-all", Effect::Deny))
                    .build(),
            )
            .build();
        // nurse: first policy NA, fallback denies.
        assert_eq!(set.evaluate(&request("nurse")).0, ExtDecision::Deny);
        // doctor without action: allow-read NA, default-deny fires.
        assert_eq!(set.evaluate(&request("doctor")).0, ExtDecision::Deny);
    }

    #[test]
    fn policy_level_obligations_attach_on_matching_effect() {
        let p = Policy::builder("p", CombiningAlg::PermitOverrides)
            .rule(Rule::always("r", Effect::Permit))
            .obligation(Obligation::new("audit", Effect::Permit))
            .obligation(Obligation::new("alarm", Effect::Deny))
            .build();
        let (d, obs) = p.evaluate(&request("any"));
        assert_eq!(d, ExtDecision::Permit);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].id, "audit");
    }

    #[test]
    fn codec_round_trip_deep() {
        let set = PolicySet::builder("root", CombiningAlg::OnlyOneApplicable)
            .target(role_target("doctor"))
            .policy(sample_policy())
            .set(
                PolicySet::builder("nested", CombiningAlg::DenyUnlessPermit)
                    .policy(
                        Policy::builder("inner", CombiningAlg::FirstApplicable)
                            .rule(Rule::always("r", Effect::Permit))
                            .build(),
                    )
                    .build(),
            )
            .obligation(Obligation {
                args: vec![true.into()],
                ..Obligation::new("top", Effect::Deny)
            })
            .build();
        let bytes = set.to_canonical_bytes();
        assert_eq!(PolicySet::from_canonical_bytes(&bytes).unwrap(), set);
    }

    #[test]
    fn version_digest_changes_with_any_edit() {
        let set = PolicySet::builder("root", CombiningAlg::DenyOverrides)
            .policy(sample_policy())
            .build();
        let v1 = set.version_digest();
        let mut edited = set.clone();
        if let PolicyChild::Policy(p) = &mut edited.children[0] {
            p.rules[0].effect = Effect::Deny;
        }
        assert_ne!(edited.version_digest(), v1);
    }

    #[test]
    fn rule_count_recurses() {
        let set = PolicySet::builder("root", CombiningAlg::DenyOverrides)
            .policy(sample_policy())
            .set(
                PolicySet::builder("nested", CombiningAlg::DenyOverrides)
                    .policy(sample_policy())
                    .build(),
            )
            .build();
        assert_eq!(set.rule_count(), 4);
    }
}
