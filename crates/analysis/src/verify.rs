//! Runtime decision verification — the Analyser's core check.
//!
//! Paper §II: *"On the base of a logical representation of the access
//! control policies evaluated by the PDP, the Analyser checks if for a
//! given request the calculated response is the expected one."* This module
//! implements that oracle: it holds an independent copy of the authorised
//! policy (pinned by version digest) and re-evaluates every logged
//! (request, response) pair, reporting any divergence.

use drams_crypto::sha256::Digest;
use drams_policy::attr::Request;
use drams_policy::compiled::PreparedPolicySet;
use drams_policy::decision::{Decision, Response};
use drams_policy::policy::PolicySet;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Why a logged decision was judged incorrect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// The logged decision differs from the recomputed one — either the
    /// PDP lied (altered evaluation process) or the policy it used was not
    /// the authorised one.
    WrongDecision {
        /// Decision the PDP reported.
        claimed: Decision,
        /// Decision the authorised policy actually yields.
        expected: Decision,
    },
    /// The decision matches but the obligation set does not — the PEP
    /// would discharge the wrong duties.
    WrongObligations {
        /// Obligation ids the PDP reported.
        claimed: Vec<String>,
        /// Obligation ids the authorised policy yields.
        expected: Vec<String>,
    },
    /// The response was computed against a policy version other than the
    /// authorised one (unauthorised policy swap at the PRP).
    WrongPolicyVersion {
        /// Version digest in the logged response.
        claimed: Digest,
        /// Authorised version digest.
        expected: Digest,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::WrongDecision { claimed, expected } => {
                write!(
                    f,
                    "decision mismatch: claimed {claimed}, expected {expected}"
                )
            }
            Violation::WrongObligations { claimed, expected } => write!(
                f,
                "obligation mismatch: claimed {claimed:?}, expected {expected:?}"
            ),
            Violation::WrongPolicyVersion { claimed, expected } => write!(
                f,
                "policy version mismatch: claimed {claimed}, expected {expected}"
            ),
        }
    }
}

/// The verdict for one logged decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The logged decision is exactly what the authorised policy yields.
    Consistent,
    /// The logged decision is wrong.
    Violation(Violation),
}

impl Verdict {
    /// True when the decision checked out.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        matches!(self, Verdict::Consistent)
    }
}

/// The decision-verification oracle.
///
/// Holds the authorised policy in both forms: the source tree (for
/// inspection and the interpreted reference path) and the compiled
/// [`PreparedPolicySet`] the re-evaluation hot path runs on — the
/// Analyser replays *every* completed observation group through
/// [`DecisionVerifier::expected_response`], so this is the second
/// heaviest policy-evaluation path after the PDP itself.
#[derive(Debug, Clone)]
pub struct DecisionVerifier {
    policy: PolicySet,
    prepared: Arc<PreparedPolicySet>,
    version: Digest,
    /// Every version legitimately authorised over the run, including the
    /// current one. During policy churn a decision can be logged under
    /// version *n* and checked after version *n+1* became active; such
    /// in-flight decisions are verified against the version they claim —
    /// provided that version was authorised and *still active when the
    /// decision was taken* — instead of being flagged as swaps. The
    /// second element records when the version was superseded (`None` =
    /// still active): a PDP stuck on a retired version is caught, not
    /// grandfathered forever.
    history: std::collections::HashMap<Digest, (Arc<PreparedPolicySet>, Option<u64>)>,
}

impl DecisionVerifier {
    /// Creates a verifier pinned to the given authorised policy,
    /// compiling it once.
    #[must_use]
    pub fn new(policy: PolicySet) -> Self {
        let prepared = Arc::new(PreparedPolicySet::compile(&policy));
        let version = prepared.version_digest();
        let mut history = std::collections::HashMap::new();
        history.insert(version, (prepared.clone(), None));
        DecisionVerifier {
            policy,
            prepared,
            version,
            history,
        }
    }

    /// The authorised policy version digest (the currently active one).
    #[must_use]
    pub fn authorised_version(&self) -> Digest {
        self.version
    }

    /// Whether `version` was ever legitimately authorised.
    #[must_use]
    pub fn is_authorised_version(&self, version: &Digest) -> bool {
        self.history.contains_key(version)
    }

    /// Number of distinct authorised versions seen so far.
    #[must_use]
    pub fn authorised_version_count(&self) -> usize {
        self.history.len()
    }

    /// The authorised policy (source form).
    #[must_use]
    pub fn policy(&self) -> &PolicySet {
        &self.policy
    }

    /// Replaces the authorised policy and **forgets** all previous
    /// versions (e.g. provisioning a fresh verifier, or revoking a
    /// version retroactively).
    pub fn set_policy(&mut self, policy: PolicySet) {
        self.prepared = Arc::new(PreparedPolicySet::compile(&policy));
        self.version = self.prepared.version_digest();
        self.policy = policy;
        self.history.clear();
        self.history
            .insert(self.version, (self.prepared.clone(), None));
    }

    /// Makes `policy` the active authorised version as of time `now`
    /// while keeping earlier versions authorised for decisions taken
    /// before they were superseded — the legitimate
    /// policy-administration path (publication or rollback through the
    /// PRP). `now` is the activation instant in whatever clock the
    /// deployment logs decision times in (the DES uses virtual
    /// microseconds).
    pub fn publish_policy(&mut self, policy: PolicySet, now: u64) {
        let old = self.version;
        self.prepared = Arc::new(PreparedPolicySet::compile(&policy));
        self.version = self.prepared.version_digest();
        self.policy = policy;
        if old != self.version {
            if let Some((_, retired_at)) = self.history.get_mut(&old) {
                retired_at.get_or_insert(now);
            }
        }
        // The new current version is active again even if it was retired
        // before (rollback re-activates an old digest).
        self.history
            .insert(self.version, (self.prepared.clone(), None));
    }

    /// The response the authorised policy yields for `request`
    /// (compiled engine).
    #[must_use]
    pub fn expected_response(&self, request: &Request) -> Response {
        let (extended, obligations) = self.prepared.evaluate(request);
        Response::new(extended, obligations)
    }

    /// The response via the tree-walking reference interpreter — the
    /// oracle the compiled path is cross-checked against in tests and
    /// benches.
    #[must_use]
    pub fn expected_response_interpreted(&self, request: &Request) -> Response {
        let (extended, obligations) = self.policy.evaluate(request);
        Response::new(extended, obligations)
    }

    /// Verifies a logged `(request, response)` pair.
    #[must_use]
    pub fn verify(&self, request: &Request, claimed: &Response) -> Verdict {
        Self::compare(claimed, &self.expected_response(request))
    }

    fn compare(claimed: &Response, expected: &Response) -> Verdict {
        if claimed.decision != expected.decision {
            return Verdict::Violation(Violation::WrongDecision {
                claimed: claimed.decision,
                expected: expected.decision,
            });
        }
        fn ids(r: &Response) -> impl Iterator<Item = &String> {
            r.obligations.iter().map(|o| &o.id)
        }
        if !ids(claimed).eq(ids(expected)) {
            return Verdict::Violation(Violation::WrongObligations {
                claimed: ids(claimed).cloned().collect(),
                expected: ids(expected).cloned().collect(),
            });
        }
        Verdict::Consistent
    }

    /// Verifies a logged pair that also carries the policy version it was
    /// evaluated under. A version outside the authorised history is
    /// reported even when the decision happens to coincide — the paper's
    /// threat model includes policy substitution, and a swap that agrees
    /// on this request may diverge on the next. A superseded-but-
    /// authorised version (in-flight decision during legitimate churn) is
    /// re-evaluated against that version.
    ///
    /// This time-blind variant accepts a superseded version regardless of
    /// when the decision was taken; prefer
    /// [`DecisionVerifier::verify_versioned_at`] when the decision time
    /// is known.
    #[must_use]
    pub fn verify_versioned(
        &self,
        request: &Request,
        claimed: &Response,
        claimed_version: Digest,
    ) -> Verdict {
        self.verify_versioned_inner(request, claimed, claimed_version, None)
    }

    /// Like [`DecisionVerifier::verify_versioned`], but also checks the
    /// decision *time*: a decision logged under a superseded version is
    /// legitimate only if it was taken while that version was still
    /// active — a PDP that keeps serving a retired (perhaps more
    /// permissive) version after a new one activated raises
    /// `WrongPolicyVersion` instead of being grandfathered forever.
    #[must_use]
    pub fn verify_versioned_at(
        &self,
        request: &Request,
        claimed: &Response,
        claimed_version: Digest,
        decided_at: u64,
    ) -> Verdict {
        self.verify_versioned_inner(request, claimed, claimed_version, Some(decided_at))
    }

    /// Drops authorised-history versions retired strictly before
    /// `horizon`, returning how many were removed. The active version is
    /// never dropped (its `retired_at` is `None`).
    ///
    /// This is the retention bound for long-lived federations under
    /// policy churn: once every decision that could legitimately cite a
    /// version has been checked (the caller derives `horizon` from its
    /// oldest unretired observation epoch minus the retry/settle
    /// retention floor), keeping the compiled version around only grows
    /// the history without bound. Decisions citing a pruned version are
    /// subsequently reported as [`Violation::WrongPolicyVersion`] —
    /// exactly what a PDP stuck on a long-retired version deserves.
    pub fn prune_history(&mut self, horizon: u64) -> usize {
        let before = self.history.len();
        self.history
            .retain(|_, (_, retired_at)| retired_at.is_none_or(|t| t >= horizon));
        before - self.history.len()
    }

    fn verify_versioned_inner(
        &self,
        request: &Request,
        claimed: &Response,
        claimed_version: Digest,
        decided_at: Option<u64>,
    ) -> Verdict {
        if claimed_version == self.version {
            return self.verify(request, claimed);
        }
        let Some((prepared, retired_at)) = self.history.get(&claimed_version) else {
            return Verdict::Violation(Violation::WrongPolicyVersion {
                claimed: claimed_version,
                expected: self.version,
            });
        };
        // A decision taken at the activation instant of the successor may
        // legitimately still be the old version's, hence strict `>`.
        if let (Some(decided), Some(retired)) = (decided_at, retired_at) {
            if decided > *retired {
                return Verdict::Violation(Violation::WrongPolicyVersion {
                    claimed: claimed_version,
                    expected: self.version,
                });
            }
        }
        let (extended, obligations) = prepared.evaluate(request);
        Self::compare(claimed, &Response::new(extended, obligations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_policy::attr::{AttributeId, Category};
    use drams_policy::combining::CombiningAlg;
    use drams_policy::decision::{Effect, ExtDecision, Obligation};
    use drams_policy::expr::Expr;
    use drams_policy::policy::{Policy, PolicySet};
    use drams_policy::rule::Rule;
    use drams_policy::target::Target;

    fn policy() -> PolicySet {
        PolicySet::builder("root", CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("p", CombiningAlg::PermitOverrides)
                    .rule(
                        Rule::builder("allow-doctors", Effect::Permit)
                            .target(Target::expr(Expr::equal(
                                Expr::attr(AttributeId::new(Category::Subject, "role")),
                                Expr::lit("doctor"),
                            )))
                            .obligation(Obligation::new("log", Effect::Permit))
                            .build(),
                    )
                    .build(),
            )
            .build()
    }

    fn doctor() -> Request {
        Request::builder().subject("role", "doctor").build()
    }

    #[test]
    fn consistent_decision_passes() {
        let verifier = DecisionVerifier::new(policy());
        let honest = verifier.expected_response(&doctor());
        assert!(verifier.verify(&doctor(), &honest).is_consistent());
    }

    #[test]
    fn lying_pdp_is_caught() {
        let verifier = DecisionVerifier::new(policy());
        let lie = Response::new(ExtDecision::Deny, vec![]);
        match verifier.verify(&doctor(), &lie) {
            Verdict::Violation(Violation::WrongDecision { claimed, expected }) => {
                assert_eq!(claimed, Decision::Deny);
                assert_eq!(expected, Decision::Permit);
            }
            other => panic!("expected wrong-decision violation, got {other:?}"),
        }
    }

    #[test]
    fn dropped_obligation_is_caught() {
        let verifier = DecisionVerifier::new(policy());
        // Right decision, but the obligation was stripped.
        let stripped = Response::new(ExtDecision::Permit, vec![]);
        match verifier.verify(&doctor(), &stripped) {
            Verdict::Violation(Violation::WrongObligations { expected, .. }) => {
                assert_eq!(expected, vec!["log".to_string()]);
            }
            other => panic!("expected obligation violation, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_caught_even_when_decision_agrees() {
        let verifier = DecisionVerifier::new(policy());
        let honest = verifier.expected_response(&doctor());
        let bogus_version = Digest::of(b"attacker policy");
        match verifier.verify_versioned(&doctor(), &honest, bogus_version) {
            Verdict::Violation(Violation::WrongPolicyVersion { .. }) => {}
            other => panic!("expected version violation, got {other:?}"),
        }
        // Correct version passes through to the decision check.
        assert!(verifier
            .verify_versioned(&doctor(), &honest, verifier.authorised_version())
            .is_consistent());
    }

    #[test]
    fn policy_update_changes_authorised_version() {
        let mut verifier = DecisionVerifier::new(policy());
        let v1 = verifier.authorised_version();
        let new = PolicySet::builder("root2", CombiningAlg::PermitUnlessDeny).build();
        verifier.set_policy(new);
        assert_ne!(verifier.authorised_version(), v1);
        // Everything now permits (permit-unless-deny with no children).
        assert_eq!(
            verifier.expected_response(&doctor()).decision,
            Decision::Permit
        );
    }

    #[test]
    fn published_versions_stay_authorised_for_in_flight_decisions() {
        let mut verifier = DecisionVerifier::new(policy());
        let v0 = verifier.authorised_version();
        let v0_response = verifier.expected_response(&doctor());
        // Legitimate churn: a permit-unless-deny policy becomes active.
        let new = PolicySet::builder("root2", CombiningAlg::PermitUnlessDeny).build();
        verifier.publish_policy(new, 1_000);
        let v1 = verifier.authorised_version();
        assert_ne!(v0, v1);
        assert_eq!(verifier.authorised_version_count(), 2);
        assert!(verifier.is_authorised_version(&v0));
        // An in-flight decision logged under v0 verifies against v0…
        assert!(verifier
            .verify_versioned(&doctor(), &v0_response, v0)
            .is_consistent());
        // …but a *wrong* decision under v0 is still caught against v0.
        let nurse = Request::builder().subject("role", "nurse").build();
        let lie = Response::new(ExtDecision::Permit, vec![]);
        assert!(matches!(
            verifier.verify_versioned(&nurse, &lie, v0),
            Verdict::Violation(Violation::WrongDecision { .. })
        ));
        // A never-authorised version remains a swap.
        assert!(matches!(
            verifier.verify_versioned(&doctor(), &v0_response, Digest::of(b"rogue")),
            Verdict::Violation(Violation::WrongPolicyVersion { .. })
        ));
        // set_policy forgets history: v0 becomes unauthorised again.
        verifier.set_policy(policy());
        assert_eq!(verifier.authorised_version_count(), 1);
        assert!(!verifier.is_authorised_version(&v1));
    }

    #[test]
    fn stuck_pdp_on_retired_version_is_caught_by_decision_time() {
        let mut verifier = DecisionVerifier::new(policy());
        let v0 = verifier.authorised_version();
        let v0_response = verifier.expected_response(&doctor());
        let new = PolicySet::builder("root2", CombiningAlg::PermitUnlessDeny).build();
        verifier.publish_policy(new, 1_000);
        // In-flight: decided at (or before) the activation instant — ok.
        assert!(verifier
            .verify_versioned_at(&doctor(), &v0_response, v0, 900)
            .is_consistent());
        assert!(verifier
            .verify_versioned_at(&doctor(), &v0_response, v0, 1_000)
            .is_consistent());
        // Stuck PDP: still deciding under v0 after v1 activated.
        assert!(matches!(
            verifier.verify_versioned_at(&doctor(), &v0_response, v0, 1_001),
            Verdict::Violation(Violation::WrongPolicyVersion { .. })
        ));
        // Rolling back re-activates v0: late v0 decisions are current
        // again, and v1 is now the retired one.
        let v1 = verifier.authorised_version();
        let v1_response = verifier.expected_response(&doctor());
        verifier.publish_policy(policy(), 2_000);
        assert_eq!(verifier.authorised_version(), v0);
        assert!(verifier
            .verify_versioned_at(&doctor(), &v0_response, v0, 5_000)
            .is_consistent());
        assert!(matches!(
            verifier.verify_versioned_at(&doctor(), &v1_response, v1, 3_000),
            Verdict::Violation(Violation::WrongPolicyVersion { .. })
        ));
    }

    #[test]
    fn prune_history_drops_long_retired_versions_only() {
        let mut verifier = DecisionVerifier::new(policy());
        let v0 = verifier.authorised_version();
        let v0_response = verifier.expected_response(&doctor());
        let mid = PolicySet::builder("root2", CombiningAlg::PermitUnlessDeny).build();
        verifier.publish_policy(mid, 1_000);
        let v1 = verifier.authorised_version();
        let newest = PolicySet::builder("root3", CombiningAlg::DenyUnlessPermit).build();
        verifier.publish_policy(newest, 2_000);
        assert_eq!(verifier.authorised_version_count(), 3);

        // Horizon below every retirement: nothing to drop.
        assert_eq!(verifier.prune_history(500), 0);
        // Horizon past v0's retirement (1_000) but not v1's (2_000).
        assert_eq!(verifier.prune_history(1_500), 1);
        assert!(!verifier.is_authorised_version(&v0));
        assert!(verifier.is_authorised_version(&v1));
        // A decision citing the pruned version is now a reported swap,
        // even in-flight.
        assert!(matches!(
            verifier.verify_versioned_at(&doctor(), &v0_response, v0, 900),
            Verdict::Violation(Violation::WrongPolicyVersion { .. })
        ));
        // The active version survives any horizon.
        assert_eq!(verifier.prune_history(u64::MAX), 1);
        assert_eq!(verifier.authorised_version_count(), 1);
        assert!(verifier.is_authorised_version(&verifier.authorised_version()));
    }

    #[test]
    fn prune_history_spares_reactivated_rollback_versions() {
        let mut verifier = DecisionVerifier::new(policy());
        let v0 = verifier.authorised_version();
        let mid = PolicySet::builder("root2", CombiningAlg::PermitUnlessDeny).build();
        verifier.publish_policy(mid, 1_000);
        // Roll back: v0 is active again, so its old retirement must not
        // count against it.
        verifier.publish_policy(policy(), 2_000);
        assert_eq!(verifier.authorised_version(), v0);
        assert_eq!(verifier.prune_history(u64::MAX), 1); // drops only the mid version
        assert!(verifier.is_authorised_version(&v0));
    }

    #[test]
    fn compiled_and_interpreted_oracles_agree() {
        let verifier = DecisionVerifier::new(policy());
        for role in ["doctor", "nurse", "admin"] {
            let req = Request::builder().subject("role", role).build();
            assert_eq!(
                verifier.expected_response(&req),
                verifier.expected_response_interpreted(&req)
            );
        }
        // missing attribute → deny-unless-permit collapses Indeterminate
        let empty = Request::new();
        assert_eq!(
            verifier.expected_response(&empty),
            verifier.expected_response_interpreted(&empty)
        );
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::WrongDecision {
            claimed: Decision::Permit,
            expected: Decision::Deny,
        };
        assert!(v.to_string().contains("Permit"));
        assert!(v.to_string().contains("Deny"));
    }
}
