//! Runtime decision verification — the Analyser's core check.
//!
//! Paper §II: *"On the base of a logical representation of the access
//! control policies evaluated by the PDP, the Analyser checks if for a
//! given request the calculated response is the expected one."* This module
//! implements that oracle: it holds the authorised policy (pinned by
//! version digest) and re-evaluates every logged (request, response)
//! pair, reporting any divergence. A policy version is immutable once
//! compiled, so the verifier may share the PRP's compiled form of an
//! authorised version rather than compile a copy; what it must not share
//! is a version nobody authorised (see `drams_core`'s scenario assembly,
//! which compiles a separate copy when the PRP serves a swapped policy).
//!
//! The oracle sits beside the [`pdp`](crate::pdp) it re-checks: it runs
//! the same compiled engine and nothing of the offline FACPL solver, so
//! the live Analyser depends on this crate alone. `drams_analysis::verify`
//! re-exports this module at its earlier path.

use crate::attr::Request;
use crate::compiled::PreparedPolicySet;
use crate::decision::{Decision, Response};
use crate::policy::PolicySet;
use drams_crypto::sha256::Digest;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;
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
/// Holds each authorised version as its compiled [`PreparedPolicySet`],
/// which the re-evaluation hot path runs on and which keeps the canonical
/// bytes the version digest was computed over — the Analyser replays
/// *every* completed observation group through
/// [`DecisionVerifier::expected_response`], so this is the second
/// heaviest policy-evaluation path after the PDP itself. The reference
/// interpreter is [`PolicySet::evaluate`] on the source set.
///
/// The compiled form sits behind an [`Arc`], like the PDP's: a verifier
/// built with [`DecisionVerifier::from_prepared`] or fed with
/// [`DecisionVerifier::publish_prepared`] shares the version the PRP
/// already compiled instead of compiling its own. The `PolicySet` entry
/// points compile once from a borrow and delegate to those two.
#[derive(Debug, Clone)]
pub struct DecisionVerifier {
    prepared: Arc<PreparedPolicySet>,
    version: Digest,
    /// Every version legitimately authorised over the run, including the
    /// current one (see [`DecisionVerifier::authorised_versions`]).
    history: HashMap<Digest, AuthorisedVersion>,
}

/// One authorised version. During policy churn a decision can be logged
/// under version *n* and checked after *n+1* became active; it is
/// verified against the version it claims if that version was *still
/// active when the decision was taken*. `retired_at` is when it was
/// superseded (`None` = active), so a PDP stuck on a retired version is
/// caught, not grandfathered forever.
#[derive(Debug, Clone)]
struct AuthorisedVersion {
    prepared: Arc<PreparedPolicySet>,
    retired_at: Option<u64>,
}

impl DecisionVerifier {
    /// Creates a verifier pinned to the given authorised policy,
    /// compiling it once.
    #[must_use]
    pub fn new(policy: impl Borrow<PolicySet>) -> Self {
        DecisionVerifier::from_prepared(Arc::new(PreparedPolicySet::compile(policy.borrow())))
    }

    /// Creates a verifier pinned to an already-compiled authorised policy
    /// (e.g. the PRP's active version), shared: the cost is one reference
    /// count however large the policy base is.
    #[must_use]
    pub fn from_prepared(prepared: Arc<PreparedPolicySet>) -> Self {
        let mut verifier = DecisionVerifier {
            version: prepared.version_digest(),
            prepared: prepared.clone(),
            history: HashMap::new(),
        };
        // Publishing the version already active retires nothing.
        verifier.publish_prepared(prepared, 0);
        verifier
    }

    /// The authorised policy version digest (the currently active one).
    #[must_use]
    pub fn authorised_version(&self) -> Digest {
        self.version
    }

    /// Number of distinct authorised versions seen so far.
    #[must_use]
    pub fn authorised_version_count(&self) -> usize {
        self.history.len()
    }

    /// The authorised-policy history: each version still authorised, once,
    /// as its digest, its (shared, not copied) compiled form — which holds
    /// the canonical bytes that digest is defined over — and when it was
    /// superseded (`None` for the active one), ordered by `(retired_at,
    /// digest)`: the active version last. The first entry plus a publish
    /// of each later one at its predecessor's `retired_at` rebuilds it.
    #[must_use]
    pub fn authorised_versions(&self) -> Vec<(Digest, &Arc<PreparedPolicySet>, Option<u64>)> {
        let mut versions: Vec<_> = self
            .history
            .iter()
            .map(|(digest, v)| (*digest, &v.prepared, v.retired_at))
            .collect();
        versions.sort_by_key(|&(digest, _, retired_at)| (retired_at.is_none(), retired_at, digest));
        versions
    }

    /// The compiled form of the active authorised version.
    #[must_use]
    pub fn prepared(&self) -> &Arc<PreparedPolicySet> {
        &self.prepared
    }

    /// Makes `prepared` the active authorised version as of time `now`
    /// while keeping earlier versions authorised for decisions taken
    /// before they were superseded — the legitimate
    /// policy-administration path (publication or rollback through the
    /// PRP). `now` is the activation instant in whatever clock the
    /// deployment logs decision times in (the DES uses virtual
    /// microseconds). The compiled version is shared, not recompiled.
    pub fn publish_prepared(&mut self, prepared: Arc<PreparedPolicySet>, now: u64) {
        let old = self.version;
        self.version = prepared.version_digest();
        self.prepared = prepared.clone();
        if old != self.version {
            if let Some(retired) = self.history.get_mut(&old) {
                retired.retired_at.get_or_insert(now);
            }
        }
        // The new current version is active again even if it was retired
        // before (rollback re-activates an old digest).
        self.history.insert(
            self.version,
            AuthorisedVersion {
                prepared,
                retired_at: None,
            },
        );
    }

    /// The response the authorised policy yields for `request`
    /// (compiled engine).
    #[must_use]
    pub fn expected_response(&self, request: &Request) -> Response {
        let (extended, obligations) = self.prepared.evaluate(request);
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
    /// evaluated under and the time it was decided at. A version outside
    /// the authorised history is reported even when the decision happens
    /// to coincide — the paper's threat model includes policy
    /// substitution, and a swap that agrees on this request may diverge
    /// on the next. A superseded-but-authorised version (in-flight
    /// decision during legitimate churn) is re-evaluated against that
    /// version — but only if the decision was taken while that version
    /// was still active: a PDP that keeps serving a retired (perhaps more
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
        if claimed_version == self.version {
            return self.verify(request, claimed);
        }
        match self.history.get(&claimed_version) {
            // A decision taken at the activation instant of the successor
            // may legitimately still be the old version's, hence `<=`.
            Some(AuthorisedVersion {
                prepared,
                retired_at: Some(retired_at),
            }) if decided_at <= *retired_at => {
                let (extended, obligations) = prepared.evaluate(request);
                Self::compare(claimed, &Response::new(extended, obligations))
            }
            _ => Verdict::Violation(Violation::WrongPolicyVersion {
                claimed: claimed_version,
                expected: self.version,
            }),
        }
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
            .retain(|_, v| v.retired_at.is_none_or(|t| t >= horizon));
        before - self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttributeId, Category};
    use crate::combining::CombiningAlg;
    use crate::decision::{Effect, ExtDecision, Obligation};
    use crate::expr::Expr;
    use crate::policy::{Policy, PolicySet};
    use crate::rule::Rule;
    use crate::target::Target;

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

    fn publish(verifier: &mut DecisionVerifier, policy: impl Borrow<PolicySet>, now: u64) {
        verifier.publish_prepared(Arc::new(PreparedPolicySet::compile(policy.borrow())), now);
    }

    fn doctor() -> Request {
        Request::builder().subject("role", "doctor").build()
    }

    /// `(digest, retired_at)` of every authorised version, in history
    /// order.
    fn history(verifier: &DecisionVerifier) -> Vec<(Digest, Option<u64>)> {
        verifier
            .authorised_versions()
            .into_iter()
            .map(|(digest, _, retired_at)| (digest, retired_at))
            .collect()
    }

    fn is_authorised(verifier: &DecisionVerifier, version: Digest) -> bool {
        history(verifier)
            .iter()
            .any(|&(digest, _)| digest == version)
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
        match verifier.verify_versioned_at(&doctor(), &honest, bogus_version, 0) {
            Verdict::Violation(Violation::WrongPolicyVersion { .. }) => {}
            other => panic!("expected version violation, got {other:?}"),
        }
        // Correct version passes through to the decision check.
        assert!(verifier
            .verify_versioned_at(&doctor(), &honest, verifier.authorised_version(), 0)
            .is_consistent());
    }

    #[test]
    fn policy_update_changes_authorised_version() {
        let mut verifier = DecisionVerifier::new(policy());
        let v1 = verifier.authorised_version();
        let new = PolicySet::builder("root2", CombiningAlg::PermitUnlessDeny).build();
        publish(&mut verifier, new, 1_000);
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
        publish(&mut verifier, new, 1_000);
        let v1 = verifier.authorised_version();
        assert_ne!(v0, v1);
        assert_eq!(verifier.authorised_version_count(), 2);
        assert_eq!(history(&verifier), [(v0, Some(1_000)), (v1, None)]);
        // An in-flight decision logged under v0 verifies against v0…
        assert!(verifier
            .verify_versioned_at(&doctor(), &v0_response, v0, 900)
            .is_consistent());
        // …but a *wrong* decision under v0 is still caught against v0.
        let nurse = Request::builder().subject("role", "nurse").build();
        let lie = Response::new(ExtDecision::Permit, vec![]);
        assert!(matches!(
            verifier.verify_versioned_at(&nurse, &lie, v0, 900),
            Verdict::Violation(Violation::WrongDecision { .. })
        ));
        // A never-authorised version remains a swap.
        assert!(matches!(
            verifier.verify_versioned_at(&doctor(), &v0_response, Digest::of(b"rogue"), 900),
            Verdict::Violation(Violation::WrongPolicyVersion { .. })
        ));
    }

    #[test]
    fn stuck_pdp_on_retired_version_is_caught_by_decision_time() {
        let mut verifier = DecisionVerifier::new(policy());
        let v0 = verifier.authorised_version();
        let v0_response = verifier.expected_response(&doctor());
        let new = PolicySet::builder("root2", CombiningAlg::PermitUnlessDeny).build();
        publish(&mut verifier, new, 1_000);
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
        publish(&mut verifier, policy(), 2_000);
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
        publish(&mut verifier, mid, 1_000);
        let v1 = verifier.authorised_version();
        let newest = PolicySet::builder("root3", CombiningAlg::DenyUnlessPermit).build();
        publish(&mut verifier, newest, 2_000);
        assert_eq!(verifier.authorised_version_count(), 3);

        // Horizon below every retirement: nothing to drop.
        assert_eq!(verifier.prune_history(500), 0);
        // Horizon past v0's retirement (1_000) but not v1's (2_000).
        assert_eq!(verifier.prune_history(1_500), 1);
        assert!(!is_authorised(&verifier, v0));
        assert!(is_authorised(&verifier, v1));
        // A decision citing the pruned version is now a reported swap,
        // even in-flight.
        assert!(matches!(
            verifier.verify_versioned_at(&doctor(), &v0_response, v0, 900),
            Verdict::Violation(Violation::WrongPolicyVersion { .. })
        ));
        // The active version survives any horizon.
        assert_eq!(verifier.prune_history(u64::MAX), 1);
        assert_eq!(verifier.authorised_version_count(), 1);
        assert!(is_authorised(&verifier, verifier.authorised_version()));
    }

    #[test]
    fn prune_history_spares_reactivated_rollback_versions() {
        let mut verifier = DecisionVerifier::new(policy());
        let v0 = verifier.authorised_version();
        let mid = PolicySet::builder("root2", CombiningAlg::PermitUnlessDeny).build();
        publish(&mut verifier, mid, 1_000);
        // Roll back: v0 is active again, so its old retirement must not
        // count against it.
        publish(&mut verifier, policy(), 2_000);
        assert_eq!(verifier.authorised_version(), v0);
        assert_eq!(verifier.prune_history(u64::MAX), 1); // drops only the mid version
        assert!(is_authorised(&verifier, v0));
    }

    #[test]
    fn authorised_versions_hold_each_digest_once_shared_not_copied() {
        use drams_crypto::codec::Encode;
        let v0 = policy();
        let mut verifier = DecisionVerifier::new(&v0);
        let v1 = PolicySet::builder("root2", CombiningAlg::PermitUnlessDeny).build();
        let v1_prepared = Arc::new(PreparedPolicySet::compile(&v1));
        let v2 = PolicySet::builder("root3", CombiningAlg::DenyUnlessPermit).build();
        // Churn between three versions, with v0 and v1 republished.
        verifier.publish_prepared(v1_prepared.clone(), 1_000);
        publish(&mut verifier, policy(), 2_000);
        verifier.publish_prepared(v1_prepared.clone(), 3_000);
        publish(&mut verifier, &v2, 3_000);
        publish(&mut verifier, policy(), 4_000);
        let versions = verifier.authorised_versions();
        let digests = |v: &[(Digest, &Arc<PreparedPolicySet>, Option<u64>)]| {
            v.iter().map(|&(d, _, t)| (d, t)).collect::<Vec<_>>()
        };
        // Ordered by retirement, the active version last.
        assert_eq!(
            digests(&versions),
            [
                (v1.version_digest(), Some(3_000)),
                (v2.version_digest(), Some(4_000)),
                (v0.version_digest(), None),
            ]
        );
        assert!(
            Arc::ptr_eq(versions[0].1, &v1_prepared),
            "the published version itself"
        );
        assert_eq!(versions[2].1.canonical_bytes(), v0.to_canonical_bytes());
    }

    #[test]
    fn compiled_and_interpreted_oracles_agree() {
        let policy = policy();
        let verifier = DecisionVerifier::new(&policy);
        let interpreted = |req: &Request| {
            let (extended, obligations) = policy.evaluate(req);
            Response::new(extended, obligations)
        };
        for role in ["doctor", "nurse", "admin"] {
            let req = Request::builder().subject("role", role).build();
            assert_eq!(verifier.expected_response(&req), interpreted(&req));
        }
        // missing attribute → deny-unless-permit collapses Indeterminate
        let empty = Request::new();
        assert_eq!(verifier.expected_response(&empty), interpreted(&empty));
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
