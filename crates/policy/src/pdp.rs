//! The Policy Decision Point.
//!
//! In the FaaS deployment (paper Figure 1) the PDP lives in the
//! infrastructure tenant: PEPs forward intercepted requests here, the PDP
//! evaluates them against the policy in force and returns the decision the
//! PEP then enforces.
//!
//! The PDP evaluates every request through a [`PreparedPolicySet`]
//! (interned attributes, arena expressions, target index); nothing is
//! memoised. A PDP serves one version for its whole life: a policy change
//! builds a new PDP (the PRP's `PolicyVersion::pdp`). The PDP holds only
//! the compiled form; the tree-walking reference interpreter is
//! [`PolicySet::evaluate`], which the benches and property tests compare
//! against directly.

use crate::attr::Request;
use crate::compiled::PreparedPolicySet;
use crate::decision::Response;
use crate::policy::PolicySet;
use drams_crypto::sha256::Digest;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A Policy Decision Point bound to one compiled policy version.
///
/// # Example
///
/// ```
/// use drams_policy::prelude::*;
/// use drams_policy::pdp::Pdp;
///
/// let root = PolicySet::builder("root", CombiningAlg::DenyUnlessPermit)
///     .policy(
///         Policy::builder("p", CombiningAlg::PermitOverrides)
///             .rule(Rule::always("allow", Effect::Permit))
///             .build(),
///     )
///     .build();
/// let pdp = Pdp::new(root);
/// let response = pdp.evaluate(&Request::new());
/// assert!(response.is_permit());
/// ```
#[derive(Debug)]
pub struct Pdp {
    /// Shared with whoever published it (the PRP keeps every version and
    /// serves one PDP per slot, restart and activation from it).
    prepared: Arc<PreparedPolicySet>,
    /// Requests evaluated; read only by [`Pdp::cache_stats`].
    evaluations: AtomicU64,
}

impl Pdp {
    /// Creates a PDP for a root policy set, compiling it.
    #[must_use]
    pub fn new(root: impl Borrow<PolicySet>) -> Self {
        Pdp::from_prepared(Arc::new(PreparedPolicySet::compile(root.borrow())))
    }

    /// [`Pdp::new`]; the capacity is ignored. Kept for callers written
    /// against the removed decision cache.
    #[must_use]
    pub fn with_cache_capacity(root: impl Borrow<PolicySet>, _capacity: usize) -> Self {
        Pdp::new(root)
    }

    /// Creates a PDP from an already-compiled policy (e.g. the PRP
    /// pre-compiles every published version, so activating one does not
    /// stall the decision path on recompilation). The compiled form is
    /// shared, not copied: building a PDP this way costs one reference
    /// count however large the policy base is.
    #[must_use]
    pub fn from_prepared(prepared: Arc<PreparedPolicySet>) -> Self {
        Pdp {
            prepared,
            evaluations: AtomicU64::new(0),
        }
    }

    /// The compiled form of the policy in force.
    #[must_use]
    pub fn prepared(&self) -> &Arc<PreparedPolicySet> {
        &self.prepared
    }

    /// Digest identifying the policy version in force.
    #[must_use]
    pub fn policy_version(&self) -> Digest {
        self.prepared.version_digest()
    }

    /// Evaluates a request and returns the full response.
    #[must_use]
    pub fn evaluate(&self, request: &Request) -> Response {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let (extended, obligations) = self.prepared.evaluate(request);
        Response::new(extended, obligations)
    }

    /// `(0, evaluations)`: the `(hits, misses)` shape of the removed
    /// decision cache, where every evaluation is a miss. Kept for
    /// callers written against it.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        (0, self.evaluations.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttributeId, Category};
    use crate::combining::CombiningAlg;
    use crate::decision::{Decision, Effect};
    use crate::expr::Expr;
    use crate::policy::Policy;
    use crate::rule::Rule;
    use crate::target::Target;

    fn allow_all() -> PolicySet {
        PolicySet::builder("root", CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("p", CombiningAlg::PermitOverrides)
                    .rule(Rule::always("allow", Effect::Permit))
                    .build(),
            )
            .build()
    }

    fn pdp() -> Pdp {
        Pdp::new(allow_all())
    }

    fn role_policy() -> PolicySet {
        PolicySet::builder("root", CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("p", CombiningAlg::PermitOverrides)
                    .rule(
                        Rule::builder("doctors", Effect::Permit)
                            .target(Target::expr(Expr::equal(
                                Expr::attr(AttributeId::new(Category::Subject, "role")),
                                Expr::lit("doctor"),
                            )))
                            .build(),
                    )
                    .build(),
            )
            .build()
    }

    #[test]
    fn evaluates_and_counts() {
        let pdp = pdp();
        assert_eq!(pdp.cache_stats(), (0, 0));
        let r = pdp.evaluate(&Request::new());
        assert_eq!(r.decision, Decision::Permit);
        assert_eq!(pdp.cache_stats(), (0, 1));
    }

    #[test]
    fn version_tracks_policy_changes() {
        let v1 = pdp().policy_version();
        assert_eq!(v1, allow_all().version_digest());
        let new_root = PolicySet::builder("root2", CombiningAlg::DenyOverrides).build();
        let pdp = Pdp::new(&new_root);
        assert_eq!(pdp.policy_version(), new_root.version_digest());
        assert_ne!(pdp.policy_version(), v1);
        // empty deny-overrides root → NotApplicable
        assert_eq!(
            pdp.evaluate(&Request::new()).decision,
            Decision::NotApplicable
        );
    }

    #[test]
    fn compiled_agrees_with_interpreter() {
        let root = role_policy();
        let pdp = Pdp::new(&root);
        for request in [
            Request::builder().subject("role", "doctor").build(),
            Request::builder().subject("role", "nurse").build(),
            Request::new(),
        ] {
            let (extended, obligations) = root.evaluate(&request);
            assert_eq!(pdp.evaluate(&request), Response::new(extended, obligations));
        }
    }

    #[test]
    fn cache_capacity_is_ignored_and_every_request_is_evaluated() {
        // A stream with repeats: one hot request between distinct cold
        // ones, the pattern a memoising PDP would answer from memory.
        let hot = Request::builder().subject("role", "doctor").build();
        let mut stream = Vec::new();
        for i in 0..8 {
            stream.push(hot.clone());
            stream.push(
                Request::builder()
                    .subject("role", format!("intern-{i}"))
                    .build(),
            );
            stream.push(Request::builder().subject("role", "nurse").build());
        }
        let reference = Pdp::new(role_policy());
        for capacity in [0, 1, 4096] {
            let pdp = Pdp::with_cache_capacity(role_policy(), capacity);
            assert_eq!(pdp.policy_version(), reference.policy_version());
            for (n, request) in stream.iter().enumerate() {
                assert_eq!(pdp.evaluate(request), reference.evaluate(request));
                assert_eq!(pdp.cache_stats(), (0, n as u64 + 1), "capacity {capacity}");
            }
        }
    }

    #[test]
    fn cache_is_dropped_on_policy_change() {
        let pdp = Pdp::new(role_policy());
        let request = Request::builder().subject("role", "doctor").build();
        assert_eq!(pdp.evaluate(&request).decision, Decision::Permit);
        // A policy change is a new PDP for the new version (what the
        // PRP's `PolicyVersion::pdp` builds): nothing the old one decided
        // carries over.
        let deny_all = PolicySet::builder("root2", CombiningAlg::DenyUnlessPermit).build();
        let pdp = Pdp::from_prepared(Arc::new(PreparedPolicySet::compile(&deny_all)));
        assert_eq!(pdp.evaluate(&request).decision, Decision::Deny);
        assert_eq!(pdp.cache_stats(), (0, 1));
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let pdp = Pdp::with_cache_capacity(role_policy(), 0);
        let request = Request::builder().subject("role", "doctor").build();
        let _ = pdp.evaluate(&request);
        let _ = pdp.evaluate(&request);
        assert_eq!(pdp.cache_stats(), (0, 2), "both evaluations counted");
    }

    #[test]
    fn from_prepared_reuses_compilation() {
        let prepared = Arc::new(PreparedPolicySet::compile(&allow_all()));
        let pdp = Pdp::from_prepared(prepared.clone());
        assert!(Arc::ptr_eq(pdp.prepared(), &prepared));
        assert_eq!(pdp.policy_version(), prepared.version_digest());
        assert!(pdp.evaluate(&Request::new()).is_permit());
    }

    #[test]
    fn pdp_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pdp>();
    }
}
