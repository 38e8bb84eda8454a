//! The Policy Decision Point.
//!
//! In the FaaS deployment (paper Figure 1) the PDP lives in the
//! infrastructure tenant: PEPs forward intercepted requests here, the PDP
//! evaluates them against the policy in force and returns the decision the
//! PEP then enforces.
//!
//! Since the compiled-engine rework the PDP evaluates through a
//! [`PreparedPolicySet`] (interned attributes, arena expressions, target
//! index) and memoises responses in a **decision cache** keyed by the
//! request's canonical digest — sound because evaluation is a pure
//! function of `(policy version, request)`, and the cache is dropped
//! whenever the policy in force changes. The original tree-walking
//! interpreter stays available as [`Pdp::evaluate_interpreted`], the
//! reference oracle the benches and property tests compare against.

use crate::attr::Request;
use crate::compiled::PreparedPolicySet;
use crate::decision::Response;
use crate::policy::PolicySet;
use drams_crypto::codec::Encode;
use drams_crypto::sha256::Digest;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default decision-cache capacity (responses). See
/// [`Pdp::with_cache_capacity`] to tune or disable.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// LRU state: responses keyed by digest, each stamped with a recency
/// tick, plus the tick→digest index that makes the oldest entry O(log n)
/// to find. Ticks are unique (monotone counter), so the index is a map,
/// not a multimap.
#[derive(Debug, Default)]
struct LruState {
    map: HashMap<Digest, (Response, u64)>,
    recency: BTreeMap<u64, Digest>,
    tick: u64,
}

impl LruState {
    fn touch(&mut self, digest: Digest) -> Option<Response> {
        let (response, stamp) = self.map.get_mut(&digest)?;
        let response = response.clone();
        self.recency.remove(&std::mem::replace(stamp, self.tick));
        self.recency.insert(self.tick, digest);
        self.tick += 1;
        Some(response)
    }

    fn insert(&mut self, digest: Digest, response: Response, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.map.len() >= capacity {
            let Some((_, oldest)) = self.recency.pop_first() else {
                break;
            };
            self.map.remove(&oldest);
            evicted += 1;
        }
        self.map.insert(digest, (response, self.tick));
        self.recency.insert(self.tick, digest);
        self.tick += 1;
        evicted
    }
}

/// Memoised responses keyed by request digest, valid for exactly one
/// policy version. True LRU: every hit refreshes the entry's recency,
/// and a full cache evicts exactly the least-recently-used entry.
#[derive(Debug, Default)]
struct DecisionCache {
    lru: Mutex<LruState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A Policy Decision Point bound to one root policy set.
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
    /// The source tree, shared with whoever published it (the PRP keeps
    /// every version and serves one PDP per slot, restart and activation
    /// from it): read-only here, used by [`Pdp::root`] and the
    /// interpreted oracle.
    root: Arc<PolicySet>,
    prepared: Arc<PreparedPolicySet>,
    version: Digest,
    evaluations: AtomicU64,
    cache_capacity: usize,
    cache: DecisionCache,
}

impl Pdp {
    /// Creates a PDP for a root policy set, compiling it and enabling
    /// the decision cache at [`DEFAULT_CACHE_CAPACITY`].
    #[must_use]
    pub fn new(root: PolicySet) -> Self {
        Pdp::with_cache_capacity(root, DEFAULT_CACHE_CAPACITY)
    }

    /// Creates a PDP with an explicit decision-cache capacity.
    /// `capacity == 0` disables caching (every request re-evaluates).
    #[must_use]
    pub fn with_cache_capacity(root: PolicySet, capacity: usize) -> Self {
        let prepared = Arc::new(PreparedPolicySet::compile(&root));
        Pdp::assemble(Arc::new(root), prepared, capacity)
    }

    /// Creates a PDP from an already-compiled policy (e.g. the PRP
    /// pre-compiles every published version, so activating one does not
    /// stall the decision path on recompilation). Both halves are shared,
    /// not copied: building a PDP this way costs two reference counts
    /// however large the policy base is.
    ///
    /// # Panics
    ///
    /// In debug builds, panics when `prepared` was not compiled from
    /// `root` (version digest mismatch) — mixing the two would make the
    /// interpreted oracle diverge from the compiled engine. The check
    /// re-encodes and hashes the whole policy set, so release builds
    /// skip it and trust the caller (the PRP compiles at publication,
    /// so the pair is constructed in one place).
    #[must_use]
    pub fn from_prepared(root: Arc<PolicySet>, prepared: Arc<PreparedPolicySet>) -> Self {
        debug_assert_eq!(
            root.version_digest(),
            prepared.version_digest(),
            "prepared policy does not match the source policy set"
        );
        Pdp::assemble(root, prepared, DEFAULT_CACHE_CAPACITY)
    }

    fn assemble(root: Arc<PolicySet>, prepared: Arc<PreparedPolicySet>, capacity: usize) -> Self {
        let version = prepared.version_digest();
        Pdp {
            root,
            prepared,
            version,
            evaluations: AtomicU64::new(0),
            cache_capacity: capacity,
            cache: DecisionCache::default(),
        }
    }

    /// The root policy set currently in force.
    #[must_use]
    pub fn root(&self) -> &PolicySet {
        &self.root
    }

    /// The compiled form of the policy in force.
    #[must_use]
    pub fn prepared(&self) -> &Arc<PreparedPolicySet> {
        &self.prepared
    }

    /// Digest identifying the policy version in force.
    #[must_use]
    pub fn policy_version(&self) -> Digest {
        self.version
    }

    /// Replaces the policy in force (policy administration). Recompiles
    /// and drops the decision cache — cached responses belong to the old
    /// version.
    pub fn set_root(&mut self, root: PolicySet) {
        self.prepared = Arc::new(PreparedPolicySet::compile(&root));
        self.version = self.prepared.version_digest();
        self.root = Arc::new(root);
        self.cache = DecisionCache::default();
    }

    /// Evaluates a request and returns the full response (compiled
    /// engine, decision cache).
    #[must_use]
    pub fn evaluate(&self, request: &Request) -> Response {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        if self.cache_capacity == 0 {
            let (extended, obligations) = self.prepared.evaluate(request);
            return Response::new(extended, obligations);
        }
        let digest = request.canonical_digest();
        if let Some(hit) = self.cache.lru.lock().expect("cache lock").touch(digest) {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        let (extended, obligations) = self.prepared.evaluate(request);
        let response = Response::new(extended, obligations);
        let evicted = self.cache.lru.lock().expect("cache lock").insert(
            digest,
            response.clone(),
            self.cache_capacity,
        );
        if evicted > 0 {
            self.cache.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        response
    }

    /// Evaluates through the tree-walking reference interpreter —
    /// uncached, unindexed. This is the oracle the compiled engine is
    /// benchmarked and property-tested against.
    #[must_use]
    pub fn evaluate_interpreted(&self, request: &Request) -> Response {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let (extended, obligations) = self.root.evaluate(request);
        Response::new(extended, obligations)
    }

    /// Number of evaluations performed (diagnostics).
    #[must_use]
    pub fn evaluation_count(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// `(hits, misses)` of the decision cache since the last policy
    /// change.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache.hits.load(Ordering::Relaxed),
            self.cache.misses.load(Ordering::Relaxed),
        )
    }

    /// Responses currently held in the decision cache.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.lru.lock().expect("cache lock").map.len()
    }

    /// Responses evicted (LRU) since the last policy change.
    #[must_use]
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions.load(Ordering::Relaxed)
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

    fn pdp() -> Pdp {
        let root = PolicySet::builder("root", CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("p", CombiningAlg::PermitOverrides)
                    .rule(Rule::always("allow", Effect::Permit))
                    .build(),
            )
            .build();
        Pdp::new(root)
    }

    fn role_pdp(capacity: usize) -> Pdp {
        let root = PolicySet::builder("root", CombiningAlg::DenyUnlessPermit)
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
            .build();
        Pdp::with_cache_capacity(root, capacity)
    }

    #[test]
    fn evaluates_and_counts() {
        let pdp = pdp();
        assert_eq!(pdp.evaluation_count(), 0);
        let r = pdp.evaluate(&Request::new());
        assert_eq!(r.decision, Decision::Permit);
        assert_eq!(pdp.evaluation_count(), 1);
    }

    #[test]
    fn version_tracks_policy_changes() {
        let mut pdp = pdp();
        let v1 = pdp.policy_version();
        let new_root = PolicySet::builder("root2", CombiningAlg::DenyOverrides).build();
        pdp.set_root(new_root);
        assert_ne!(pdp.policy_version(), v1);
        // empty deny-overrides root → NotApplicable
        assert_eq!(
            pdp.evaluate(&Request::new()).decision,
            Decision::NotApplicable
        );
    }

    #[test]
    fn compiled_agrees_with_interpreter() {
        let pdp = role_pdp(0);
        for request in [
            Request::builder().subject("role", "doctor").build(),
            Request::builder().subject("role", "nurse").build(),
            Request::new(),
        ] {
            assert_eq!(pdp.evaluate(&request), pdp.evaluate_interpreted(&request));
        }
    }

    #[test]
    fn decision_cache_hits_on_repeats() {
        let pdp = role_pdp(DEFAULT_CACHE_CAPACITY);
        let request = Request::builder().subject("role", "doctor").build();
        let first = pdp.evaluate(&request);
        let second = pdp.evaluate(&request);
        assert_eq!(first, second);
        assert_eq!(pdp.cache_stats(), (1, 1));
        // A different request misses.
        let _ = pdp.evaluate(&Request::builder().subject("role", "nurse").build());
        assert_eq!(pdp.cache_stats(), (1, 2));
    }

    #[test]
    fn cache_is_dropped_on_policy_change() {
        let mut pdp = role_pdp(DEFAULT_CACHE_CAPACITY);
        let request = Request::builder().subject("role", "doctor").build();
        assert_eq!(pdp.evaluate(&request).decision, Decision::Permit);
        // Swap in a policy that denies everyone; the cached Permit must
        // not survive.
        pdp.set_root(PolicySet::builder("root2", CombiningAlg::DenyUnlessPermit).build());
        assert_eq!(pdp.evaluate(&request).decision, Decision::Deny);
        assert_eq!(pdp.cache_stats(), (0, 1));
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let pdp = role_pdp(0);
        let request = Request::builder().subject("role", "doctor").build();
        let _ = pdp.evaluate(&request);
        let _ = pdp.evaluate(&request);
        assert_eq!(pdp.cache_stats(), (0, 0));
    }

    #[test]
    fn tiny_cache_evicts_and_stays_correct() {
        let pdp = role_pdp(1);
        let doctor = Request::builder().subject("role", "doctor").build();
        let nurse = Request::builder().subject("role", "nurse").build();
        for _ in 0..3 {
            assert_eq!(pdp.evaluate(&doctor).decision, Decision::Permit);
            assert_eq!(pdp.evaluate(&nurse).decision, Decision::Deny);
        }
        assert_eq!(
            pdp.cache_evictions(),
            5,
            "each insert past the first evicts"
        );
        assert_eq!(pdp.cache_len(), 1);
    }

    #[test]
    fn lru_keeps_the_hot_entry_under_cold_churn() {
        // Capacity 2: one hot request re-touched between every cold miss
        // must never be evicted — churn only cycles the cold slot.
        let pdp = role_pdp(2);
        let hot = Request::builder().subject("role", "doctor").build();
        let _ = pdp.evaluate(&hot);
        for i in 0..8 {
            let cold = Request::builder()
                .subject("role", format!("intern-{i}"))
                .build();
            let _ = pdp.evaluate(&cold);
            let _ = pdp.evaluate(&hot); // refresh recency
        }
        let (hits, misses) = pdp.cache_stats();
        assert_eq!(hits, 8, "the hot entry hit on every revisit");
        assert_eq!(misses, 9, "1 hot miss + 8 distinct cold misses");
        assert_eq!(pdp.cache_evictions(), 7, "only cold entries cycled out");
    }

    #[test]
    fn eviction_counter_stays_zero_below_capacity() {
        let pdp = role_pdp(DEFAULT_CACHE_CAPACITY);
        for i in 0..16 {
            let _ = pdp.evaluate(&Request::builder().subject("role", format!("r{i}")).build());
        }
        assert_eq!(pdp.cache_evictions(), 0);
        assert_eq!(pdp.cache_len(), 16);
    }

    #[test]
    fn from_prepared_reuses_compilation() {
        let root = Arc::new(pdp().root().clone());
        let prepared = Arc::new(PreparedPolicySet::compile(&root));
        let pdp = Pdp::from_prepared(root, prepared.clone());
        assert_eq!(pdp.policy_version(), prepared.version_digest());
        assert!(pdp.evaluate(&Request::new()).is_permit());
    }

    // The check is a `debug_assert_eq!` on purpose (see `from_prepared`),
    // so there is no panic to expect under `cargo test --release`.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "prepared policy does not match")]
    fn from_prepared_rejects_mismatch() {
        let root = Arc::new(pdp().root().clone());
        let other = PolicySet::builder("other", CombiningAlg::DenyOverrides).build();
        let _ = Pdp::from_prepared(root, Arc::new(PreparedPolicySet::compile(&other)));
    }

    #[test]
    fn pdp_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pdp>();
    }
}
