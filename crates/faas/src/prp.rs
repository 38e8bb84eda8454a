//! The Policy Retrieval Point: versioned policy storage.
//!
//! The PRP lives with the PDP in the infrastructure tenant (paper Figure
//! 1). It keeps the full version history of the federation policy; the
//! DRAMS Analyser pins its authorised copy to a PRP version digest, which
//! is what makes unauthorised policy swaps at the PDP detectable.
//!
//! Every published version is **compiled once** at publication time
//! (`drams_policy::compiled`), so activating a version — including
//! rolling back to an old one — hands the PDP a ready-to-run
//! [`PreparedPolicySet`] instead of stalling the decision path on
//! recompilation.

use drams_crypto::sha256::Digest;
use drams_policy::compiled::PreparedPolicySet;
use drams_policy::pdp::Pdp;
use drams_policy::policy::PolicySet;
use std::sync::Arc;

/// One stored policy version.
///
/// A version is immutable once published, so both of its forms sit
/// behind an [`Arc`]: the PRP owns one source tree and one compiled tree
/// per version, and every PDP built from it — one per slot, plus one per
/// crash-restart and per activation — shares them. [`PolicyVersion::pdp`]
/// and `clone` cost two reference counts, not a copy of the policy base.
#[derive(Debug, Clone)]
pub struct PolicyVersion {
    /// Monotonic version number (0-based).
    pub number: u64,
    /// Digest of the canonical encoding.
    pub digest: Digest,
    /// The policy itself (source tree).
    pub policy: Arc<PolicySet>,
    /// The compiled form, built once at publication.
    pub prepared: Arc<PreparedPolicySet>,
}

impl PolicyVersion {
    /// Builds a PDP serving this version, sharing both the source tree
    /// and the compiled form.
    #[must_use]
    pub fn pdp(&self) -> Pdp {
        Pdp::from_prepared(self.policy.clone(), self.prepared.clone())
    }
}

/// A versioned policy store.
#[derive(Debug)]
pub struct Prp {
    versions: Vec<PolicyVersion>,
}

impl Prp {
    /// Creates a PRP with an initial policy (version 0).
    #[must_use]
    pub fn new(initial: PolicySet) -> Self {
        Prp {
            versions: vec![Self::version_entry(0, initial)],
        }
    }

    /// Publishes a new policy version; returns its version number.
    pub fn publish(&mut self, policy: PolicySet) -> u64 {
        let number = self.versions.len() as u64;
        self.versions.push(Self::version_entry(number, policy));
        number
    }

    fn version_entry(number: u64, policy: PolicySet) -> PolicyVersion {
        let prepared = Arc::new(PreparedPolicySet::compile(&policy));
        PolicyVersion {
            number,
            digest: prepared.version_digest(),
            policy: Arc::new(policy),
            prepared,
        }
    }

    /// The active (latest) version.
    #[must_use]
    pub fn active(&self) -> &PolicyVersion {
        self.versions.last().expect("at least the initial version")
    }

    /// Looks a version up by number.
    #[must_use]
    pub fn version(&self, number: u64) -> Option<&PolicyVersion> {
        self.versions.get(number as usize)
    }

    /// Looks a version up by digest.
    #[must_use]
    pub fn by_digest(&self, digest: &Digest) -> Option<&PolicyVersion> {
        self.versions.iter().find(|v| v.digest == *digest)
    }

    /// Number of stored versions.
    #[must_use]
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_policy::combining::CombiningAlg;
    use drams_policy::decision::Effect;
    use drams_policy::policy::Policy;
    use drams_policy::rule::Rule;

    fn policy(id: &str) -> PolicySet {
        PolicySet::builder(id, CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("p", CombiningAlg::PermitOverrides)
                    .rule(Rule::always("r", Effect::Permit))
                    .build(),
            )
            .build()
    }

    #[test]
    fn initial_version_is_zero() {
        let prp = Prp::new(policy("v0"));
        assert_eq!(prp.active().number, 0);
        assert_eq!(prp.version_count(), 1);
    }

    #[test]
    fn publish_advances_active() {
        let mut prp = Prp::new(policy("v0"));
        let n = prp.publish(policy("v1"));
        assert_eq!(n, 1);
        assert_eq!(prp.active().number, 1);
        assert_eq!(prp.active().policy.id, "v1");
        // the old version stays retrievable
        assert_eq!(prp.version(0).unwrap().policy.id, "v0");
    }

    #[test]
    fn lookup_by_digest() {
        let mut prp = Prp::new(policy("v0"));
        prp.publish(policy("v1"));
        let digest = prp.version(0).unwrap().digest;
        assert_eq!(prp.by_digest(&digest).unwrap().number, 0);
        assert!(prp.by_digest(&Digest::of(b"nope")).is_none());
    }

    #[test]
    fn digests_track_policy_content() {
        let mut prp = Prp::new(policy("same"));
        prp.publish(policy("same"));
        // identical content ⇒ identical digest even across versions
        assert_eq!(
            prp.version(0).unwrap().digest,
            prp.version(1).unwrap().digest
        );
        prp.publish(policy("different"));
        assert_ne!(
            prp.version(0).unwrap().digest,
            prp.version(2).unwrap().digest
        );
    }

    #[test]
    fn versions_are_precompiled_and_serve_pdps() {
        use drams_policy::attr::Request;
        let mut prp = Prp::new(policy("v0"));
        prp.publish(policy("v1"));
        for v in 0..2 {
            let version = prp.version(v).unwrap();
            assert_eq!(version.prepared.version_digest(), version.digest);
            let pdp = version.pdp();
            assert_eq!(pdp.policy_version(), version.digest);
            assert!(pdp.evaluate(&Request::new()).is_permit());
        }
    }
}
