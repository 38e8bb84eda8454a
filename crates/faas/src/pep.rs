//! Policy Enforcement Points.
//!
//! PEPs sit at tenant edges (paper §I: "PEPs are instead deployed in a
//! distributed manner on the tenants edge, thus to intercept all
//! communications … and enforce the calculated accesses"). A PEP
//! intercepts each access, forwards it to the PDP and enforces the
//! returned decision with a configurable bias for the non-definitive
//! outcomes (`NotApplicable` / `Indeterminate`).

use crate::model::{PepId, TenantId};
use crate::msg::{CorrelationId, RequestEnvelope, ResponseEnvelope};
use drams_policy::decision::Decision;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// What a PEP does with non-definitive decisions (XACML §7.2.1 PEP
/// biases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnforcementBias {
    /// Deny-biased: anything but `Permit` is refused.
    DenyBiased,
    /// Permit-biased: anything but `Deny` is granted.
    PermitBiased,
}

/// Result of enforcing one decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Enforcement {
    /// The decision that was enforced.
    pub decision: Decision,
    /// Whether access was actually granted.
    pub granted: bool,
}

/// A Policy Enforcement Point.
#[derive(Debug)]
pub struct Pep {
    id: PepId,
    tenant: TenantId,
    bias: EnforcementBias,
    next_correlation: u64,
    /// Correlations forwarded and not yet answered or abandoned.
    pending: HashSet<CorrelationId>,
    granted: u64,
    refused: u64,
}

impl Pep {
    /// Creates a PEP for a tenant edge.
    #[must_use]
    pub fn new(id: PepId, tenant: TenantId, bias: EnforcementBias) -> Self {
        // Correlation ids are globally unique by namespacing with the PEP
        // id in the high bits.
        let next_correlation = (u64::from(id.0)) << 40;
        Pep {
            id,
            tenant,
            bias,
            next_correlation,
            pending: HashSet::new(),
            granted: 0,
            refused: 0,
        }
    }

    /// This PEP's id.
    #[must_use]
    pub fn id(&self) -> PepId {
        self.id
    }

    /// The tenant this PEP guards.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The enforcement bias in force.
    #[must_use]
    pub fn bias(&self) -> EnforcementBias {
        self.bias
    }

    /// Intercepts an access attempt, producing the envelope to forward to
    /// the PDP.
    pub fn intercept(
        &mut self,
        service: impl Into<String>,
        request: drams_policy::attr::Request,
        issued_at: crate::des::SimTime,
    ) -> RequestEnvelope {
        let correlation = CorrelationId(self.next_correlation);
        self.next_correlation += 1;
        self.pending.insert(correlation);
        RequestEnvelope {
            correlation,
            tenant: self.tenant,
            pep: self.id,
            service: service.into(),
            request,
            issued_at,
        }
    }

    /// Enforces a decision received from the PDP. Returns `None` for
    /// responses that do not correlate with a pending request (stale or
    /// forged).
    pub fn enforce(&mut self, response: &ResponseEnvelope) -> Option<Enforcement> {
        if !self.pending.remove(&response.correlation) {
            return None;
        }
        let decision = response.response.decision;
        let granted = match self.bias {
            EnforcementBias::DenyBiased => decision == Decision::Permit,
            EnforcementBias::PermitBiased => decision != Decision::Deny,
        };
        if granted {
            self.granted += 1;
        } else {
            self.refused += 1;
        }
        Some(Enforcement { decision, granted })
    }

    /// Abandons a pending request whose deadline budget is exhausted
    /// (the PDP stayed unreachable through every retry). Returns `true`
    /// when the correlation was actually pending; a response arriving
    /// after abandonment is treated as stale by [`enforce`](Self::enforce).
    pub fn abandon(&mut self, correlation: CorrelationId) -> bool {
        self.pending.remove(&correlation)
    }

    /// Requests forwarded but not yet answered.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// `(granted, refused)` counters.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.granted, self.refused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_crypto::sha256::Digest;
    use drams_policy::attr::Request;
    use drams_policy::decision::{ExtDecision, Response};

    fn pep(bias: EnforcementBias) -> Pep {
        Pep::new(PepId(3), TenantId(3), bias)
    }

    fn respond(env: &RequestEnvelope, ext: ExtDecision) -> ResponseEnvelope {
        ResponseEnvelope {
            correlation: env.correlation,
            pep: env.pep,
            response: Response::new(ext, vec![]),
            policy_version: Digest::ZERO,
            decided_at: 10,
        }
    }

    #[test]
    fn correlation_ids_are_unique_and_namespaced() {
        let mut p = pep(EnforcementBias::DenyBiased);
        let a = p.intercept("svc", Request::new(), 0);
        let b = p.intercept("svc", Request::new(), 1);
        assert_ne!(a.correlation, b.correlation);
        assert_eq!(a.correlation.0 >> 40, 3);
    }

    #[test]
    fn deny_biased_enforcement() {
        let mut p = pep(EnforcementBias::DenyBiased);
        for (ext, expect_granted) in [
            (ExtDecision::Permit, true),
            (ExtDecision::Deny, false),
            (ExtDecision::NotApplicable, false),
            (ExtDecision::IndeterminateDP, false),
        ] {
            let env = p.intercept("svc", Request::new(), 0);
            let e = p.enforce(&respond(&env, ext)).unwrap();
            assert_eq!(e.granted, expect_granted, "{ext:?}");
        }
        let (granted, refused) = p.counters();
        assert_eq!((granted, refused), (1, 3));
    }

    #[test]
    fn permit_biased_enforcement() {
        let mut p = pep(EnforcementBias::PermitBiased);
        for (ext, expect_granted) in [
            (ExtDecision::Permit, true),
            (ExtDecision::Deny, false),
            (ExtDecision::NotApplicable, true),
            (ExtDecision::IndeterminateD, true),
        ] {
            let env = p.intercept("svc", Request::new(), 0);
            let e = p.enforce(&respond(&env, ext)).unwrap();
            assert_eq!(e.granted, expect_granted, "{ext:?}");
        }
    }

    #[test]
    fn uncorrelated_response_rejected() {
        let mut p = pep(EnforcementBias::DenyBiased);
        let env = p.intercept("svc", Request::new(), 0);
        let mut resp = respond(&env, ExtDecision::Permit);
        resp.correlation = CorrelationId(999);
        assert!(p.enforce(&resp).is_none());
        assert_eq!(p.pending_count(), 1);
        // replaying after the real one also fails
        let real = respond(&env, ExtDecision::Permit);
        assert!(p.enforce(&real).is_some());
        assert!(p.enforce(&real).is_none());
    }

    #[test]
    fn abandoned_requests_reject_late_responses() {
        let mut p = pep(EnforcementBias::DenyBiased);
        let env = p.intercept("svc", Request::new(), 0);
        assert!(p.abandon(env.correlation));
        assert!(!p.abandon(env.correlation), "second abandon is a no-op");
        assert_eq!(p.pending_count(), 0);
        // The response finally limps in after the give-up: stale.
        assert!(p.enforce(&respond(&env, ExtDecision::Permit)).is_none());
        assert_eq!(p.counters(), (0, 0));
    }
}
