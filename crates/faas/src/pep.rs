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

/// What a PEP does with non-definitive decisions (XACML §7.2.1 PEP
/// biases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnforcementBias {
    /// Deny-biased: anything but `Permit` is refused.
    DenyBiased,
    /// Permit-biased: anything but `Deny` is granted.
    PermitBiased,
}

impl EnforcementBias {
    /// Whether a PEP with this bias grants access on `decision`. The
    /// Analyser judges the enforced outcome by this same rule.
    #[must_use]
    pub fn grants(self, decision: Decision) -> bool {
        match self {
            EnforcementBias::DenyBiased => decision == Decision::Permit,
            EnforcementBias::PermitBiased => decision != Decision::Deny,
        }
    }
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
    /// The number [`Pep::intercept`] gives the next request.
    next_number: u64,
}

impl Pep {
    /// Creates a PEP for a tenant edge.
    #[must_use]
    pub fn new(id: PepId, tenant: TenantId, bias: EnforcementBias) -> Self {
        Pep {
            id,
            tenant,
            bias,
            next_number: 0,
        }
    }

    /// Intercepts an access attempt, producing the envelope to forward to
    /// the PDP.
    pub fn intercept(
        &mut self,
        service: impl Into<String>,
        request: drams_policy::attr::Request,
        issued_at: crate::des::SimTime,
    ) -> RequestEnvelope {
        let correlation = CorrelationId::numbered(self.id, self.next_number);
        self.next_number += 1;
        RequestEnvelope {
            correlation,
            tenant: self.tenant,
            pep: self.id,
            service: service.into(),
            request,
            issued_at,
        }
    }

    /// Enforces a decision received from the PDP under this PEP's bias.
    /// Returns `None` for a correlation this PEP never handed out (forged or
    /// misrouted). Whether the request is still awaiting its answer —
    /// not answered, not abandoned — is the caller's bookkeeping, which
    /// also holds its retry state.
    pub fn enforce(&mut self, response: &ResponseEnvelope) -> Option<Enforcement> {
        let (pep, n) = response.correlation.pep_number();
        if pep != self.id || n >= self.next_number {
            return None;
        }
        let decision = response.response.decision;
        Some(Enforcement {
            decision,
            granted: self.bias.grants(decision),
        })
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
        let real = respond(&env, ExtDecision::Permit);
        // Another PEP's namespace, and this PEP's next, still unused number.
        for forged in [CorrelationId(999), CorrelationId(env.correlation.0 + 1)] {
            let mut resp = real.clone();
            resp.correlation = forged;
            assert!(p.enforce(&resp).is_none(), "{forged:?}");
        }
        assert!(p.enforce(&real).is_some());
    }
}
