//! Message envelopes exchanged between PEPs and the PDP.
//!
//! DRAMS probes hash exactly these envelopes: the monitor contract
//! compares the digest of what the PEP sent with the digest of what the
//! PDP received (and symmetrically for responses), so the envelopes'
//! canonical encodings are the ground truth for tamper detection.

use crate::des::SimTime;
use crate::model::{PepId, TenantId};
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::sha256::Digest;
use drams_crypto::CryptoError;
use drams_policy::attr::Request;
use drams_policy::decision::Response;
use serde::{Deserialize, Serialize};

/// Correlates the four observation points of one access transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CorrelationId(pub u64);

impl CorrelationId {
    /// Request number `n` of `pep`: the PEP id in the high bits, so ids
    /// are unique across PEPs, and each PEP numbers its requests densely
    /// from `n = 0`.
    #[must_use]
    pub fn numbered(pep: PepId, n: u64) -> Self {
        CorrelationId(u64::from(pep.0) << 40 | n)
    }

    /// The PEP that numbered this id and its number there: the inverse
    /// of [`CorrelationId::numbered`].
    #[must_use]
    pub fn pep_number(self) -> (PepId, u64) {
        (PepId((self.0 >> 40) as u32), self.0 & ((1 << 40) - 1))
    }
}

impl std::fmt::Display for CorrelationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corr-{}", self.0)
    }
}

/// An access request on the wire between a PEP and the PDP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Correlation id assigned by the intercepting PEP.
    pub correlation: CorrelationId,
    /// The originating tenant.
    pub tenant: TenantId,
    /// The PEP that intercepted the request.
    pub pep: PepId,
    /// The target service.
    pub service: String,
    /// The XACML request.
    pub request: Request,
    /// Virtual time the subject issued the request.
    pub issued_at: SimTime,
}

impl RequestEnvelope {
    /// The digest probes log for this envelope.
    #[must_use]
    pub fn digest(&self) -> Digest {
        self.canonical_digest()
    }
}

impl Encode for RequestEnvelope {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.correlation.0);
        w.put_u32(self.tenant.0);
        w.put_u32(self.pep.0);
        w.put_str(&self.service);
        self.request.encode(w);
        w.put_u64(self.issued_at);
    }
}

impl Decode for RequestEnvelope {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(RequestEnvelope {
            correlation: CorrelationId(r.get_u64()?),
            tenant: TenantId(r.get_u32()?),
            pep: PepId(r.get_u32()?),
            service: r.get_str()?,
            request: Request::decode(r)?,
            issued_at: r.get_u64()?,
        })
    }
}

/// An access decision on the wire between the PDP and a PEP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// Correlation id copied from the request.
    pub correlation: CorrelationId,
    /// The PEP the decision is addressed to.
    pub pep: PepId,
    /// The PDP's response.
    pub response: Response,
    /// Digest of the policy version the PDP evaluated.
    pub policy_version: Digest,
    /// Virtual time the PDP produced the decision.
    pub decided_at: SimTime,
}

impl ResponseEnvelope {
    /// The digest probes log for this envelope.
    #[must_use]
    pub fn digest(&self) -> Digest {
        self.canonical_digest()
    }
}

impl Encode for ResponseEnvelope {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.correlation.0);
        w.put_u32(self.pep.0);
        self.response.encode(w);
        self.policy_version.encode(w);
        w.put_u64(self.decided_at);
    }
}

impl Decode for ResponseEnvelope {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(ResponseEnvelope {
            correlation: CorrelationId(r.get_u64()?),
            pep: PepId(r.get_u32()?),
            response: Response::decode(r)?,
            policy_version: Digest::decode(r)?,
            decided_at: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_policy::decision::ExtDecision;

    fn request_env() -> RequestEnvelope {
        RequestEnvelope {
            correlation: CorrelationId(7),
            tenant: TenantId(1),
            pep: PepId(1),
            service: "svc-1-0".into(),
            request: Request::builder().subject("role", "doctor").build(),
            issued_at: 1_000,
        }
    }

    #[test]
    fn request_envelope_round_trip() {
        let env = request_env();
        let bytes = env.to_canonical_bytes();
        assert_eq!(RequestEnvelope::from_canonical_bytes(&bytes).unwrap(), env);
    }

    #[test]
    fn response_envelope_round_trip() {
        let env = ResponseEnvelope {
            correlation: CorrelationId(7),
            pep: PepId(1),
            response: Response::new(ExtDecision::Permit, vec![]),
            policy_version: Digest::of(b"policy-v1"),
            decided_at: 2_000,
        };
        let bytes = env.to_canonical_bytes();
        assert_eq!(ResponseEnvelope::from_canonical_bytes(&bytes).unwrap(), env);
    }

    #[test]
    fn any_tampering_changes_digest() {
        let base = request_env();
        let d0 = base.digest();
        let mut changed = base.clone();
        changed.request = Request::builder().subject("role", "admin").build();
        assert_ne!(changed.digest(), d0);
        let mut changed = base.clone();
        changed.service = "other".into();
        assert_ne!(changed.digest(), d0);
        let mut changed = base;
        changed.correlation = CorrelationId(8);
        assert_ne!(changed.digest(), d0);
    }
}
