//! Probing agents.
//!
//! Paper §I: DRAMS includes "distributed logging probes which sense access
//! control activities and intercept access requests and decisions." A
//! probe is attached to a PEP or to the PDP; for every envelope it sees it
//! produces a [`LogEntry`]: digest for on-chain comparison, sealed payload
//! for the Analyser, and a MAC under a key the probe obtained from its
//! tenant's TPM (so the Logging Interface never holds it).

use crate::logent::{payload_aad, LogEntry, ObservationPoint, ProbeId};
use drams_crypto::aead::{seal, SymmetricKey};
use drams_crypto::codec::{Encode, Writer};
use drams_crypto::hmac::HmacKey;
use drams_crypto::sha256::Digest;
use drams_faas::des::SimTime;
use drams_faas::msg::{CorrelationId, RequestEnvelope, ResponseEnvelope};

/// A probing agent attached to one monitored component.
#[derive(Debug)]
pub struct Probe {
    id: ProbeId,
    /// Federation-wide encryption key *K* (shared with the LIs).
    payload_key: SymmetricKey,
    /// Per-probe MAC key, provisioned from the tenant TPM, keyed once for
    /// every observation the probe will make.
    mac_key: HmacKey,
    sequence: u64,
    /// Where each observed envelope is encoded, to be hashed and sealed:
    /// kept, so an observation allocates only the entry it returns.
    plaintext: Writer,
}

impl Probe {
    /// Creates a probe with its two keys.
    #[must_use]
    pub fn new(id: ProbeId, payload_key: SymmetricKey, mac_key: [u8; 32]) -> Self {
        Probe::resume(id, payload_key, mac_key, 0)
    }

    /// Rebuilds a probe that has already made `observations`
    /// observations, so its next nonce is the one it would have used had
    /// it never stopped: a nonce is never sealed under twice.
    #[must_use]
    pub(crate) fn resume(
        id: ProbeId,
        payload_key: SymmetricKey,
        mac_key: [u8; 32],
        observations: u64,
    ) -> Self {
        Probe {
            id,
            payload_key,
            mac_key: HmacKey::new(&mac_key),
            sequence: observations,
            plaintext: Writer::new(),
        }
    }

    /// The probe's id.
    #[must_use]
    pub fn id(&self) -> ProbeId {
        self.id
    }

    /// Number of observations produced so far.
    #[must_use]
    pub(crate) fn observations(&self) -> u64 {
        self.sequence
    }

    fn next_nonce(&mut self) -> [u8; 12] {
        // Unique per (probe, sequence): 4 bytes probe id + 8 bytes counter.
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&self.id.0.to_be_bytes());
        nonce[4..].copy_from_slice(&self.sequence.to_be_bytes());
        self.sequence += 1;
        nonce
    }

    /// Builds the entry for one observed envelope: its digest, the
    /// envelope sealed — followed by the enforcement flag, when there is
    /// one — and the probe MAC.
    fn observe(
        &mut self,
        correlation: CorrelationId,
        point: ObservationPoint,
        envelope: &impl Encode,
        policy_version: Option<Digest>,
        granted: Option<bool>,
        observed_at: SimTime,
    ) -> LogEntry {
        self.plaintext.clear();
        envelope.encode(&mut self.plaintext);
        let digest = Digest::of(self.plaintext.as_bytes());
        if let Some(granted) = granted {
            self.plaintext.put_u8(u8::from(granted));
        }
        let nonce = self.next_nonce();
        // AAD binds the ciphertext to its header fields.
        let aad = payload_aad(correlation, point, &digest);
        let sealed_payload = seal(&self.payload_key, nonce, &aad, self.plaintext.as_bytes());
        let mut entry = LogEntry {
            correlation,
            point,
            probe: self.id,
            digest,
            policy_version,
            observed_at,
            sealed_payload,
            probe_mac: Digest::ZERO,
        };
        entry.probe_mac = entry.compute_mac_with(&self.mac_key);
        entry
    }

    /// Observes a request envelope at the given point
    /// ([`ObservationPoint::PepRequest`] or
    /// [`ObservationPoint::PdpRequest`]).
    pub fn observe_request(
        &mut self,
        point: ObservationPoint,
        envelope: &RequestEnvelope,
        observed_at: SimTime,
    ) -> LogEntry {
        debug_assert!(matches!(
            point,
            ObservationPoint::PepRequest | ObservationPoint::PdpRequest
        ));
        self.observe(
            envelope.correlation,
            point,
            envelope,
            None,
            None,
            observed_at,
        )
    }

    /// Observes a response envelope at [`ObservationPoint::PdpResponse`].
    pub fn observe_pdp_response(
        &mut self,
        envelope: &ResponseEnvelope,
        observed_at: SimTime,
    ) -> LogEntry {
        self.observe(
            envelope.correlation,
            ObservationPoint::PdpResponse,
            envelope,
            Some(envelope.policy_version),
            None,
            observed_at,
        )
    }

    /// Observes a response at the PEP, together with what the PEP actually
    /// did ([`ObservationPoint::PepResponse`]). The enforcement flag rides
    /// inside the sealed payload: the digest covers the envelope alone so
    /// transit-tampering comparison stays exact, while the Analyser can
    /// still check enforcement after decrypting.
    pub fn observe_pep_response(
        &mut self,
        envelope: &ResponseEnvelope,
        granted: bool,
        observed_at: SimTime,
    ) -> LogEntry {
        self.observe(
            envelope.correlation,
            ObservationPoint::PepResponse,
            envelope,
            Some(envelope.policy_version),
            Some(granted),
            observed_at,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_faas::model::{PepId, TenantId};
    use drams_policy::attr::Request;
    use drams_policy::decision::{ExtDecision, Response};

    fn probe() -> Probe {
        Probe::new(ProbeId(1), SymmetricKey::from_bytes([1; 32]), [2; 32])
    }

    fn request_env() -> RequestEnvelope {
        RequestEnvelope {
            correlation: CorrelationId(5),
            tenant: TenantId(1),
            pep: PepId(1),
            service: "svc".into(),
            request: Request::builder().subject("role", "doctor").build(),
            issued_at: 100,
        }
    }

    fn response_env() -> ResponseEnvelope {
        ResponseEnvelope {
            correlation: CorrelationId(5),
            pep: PepId(1),
            response: Response::new(ExtDecision::Permit, vec![]),
            policy_version: Digest::of(b"v1"),
            decided_at: 200,
        }
    }

    #[test]
    fn same_envelope_same_digest_across_probes() {
        // The core tamper-detection invariant: two honest probes observing
        // the same envelope produce the same digest.
        let mut pep_probe = probe();
        let mut pdp_probe = Probe::new(ProbeId(2), SymmetricKey::from_bytes([1; 32]), [3; 32]);
        let env = request_env();
        let a = pep_probe.observe_request(ObservationPoint::PepRequest, &env, 100);
        let b = pdp_probe.observe_request(ObservationPoint::PdpRequest, &env, 150);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.probe, b.probe);
    }

    #[test]
    fn tampered_envelope_changes_digest() {
        let mut p1 = probe();
        let mut p2 = Probe::new(ProbeId(2), SymmetricKey::from_bytes([1; 32]), [3; 32]);
        let env = request_env();
        let a = p1.observe_request(ObservationPoint::PepRequest, &env, 100);
        let mut tampered = env;
        tampered.request = Request::builder().subject("role", "admin").build();
        let b = p2.observe_request(ObservationPoint::PdpRequest, &tampered, 150);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn entries_have_valid_macs() {
        let mut p = probe();
        let entry = p.observe_request(ObservationPoint::PepRequest, &request_env(), 100);
        assert!(entry.verify_mac(&[2; 32]));
        assert!(!entry.verify_mac(&[9; 32]));
    }

    #[test]
    fn payload_decrypts_to_envelope() {
        use drams_crypto::aead::open;
        use drams_crypto::codec::Decode;
        let mut p = probe();
        let env = request_env();
        let entry = p.observe_request(ObservationPoint::PepRequest, &env, 100);
        let mut aad = Vec::new();
        aad.extend_from_slice(&entry.correlation.0.to_be_bytes());
        aad.push(entry.point.code());
        aad.extend_from_slice(entry.digest.as_bytes());
        let plain = open(
            &SymmetricKey::from_bytes([1; 32]),
            &aad,
            &entry.sealed_payload,
        )
        .unwrap();
        assert_eq!(RequestEnvelope::from_canonical_bytes(&plain).unwrap(), env);
    }

    #[test]
    fn pep_response_carries_enforcement_flag() {
        use drams_crypto::aead::open;
        let mut p = probe();
        let env = response_env();
        let entry = p.observe_pep_response(&env, true, 300);
        let mut aad = Vec::new();
        aad.extend_from_slice(&entry.correlation.0.to_be_bytes());
        aad.push(entry.point.code());
        aad.extend_from_slice(entry.digest.as_bytes());
        let plain = open(
            &SymmetricKey::from_bytes([1; 32]),
            &aad,
            &entry.sealed_payload,
        )
        .unwrap();
        assert_eq!(*plain.last().unwrap(), 1u8);
        // Digest covers the envelope only, not the flag: a probe seeing
        // the same envelope with different enforcement has equal digest.
        let entry2 = p.observe_pep_response(&env, false, 300);
        assert_eq!(entry.digest, entry2.digest);
    }

    #[test]
    fn nonces_never_repeat() {
        let mut p = probe();
        let env = request_env();
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            let e = p.observe_request(ObservationPoint::PepRequest, &env, i);
            assert!(seen.insert(e.sealed_payload.nonce), "nonce reuse at {i}");
        }
        assert_eq!(p.observations(), 100);
        // A probe resumed at the count seals where the first stopped.
        let mut resumed =
            Probe::resume(ProbeId(1), SymmetricKey::from_bytes([1; 32]), [2; 32], 100);
        let e = resumed.observe_request(ObservationPoint::PepRequest, &env, 100);
        assert_eq!(
            e,
            p.observe_request(ObservationPoint::PepRequest, &env, 100)
        );
    }

    #[test]
    fn pdp_response_records_policy_version() {
        let mut p = probe();
        let entry = p.observe_pdp_response(&response_env(), 250);
        assert_eq!(entry.policy_version, Some(Digest::of(b"v1")));
    }
}
