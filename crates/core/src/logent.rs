//! The access-log entry schema.
//!
//! Every access transaction is observed at four points (the "4-quadrant"
//! protocol, DESIGN.md §2): the request as the PEP sends it, the request
//! as the PDP receives it, the response as the PDP sends it, and the
//! response as the PEP receives it. Probes turn each observation into a
//! [`LogEntry`]: a plaintext digest for on-chain comparison, a sealed
//! payload for the Analyser, and a per-probe MAC so even a compromised
//! Logging Interface cannot forge or alter entries unnoticed.

use drams_crypto::aead::SealedBox;
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::hmac::HmacKey;
use drams_crypto::sha256::Digest;
use drams_crypto::CryptoError;
use drams_faas::des::SimTime;
use drams_faas::msg::CorrelationId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four observation points of one access transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ObservationPoint {
    /// The request as the PEP forwards it.
    PepRequest,
    /// The request as the PDP receives it.
    PdpRequest,
    /// The response as the PDP sends it.
    PdpResponse,
    /// The response as the PEP receives (and enforces) it.
    PepResponse,
}

impl ObservationPoint {
    /// All four points in protocol order.
    pub const ALL: [ObservationPoint; 4] = [
        ObservationPoint::PepRequest,
        ObservationPoint::PdpRequest,
        ObservationPoint::PdpResponse,
        ObservationPoint::PepResponse,
    ];

    /// Bit used in the contract's completeness bitmask.
    #[must_use]
    pub fn bit(&self) -> u8 {
        match self {
            ObservationPoint::PepRequest => 1,
            ObservationPoint::PdpRequest => 2,
            ObservationPoint::PdpResponse => 4,
            ObservationPoint::PepResponse => 8,
        }
    }

    /// Compact code for storage keys.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            ObservationPoint::PepRequest => 0,
            ObservationPoint::PdpRequest => 1,
            ObservationPoint::PdpResponse => 2,
            ObservationPoint::PepResponse => 3,
        }
    }

    /// Inverse of [`ObservationPoint::code`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] for unknown codes.
    pub fn from_code(code: u8) -> Result<Self, CryptoError> {
        ObservationPoint::ALL
            .get(code as usize)
            .copied()
            .ok_or_else(|| CryptoError::Malformed(format!("observation point code {code}")))
    }
}

impl fmt::Display for ObservationPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObservationPoint::PepRequest => "pep-request",
            ObservationPoint::PdpRequest => "pdp-request",
            ObservationPoint::PdpResponse => "pdp-response",
            ObservationPoint::PepResponse => "pep-response",
        };
        f.write_str(s)
    }
}

/// Identifier of a probing agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProbeId(pub u32);

impl fmt::Display for ProbeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probe-{}", self.0)
    }
}

/// One observation, as submitted to the monitor contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Correlates the four observations of one transaction.
    pub correlation: CorrelationId,
    /// Which of the four points this is.
    pub point: ObservationPoint,
    /// The observing probe.
    pub probe: ProbeId,
    /// SHA-256 of the observed envelope's canonical encoding — the value
    /// the contract compares across probes.
    pub digest: Digest,
    /// Policy version the PDP reported (response points only).
    pub policy_version: Option<Digest>,
    /// Virtual time of the observation.
    pub observed_at: SimTime,
    /// The observed envelope, encrypted under the federation key *K*
    /// (blockchain data is public — paper §II).
    pub sealed_payload: SealedBox,
    /// HMAC over the comparable fields under the probe's TPM-held key;
    /// verified by the Analyser to detect a compromised Logging Interface.
    pub probe_mac: Digest,
}

impl LogEntry {
    /// The fields bound by [`LogEntry::probe_mac`].
    #[must_use]
    pub fn mac_input(
        correlation: CorrelationId,
        point: ObservationPoint,
        probe: ProbeId,
        digest: &Digest,
        observed_at: SimTime,
        sealed_payload: &SealedBox,
    ) -> Vec<u8> {
        let mut bytes = Self::mac_head(
            correlation,
            point,
            probe,
            digest,
            observed_at,
            sealed_payload,
        );
        bytes.extend_from_slice(&sealed_payload.ciphertext);
        bytes.extend_from_slice(sealed_payload.tag.as_bytes());
        bytes
    }

    /// [`LogEntry::mac_input`] up to and including the ciphertext's length
    /// prefix: the part that is not already lying in the entry as bytes.
    fn mac_head(
        correlation: CorrelationId,
        point: ObservationPoint,
        probe: ProbeId,
        digest: &Digest,
        observed_at: SimTime,
        sealed_payload: &SealedBox,
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(correlation.0);
        w.put_u8(point.code());
        w.put_u32(probe.0);
        digest.encode(&mut w);
        w.put_u64(observed_at);
        w.put_raw(&sealed_payload.nonce);
        w.put_varint(sealed_payload.ciphertext.len() as u64);
        w.into_bytes()
    }

    /// Computes the probe MAC under an already keyed context — what a
    /// probe and the Analyser, which hold their keys for a whole run, use.
    /// The ciphertext and tag are hashed where they lie, not copied first.
    #[must_use]
    pub(crate) fn compute_mac_with(&self, mac_key: &HmacKey) -> Digest {
        let head = Self::mac_head(
            self.correlation,
            self.point,
            self.probe,
            &self.digest,
            self.observed_at,
            &self.sealed_payload,
        );
        mac_key.mac_parts(&[
            &head,
            &self.sealed_payload.ciphertext,
            self.sealed_payload.tag.as_bytes(),
        ])
    }

    /// Verifies the probe MAC under an already keyed context.
    #[must_use]
    pub(crate) fn verify_mac_with(&self, mac_key: &HmacKey) -> bool {
        drams_crypto::ct_eq(
            self.compute_mac_with(mac_key).as_bytes(),
            self.probe_mac.as_bytes(),
        )
    }

    /// Computes the probe MAC with `mac_key`, keying a context for this
    /// one tag.
    #[must_use]
    pub fn compute_mac(&self, mac_key: &[u8; 32]) -> Digest {
        self.compute_mac_with(&HmacKey::new(mac_key))
    }

    /// Verifies the probe MAC with `mac_key`, keying a context for this
    /// one check.
    #[must_use]
    pub fn verify_mac(&self, mac_key: &[u8; 32]) -> bool {
        self.verify_mac_with(&HmacKey::new(mac_key))
    }

    /// Wire size in bytes (drives the log-size experiment E1).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.to_canonical_bytes().len()
    }
}

impl Encode for LogEntry {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.correlation.0);
        w.put_u8(self.point.code());
        w.put_u32(self.probe.0);
        self.digest.encode(w);
        match &self.policy_version {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
        w.put_u64(self.observed_at);
        w.put_raw(&self.sealed_payload.nonce);
        w.put_bytes(&self.sealed_payload.ciphertext);
        self.sealed_payload.tag.encode(w);
        self.probe_mac.encode(w);
    }
}

impl Decode for LogEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let correlation = CorrelationId(r.get_u64()?);
        let point = ObservationPoint::from_code(r.get_u8()?)?;
        let probe = ProbeId(r.get_u32()?);
        let digest = Digest::decode(r)?;
        let policy_version = match r.get_u8()? {
            0 => None,
            1 => Some(Digest::decode(r)?),
            other => return Err(CryptoError::Malformed(format!("version tag {other}"))),
        };
        let observed_at = r.get_u64()?;
        let nonce = r.get_array::<12>()?;
        let ciphertext = r.get_bytes()?;
        let tag = Digest::decode(r)?;
        let probe_mac = Digest::decode(r)?;
        Ok(LogEntry {
            correlation,
            point,
            probe,
            digest,
            policy_version,
            observed_at,
            sealed_payload: SealedBox {
                nonce,
                ciphertext,
                tag,
            },
            probe_mac,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_crypto::aead::{seal, SymmetricKey};

    fn entry() -> LogEntry {
        let k = SymmetricKey::from_bytes([1; 32]);
        let sealed = seal(&k, [2; 12], b"aad", b"the envelope bytes");
        let mut e = LogEntry {
            correlation: CorrelationId(42),
            point: ObservationPoint::PdpResponse,
            probe: ProbeId(3),
            digest: Digest::of(b"envelope"),
            policy_version: Some(Digest::of(b"policy-v1")),
            observed_at: 12_345,
            sealed_payload: sealed,
            probe_mac: Digest::ZERO,
        };
        e.probe_mac = e.compute_mac(&[9; 32]);
        e
    }

    #[test]
    fn codec_round_trip() {
        let e = entry();
        let bytes = e.to_canonical_bytes();
        assert_eq!(LogEntry::from_canonical_bytes(&bytes).unwrap(), e);
    }

    /// The probe MAC is an on-chain byte string: however its input is fed
    /// to the HMAC, these bytes must not change.
    #[test]
    fn probe_mac_is_pinned() {
        let e = entry();
        assert_eq!(
            e.sealed_payload.tag.to_hex(),
            "cf52aacc3f57be9219d1fbfb392523a0bb728e0a112ced2e015798e29cd53638"
        );
        assert_eq!(
            e.probe_mac.to_hex(),
            "0467488415a5201cc803b0938e3a3cb8ba07ad52e354e68dcbbf134fabebd17e"
        );
    }

    #[test]
    fn streamed_mac_is_the_hmac_of_mac_input() {
        let e = entry();
        let input = LogEntry::mac_input(
            e.correlation,
            e.point,
            e.probe,
            &e.digest,
            e.observed_at,
            &e.sealed_payload,
        );
        assert_eq!(
            e.probe_mac,
            drams_crypto::hmac::hmac_sha256(&[9; 32], &input)
        );
        let keyed = HmacKey::new(&[9; 32]);
        assert_eq!(e.compute_mac_with(&keyed), e.probe_mac);
        assert!(e.verify_mac_with(&keyed));
        assert!(!e.verify_mac_with(&HmacKey::new(&[8; 32])));
    }

    #[test]
    fn mac_verifies_and_rejects() {
        let e = entry();
        assert!(e.verify_mac(&[9; 32]));
        assert!(!e.verify_mac(&[8; 32]));
        let mut tampered = e.clone();
        tampered.digest = Digest::of(b"other");
        assert!(!tampered.verify_mac(&[9; 32]));
        let mut tampered = e;
        tampered.sealed_payload.ciphertext[0] ^= 1;
        assert!(!tampered.verify_mac(&[9; 32]));
    }

    #[test]
    fn observation_point_codes_round_trip() {
        for p in ObservationPoint::ALL {
            assert_eq!(ObservationPoint::from_code(p.code()).unwrap(), p);
        }
        assert!(ObservationPoint::from_code(9).is_err());
    }

    #[test]
    fn bits_are_distinct() {
        let mut mask = 0u8;
        for p in ObservationPoint::ALL {
            assert_eq!(mask & p.bit(), 0);
            mask |= p.bit();
        }
        assert_eq!(mask, 0b1111);
    }

    #[test]
    fn request_points_have_no_policy_version() {
        let mut e = entry();
        e.point = ObservationPoint::PepRequest;
        e.policy_version = None;
        let bytes = e.to_canonical_bytes();
        assert_eq!(LogEntry::from_canonical_bytes(&bytes).unwrap(), e);
    }

    #[test]
    fn wire_len_tracks_payload() {
        let k = SymmetricKey::from_bytes([1; 32]);
        let mut small = entry();
        small.sealed_payload = seal(&k, [0; 12], b"", &vec![0u8; 64]);
        let mut large = entry();
        large.sealed_payload = seal(&k, [0; 12], b"", &vec![0u8; 4096]);
        assert!(large.wire_len() > small.wire_len() + 4000);
    }
}
