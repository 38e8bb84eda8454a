//! The access-log entry schema.
//!
//! Every access transaction is observed at four points (the "4-quadrant"
//! protocol, DESIGN.md §2): the request as the PEP sends it, the request
//! as the PDP receives it, the response as the PDP sends it, and the
//! response as the PEP receives it. Probes turn each observation into a
//! [`LogEntry`]: a plaintext digest for on-chain comparison, a sealed
//! payload for the Analyser, and a per-probe MAC so even a compromised
//! Logging Interface cannot forge or alter entries unnoticed.
//!
//! An entry is built once, by its probe, and read many times: by the
//! monitor contract on every node and by the Analyser. The readers work
//! on the canonical bytes where they lie. [`LogEntryRef`] decodes an
//! entry as a view that borrows its ciphertext instead of copying it,
//! [`LogEntry::stored_digest`] reads the digest straight from its fixed
//! offset ([`DIGEST_OFFSET`]), and the probe MAC's fixed-size head is
//! built in a stack buffer and streamed into the HMAC beside the
//! ciphertext, so checking or computing a MAC allocates nothing.

use drams_crypto::aead::{open_into, SealedBox, SymmetricKey};
use drams_crypto::codec::{varint, Decode, Encode, Reader, Writer, MAX_VARINT_LEN};
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

/// Where an entry's digest sits in its canonical encoding: after the
/// correlation (8 bytes), the point (1) and the probe (4).
pub const DIGEST_OFFSET: usize = 13;

/// Length of the associated data binding a sealed payload to its entry:
/// correlation, point and digest.
pub(crate) const PAYLOAD_AAD_LEN: usize = 8 + 1 + 32;

/// Longest MAC head (see [`LogEntryRef::mac_head`]): correlation, point,
/// probe, digest, observation time, nonce and the ciphertext's length.
const MAC_HEAD_MAX: usize = 8 + 1 + 4 + 32 + 8 + 12 + MAX_VARINT_LEN;

/// The associated data a probe seals an entry's payload under, binding
/// the ciphertext to the entry's header.
#[must_use]
pub(crate) fn payload_aad(
    correlation: CorrelationId,
    point: ObservationPoint,
    digest: &Digest,
) -> [u8; PAYLOAD_AAD_LEN] {
    let mut aad = [0u8; PAYLOAD_AAD_LEN];
    aad[..8].copy_from_slice(&correlation.0.to_be_bytes());
    aad[8] = point.code();
    aad[9..].copy_from_slice(digest.as_bytes());
    aad
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
        let view = LogEntryRef {
            correlation,
            point,
            probe,
            digest: *digest,
            policy_version: None,
            observed_at,
            nonce: sealed_payload.nonce,
            ciphertext: &sealed_payload.ciphertext,
            tag: sealed_payload.tag,
            probe_mac: Digest::ZERO,
        };
        let mut head = [0u8; MAC_HEAD_MAX];
        let head = view.mac_head(&mut head);
        [head, view.ciphertext, view.tag.as_bytes()].concat()
    }

    /// This entry as a [`LogEntryRef`] borrowing its ciphertext.
    #[must_use]
    pub fn view(&self) -> LogEntryRef<'_> {
        LogEntryRef {
            correlation: self.correlation,
            point: self.point,
            probe: self.probe,
            digest: self.digest,
            policy_version: self.policy_version,
            observed_at: self.observed_at,
            nonce: self.sealed_payload.nonce,
            ciphertext: &self.sealed_payload.ciphertext,
            tag: self.sealed_payload.tag,
            probe_mac: self.probe_mac,
        }
    }

    /// Computes the probe MAC under an already keyed context — what a
    /// probe and the Analyser, which hold their keys for a whole run, use.
    #[must_use]
    pub(crate) fn compute_mac_with(&self, mac_key: &HmacKey) -> Digest {
        self.view().compute_mac_with(mac_key)
    }

    /// Verifies the probe MAC under an already keyed context.
    #[must_use]
    pub(crate) fn verify_mac_with(&self, mac_key: &HmacKey) -> bool {
        self.view().verify_mac_with(mac_key)
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

    /// The digest of the entry whose canonical encoding is `bytes`, read
    /// in place at [`DIGEST_OFFSET`] without decoding anything else —
    /// for bytes known to be an entry's encoding, such as the monitor
    /// contract's own stored records.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Malformed`] when `bytes` end before the digest does.
    pub fn stored_digest(bytes: &[u8]) -> Result<Digest, CryptoError> {
        let mut r = Reader::new(bytes.get(DIGEST_OFFSET..).unwrap_or_default());
        Digest::decode(&mut r)
    }
}

/// A [`LogEntry`] decoded where its canonical bytes lie: every field but
/// the ciphertext is copied out (they are fixed-size), the ciphertext is
/// borrowed. What the monitor contract and the Analyser read entries as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogEntryRef<'a> {
    /// See [`LogEntry::correlation`].
    pub correlation: CorrelationId,
    /// See [`LogEntry::point`].
    pub point: ObservationPoint,
    /// See [`LogEntry::probe`].
    pub probe: ProbeId,
    /// See [`LogEntry::digest`].
    pub digest: Digest,
    /// See [`LogEntry::policy_version`].
    pub policy_version: Option<Digest>,
    /// See [`LogEntry::observed_at`].
    pub observed_at: SimTime,
    /// The sealed payload's nonce.
    pub nonce: [u8; 12],
    /// The sealed payload's ciphertext.
    pub ciphertext: &'a [u8],
    /// The sealed payload's tag.
    pub tag: Digest,
    /// See [`LogEntry::probe_mac`].
    pub probe_mac: Digest,
}

impl<'a> LogEntryRef<'a> {
    /// Decodes one entry, consuming exactly its encoding from `r`. Fails
    /// exactly where [`LogEntry::decode`] does, with the same errors.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Malformed`] on truncated or invalid input.
    pub fn decode(r: &mut Reader<'a>) -> Result<Self, CryptoError> {
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
        let ciphertext = r.get_bytes_ref()?;
        let tag = Digest::decode(r)?;
        let probe_mac = Digest::decode(r)?;
        Ok(LogEntryRef {
            correlation,
            point,
            probe,
            digest,
            policy_version,
            observed_at,
            nonce,
            ciphertext,
            tag,
            probe_mac,
        })
    }

    /// [`LogEntryRef::decode`], also returning the bytes the entry was
    /// decoded from: its canonical encoding, as a slice of the input.
    ///
    /// # Errors
    ///
    /// As [`LogEntryRef::decode`].
    pub fn decode_spanned(r: &mut Reader<'a>) -> Result<(Self, &'a [u8]), CryptoError> {
        let input = r.rest();
        let entry = Self::decode(r)?;
        Ok((entry, &input[..input.len() - r.remaining()]))
    }

    /// Decodes an entry that must occupy the whole of `bytes`.
    ///
    /// # Errors
    ///
    /// As [`LogEntryRef::decode`], and on trailing bytes.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let entry = Self::decode(&mut r)?;
        r.finish()?;
        Ok(entry)
    }

    /// The owned entry, its ciphertext copied.
    #[must_use]
    pub fn to_entry(&self) -> LogEntry {
        LogEntry {
            correlation: self.correlation,
            point: self.point,
            probe: self.probe,
            digest: self.digest,
            policy_version: self.policy_version,
            observed_at: self.observed_at,
            sealed_payload: SealedBox {
                nonce: self.nonce,
                ciphertext: self.ciphertext.to_vec(),
                tag: self.tag,
            },
            probe_mac: self.probe_mac,
        }
    }

    /// [`LogEntry::mac_input`] up to and including the ciphertext's
    /// length prefix — the part that does not already lie in the entry
    /// as bytes — written into `head`; returns the bytes written.
    fn mac_head<'h>(&self, head: &'h mut [u8; MAC_HEAD_MAX]) -> &'h [u8] {
        let (len_prefix, prefix_len) = varint(self.ciphertext.len() as u64);
        let mut at = 0;
        for field in [
            &self.correlation.0.to_be_bytes()[..],
            &[self.point.code()],
            &self.probe.0.to_be_bytes(),
            self.digest.as_bytes(),
            &self.observed_at.to_be_bytes(),
            &self.nonce,
            &len_prefix[..prefix_len],
        ] {
            head[at..at + field.len()].copy_from_slice(field);
            at += field.len();
        }
        &head[..at]
    }

    /// Computes the probe MAC under an already keyed context. The head
    /// is built on the stack; the ciphertext and tag are hashed where
    /// they lie.
    #[must_use]
    pub(crate) fn compute_mac_with(&self, mac_key: &HmacKey) -> Digest {
        let mut head = [0u8; MAC_HEAD_MAX];
        mac_key.mac_parts(&[
            self.mac_head(&mut head),
            self.ciphertext,
            self.tag.as_bytes(),
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

    /// Decrypts the sealed payload into `plaintext` (cleared first, its
    /// capacity kept), checking its binding to this entry's header.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidTag`] on tamper or wrong key.
    pub fn open_payload_into(
        &self,
        key: &SymmetricKey,
        plaintext: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        let aad = payload_aad(self.correlation, self.point, &self.digest);
        open_into(
            key,
            &aad,
            &self.nonce,
            self.ciphertext,
            &self.tag,
            plaintext,
        )
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
        LogEntryRef::decode(r).map(|entry| entry.to_entry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_crypto::aead::seal;
    use proptest::prelude::*;

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

    /// An arbitrary entry: either kind of point, policy version present
    /// or absent, a ciphertext of 0–600 bytes, every fixed field drawn.
    fn arbitrary_entry() -> impl Strategy<Value = LogEntry> {
        (
            (any::<u64>(), 0u8..4, any::<u32>(), any::<u64>()),
            (
                prop::array::uniform4(any::<u64>()),
                prop::option::of(any::<u8>()),
            ),
            prop::collection::vec(any::<u8>(), 0..601),
            (any::<u8>(), any::<u8>(), any::<u8>()),
        )
            .prop_map(
                |((corr, point, probe, at), (digest, version), ciphertext, (n, t, m))| {
                    let digest_bytes: Vec<u8> =
                        digest.iter().flat_map(|w| w.to_be_bytes()).collect();
                    LogEntry {
                        correlation: CorrelationId(corr),
                        point: ObservationPoint::ALL[usize::from(point)],
                        probe: ProbeId(probe),
                        digest: Digest::of(&digest_bytes),
                        policy_version: version.map(|v| Digest::of(&[v])),
                        observed_at: at,
                        sealed_payload: SealedBox {
                            nonce: [n; 12],
                            ciphertext,
                            tag: Digest::of(&[t]),
                        },
                        probe_mac: Digest::of(&[m, 1]),
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// What the monitor contract stores and reads for an entry is
        /// what a full decode would give: the span it keeps of a batch is
        /// the entry's canonical encoding, the digest it reads in place is
        /// the decoded digest, and the view it decodes owns the same
        /// entry. Every truncation of a record is a typed decode error.
        #[test]
        fn shortcuts_agree_with_the_full_decode(
            first in arbitrary_entry(),
            second in arbitrary_entry(),
            cut in any::<usize>(),
        ) {
            let entries = [first, second];
            let batch = crate::contract::encode_batch(&entries);
            let mut r = Reader::new(&batch);
            prop_assert_eq!(r.get_varint().unwrap(), 2);
            for entry in &entries {
                let (view, span) = LogEntryRef::decode_spanned(&mut r).unwrap();
                let canonical = entry.to_canonical_bytes();
                prop_assert_eq!(span, canonical.as_slice());
                prop_assert_eq!(&view.to_entry(), entry);
                prop_assert_eq!(view, entry.view());
                prop_assert_eq!(LogEntry::stored_digest(span).unwrap(), entry.digest);
                prop_assert_eq!(
                    LogEntry::from_canonical_bytes(span).unwrap().digest,
                    entry.digest
                );
                let truncated = &span[..cut % span.len()];
                prop_assert!(matches!(
                    LogEntryRef::from_bytes(truncated),
                    Err(CryptoError::Malformed(_))
                ));
                prop_assert!(matches!(
                    LogEntry::from_canonical_bytes(truncated),
                    Err(CryptoError::Malformed(_))
                ));
                let digest_read = LogEntry::stored_digest(truncated);
                if truncated.len() < DIGEST_OFFSET + 32 {
                    prop_assert!(matches!(digest_read, Err(CryptoError::Malformed(_))));
                } else {
                    prop_assert_eq!(digest_read.unwrap(), entry.digest);
                }
            }
            r.finish().unwrap();
        }
    }

    #[test]
    fn wire_len_tracks_payload() {
        let k = SymmetricKey::from_bytes([1; 32]);
        let mut small = entry();
        small.sealed_payload = seal(&k, [0; 12], b"", &[0u8; 64]);
        let mut large = entry();
        large.sealed_payload = seal(&k, [0; 12], b"", &[0u8; 4096]);
        assert!(large.wire_len() > small.wire_len() + 4000);
    }
}
