//! Blockchain anchoring of database segments.
//!
//! The "blockchain half" of the hybrid design (ref \[9\]): an
//! [`AnchorContract`] records segment Merkle roots on-chain, and an
//! [`AnchoredStore`] couples a [`KvLog`] with a chain
//! node, anchoring every sealed segment and answering audits.

use crate::kvlog::KvLog;
use drams_chain::contract::{ExecutionContext, SmartContract};
use drams_chain::error::ChainError;
use drams_chain::node::Node;
use drams_chain::tx::TxId;
use drams_crypto::codec::{Reader, Writer};
use drams_crypto::schnorr::Keypair;
use drams_crypto::sha256::Digest;

/// The anchor contract's registry name.
const ANCHOR_CONTRACT: &str = "drams-anchor";

/// On-chain registry of segment roots.
#[derive(Debug, Default)]
pub struct AnchorContract;

impl AnchorContract {
    fn key(segment: u64) -> [u8; 13] {
        let mut k = *b"root/\0\0\0\0\0\0\0\0";
        k[5..].copy_from_slice(&segment.to_be_bytes());
        k
    }

    /// Encodes an `anchor` call payload.
    #[must_use]
    fn anchor_payload(segment: u64, root: Digest) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(segment);
        w.put_raw(root.as_bytes());
        w.into_bytes()
    }
}

impl SmartContract for AnchorContract {
    fn name(&self) -> &str {
        ANCHOR_CONTRACT
    }

    fn execute(
        &self,
        ctx: &mut ExecutionContext<'_>,
        method: &str,
        payload: &[u8],
    ) -> Result<(), String> {
        match method {
            "anchor" => {
                let mut r = Reader::new(payload);
                let segment = r.get_u64().map_err(|e| e.to_string())?;
                let root = r.get_array::<32>().map_err(|e| e.to_string())?;
                r.finish().map_err(|e| e.to_string())?;
                let key = Self::key(segment);
                if ctx.storage.get(&key).is_some() {
                    return Err(format!("segment {segment} already anchored"));
                }
                ctx.storage.insert(&key, root.to_vec());
                ctx.emit("anchored", payload.to_vec());
                Ok(())
            }
            other => Err(format!("unknown method `{other}`")),
        }
    }
}

/// Outcome of auditing one entry of the hybrid store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditOutcome {
    /// The entry is covered by an on-chain anchor and its proof verifies.
    Verified,
    /// The entry's proof fails against the anchored root — the database
    /// was tampered with after anchoring.
    TamperDetected,
    /// The entry's segment is not yet anchored: it sits in the
    /// tamper-exposure window and only database-level trust covers it.
    InExposureWindow,
    /// No such entry.
    Unknown,
}

/// A [`KvLog`] coupled to a blockchain node that anchors every sealed
/// segment.
pub struct AnchoredStore {
    log: KvLog,
    keypair: Keypair,
    anchors_submitted: u64,
}

impl std::fmt::Debug for AnchoredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnchoredStore")
            .field("entries", &self.log.len())
            .field("anchors_submitted", &self.anchors_submitted)
            .finish_non_exhaustive()
    }
}

impl AnchoredStore {
    /// Creates a store that anchors every `anchor_period` entries.
    ///
    /// # Panics
    ///
    /// Panics when `anchor_period` is 0.
    #[must_use]
    pub fn new(anchor_period: usize, keypair: Keypair) -> Self {
        AnchoredStore {
            log: KvLog::new(anchor_period),
            keypair,
            anchors_submitted: 0,
        }
    }

    /// The underlying log (read-only).
    #[must_use]
    pub fn log(&self) -> &KvLog {
        &self.log
    }

    /// Mutable access to the log — the attack surface for E3's
    /// tamper-detection measurements.
    pub fn log_mut(&mut self) -> &mut KvLog {
        &mut self.log
    }

    /// Anchors submitted so far.
    #[must_use]
    pub fn anchors_submitted(&self) -> u64 {
        self.anchors_submitted
    }

    /// Appends an entry; when a segment seals, its root is submitted as an
    /// anchoring transaction on `node`.
    ///
    /// Returns `(sequence number, anchor tx id if one was submitted)`.
    ///
    /// # Errors
    ///
    /// Propagates chain submission failures.
    pub fn append(
        &mut self,
        entry: Vec<u8>,
        node: &mut Node,
    ) -> Result<(u64, Option<TxId>), ChainError> {
        let (seq, sealed) = self.log.append(entry);
        if let Some(segment) = sealed {
            let payload = AnchorContract::anchor_payload(segment.index, segment.root());
            let tx = node.submit_call(&self.keypair, ANCHOR_CONTRACT, "anchor", payload)?;
            self.anchors_submitted += 1;
            return Ok((seq, Some(tx)));
        }
        Ok((seq, None))
    }

    /// Audits the entry at `seq` against the on-chain anchors.
    #[must_use]
    pub fn audit(&self, seq: u64, node: &Node) -> AuditOutcome {
        if seq >= self.log.len() {
            return AuditOutcome::Unknown;
        }
        let Some((segment, offset)) = self.log.locate(seq) else {
            return AuditOutcome::InExposureWindow;
        };
        let Some(storage) = node.host().storage_of(ANCHOR_CONTRACT) else {
            return AuditOutcome::InExposureWindow;
        };
        let Some(root_bytes) = storage.get(&AnchorContract::key(segment.index)) else {
            // Sealed but the anchor tx has not committed yet.
            return AuditOutcome::InExposureWindow;
        };
        let mut root = [0u8; 32];
        root.copy_from_slice(root_bytes);
        let root = Digest::from(root);
        let Some(proof) = segment.proof(offset) else {
            return AuditOutcome::Unknown;
        };
        let Some(entry) = segment.entry(offset) else {
            return AuditOutcome::Unknown;
        };
        if proof.verify(&root, entry) {
            AuditOutcome::Verified
        } else {
            AuditOutcome::TamperDetected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_chain::chain::ChainConfig;

    fn setup(period: usize) -> (AnchoredStore, Node) {
        let mut node = Node::new(ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            ..ChainConfig::default()
        });
        node.register_contract(Box::new(AnchorContract));
        let store = AnchoredStore::new(period, Keypair::from_seed(b"store"));
        (store, node)
    }

    fn entry(i: u64) -> Vec<u8> {
        format!("entry-{i}").into_bytes()
    }

    #[test]
    fn anchors_every_period() {
        let (mut store, mut node) = setup(4);
        let mut anchors = 0;
        for i in 0..12 {
            let (_, tx) = store.append(entry(i), &mut node).unwrap();
            if tx.is_some() {
                anchors += 1;
            }
        }
        assert_eq!(anchors, 3);
        assert_eq!(store.anchors_submitted(), 3);
    }

    #[test]
    fn audit_verifies_after_commit() {
        let (mut store, mut node) = setup(4);
        for i in 0..4 {
            store.append(entry(i), &mut node).unwrap();
        }
        // Anchor submitted but not mined: still exposed.
        assert_eq!(store.audit(0, &node), AuditOutcome::InExposureWindow);
        node.mine_block(1_000).unwrap();
        assert_eq!(store.audit(0, &node), AuditOutcome::Verified);
        assert_eq!(store.audit(3, &node), AuditOutcome::Verified);
    }

    #[test]
    fn tail_entries_are_in_window() {
        let (mut store, mut node) = setup(4);
        for i in 0..6 {
            store.append(entry(i), &mut node).unwrap();
        }
        node.mine_block(1_000).unwrap();
        assert_eq!(store.audit(3, &node), AuditOutcome::Verified);
        assert_eq!(store.audit(4, &node), AuditOutcome::InExposureWindow);
        assert_eq!(store.audit(5, &node), AuditOutcome::InExposureWindow);
        assert_eq!(store.audit(99, &node), AuditOutcome::Unknown);
    }

    #[test]
    fn post_anchor_tamper_is_detected() {
        let (mut store, mut node) = setup(4);
        for i in 0..4 {
            store.append(entry(i), &mut node).unwrap();
        }
        node.mine_block(1_000).unwrap();
        assert!(store.log_mut().tamper(2, b"forged".to_vec()));
        assert_eq!(store.audit(2, &node), AuditOutcome::TamperDetected);
        // Untouched entries still verify.
        assert_eq!(store.audit(1, &node), AuditOutcome::Verified);
    }

    #[test]
    fn pre_anchor_tamper_is_invisible_the_window_cost() {
        // The honest-but-late case the paper's trade-off discussion is
        // about: a tamper *inside* the exposure window goes undetected
        // because the root is computed over the already-tampered data.
        let (mut store, mut node) = setup(4);
        store.append(entry(0), &mut node).unwrap();
        store.append(entry(1), &mut node).unwrap();
        assert!(store.log_mut().tamper(1, b"forged-early".to_vec()));
        store.append(entry(2), &mut node).unwrap();
        store.append(entry(3), &mut node).unwrap();
        node.mine_block(1_000).unwrap();
        assert_eq!(store.audit(1, &node), AuditOutcome::Verified);
    }

    #[test]
    fn double_anchor_rejected_by_contract() {
        let (_, mut node) = setup(4);
        let kp = Keypair::from_seed(b"store");
        let payload = AnchorContract::anchor_payload(0, Digest::of(b"root"));
        node.submit_call(&kp, ANCHOR_CONTRACT, "anchor", payload.clone())
            .unwrap();
        node.mine_block(1).unwrap();
        let id = node
            .submit_call(&kp, ANCHOR_CONTRACT, "anchor", payload)
            .unwrap();
        node.mine_block(2).unwrap();
        assert!(node
            .events()
            .iter()
            .any(|ev| ev.name == "tx.failed" && ev.tx_id == id));
    }
}
