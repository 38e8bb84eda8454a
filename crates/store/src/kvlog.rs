//! Append-only segmented log store (the "classical database" half).

use drams_crypto::merkle::{MerkleProof, MerkleTree};
use drams_crypto::sha256::Digest;

/// A sealed segment: a fixed-size run of entries with its Merkle tree.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Index of this segment (0-based).
    pub index: u64,
    /// First global sequence number in the segment.
    pub first_seq: u64,
    /// The entries.
    entries: Vec<Vec<u8>>,
    tree: MerkleTree,
}

impl Segment {
    /// The segment's Merkle root (what gets anchored).
    #[must_use]
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the segment holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inclusion proof for the entry at `offset` within the segment.
    #[must_use]
    pub fn proof(&self, offset: usize) -> Option<MerkleProof> {
        self.tree.proof(offset)
    }

    /// Entry bytes at `offset`.
    #[must_use]
    pub fn entry(&self, offset: usize) -> Option<&[u8]> {
        self.entries.get(offset).map(Vec::as_slice)
    }
}

/// The append-only log: an open tail plus sealed segments.
#[derive(Debug)]
pub struct KvLog {
    segment_size: usize,
    sealed: Vec<Segment>,
    tail: Vec<Vec<u8>>,
    next_seq: u64,
}

impl KvLog {
    /// Creates a log that seals a segment every `segment_size` entries.
    ///
    /// # Panics
    ///
    /// Panics when `segment_size` is 0.
    #[must_use]
    pub fn new(segment_size: usize) -> Self {
        assert!(segment_size > 0, "segment size must be at least 1");
        KvLog {
            segment_size,
            sealed: Vec::new(),
            tail: Vec::new(),
            next_seq: 0,
        }
    }

    /// Appends an entry; returns `(sequence number, sealed segment)` where
    /// the segment is `Some` exactly when this append completed one.
    pub fn append(&mut self, entry: Vec<u8>) -> (u64, Option<&Segment>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tail.push(entry);
        if self.tail.len() >= self.segment_size {
            let first_seq = seq + 1 - self.segment_size as u64;
            let entries = std::mem::take(&mut self.tail);
            let tree = MerkleTree::from_leaves(entries.iter().map(Vec::as_slice));
            let segment = Segment {
                index: self.sealed.len() as u64,
                first_seq,
                entries,
                tree,
            };
            self.sealed.push(segment);
            (seq, self.sealed.last())
        } else {
            (seq, None)
        }
    }

    /// Total entries appended.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.next_seq
    }

    /// True when nothing was appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.next_seq == 0
    }

    /// Entries in the unsealed tail (the tamper-exposure window).
    #[must_use]
    pub fn unsealed_len(&self) -> usize {
        self.tail.len()
    }

    /// Reads an entry by global sequence number (sealed or tail).
    #[must_use]
    pub fn get(&self, seq: u64) -> Option<&[u8]> {
        if seq >= self.next_seq {
            return None;
        }
        let segment_idx = (seq / self.segment_size as u64) as usize;
        if segment_idx < self.sealed.len() {
            let offset = (seq % self.segment_size as u64) as usize;
            self.sealed[segment_idx].entry(offset)
        } else {
            let offset = (seq - self.sealed.len() as u64 * self.segment_size as u64) as usize;
            self.tail.get(offset).map(Vec::as_slice)
        }
    }

    /// Locates `(segment, offset)` for a sealed sequence number.
    #[must_use]
    pub(crate) fn locate(&self, seq: u64) -> Option<(&Segment, usize)> {
        let segment_idx = (seq / self.segment_size as u64) as usize;
        let segment = self.sealed.get(segment_idx)?;
        Some((segment, (seq % self.segment_size as u64) as usize))
    }

    /// Overwrites an entry in place — **test/attack hook**: simulates a
    /// database-level tamper that the anchoring must detect.
    pub fn tamper(&mut self, seq: u64, new_value: Vec<u8>) -> bool {
        let segment_idx = (seq / self.segment_size as u64) as usize;
        if segment_idx < self.sealed.len() {
            let offset = (seq % self.segment_size as u64) as usize;
            if let Some(slot) = self.sealed[segment_idx].entries.get_mut(offset) {
                *slot = new_value;
                return true;
            }
            false
        } else {
            let offset = (seq - self.sealed.len() as u64 * self.segment_size as u64) as usize;
            if let Some(slot) = self.tail.get_mut(offset) {
                *slot = new_value;
                return true;
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64) -> Vec<u8> {
        format!("log-entry-{i}").into_bytes()
    }

    #[test]
    fn appends_and_reads_back() {
        let mut log = KvLog::new(4);
        for i in 0..10 {
            let (seq, _) = log.append(entry(i));
            assert_eq!(seq, i);
        }
        assert_eq!(log.len(), 10);
        assert_eq!(log.get(0).unwrap(), entry(0).as_slice());
        assert_eq!(log.get(9).unwrap(), entry(9).as_slice());
        assert!(log.get(10).is_none());
    }

    #[test]
    fn seals_segments_at_boundary() {
        let mut log = KvLog::new(3);
        assert!(log.append(entry(0)).1.is_none());
        assert!(log.append(entry(1)).1.is_none());
        let (seq, sealed) = log.append(entry(2));
        assert_eq!(seq, 2);
        let segment = sealed.expect("third append seals");
        assert_eq!(segment.index, 0);
        assert_eq!(segment.first_seq, 0);
        assert_eq!(segment.len(), 3);
        assert_eq!(log.unsealed_len(), 0);
        log.append(entry(3));
        assert_eq!(log.unsealed_len(), 1);
    }

    #[test]
    fn segment_proofs_verify() {
        let mut log = KvLog::new(4);
        for i in 0..8 {
            log.append(entry(i));
        }
        for seq in 0..8u64 {
            let (segment, offset) = log.locate(seq).unwrap();
            let proof = segment.proof(offset).unwrap();
            assert!(proof.verify(&segment.root(), &entry(seq)));
        }
    }

    #[test]
    fn tamper_breaks_proofs() {
        let mut log = KvLog::new(4);
        for i in 0..4 {
            log.append(entry(i));
        }
        let original_root = log.sealed[0].root();
        assert!(log.tamper(2, b"forged".to_vec()));
        let (segment, offset) = log.locate(2).unwrap();
        // Root recomputation is not automatic — the stored tree still has
        // the original root, so the tampered entry fails its own proof.
        let proof = segment.proof(offset).unwrap();
        assert!(!proof.verify(&original_root, segment.entry(offset).unwrap()));
    }

    #[test]
    fn tail_tamper_is_reported() {
        let mut log = KvLog::new(10);
        log.append(entry(0));
        assert!(log.tamper(0, b"forged".to_vec()));
        assert_eq!(log.get(0).unwrap(), b"forged");
        assert!(!log.tamper(5, b"nope".to_vec()));
    }

    #[test]
    #[should_panic(expected = "segment size must be at least 1")]
    fn zero_segment_size_panics() {
        let _ = KvLog::new(0);
    }
}
