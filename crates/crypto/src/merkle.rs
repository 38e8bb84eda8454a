//! Binary Merkle trees with inclusion proofs.
//!
//! Used for (a) the transaction root in every block header and (b) the
//! segment anchoring of the hybrid database store (paper §III / ref \[9\]):
//! a batch of off-chain log entries is summarised by its Merkle root, and
//! only the root is committed on-chain; any entry can later be proven
//! included with a logarithmic-size proof.
//!
//! Leaf and internal hashes use distinct domain-separation prefixes
//! (`0x00` / `0x01`) to rule out second-preimage splices, and odd nodes are
//! promoted unchanged (no duplicate-last), avoiding the classic duplication
//! ambiguity.

use crate::sha256::{Digest, Sha256};
use serde::{Deserialize, Serialize};

/// Which side a proof sibling sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Side {
    /// Sibling is the left child; our running hash is the right child.
    Left,
    /// Sibling is the right child; our running hash is the left child.
    Right,
}

/// An inclusion proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleProof {
    /// Index of the proven leaf within the original leaf sequence.
    pub leaf_index: usize,
    /// Bottom-up sibling path.
    pub siblings: Vec<(Digest, Side)>,
}

impl MerkleProof {
    /// Recomputes the root implied by `leaf_data` and this proof.
    #[must_use]
    pub fn implied_root(&self, leaf_data: &[u8]) -> Digest {
        let mut acc = hash_leaf(leaf_data);
        for (sibling, side) in &self.siblings {
            acc = match side {
                Side::Left => hash_internal(sibling, &acc),
                Side::Right => hash_internal(&acc, sibling),
            };
        }
        acc
    }

    /// Checks the proof against a known root.
    #[must_use]
    pub fn verify(&self, root: &Digest, leaf_data: &[u8]) -> bool {
        self.implied_root(leaf_data) == *root
    }
}

/// A Merkle tree built over a sequence of byte-string leaves.
///
/// # Example
///
/// ```
/// use drams_crypto::merkle::MerkleTree;
///
/// let leaves: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 8]).collect();
/// let tree = MerkleTree::from_leaves(leaves.iter().map(|l| l.as_slice()));
/// let proof = tree.proof(3).unwrap();
/// assert!(proof.verify(&tree.root(), &leaves[3]));
/// assert!(!proof.verify(&tree.root(), &leaves[2]));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, last level = [root].
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds a tree from leaf byte strings.
    ///
    /// An empty input yields the conventional "empty root"
    /// `H(0x02)` so that empty batches still anchor deterministically.
    pub fn from_leaves<'a, I>(leaves: I) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let leaf_hashes: Vec<Digest> = leaves.into_iter().map(hash_leaf).collect();
        Self::from_leaf_hashes(leaf_hashes)
    }

    /// Builds a tree from precomputed leaf *hashes* (e.g. transaction ids).
    ///
    /// The caller is responsible for having domain-separated those hashes;
    /// internal nodes still use the internal prefix.
    #[must_use]
    pub fn from_leaf_hashes(leaf_hashes: Vec<Digest>) -> Self {
        // ⌈log₂ n⌉ + 1 levels; preallocating avoids regrowth while the
        // tree is assembled bottom-up.
        let n = leaf_hashes.len();
        let depth = if n <= 1 {
            1
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize + 1
        };
        let mut levels = Vec::with_capacity(depth);
        levels.push(leaf_hashes);
        while levels.last().map(Vec::len).unwrap_or(0) > 1 {
            let prev = levels.last().expect("non-empty by loop condition");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            let mut i = 0;
            while i < prev.len() {
                if i + 1 < prev.len() {
                    next.push(hash_internal(&prev[i], &prev[i + 1]));
                } else {
                    // odd node promoted unchanged
                    next.push(prev[i]);
                }
                i += 2;
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Number of leaves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels.first().map(Vec::len).unwrap_or(0)
    }

    /// True when the tree has no leaves.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root digest.
    #[must_use]
    pub fn root(&self) -> Digest {
        match self.levels.last() {
            Some(level) if !level.is_empty() => level[0],
            _ => empty_root(),
        }
    }

    /// Builds an inclusion proof for leaf `index`.
    ///
    /// Returns `None` if `index` is out of bounds.
    #[must_use]
    pub fn proof(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sibling_idx = idx ^ 1;
            if sibling_idx < level.len() {
                let side = if sibling_idx < idx {
                    Side::Left
                } else {
                    Side::Right
                };
                siblings.push((level[sibling_idx], side));
            }
            // When the sibling is absent (odd promotion) the node moves up
            // unchanged and contributes no proof step.
            idx /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            siblings,
        })
    }
}

/// Root of a zero-leaf tree.
#[must_use]
pub fn empty_root() -> Digest {
    Digest::of(&[0x02])
}

fn hash_leaf(data: &[u8]) -> Digest {
    // Small leaves (tx ids, anchor records) take the one-shot digest
    // over a stack buffer; large leaves stream through the incremental
    // hasher, which compresses aligned blocks without staging.
    if data.len() < 128 {
        let mut buf = [0u8; 128];
        buf[0] = 0x00;
        buf[1..=data.len()].copy_from_slice(data);
        Sha256::digest(&buf[..=data.len()])
    } else {
        let mut h = Sha256::new();
        h.update(&[0x00]);
        h.update(data);
        h.finalize()
    }
}

fn hash_internal(left: &Digest, right: &Digest) -> Digest {
    let mut buf = [0u8; 65];
    buf[0] = 0x01;
    buf[1..33].copy_from_slice(left.as_bytes());
    buf[33..].copy_from_slice(right.as_bytes());
    Sha256::digest(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    fn tree_of(n: usize) -> (MerkleTree, Vec<Vec<u8>>) {
        let data = leaves(n);
        let tree = MerkleTree::from_leaves(data.iter().map(|l| l.as_slice()));
        (tree, data)
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let (tree, data) = tree_of(1);
        assert_eq!(tree.root(), hash_leaf(&data[0]));
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let tree = MerkleTree::from_leaves(std::iter::empty());
        assert_eq!(tree.root(), empty_root());
        assert!(tree.is_empty());
        assert!(tree.proof(0).is_none());
    }

    #[test]
    fn all_proofs_verify_for_many_sizes() {
        for n in 1..=17 {
            let (tree, data) = tree_of(n);
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.proof(i).unwrap();
                assert!(proof.verify(&tree.root(), leaf), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf() {
        let (tree, data) = tree_of(8);
        let proof = tree.proof(2).unwrap();
        assert!(!proof.verify(&tree.root(), &data[3]));
        assert!(!proof.verify(&tree.root(), b"forged"));
    }

    #[test]
    fn proof_fails_against_wrong_root() {
        let (tree, data) = tree_of(5);
        let (other, _) = tree_of(6);
        let proof = tree.proof(0).unwrap();
        assert!(!proof.verify(&other.root(), &data[0]));
    }

    #[test]
    fn root_depends_on_leaf_order() {
        let a = MerkleTree::from_leaves([b"x".as_slice(), b"y".as_slice()]);
        let b = MerkleTree::from_leaves([b"y".as_slice(), b"x".as_slice()]);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn domain_separation_prevents_leaf_internal_confusion() {
        // A leaf whose bytes equal (left || right) of an internal node must
        // not hash to the internal node.
        let l = hash_leaf(b"a");
        let r = hash_leaf(b"b");
        let internal = hash_internal(&l, &r);
        let mut concat = Vec::new();
        concat.extend_from_slice(l.as_bytes());
        concat.extend_from_slice(r.as_bytes());
        assert_ne!(hash_leaf(&concat), internal);
    }

    #[test]
    fn tampering_any_leaf_changes_root() {
        let (tree, mut data) = tree_of(9);
        let original = tree.root();
        for i in 0..data.len() {
            data[i].push(0xff);
            let tampered = MerkleTree::from_leaves(data.iter().map(|l| l.as_slice()));
            assert_ne!(tampered.root(), original, "leaf {i}");
            data[i].pop();
        }
    }

    #[test]
    fn proof_sizes_are_logarithmic() {
        let (tree, _) = tree_of(1024);
        assert_eq!(tree.proof(0).unwrap().siblings.len(), 10);
    }

    #[test]
    fn leaf_hash_is_identical_across_stack_and_streamed_paths() {
        // hash_leaf switches implementation at 128 bytes; both sides of
        // the boundary must agree with the reference prefix-then-data
        // construction.
        for len in [0usize, 1, 63, 126, 127, 128, 129, 500] {
            let data = vec![0x5au8; len];
            let mut h = Sha256::new();
            h.update(&[0x00]);
            h.update(&data);
            assert_eq!(hash_leaf(&data), h.finalize(), "len {len}");
        }
    }

    #[test]
    fn from_leaf_hashes_matches_from_leaves() {
        let data = leaves(7);
        let t1 = MerkleTree::from_leaves(data.iter().map(|l| l.as_slice()));
        let hashes: Vec<Digest> = data.iter().map(|l| hash_leaf(l)).collect();
        let t2 = MerkleTree::from_leaf_hashes(hashes);
        assert_eq!(t1.root(), t2.root());
    }
}
