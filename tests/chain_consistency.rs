//! Cross-crate chain integrity: monitoring evidence survives (and is
//! reproduced identically by) reorgs, multi-node convergence and
//! re-execution.

use drams::chain::block::Block;
use drams::chain::chain::{ChainConfig, ImportOutcome};
use drams::chain::node::Node;
use drams::core::contract::{encode_batch, MonitorContract, MONITOR_CONTRACT};
use drams::core::logent::{LogEntry, ObservationPoint, ProbeId};
use drams_crypto::aead::{seal, SymmetricKey};
use drams_crypto::codec::{Decode, Encode};
use drams_crypto::schnorr::Keypair;
use drams_crypto::sha256::Digest;
use drams_faas::msg::CorrelationId;
use proptest::prelude::*;

fn monitor_node() -> (Node, Keypair) {
    let mut node = Node::new(ChainConfig {
        initial_difficulty_bits: 0,
        retarget_interval: 0,
        ..ChainConfig::default()
    });
    node.register_contract(Box::new(MonitorContract));
    let li = Keypair::from_seed(b"chain-consistency-li");
    node.submit_call(
        &li,
        MONITOR_CONTRACT,
        "init",
        MonitorContract::init_payload(10_000, Keypair::from_seed(b"an").public().fingerprint()),
    )
    .unwrap();
    node.mine_block(0).unwrap();
    (node, li)
}

fn entry(corr: u64, point: ObservationPoint, digest: &[u8]) -> LogEntry {
    let key = SymmetricKey::from_bytes([1; 32]);
    let mut e = LogEntry {
        correlation: CorrelationId(corr),
        point,
        probe: ProbeId(1),
        digest: Digest::of(digest),
        policy_version: None,
        observed_at: 100,
        sealed_payload: seal(&key, [0; 12], b"", b"payload"),
        probe_mac: Digest::ZERO,
    };
    e.probe_mac = e.compute_mac(&[7; 32]);
    e
}

#[test]
fn follower_reproduces_identical_contract_state() {
    let (mut miner, li) = monitor_node();
    let (mut follower, _) = monitor_node();
    // Bring the follower to the miner's chain.
    for point in ObservationPoint::ALL {
        let e = entry(1, point, b"same");
        miner
            .submit_call(&li, MONITOR_CONTRACT, "store_log_batch", encode_batch(&[e]))
            .unwrap();
    }
    let b1 = miner.mine_block(1_000).unwrap().clone();
    // follower has its own height-1 block (the init block) identical by
    // construction, so import proceeds from the shared prefix.
    follower.receive_block(b1).unwrap();
    assert_eq!(miner.chain().tip_hash(), follower.chain().tip_hash());
    assert_eq!(miner.events().len(), follower.events().len());
    let ms = miner.host().storage_of(MONITOR_CONTRACT).unwrap();
    let fs = follower.host().storage_of(MONITOR_CONTRACT).unwrap();
    assert_eq!(ms.len(), fs.len());
}

#[test]
fn reorg_replays_monitoring_evidence_deterministically() {
    let (mut node, li) = monitor_node();
    let fork_base = node.chain().tip_hash();
    let base_height = node.chain().tip_header().height;

    // Main branch: one block with a log entry.
    let e = entry(7, ObservationPoint::PepRequest, b"x");
    node.submit_call(&li, MONITOR_CONTRACT, "store_log_batch", encode_batch(&[e]))
        .unwrap();
    node.mine_block(1_000).unwrap();
    let events_before = node.events().len();
    assert_eq!(events_before, 0); // single observation: no completion event

    // Competing branch: two empty blocks from the fork base → heavier.
    let c1 = Block::mine(fork_base, base_height + 1, vec![], 1_500, 0);
    let outcome = node.receive_block(c1.clone()).unwrap();
    assert_eq!(outcome, ImportOutcome::SideChain);
    let c2 = Block::mine(c1.hash(), base_height + 2, vec![], 2_000, 0);
    match node.receive_block(c2).unwrap() {
        ImportOutcome::Reorg { depth } => assert_eq!(depth, 1),
        other => panic!("expected reorg, got {other:?}"),
    }
    // The log entry fell off the main chain; contract state was rebuilt
    // without it.
    let storage = node.host().storage_of(MONITOR_CONTRACT).unwrap();
    assert_eq!(storage.scan_prefix(b"ent/").count(), 0);
    // …but the config survived (init tx is on the common prefix).
    assert!(storage.get(b"cfg/timeout").is_some());
}

#[test]
fn every_submission_executes_and_confirms() {
    let (mut node, li) = monitor_node();
    let mut ids = Vec::new();
    for i in 0..20u64 {
        let e = entry(i, ObservationPoint::PepRequest, b"d");
        let id = node
            .submit_call(&li, MONITOR_CONTRACT, "store_log_batch", encode_batch(&[e]))
            .unwrap();
        ids.push(id);
    }
    node.mine_block(1_000).unwrap();
    for id in &ids {
        assert!(node.chain().confirmations(id).is_some());
    }
    // Each call stored its entry, and none failed.
    let storage = node.host().storage_of(MONITOR_CONTRACT).unwrap();
    assert_eq!(storage.scan_prefix(b"ent/").count(), 20);
    assert!(node.events().iter().all(|ev| ev.name != "tx.failed"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-bit corruption of a committed block can never silently
    /// replace the original: either the import is rejected outright, or
    /// (for free header fields like the nonce at difficulty 0 — exactly
    /// the paper's "lightweight PoW gives weak integrity" caveat) the
    /// result is a *different* block under a different hash, leaving the
    /// original content addressable and intact.
    #[test]
    fn corrupted_blocks_never_silently_replace(flip_byte in 0usize..200, flip_bit in 0usize..8) {
        let (mut node, li) = monitor_node();
        let e = entry(1, ObservationPoint::PepRequest, b"x");
        node.submit_call(&li, MONITOR_CONTRACT, "store_log_batch", encode_batch(&[e])).unwrap();
        let block = node.mine_block(1_000).unwrap().clone();

        let mut bytes = block.to_canonical_bytes();
        let idx = flip_byte % bytes.len();
        bytes[idx] ^= 1 << flip_bit;

        let (mut fresh, li2) = monitor_node();
        // Rebuild the fresh node to the same pre-block state.
        let _ = li2;
        match drams::chain::block::Block::from_canonical_bytes(&bytes) {
            Err(_) => {} // corruption broke the encoding: rejected at decode
            Ok(corrupted) => {
                if corrupted == block {
                    // flipped a bit that decodes identically? impossible for
                    // canonical codec, but guard anyway
                    return Ok(());
                }
                let corrupted_hash = corrupted.hash();
                let result = fresh.receive_block(corrupted);
                if result.is_ok() {
                    prop_assert_ne!(
                        corrupted_hash,
                        block.hash(),
                        "an imported corruption must be a different block"
                    );
                }
            }
        }
    }
}
