//! Leaf timings: single public functions of single crates, timed in a
//! loop on inputs captured from a pipeline run (real entries, batches,
//! transactions and blocks — not synthetic buffers), plus the
//! 1 000-policy base for the policy engine.
//!
//! These are per-layer numbers only: they say which primitive a layer's
//! cost is made of, never whether an end-to-end metric moved.

use crate::pipeline::{mem_wal, Captured};
use crate::workloads::heavy_policy_base;
use drams_analysis::verify::DecisionVerifier;
use drams_chain::block::Block;
use drams_chain::node::Node;
use drams_chain::tx::Transaction;
use drams_core::contract::{encode_batch, MonitorContract, MONITOR_CONTRACT};
use drams_core::logent::LogEntry;
use drams_core::scenario::probe_mac_key;
use drams_crypto::aead::{open, seal, SymmetricKey};
use drams_crypto::codec::{Decode, Encode};
use drams_crypto::hmac::hmac_sha256;
use drams_crypto::merkle::MerkleTree;
use drams_crypto::schnorr::{batch_verify, Keypair, PublicKey, Signature};
use drams_crypto::sha256::Digest;
use drams_faas::des::EventQueue;
use drams_faas::transport::{Transport, WireFrame, WireRole};
use drams_faas::workload::{RequestGenerator, Vocabulary};
use drams_net::frame::frame_bytes;
use drams_net::TcpTransport;
use drams_policy::compiled::PreparedPolicySet;
use drams_policy::pdp::Pdp;
use drams_store::persist::{compact_node_journal, recover_node, WalJournal};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One leaf result.
pub struct Leaf {
    /// Metric name.
    pub name: &'static str,
    /// Measured value, in the unit the metric table gives the name.
    pub value: f64,
}

/// What the leaf pass found wrong with the program's outputs (each
/// counts as an oracle violation).
pub type Violations = Vec<String>;

/// Wall time one timing batch aims for.
const BATCH: Duration = Duration::from_millis(4);
/// Batches per leaf; the fastest one is reported.
const BATCHES: usize = 5;

/// Nanoseconds per call of `f`: sizes a batch to ~[`BATCH`], runs
/// [`BATCHES`] of them and keeps the fastest — the same minimum rule the
/// end-to-end host metrics use.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let took = t.elapsed();
        if took >= BATCH || iters >= 1 << 24 {
            break;
        }
        // Aim past the target so the loop ends in a few doublings.
        iters = if took.as_nanos() == 0 {
            iters * 16
        } else {
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                clippy::cast_precision_loss
            )]
            let scaled = (iters as f64 * BATCH.as_secs_f64() / took.as_secs_f64() * 1.2) as u64;
            scaled.max(iters + 1)
        };
    }
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        #[allow(clippy::cast_precision_loss)]
        let per = t.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per);
    }
    best
}

/// Seconds `f` took, and what it returned.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Runs `f` three times — it reports the seconds of its own timed part —
/// and returns the fastest time with the last output.
fn best_of_three<R>(mut f: impl FnMut() -> (f64, R)) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let (s, out) = f();
        best = best.min(s);
        last = Some(out);
    }
    (best, last.expect("ran three times"))
}

/// Runs every leaf timing on `captured`.
///
/// # Panics
///
/// Panics when `captured` holds no entries, envelopes or non-empty
/// blocks — the capture run is a monitored pipeline run and always has
/// them.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(captured: &Captured) -> (Vec<Leaf>, Violations) {
    let mut out: Vec<Leaf> = Vec::new();
    let mut violations = Violations::new();
    let mut push = |name: &'static str, value: f64| out.push(Leaf { name, value });
    let us = |ns: f64| ns / 1_000.0;

    let key = SymmetricKey::from_bytes([42; 32]);
    let entry: &LogEntry = captured.entries.first().expect("captured entries");
    let entry_bytes = entry.to_canonical_bytes();
    let widest: &Block = captured
        .blocks
        .iter()
        .max_by_key(|b| b.transactions.len())
        .expect("captured blocks");
    let txs: &[Transaction] = &widest.transactions;
    let tx = txs.first().expect("a block with transactions");
    let signing = tx.signing_bytes();

    // --- drams-crypto -----------------------------------------------------------
    let kp = Keypair::from_seed(b"li-0");
    push(
        "crypto.schnorr.sign.us",
        us(ns_per_call(|| {
            black_box(kp.sign(black_box(&signing)));
        })),
    );
    push(
        "crypto.schnorr.verify.us",
        us(ns_per_call(|| {
            black_box(tx.sender.verify(black_box(&signing), &tx.signature)).expect("valid");
        })),
    );
    let batch_msgs: Vec<Vec<u8>> = txs
        .iter()
        .take(64)
        .map(Transaction::signing_bytes)
        .collect();
    let batch_items: Vec<(PublicKey, &[u8], Signature)> = txs
        .iter()
        .zip(&batch_msgs)
        .map(|(t, m)| (t.sender, m.as_slice(), t.signature))
        .collect();
    push(
        "crypto.schnorr.batch_verify.us_per_sig",
        us(ns_per_call(|| {
            batch_verify(black_box(&batch_items)).expect("valid batch");
        })) / batch_items.len() as f64,
    );
    let plaintext = captured
        .requests
        .first()
        .expect("captured requests")
        .to_canonical_bytes();
    let mut aad = Vec::with_capacity(41);
    aad.extend_from_slice(&entry.correlation.0.to_be_bytes());
    aad.push(entry.point.code());
    aad.extend_from_slice(entry.digest.as_bytes());
    push(
        "crypto.aead.seal.us",
        us(ns_per_call(|| {
            black_box(seal(&key, [7; 12], black_box(&aad), black_box(&plaintext)));
        })),
    );
    push(
        "crypto.aead.open.us",
        us(ns_per_call(|| {
            black_box(open(&key, black_box(&aad), &entry.sealed_payload)).expect("opens");
        })),
    );
    let mac_key = probe_mac_key(entry.probe);
    push(
        "crypto.hmac.us",
        us(ns_per_call(|| {
            black_box(hmac_sha256(&mac_key, black_box(&entry_bytes)));
        })),
    );
    let megabyte = vec![0xA5u8; 1 << 20];
    let sha_ns = ns_per_call(|| {
        black_box(Digest::of(black_box(&megabyte)));
    });
    push(
        "crypto.sha256.mb_per_s",
        (megabyte.len() as f64 / 1e6) / (sha_ns / 1e9),
    );
    let leaf_hashes: Vec<Digest> = (0..1024u32).map(|i| Digest::of(&i.to_be_bytes())).collect();
    push(
        "crypto.merkle.root.us_per_leaf",
        us(ns_per_call(|| {
            black_box(MerkleTree::from_leaf_hashes(black_box(leaf_hashes.clone())).root());
        })) / leaf_hashes.len() as f64,
    );
    push(
        "crypto.codec.entry_encode.us",
        us(ns_per_call(|| {
            black_box(black_box(entry).to_canonical_bytes());
        })),
    );
    push(
        "crypto.codec.entry_decode.us",
        us(ns_per_call(|| {
            black_box(LogEntry::from_canonical_bytes(black_box(&entry_bytes))).expect("decodes");
        })),
    );

    // --- drams-core ---------------------------------------------------------------
    if !entry.verify_mac(&mac_key) {
        violations.push("captured entry fails its own probe MAC".to_string());
    }
    push(
        "core.logent.verify_mac.us",
        us(ns_per_call(|| {
            black_box(black_box(entry).verify_mac(&mac_key));
        })),
    );
    let batch: &[LogEntry] = &captured.entries[..captured.entries.len().min(8)];
    push(
        "core.contract.encode_batch.us_per_entry",
        us(ns_per_call(|| {
            black_box(encode_batch(black_box(batch)));
        })) / batch.len() as f64,
    );

    // --- drams-store --------------------------------------------------------------
    const WAL_RECORDS: usize = 2_000;
    let (append_s, wal) = best_of_three(|| {
        let mut wal = mem_wal(64);
        let (s, ()) = timed(|| {
            for _ in 0..WAL_RECORDS {
                wal.append(black_box(&entry_bytes)).expect("append");
            }
        });
        (s, wal)
    });
    push("store.wal.append.us", append_s * 1e6 / WAL_RECORDS as f64);
    let (replay_s, replayed) = best_of_three(|| timed(|| wal.replay().expect("replay").len()));
    if replayed != WAL_RECORDS {
        violations.push(format!("wal replayed {replayed} of {WAL_RECORDS} records"));
    }
    push(
        "store.wal.replay.us_per_record",
        replay_s * 1e6 / WAL_RECORDS as f64,
    );
    let recover = || {
        recover_node(
            &captured.node_wal.borrow(),
            captured.chain_config.clone(),
            vec![Box::new(MonitorContract)],
        )
        .expect("chain node recovery")
    };
    let (recover_s, recovered) = best_of_three(|| timed(recover));
    if recovered.chain().tip_hash() != captured.tip {
        violations.push("recovered node's tip differs from the pipeline's".to_string());
    }
    push("store.recover_node.ms", recover_s * 1e3);
    // Compaction consumes its input, so it is timed once.
    let (compact_s, _) = timed(|| {
        compact_node_journal(&mut captured.node_wal.borrow_mut()).expect("journal compaction")
    });
    push("store.compact_node_journal.ms", compact_s * 1e3);
    if recover().chain().tip_hash() != captured.tip {
        violations.push("node recovered from the compacted journal has another tip".to_string());
    }

    // --- drams-chain --------------------------------------------------------------
    push(
        "chain.tx.new_signed.us",
        us(ns_per_call(|| {
            black_box(Transaction::new_signed(
                &kp,
                0,
                MONITOR_CONTRACT,
                "store_log_batch",
                black_box(tx.payload.clone()),
            ));
        })),
    );
    let all_txs: Vec<Transaction> = captured
        .blocks
        .iter()
        .flat_map(|b| b.transactions.iter().cloned())
        .collect();
    let (submit_s, ()) = best_of_three(|| {
        let mut node = Node::new(captured.chain_config.clone());
        node.register_contract(Box::new(MonitorContract));
        let journal = Rc::new(RefCell::new(mem_wal(256)));
        node.set_journal(Box::new(WalJournal::new(journal)));
        let batch = all_txs.clone();
        timed(|| {
            for tx in batch {
                node.submit_transaction(tx).expect("mempool accepts");
            }
        })
    });
    push(
        "chain.node.submit_transaction.us",
        submit_s * 1e6 / all_txs.len().max(1) as f64,
    );
    push(
        "chain.block.compute_tx_root.us_per_tx",
        us(ns_per_call(|| {
            black_box(Block::compute_tx_root(black_box(txs)));
        })) / txs.len() as f64,
    );
    push(
        "chain.block.verify_signatures.us_per_tx",
        us(ns_per_call(|| {
            black_box(widest).verify_signatures().expect("valid block");
        })) / txs.len() as f64,
    );

    // --- drams-policy / drams-analysis (1 000-policy base) ----------------------
    let heavy = heavy_policy_base();
    let (compile_s, _) = best_of_three(|| timed(|| PreparedPolicySet::compile(black_box(&heavy))));
    push("policy.compile.ms", compile_s * 1e3);
    let mut generator = RequestGenerator::new(Vocabulary::default(), 1.1, 11);
    let requests: Vec<_> = (0..256).map(|_| generator.next_request()).collect();
    let cold = Pdp::with_cache_capacity(heavy.clone(), 0);
    let mut i = 0usize;
    push(
        "policy.pdp.evaluate_cold.us",
        us(ns_per_call(|| {
            i = (i + 1) % requests.len();
            black_box(cold.evaluate(black_box(&requests[i])));
        })),
    );
    let cached = Pdp::new(heavy.clone());
    let responses: Vec<_> = requests.iter().map(|r| cached.evaluate(r)).collect();
    push(
        "policy.pdp.evaluate_cached.us",
        us(ns_per_call(|| {
            i = (i + 1) % requests.len();
            black_box(cached.evaluate(black_box(&requests[i])));
        })),
    );
    let verifier = DecisionVerifier::new(heavy);
    if !requests
        .iter()
        .zip(&responses)
        .all(|(r, resp)| verifier.verify(r, resp).is_consistent())
    {
        violations.push("verifier disagrees with the PDP it re-evaluates".to_string());
    }
    push(
        "analysis.verifier.verify.us",
        us(ns_per_call(|| {
            i = (i + 1) % requests.len();
            black_box(verifier.verify(black_box(&requests[i]), &responses[i]));
        })),
    );

    // --- drams-faas -----------------------------------------------------------------
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next_delay = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 44) + 1
    };
    for n in 0..4_096u64 {
        queue.schedule(next_delay(), n);
    }
    push(
        "faas.des.queue.ns_per_event",
        ns_per_call(|| {
            let (_, event) = queue.pop().expect("queue stays at depth 4096");
            queue.schedule(next_delay(), black_box(event));
        }),
    );
    let items = [1u64; 64];
    drams_faas::par::set_workers(2);
    let par_ns = ns_per_call(|| {
        black_box(drams_faas::par::map(black_box(&items), 2, |x| x + 1));
    });
    drams_faas::par::set_workers(1);
    push("faas.par.map.overhead_us", us(par_ns));

    // --- drams-net --------------------------------------------------------------------
    let frame = |seq: u64| WireFrame {
        role: WireRole::Pdp { slot: 0 },
        kind: 0,
        seq,
        delay: 0,
        payload: vec![0xA5; 212],
    };
    let sample = frame(1);
    push(
        "net.frame.encode.us",
        us(ns_per_call(|| {
            black_box(frame_bytes(black_box(&sample))).expect("small frame");
        })),
    );
    const PINGS: u64 = 20_000;
    let mut transport = TcpTransport::loopback();
    transport.roundtrip(frame(1)).expect("loopback warm-up");
    let mut rtt_us: Vec<f64> = (0..PINGS)
        .map(|n| {
            let f = frame(n + 2);
            let t = Instant::now();
            transport.roundtrip(f).expect("loopback round-trip");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(transport);
    rtt_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pct = |p: usize| rtt_us[(rtt_us.len() * p / 100).min(rtt_us.len() - 1)];
    push("net.roundtrip.p50_us", pct(50));
    push("net.roundtrip.p99_us", pct(99));

    (out, violations)
}
