//! Crash-recovery demo: the durable storage engine under the monitor.
//!
//! Part 1 drives the log engine directly — a chain node journaling into
//! a write-ahead log on real files, killed and rebuilt by replay.
//! Part 2 runs a full monitored federation twice: once uninterrupted,
//! once with every monitoring-plane service crash-restarted mid-run —
//! and shows the two runs are byte-identical.
//!
//! Run with: `cargo run --example crash_recovery`

use drams::chain::chain::ChainConfig;
use drams::chain::contract::KvStoreContract;
use drams::chain::node::Node;
use drams::core::adversary::NoAdversary;
use drams::core::monitor::{first_divergence, MonitorConfig};
use drams::core::scenario::{run_scenario, CrashTarget, ScenarioSpec, ScriptedAction};
use drams::crypto::schnorr::Keypair;
use drams::store::persist::{recover_node, WalJournal};
use drams::store::{Durability, FsBackend, Wal, WalConfig};
use drams_faas::des::MILLIS;
use drams_faas::model::TenantId;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    println!("== part 1: a journaled chain node on real files ==\n");
    let dir = std::env::temp_dir().join(format!("drams-crash-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ChainConfig {
        initial_difficulty_bits: 0,
        retarget_interval: 0,
        ..ChainConfig::default()
    };
    let wal = Rc::new(RefCell::new(
        Wal::open(
            Box::new(FsBackend::open(&dir).expect("temp dir")),
            WalConfig {
                segment_records: 64,
                durability: Durability::Flushed,
            },
        )
        .expect("wal"),
    ));
    let mut node = Node::new(config.clone());
    node.register_contract(Box::new(KvStoreContract));
    node.set_journal(Box::new(WalJournal::new(wal.clone())));
    let li = Keypair::from_seed(b"demo-li");
    for i in 0..10 {
        node.submit_call(&li, "kvstore", "put", format!("log entry {i}").into_bytes())
            .expect("submit");
        if i % 4 == 3 {
            node.mine_block(1_000 + i).expect("mine");
        }
    }
    let tip = node.chain().tip_hash();
    let pending = node.mempool_len();
    println!(
        "before the crash: height {}, {} txs still in the mempool",
        2, pending
    );
    drop(node); // power cut

    let recovered =
        recover_node(&wal.borrow(), config, vec![Box::new(KvStoreContract)]).expect("recovery");
    println!(
        "after replay:     height {}, {} txs back in the mempool, tip matches: {}",
        recovered.chain().tip_header().height,
        recovered.mempool_len(),
        recovered.chain().tip_hash() == tip
    );
    assert_eq!(recovered.chain().tip_hash(), tip);
    assert_eq!(recovered.mempool_len(), pending);
    let _ = std::fs::remove_dir_all(&dir);

    println!("\n== part 2: crash-restarting the monitoring plane mid-run ==\n");
    let config = MonitorConfig {
        total_requests: 80,
        request_rate_per_sec: 200.0,
        ..MonitorConfig::default()
    };
    let crashed_spec = ScenarioSpec {
        name: "demo_crashes".to_string(),
        script: vec![
            ScriptedAction::CrashRestart {
                at: 150 * MILLIS,
                target: CrashTarget::ChainNode,
            },
            ScriptedAction::CrashRestart {
                at: 250 * MILLIS,
                target: CrashTarget::Li(TenantId(1)),
            },
            ScriptedAction::CrashRestart {
                at: 350 * MILLIS,
                target: CrashTarget::Analyser,
            },
        ],
        ..ScenarioSpec::canonical(&config)
    };
    let (clean, clean_truth) = run_scenario(&ScenarioSpec::canonical(&config), &mut NoAdversary);
    let (crashed, crashed_truth) = run_scenario(&crashed_spec, &mut NoAdversary);
    println!(
        "uninterrupted: {} completed, {} groups, {} alerts",
        clean.requests_completed,
        clean.groups_completed,
        clean.alerts.len()
    );
    println!(
        "3 crashes:     {} completed, {} groups, {} alerts, {} restarts",
        crashed.requests_completed,
        crashed.groups_completed,
        crashed.alerts.len(),
        crashed.crash_restarts
    );
    assert_eq!(
        first_divergence(&clean, &clean_truth, &crashed, &crashed_truth),
        None
    );
    println!("\nOK: recovery lost nothing and repeated nothing (byte-identical run).");
}
