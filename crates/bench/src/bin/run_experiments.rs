//! Regenerates every experiment table of the DRAMS reproduction
//! (EXPERIMENTS.md).
//!
//! Usage: `cargo run --release -p drams-bench --bin run_experiments [e1..e3|e5..e14|e16|all] [--scenario <name>]`
//!
//! Run with `--release`: E2 performs real proof-of-work hashing.
//!
//! Every experiment builds its results as [`drams_bench::report`]
//! sections — ordered `(column, value)` pairs that are printed, checked
//! against the gate table and written into the tracked `BENCH_*.json`
//! files at the repo root (EXPERIMENTS.md lists file, sections and gates
//! per experiment). Each file is written *before* its gates are
//! enforced, so a regression lands in the diff, and a section whose
//! experiment did not run is carried over from the committed file. Any
//! violated gate, unreadable committed file or failed write exits 1
//! after everything has run; a mistyped experiment or flag exits 2
//! before anything runs. Each experiment has one size, the one its
//! committed section was measured at, so every gate that compares with
//! the committed file always compares.

#![forbid(unsafe_code)]

use drams_attack::{score, FaultWindow, ScriptedAdversary, ThreatKind};
use drams_bench::log_entry_of_size;
use drams_bench::report::{self, Members, Section, Value, REGISTRY};
use drams_bench::scenarios;
use drams_bench::{members, row};
use drams_chain::block::Block;
use drams_chain::chain::ChainConfig;
use drams_chain::fork::integrity_sweep;
use drams_chain::net::{simulate, NetConfig};
use drams_chain::node::Node;
use drams_core::adversary::NoAdversary;
use drams_core::contract::{encode_batch, MonitorContract, MONITOR_CONTRACT};
use drams_core::monitor::{
    first_divergence, run_monitor, GroundTruth, MonitorConfig, MonitorReport,
};
use drams_core::scenario::{run_scenario, ScenarioSpec};
use drams_crypto::schnorr::Keypair;
use drams_faas::des::{MILLIS, SECONDS};
use drams_faas::model::FederationSpec;
use drams_faas::workload::{PolicyGenerator, PolicyShape, RequestGenerator, Vocabulary};
use drams_policy::compiled::PreparedPolicySet;
use drams_policy::pdp::Pdp;
use std::time::Instant;

const USAGE: &str = "\
usage: run_experiments [e1 .. e3 | e5 .. e14 | e16 | all] [--scenario <name>]
  --scenario <name>  run one E10 scenario only (its committed section is left untouched)";

/// A parsed command line: what an experiment is told — and where it
/// leaves a failure the gate table cannot express.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    scenario: Option<String>,
    /// Ids of the experiments to run (all of them when none was named).
    selected: Vec<&'static str>,
    failures: Vec<String>,
}

type Experiment = fn(&mut Run) -> Vec<Section>;

/// Every experiment, in run order: id, banner, body. Each returns the
/// sections of its tracked file. There is no `e4`: its threat matrix is
/// asserted by `tests/attack_matrix.rs` and generalised by E12. There is
/// no `e15`: it measured the worker pool and went with it. The other ids
/// keep their numbers.
#[rustfmt::skip]
const EXPERIMENTS: [(&str, &str, Experiment); 14] = [
    ("e1", "log size vs on-chain storage cost per entry", e1_log_size_vs_latency),
    ("e2", "PoW difficulty vs work; attacker rewrite probability; gossip", e2_pow_tuning_and_integrity),
    ("e3", "hybrid DB+chain: write cost vs tamper-exposure window", e3_hybrid_store),
    ("e5", "PDP evaluation & formal analysis vs policy size", e5_policy_engine_scaling),
    ("e6", "end-to-end request latency: monitoring off vs on", e6_monitoring_overhead),
    ("e7", "scalability: tenants vs monitoring pipeline", e7_federation_scalability),
    ("e8", "ablations: LI batching and epoch length", e8_ablations),
    ("e9", "crypto substrate: Algorithm D reference vs Montgomery fast path", e9_crypto_substrate),
    ("e10", "end-to-end scenario matrix (event-driven runtime, virtual time)", e10_scenario_matrix),
    ("e11", "durable storage engine + crash-restart recovery scenarios", e11_storage_and_recovery),
    ("e12", "adversarial scenario fuzzing, oracle-checked end to end", e12_adversarial_fuzz),
    ("e13", "network fault plane: retry/failover/spill-replay, degraded mode", e13_fault_plane),
    ("e14", "overload robustness: flash crowds, shedding, bounded peak state", e14_overload),
    ("e16", "wire format: loopback TCP round-trips and conformance", e16_net),
];

/// Why a command line was refused.
#[derive(Debug, PartialEq, Eq)]
enum ArgError {
    UnknownExperiment(String),
    UnknownFlag(String),
    ScenarioNeedsName,
    ScenarioNeedsE10,
    UnknownScenario(String),
}

/// Parses the command line; pure, so a typo is refused before anything
/// runs (and before anything writes over the committed files).
fn parse_args(args: &[String]) -> Result<Run, ArgError> {
    let (mut all, mut scenario, mut selected) = (false, None, Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => {
                let name = args.next().filter(|name| !name.starts_with('-'));
                scenario = Some(name.ok_or(ArgError::ScenarioNeedsName)?.clone());
            }
            "all" => all = true,
            flag if flag.starts_with('-') => return Err(ArgError::UnknownFlag(flag.to_string())),
            id => match EXPERIMENTS.iter().find(|(known, ..)| *known == id) {
                Some((known, ..)) => selected.push(*known),
                None => return Err(ArgError::UnknownExperiment(id.to_string())),
            },
        }
    }
    if all || selected.is_empty() {
        selected = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
    }
    if let Some(name) = &scenario {
        if !selected.contains(&"e10") {
            return Err(ArgError::ScenarioNeedsE10);
        }
        if scenarios::matrix().iter().all(|s| s.name != *name) {
            return Err(ArgError::UnknownScenario(name.clone()));
        }
    }
    let failures = Vec::new();
    Ok(Run {
        scenario,
        selected,
        failures,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut run = match parse_args(&argv) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("DRAMS experiment suite — reproduction of Ferdous et al., ICDCS 2017");
    println!("(derived from the paper's §III claims; see EXPERIMENTS.md)\n");

    let mut produced = Vec::new();
    for (id, claim, experiment) in &EXPERIMENTS {
        if run.selected.contains(id) {
            println!("\n==================================================================");
            println!("{}: {claim}", id.to_uppercase());
            println!("==================================================================");
            produced.extend(experiment(&mut run));
        }
    }

    // One pass per tracked file that got a fresh section: compare with
    // the committed file, write, and collect what failed.
    let mut failures = run.failures;
    println!();
    for spec in &REGISTRY {
        let in_file = |s: &&Section| spec.sections.contains(&s.key.as_str());
        let fresh: Vec<Section> = produced.iter().filter(in_file).cloned().collect();
        if fresh.is_empty() {
            continue;
        }
        let path = report::repo_file_path(spec.file);
        let verdict = report::commit(&path, spec, &fresh);
        println!("wrote {}", path.display());
        failures.extend(verdict.failures);
    }
    if !failures.is_empty() {
        eprintln!("\n{} failure(s):", failures.len());
        for failure in &failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
    println!("\ndone.");
}

/// Stamps, prints and returns one section of a tracked file.
fn section(key: &str, members: Members) -> Section {
    let section = Section::produced(key, members);
    print!("{section}");
    section
}

/// Whether each value is above the one before it.
fn rising(values: &[f64]) -> bool {
    values.windows(2).all(|pair| pair[0] < pair[1])
}

/// Runs `f`, returning its result and its wall-clock time in ms.
fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64() * 1_000.0)
}

/// Best-of-`rounds` wall time of `iters` calls of `f`, in µs per call.
/// Min-of-rounds is robust against CPU contention on a shared machine,
/// which single-pass timing is not.
fn best_us<T>(rounds: u32, iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e6 / f64::from(iters));
    }
    best
}

/// Whether two runs are byte-identical twins
/// ([`drams_core::monitor::first_divergence`]). The report column is a
/// bool, so a divergence is named on stderr.
fn twin_matched(
    scenario: &str,
    a: &(MonitorReport, GroundTruth),
    b: &(MonitorReport, GroundTruth),
) -> bool {
    let divergence = first_divergence(&a.0, &a.1, &b.0, &b.1);
    if let Some(d) = &divergence {
        eprintln!("{scenario}: twin diverged on {d}");
    }
    divergence.is_none()
}

/// E1 — paper §III: "the bigger the \[log\] size is, the higher is the
/// latency to store the log on the blockchain."
///
/// Mining hashes the fixed-size header, so its cost does not depend on
/// the entry (E2 tabulates it per difficulty). What grows with the entry
/// is encoding, signature verification, Merkle rooting and contract
/// execution, measured here at difficulty 0. Emits `BENCH_CHAIN.json`.
fn e1_log_size_vs_latency(_: &mut Run) -> Vec<Section> {
    const ENTRIES: usize = 256;
    let mut rows = Vec::new();
    let mut per_entry_us = Vec::new();
    for &payload_bytes in &[64usize, 512, 4096, 16384] {
        let mut node = Node::new(ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            max_block_txs: 64,
            ..ChainConfig::default()
        });
        node.register_contract(Box::new(MonitorContract));
        let li = Keypair::from_seed(b"e1-li");
        node.submit_call(
            &li,
            MONITOR_CONTRACT,
            "init",
            MonitorContract::init_payload(10_000, li.public().fingerprint()),
        )
        .expect("init");
        node.mine_block(0).expect("mine init");
        let payloads: Vec<Vec<u8>> = (0..ENTRIES)
            .map(|i| encode_batch(&[log_entry_of_size(i as u64, payload_bytes)]))
            .collect();
        let start = Instant::now();
        for bytes in payloads {
            node.submit_call(&li, MONITOR_CONTRACT, "store_log_batch", bytes)
                .expect("submit");
        }
        let mut ts = 1u64;
        while node.mempool_len() > 0 {
            node.mine_block(ts).expect("mine");
            ts += 1;
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / ENTRIES as f64;
        per_entry_us.push(us);
        rows.push(row! {
            payload_bytes: payload_bytes,
            entries: ENTRIES,
            us_per_entry: us,
        });
    }
    let grows = per_entry_us.last() > per_entry_us.first();
    vec![section(
        "e1_log_size",
        members! { rows: rows, grows: grows },
    )]
}

/// E2 — paper §III: PoW parameters tune latency, but "a possibly
/// lightweight PoW … does not ensure strong integrity guarantees."
/// Emits `BENCH_CHAIN.json`.
fn e2_pow_tuning_and_integrity(_: &mut Run) -> Vec<Section> {
    // Real hashing. `Block::mine` counts the nonce up from 0, so the work
    // per block is deterministic and only `ms_per_block` is wall clock.
    const BLOCKS: u64 = 6;
    let mut difficulty = Vec::new();
    let mut work = Vec::new();
    for &bits in &[4u32, 8, 12, 16, 18] {
        let mut parent = drams_crypto::sha256::Digest::ZERO;
        let mut hashes = 0u64;
        let start = Instant::now();
        for h in 0..BLOCKS {
            let block = Block::mine(parent, h, vec![], h, bits);
            hashes += block.header.nonce + 1;
            parent = block.hash();
        }
        let ms_per_block = start.elapsed().as_secs_f64() * 1_000.0 / BLOCKS as f64;
        let hashes_per_block = hashes as f64 / BLOCKS as f64;
        work.push(hashes_per_block);
        difficulty.push(row! {
            bits: u64::from(bits),
            blocks: BLOCKS,
            ms_per_block: ms_per_block,
            hashes_per_block: hashes_per_block,
            expected_hashes: 1u64 << bits,
        });
    }

    // The simulated race starts z + 1 blocks behind, so it estimates the
    // catch-up closed form, a lower bound on Nakamoto's value; it must
    // lie within four binomial standard errors of that closed form.
    const TRIALS: u32 = 20_000;
    let integrity: Vec<Value> = integrity_sweep(&[0.1, 0.25, 0.4], &[1, 3, 6, 12], TRIALS, 42)
        .iter()
        .map(|point| {
            let catch_up = point.catch_up_probability;
            let band = 4.0 * (catch_up * (1.0 - catch_up) / f64::from(TRIALS)).sqrt();
            row! {
                q: point.attacker_share,
                confirmations: u64::from(point.confirmations),
                nakamoto: point.rewrite_probability,
                catch_up: catch_up,
                simulated: point.simulated_probability,
                within_ci: (point.simulated_probability - catch_up).abs() <= band,
            }
        })
        .collect();

    // Small-network gossip in virtual time.
    let mut gossip = Vec::new();
    let mut stale = Vec::new();
    for &link_latency_ms in &[10u64, 100, 400] {
        let stats = simulate(&NetConfig {
            hashrates: vec![1.0; 4],
            mean_block_interval_ms: 500.0,
            link_latency_ms: link_latency_ms as f64,
            horizon_ms: 150_000,
            seed: 7,
        });
        stale.push(stats.stale_rate());
        gossip.push(row! {
            link_latency_ms: link_latency_ms,
            blocks: stats.blocks_mined,
            stale_pct: stats.stale_rate() * 100.0,
            reorgs: stats.reorgs,
        });
    }
    let members = members! {
        difficulty: difficulty,
        work_rises_with_bits: rising(&work),
        integrity: integrity,
        gossip: gossip,
        stale_rises_with_latency: rising(&stale),
    };
    vec![section("e2_pow", members)]
}

/// E3 — paper §III: the hybrid DB+blockchain trade-off (ref \[9\]).
/// Emits `BENCH_STORE.json`.
fn e3_hybrid_store(_: &mut Run) -> Vec<Section> {
    use drams_store::{AnchorContract, AnchoredStore};
    const ENTRIES: u64 = 4096;

    // Pure on-chain baseline: every entry is its own transaction.
    let mut node = Node::new(ChainConfig {
        initial_difficulty_bits: 0,
        retarget_interval: 0,
        max_block_txs: 4096,
        ..ChainConfig::default()
    });
    node.register_contract(Box::new(MonitorContract));
    let li = Keypair::from_seed(b"e3-li");
    node.submit_call(
        &li,
        MONITOR_CONTRACT,
        "init",
        MonitorContract::init_payload(10_000, li.public().fingerprint()),
    )
    .expect("init");
    let start = Instant::now();
    for i in 0..ENTRIES {
        let batch = encode_batch(&[log_entry_of_size(i, 128)]);
        node.submit_call(&li, MONITOR_CONTRACT, "store_log_batch", batch)
            .expect("submit");
    }
    while node.mempool_len() > 0 {
        node.mine_block(0).expect("mine");
    }
    let us_per_write = start.elapsed().as_secs_f64() * 1e6 / ENTRIES as f64;
    let chain = node.chain();
    let committed: usize = (0..=chain.tip_header().height)
        .filter_map(|height| chain.block_at_height(height))
        .map(|block| block.transactions.len())
        .sum();
    let pure_chain = row! {
        entries: ENTRIES,
        chain_txs: committed - 1, // all but `init`
        us_per_write: us_per_write,
        max_window: 0u64,
    };

    let mut hybrid = Vec::new();
    for &period in &[8usize, 64, 256] {
        let mut node = Node::new(ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            ..ChainConfig::default()
        });
        node.register_contract(Box::new(AnchorContract));
        let mut store = AnchoredStore::new(period, Keypair::from_seed(b"e3-store"));
        let start = Instant::now();
        let mut max_window = 0usize;
        for i in 0..ENTRIES {
            store
                .append(format!("log-{i}").into_bytes(), &mut node)
                .expect("append");
            max_window = max_window.max(store.log().unsealed_len() + 1);
        }
        node.mine_block(0).expect("mine");
        let us_per_write = start.elapsed().as_secs_f64() * 1e6 / ENTRIES as f64;
        hybrid.push(row! {
            period: period,
            chain_txs: store.anchors_submitted(),
            us_per_write: us_per_write,
            max_window: max_window,
        });
    }
    let members = members! { pure_chain: pure_chain, hybrid: hybrid };
    vec![section("e3_hybrid", members)]
}

/// E5 — paper §II: the Analyser re-evaluates decisions against the formal
/// policy semantics; here we scale the policy base — tree-walking
/// interpreter vs the compiled engine.
fn e5_policy_engine_scaling(_: &mut Run) -> Vec<Section> {
    let sizes: &[usize] = &[10, 50, 100, 500, 1000];
    let request_count = 500;
    let mut rows = Vec::new();
    let mut completeness = Vec::new();
    for &policies in sizes {
        let shape = PolicyShape {
            policies,
            rules_per_policy: 5,
            ..PolicyShape::default()
        };
        let mut pgen = PolicyGenerator::new(Vocabulary::default(), 5);
        let set = pgen.next_policy_set(&shape);
        let pdp = Pdp::new(&set);
        let mut rgen = RequestGenerator::new(Vocabulary::default(), 1.0, 6);
        let requests: Vec<_> = (0..request_count).map(|_| rgen.next_request()).collect();

        let time_per_decision = |f: &dyn Fn(&drams_policy::attr::Request)| {
            let start = Instant::now();
            for r in &requests {
                f(r);
            }
            start.elapsed().as_secs_f64() * 1e6 / requests.len() as f64
        };
        // Interleave the engines over several rounds and keep each
        // engine's best round: min-of-rounds is robust against CPU
        // contention and frequency drift, which single-pass timing on a
        // shared machine is not.
        let rounds = 3;
        let mut interpreter_us = f64::INFINITY;
        let mut compiled_us = f64::INFINITY;
        // A version's whole life outside evaluation: compile, then free,
        // repeated within a round until the round covers ~1,000 policies
        // (a 10-policy compile alone is tens of µs, below the host's
        // noise).
        let mut compile_ms = f64::INFINITY;
        let compiles = (1_000 / policies).max(1);
        for _ in 0..rounds {
            interpreter_us = interpreter_us.min(time_per_decision(&|r| {
                std::hint::black_box(set.evaluate(r));
            }));
            compiled_us = compiled_us.min(time_per_decision(&|r| {
                std::hint::black_box(pdp.evaluate(r));
            }));
            let start = Instant::now();
            for _ in 0..compiles {
                drop(std::hint::black_box(PreparedPolicySet::compile(&set)));
            }
            let ms = start.elapsed().as_secs_f64() * 1_000.0 / compiles as f64;
            compile_ms = compile_ms.min(ms);
        }
        if policies <= 100 {
            let start = Instant::now();
            let _ = drams_analysis::completeness(&set).expect("analysable");
            let ms = start.elapsed().as_secs_f64() * 1_000.0;
            completeness.push(row! { policies: policies, ms: ms });
        }
        rows.push(row! {
            policies: policies,
            rules: set.rule_count(),
            interpreter_us_per_decision: interpreter_us,
            compiled_us_per_decision: compiled_us,
            speedup_compiled_vs_interpreter: interpreter_us / compiled_us,
            compile_ms: compile_ms,
        });
    }
    vec![section(
        "e5_pdp_scaling",
        members! { rows: rows, completeness: completeness },
    )]
}

/// E6 — monitoring overhead: probes must sit off the decision path.
///
/// The latency summaries are *virtual-time* and thus invariant under
/// crypto changes; wall time is where the signing/hashing cost of the
/// pipeline actually shows, so both are tracked.
fn e6_monitoring_overhead(_: &mut Run) -> Vec<Section> {
    let base = MonitorConfig {
        total_requests: 1_000,
        request_rate_per_sec: 200.0,
        ..MonitorConfig::default()
    };
    let off = MonitorConfig {
        monitoring_enabled: false,
        analyser_enabled: false,
        ..base.clone()
    };
    let ((r_off, _), off_wall_ms) = timed_ms(|| run_monitor(&off, &mut NoAdversary));
    let ((r_on, _), on_wall_ms) = timed_ms(|| run_monitor(&base, &mut NoAdversary));
    let latency = |r: &MonitorReport| {
        row! {
            mean_ms: r.e2e_latency.mean() / 1_000.0,
            p95_ms: r.e2e_latency.percentile(95.0) as f64 / 1_000.0,
            p99_ms: r.e2e_latency.percentile(99.0) as f64 / 1_000.0,
            chain_txs: r.txs_committed,
        }
    };
    let (off_mean, on_mean) = (r_off.e2e_latency.mean(), r_on.e2e_latency.mean());
    let overhead_pct = if off_mean > 0.0 {
        (on_mean / off_mean - 1.0) * 100.0
    } else {
        0.0
    };
    let pipeline_mean_ms = r_on.log_commit_latency.mean() / 1_000.0;
    let overhead = section(
        "e6_monitoring_overhead",
        members! {
            requests: base.total_requests,
            off: latency(&r_off),
            on: latency(&r_on),
            critical_path_overhead_pct: overhead_pct,
            pipeline_mean_ms: pipeline_mean_ms,
            sim_wall_ms_off: off_wall_ms,
            sim_wall_ms_on: on_wall_ms,
        },
    );
    vec![overhead]
}

/// E7 — federation scale: tenants × request rate. Per-tenant LIs fan
/// in to the chain, whose block capacity is the shared bottleneck; every
/// request must still complete its group. Emits `BENCH_E2E.json`.
fn e7_federation_scalability(_: &mut Run) -> Vec<Section> {
    let mut rows = Vec::new();
    for &tenants in &[2u32, 8, 16, 32] {
        let config = MonitorConfig {
            federation: FederationSpec::symmetric(tenants, 1, 2),
            total_requests: 600,
            request_rate_per_sec: 150.0,
            block_interval: 250 * MILLIS,
            ..MonitorConfig::default()
        };
        let (report, _) = run_monitor(&config, &mut NoAdversary);
        rows.push(row! {
            tenants: u64::from(tenants),
            requests: report.requests_issued,
            completed: report.requests_completed,
            groups: report.groups_completed,
            entries: report.entries_logged,
            commit_mean_ms: report.log_commit_latency.mean() / 1_000.0,
            max_mempool: report.max_mempool,
        });
    }
    vec![section("e7_scale", members! { rows: rows })]
}

/// E9 — the crypto substrate: Montgomery fast path vs the retained
/// Algorithm D reference, and batch vs individual Schnorr verification.
///
/// The monitoring pipeline's cost is bounded by log hashing/signing
/// (paper §III); this table tracks the primitive layer the pipeline
/// stands on. Emits `BENCH_CRYPTO.json`.
fn e9_crypto_substrate(_: &mut Run) -> Vec<Section> {
    use drams_crypto::bignum::U256;
    use drams_crypto::montgomery;
    use drams_crypto::schnorr::{batch_verify, group_p};

    let (rounds, iters) = (5, 64);
    // One old-vs-new comparison (µs per operation).
    let old_new = |reference_us: f64, fast_us: f64| {
        row! { reference_us: reference_us, fast_us: fast_us, speedup: reference_us / fast_us }
    };

    // mod_pow over the real group modulus with full-width exponents.
    let p = group_p();
    let base = U256::from_hex("1e2feb89414c343c1027c4d1c386bbc4cd613e30d8f16adf91b7584a2265b1f5");
    let exp = U256::from_hex("35bf992dc9e9c616612e7696a6cecc1b78e510617311d8a3c2ce6f447ed4d57b");
    let mont_p = drams_crypto::montgomery::MontCtx::new(p);
    let mod_pow = old_new(
        best_us(rounds, iters, || base.mod_pow(&exp, &p)),
        best_us(rounds, iters, || mont_p.pow(&base, &exp)),
    );
    // Sanity: the two paths agree (also property-tested in drams-crypto).
    assert_eq!(montgomery::mod_pow(&base, &exp, &p), base.mod_pow(&exp, &p));

    let kp = Keypair::from_seed(b"e9-crypto");
    let msg = b"a log entry submission";
    let sign = old_new(
        best_us(rounds, iters, || kp.secret().sign_reference(msg)),
        best_us(rounds, iters, || kp.sign(msg)),
    );
    let sig = kp.sign(msg);
    let verify = old_new(
        best_us(rounds, iters, || {
            kp.public().verify_reference(msg, &sig).expect("valid")
        }),
        best_us(rounds, iters, || {
            kp.public().verify(msg, &sig).expect("valid")
        }),
    );

    // Batch verification over the shared fixture, total µs per batch.
    let batch_size = 64usize;
    let owned = drams_bench::schnorr_batch(4, batch_size);
    let batch = drams_bench::batch_items(&owned);
    let batch_rounds = 8;
    let individual_reference_us = best_us(batch_rounds, 1, || {
        for (pk, m, s) in &batch {
            pk.verify_reference(m, s).expect("valid");
        }
    });
    let individual_fast_us = best_us(batch_rounds, 1, || {
        for (pk, m, s) in &batch {
            pk.verify(m, s).expect("valid");
        }
    });
    let batch_us = best_us(batch_rounds, 1, || {
        batch_verify(&batch).expect("valid batch")
    });
    let batch_verify = row! {
        batch_size: batch_size,
        individual_reference_us: individual_reference_us,
        individual_fast_us: individual_fast_us,
        batch_us: batch_us,
        speedup_vs_individual_reference: individual_reference_us / batch_us,
        speedup_vs_individual_fast: individual_fast_us / batch_us,
    };

    let crypto = section(
        "e9_crypto",
        members! {
            mod_pow: mod_pow,
            sign: sign,
            verify: verify,
            batch_verify: batch_verify,
        },
    );
    vec![crypto]
}

/// E10 — the end-to-end scenario matrix on the event-driven runtime:
/// steady state, burst with tenant churn, mid-flight policy flip, a
/// degraded Logging Interface, and a per-cloud PDP federation.
///
/// Each scenario runs three times (`E10_REPETITIONS`): the row's
/// `wall_ms` is the fastest run, so one host stall cannot halve its
/// `sim_speedup`, and every repetition must be a byte-identical twin of
/// the first.
///
/// Emits `BENCH_E2E.json`, unless `--scenario` filtered the matrix: a
/// filtered run prints its row but never replaces the committed section
/// with a partial matrix.
fn e10_scenario_matrix(run: &mut Run) -> Vec<Section> {
    const E10_REPETITIONS: usize = 3;
    let mut matrix = scenarios::matrix();
    if let Some(name) = &run.scenario {
        matrix.retain(|s| s.name == *name);
    }
    let mut rows = Vec::new();
    for spec in &matrix {
        let (first, mut wall_ms) = timed_ms(|| run_scenario(spec, &mut NoAdversary));
        for _ in 1..E10_REPETITIONS {
            let (again, ms) = timed_ms(|| run_scenario(spec, &mut NoAdversary));
            assert!(
                twin_matched(&spec.name, &first, &again),
                "{}: a repetition of the run diverged from the first",
                spec.name
            );
            wall_ms = wall_ms.min(ms);
        }
        let (report, truth) = first;
        assert_eq!(truth.total_attacks(), 0, "scenario faults are not attacks");
        let e2e = report.e2e_latency.report();
        let attempts: Vec<Value> = e2e.attempts.iter().map(|&n| n.into()).collect();
        let commit_p95_ms = report.log_commit_latency.percentile(95.0) as f64 / 1_000.0;
        let requests_per_sec = report.requests_issued as f64 / (wall_ms / 1_000.0).max(1e-9);
        // Virtual seconds simulated per wall-clock second (the DES
        // real-time factor) — the column the perf gate compares.
        let sim_speedup = (report.finished_at as f64 / 1_000.0) / wall_ms.max(1e-9);
        rows.push(row! {
            scenario: spec.name.as_str(),
            requests: report.requests_issued,
            completed: report.requests_completed,
            dropped: report.requests_dropped,
            groups_completed: report.groups_completed,
            entries_logged: report.entries_logged,
            alerts: report.alerts.len(),
            policy_activations: report.policy_activations,
            retries: e2e.retries,
            delivery_attempts: attempts,
            e2e_mean_ms: report.e2e_latency.mean() / 1_000.0,
            commit_p95_ms: commit_p95_ms,
            wall_ms: wall_ms,
            requests_per_sec: requests_per_sec,
            sim_speedup: sim_speedup,
        });
    }
    let matrix = section("e10_scenarios", members! { rows: rows });
    if run.scenario.is_some() {
        println!("\n(--scenario filter active: e10_scenarios left untouched)");
        return Vec::new();
    }
    vec![matrix]
}

/// E11 — the durable storage engine and the crash-restart scenarios.
///
/// Part 1 measures the log engine itself (append/replay/snapshot cost
/// per backend × durability). Part 2 runs the crash-restart matrix: each
/// monitoring-plane service is killed mid-run, restarted from its
/// durable store, and the run's alerts + ground truth are required to be
/// byte-identical to the uninterrupted twin. Emits `BENCH_STORE.json`.
fn e11_storage_and_recovery(_: &mut Run) -> Vec<Section> {
    use drams_store::{Durability, FsBackend, MemBackend, Wal, WalConfig};

    // -- part 1: the engine ------------------------------------------------
    let records: u64 = 32_000;
    let payload = vec![0xA5u8; 256];
    let tmp_root = std::env::temp_dir().join(format!("drams-e11-{}", std::process::id()));
    let mut engine_rows = Vec::new();
    let configs: [(&str, Durability); 3] = [
        ("mem-flushed", Durability::Flushed),
        ("fs-buffered", Durability::Buffered),
        ("fs-flushed", Durability::Flushed),
    ];
    for (name, durability) in configs {
        let wal_config = WalConfig {
            segment_records: 1024,
            durability,
        };
        let mut wal = if name.starts_with("fs") {
            let dir = tmp_root.join(name);
            let _ = std::fs::remove_dir_all(&dir);
            Wal::open(
                Box::new(FsBackend::open(&dir).expect("temp dir")),
                wal_config,
            )
            .expect("fs wal")
        } else {
            Wal::open(Box::new(MemBackend::new()), wal_config).expect("mem wal")
        };
        // Mean µs per appended record, including the per-record sync
        // when the durability is `Flushed`.
        let start = Instant::now();
        for _ in 0..records {
            wal.append(&payload).expect("append");
        }
        wal.sync().expect("sync");
        let append_us = start.elapsed().as_secs_f64() * 1e6 / records as f64;
        let start = Instant::now();
        let replayed = wal.replay().expect("replay").len();
        let replay_us = start.elapsed().as_secs_f64() * 1e6 / records as f64;
        // One snapshot write + segment prune.
        let start = Instant::now();
        wal.write_snapshot(records / 2, b"engine-bench-state")
            .expect("snapshot");
        wal.prune_through(records / 2).expect("prune");
        let snapshot_us = start.elapsed().as_secs_f64() * 1e6;
        engine_rows.push(row! {
            backend: name,
            records: records,
            replayed: replayed,
            payload_bytes: payload.len(),
            append_us_per_record: append_us,
            replay_us_per_record: replay_us,
            snapshot_prune_us: snapshot_us,
        });
    }
    let engine = section("e11_store_engine", members! { rows: engine_rows });

    let _ = std::fs::remove_dir_all(&tmp_root);

    // -- part 2: the recovery matrix ---------------------------------------
    let mut recovery_rows = Vec::new();
    for spec in scenarios::recovery_matrix() {
        let clean = run_scenario(&scenarios::strip_crashes(&spec), &mut NoAdversary);
        let (crashed, wall_ms) = timed_ms(|| run_scenario(&spec, &mut NoAdversary));
        recovery_rows.push(row! {
            scenario: spec.name.as_str(),
            completed: crashed.0.requests_completed,
            groups_completed: crashed.0.groups_completed,
            alerts: crashed.0.alerts.len(),
            crash_restarts: crashed.0.crash_restarts,
            matched: twin_matched(&spec.name, &clean, &crashed),
            wall_ms: wall_ms,
        });
    }
    let recovery = section("e11_recovery", members! { rows: recovery_rows });
    vec![engine, recovery]
}

/// E8 — ablations of DRAMS design choices: (a) LI batch size against
/// chain traffic, (b) epoch length against drop-log detection. Emits
/// `BENCH_E2E.json`.
fn e8_ablations(_: &mut Run) -> Vec<Section> {
    let mut batching = Vec::new();
    let mut txs = Vec::new();
    for &batch in &[1usize, 4, 16, 64] {
        let config = MonitorConfig {
            total_requests: 600,
            request_rate_per_sec: 200.0,
            li_batch_size: batch,
            ..MonitorConfig::default()
        };
        let (report, _) = run_monitor(&config, &mut NoAdversary);
        txs.push(report.txs_committed);
        batching.push(row! {
            batch: batch,
            chain_txs: report.txs_committed,
            commit_mean_ms: report.log_commit_latency.mean() / 1_000.0,
            entries_per_tx: report.entries_logged as f64 / report.txs_committed.max(1) as f64,
        });
    }

    let mut epochs = Vec::new();
    for &epoch_blocks in &[1u64, 2, 5, 10] {
        let config = MonitorConfig {
            total_requests: 300,
            request_rate_per_sec: 150.0,
            epoch_blocks,
            group_timeout: 2 * SECONDS,
            seed: 5,
            ..MonitorConfig::default()
        };
        let mut adversary = ScriptedAdversary::new(ThreatKind::DropLog, 0.08, 17);
        let (report, truth) = run_monitor(&config, &mut adversary);
        let s = score(ThreatKind::DropLog, &report, &truth);
        epochs.push(row! {
            epoch_blocks: epoch_blocks,
            attacks: s.attacks,
            detected: s.detected,
            false_positives: s.false_positives,
            detect_mean_ms: report.detection_latency.mean() / 1_000.0,
        });
    }
    let members = members! {
        batching: batching,
        txs_fall_with_batch: txs.windows(2).all(|pair| pair[0] > pair[1]),
        epochs: epochs,
    };
    vec![section("e8_ablations", members)]
}

/// E12 — adversarial scenario fuzzing: 1,000 seed-generated scenarios
/// spanning honest churn, windowed attack campaigns over the full
/// nine-threat catalogue, Byzantine chain-node behaviour and
/// crash-restart points, each judged by the three-part
/// ground-truth oracle (attacks detected, honest runs alert-free,
/// crashed runs byte-identical to their uninterrupted twin). Oracle
/// violations are shrunk to a minimal scenario and printed as
/// compilable Rust. Emits `BENCH_FUZZ.json`.
fn e12_adversarial_fuzz(_: &mut Run) -> Vec<Section> {
    use drams_fuzz::{generate, render_rust, run_case, shrink, COVERAGE_PRELUDE};
    use std::collections::BTreeMap;

    let budget: u64 = 1_000;
    assert!(
        budget >= COVERAGE_PRELUDE,
        "budget must include the prelude"
    );
    println!("budget: {budget} scenarios (seeds 0..{budget}; 0..{COVERAGE_PRELUDE} = directed coverage prelude)\n");

    // Per-seed rows are printed, not tracked; the file keeps the totals.
    let mut cases = Vec::new();
    let mut families: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut events, mut injected, mut detected, mut false_positives) = (0u64, 0usize, 0usize, 0);
    let (mut twins_checked, mut violations, mut shrunk) = (0u64, 0usize, 0u64);
    for seed in 0..budget {
        let case = generate(seed);
        for family in case.families() {
            *families.entry(family).or_insert(0) += 1;
        }
        let outcome = run_case(&case);
        events += outcome.events;
        injected += outcome.attacks_injected;
        detected += outcome.attacks_detected;
        false_positives += outcome.false_positives;
        twins_checked += u64::from(outcome.crash_twin_checked);
        cases.push(row! {
            seed: seed,
            scenario: outcome.name.as_str(),
            events: outcome.events,
            injected: outcome.attacks_injected,
            detected: outcome.attacks_detected,
            fp: outcome.false_positives,
            twin_checked: outcome.crash_twin_checked,
            ok: outcome.violations.is_empty(),
        });
        if !outcome.violations.is_empty() {
            violations += outcome.violations.len();
            for violation in &outcome.violations {
                eprintln!("  violation (seed {seed}): {violation}");
            }
            let minimal = shrink(&case, |c| !run_case(c).violations.is_empty());
            shrunk += 1;
            println!("\n--- minimal reproduction of seed {seed} ---");
            println!("{}", render_rust(&minimal));
        }
    }
    print!("{}", report::table(&cases));
    println!();

    let families = families
        .into_iter()
        .map(|(family, count)| (family.to_string(), count.into()))
        .collect();
    let fuzz = section(
        "e12_fuzz",
        members! {
            scenarios: budget,
            events: events,
            attacks_injected: injected,
            attacks_detected: detected,
            false_positives: false_positives,
            crash_twins_checked: twins_checked,
            violations: violations,
            shrunk_failures: shrunk,
            families: Value::Obj(families),
        },
    );
    vec![fuzz]
}

/// E13 — the deterministic network fault plane and graceful degradation.
///
/// Part 1 runs the honest fault matrix (lossy links, duplication +
/// reordering + delay, an LI↔chain partition, a scripted PDP outage):
/// retries, circuit-breaker failover, WAL spill/replay and degraded-mode
/// timeout widening must fully mask every declared fault — zero alerts,
/// zero abandoned requests, 100% availability. Part 2 mounts attack
/// campaigns *on top of* the lossy plan: every injected attack must
/// still be detected, with zero false positives. Part 3 crashes a PDP
/// under duplicating faults and requires byte-identity with the
/// uninterrupted twin. Emits `BENCH_FAULT.json`.
fn e13_fault_plane(_: &mut Run) -> Vec<Section> {
    use drams_faas::fault::LinkFault;

    // -- part 1: the honest fault matrix -----------------------------------
    let mut rows = Vec::new();
    for spec in scenarios::fault_matrix() {
        let ((report, truth), wall_ms) = timed_ms(|| run_scenario(&spec, &mut NoAdversary));
        assert_eq!(truth.total_attacks(), 0, "faults are not attacks");
        let e2e = report.e2e_latency.report();
        let failover = report.failover_e2e.report();
        let recovery = report.spill_recovery.report();
        // The honest scenarios complete every request exactly once, so
        // the delivery-attempt histogram sums back to the completions.
        assert_eq!(e2e.attempts.iter().sum::<u64>(), report.requests_completed);
        let availability_pct =
            100.0 * report.requests_completed as f64 / report.requests_issued.max(1) as f64;
        // Virtual ms; NaN (written as null) when nothing failed over,
        // or no spill happened (heal → spill fully replayed).
        let ms_or_nan = |count: usize, us: f64| if count > 0 { us / 1_000.0 } else { f64::NAN };
        let failover_p95_ms = ms_or_nan(failover.count, failover.p95 as f64);
        let recovery_mean_ms = ms_or_nan(recovery.count, recovery.mean);
        rows.push(row! {
            scenario: spec.name.as_str(),
            requests: report.requests_issued,
            completed: report.requests_completed,
            dropped: report.requests_dropped,
            availability_pct: availability_pct,
            retries: report.retries_total,
            msgs_dropped: report.faults.dropped,
            msgs_duplicated: report.faults.duplicated,
            msgs_reordered: report.faults.reordered,
            partition_blocked: report.faults.partition_blocked,
            breaker_trips: report.breaker_trips,
            failovers: report.failovers,
            failover_p95_ms: failover_p95_ms,
            li_spilled: report.li_spilled,
            li_replayed: report.li_replayed,
            recovery_mean_ms: recovery_mean_ms,
            timeout_retunes: report.timeout_retunes,
            alerts: report.alerts.len(),
            wall_ms: wall_ms,
        });
    }

    // -- part 2: attack campaigns under the lossy plan ---------------------
    let mut detection = Vec::new();
    for (threat, seed) in [
        (ThreatKind::DropLog, 31u64),
        (ThreatKind::TamperRequest, 32),
        (ThreatKind::FlipEnforcement, 33),
    ] {
        let mut spec = scenarios::by_name("lossy_links").expect("E13 matrix scenario");
        spec.name = format!("{threat}_under_faults");
        let mut adversary =
            ScriptedAdversary::new(threat, 0.1, seed).within(FaultWindow::new(0, 1500 * MILLIS));
        let (report, truth) = run_scenario(&spec, &mut adversary);
        let s = score(threat, &report, &truth);
        detection.push(row! {
            threat: threat.to_string().as_str(),
            attacks: s.attacks,
            detected: s.detected,
            false_positives: s.false_positives,
            detect_mean_ms: report.detection_latency.mean() / 1_000.0,
        });
    }

    // -- part 3: a PDP crash under duplicating faults vs its twin ----------
    let mut spec = scenarios::by_name("crash_pdp").expect("E11 matrix scenario");
    spec.name = "crash_pdp_faults".to_string();
    spec.faults.links.push(LinkFault {
        duplicate_permille: 300,
        reorder_permille: 200,
        reorder_spread: 5 * MILLIS,
        active_from: 0,
        active_until: 1500 * MILLIS,
        ..LinkFault::default()
    });
    let clean = run_scenario(&scenarios::strip_crashes(&spec), &mut NoAdversary);
    let crashed = run_scenario(&spec, &mut NoAdversary);
    let twin = row! {
        scenario: spec.name.as_str(),
        crash_restarts: crashed.0.crash_restarts,
        matched: twin_matched(&spec.name, &clean, &crashed),
    };

    let faults = section(
        "e13_faults",
        members! {
            rows: rows,
            detection_under_faults: detection,
            crash_fault_twin: twin,
        },
    );
    vec![faults]
}

/// The one E14 clause that spans three columns, so no gate row fits it:
/// every request the PEP admitted must have completed.
fn lost_admitted(member: &str, requests: u64, shed: u64, completed: u64) -> Option<String> {
    (completed != requests - shed).then(|| {
        format!("e14_load.{member}: admitted requests went missing: {requests} issued, {shed} shed, {completed} completed")
    })
}

/// One honest flash crowd: its counters, every peak tracked-state gauge
/// and its wall time, as the E14 row `member`. Reports admitted
/// requests that went missing as a failure of `run`.
fn honest_crowd(run: &mut Run, member: &str, spec: &ScenarioSpec) -> Members {
    let ((report, truth), wall_ms) = timed_ms(|| run_scenario(spec, &mut NoAdversary));
    assert_eq!(truth.total_attacks(), 0, "overload is not an attack");
    let (requests, shed) = (report.requests_issued, report.requests_shed);
    run.failures.extend(lost_admitted(
        member,
        requests,
        shed,
        report.requests_completed,
    ));
    // completed / (issued - shed): admitted requests must all complete.
    let admitted_completion_pct =
        100.0 * report.requests_completed as f64 / (requests - shed).max(1) as f64;
    members! {
        scenario: spec.name.as_str(),
        requests: requests,
        completed: report.requests_completed,
        shed: shed,
        degraded: report.degraded_admissions,
        admitted_completion_pct: admitted_completion_pct,
        alerts: report.alerts.len(),
        idempotency_evictions: report.idempotency_evictions,
        groups_retired: report.groups_retired,
        peak_pep_inflight: report.peak.pep_inflight,
        peak_pdp_idempotency: report.peak.pdp_idempotency,
        peak_li_resident: report.peak.li_resident,
        peak_analyser_pending_retire: report.peak.analyser_pending_retire,
        peak_contract_storage: report.peak.contract_storage,
        peak_policy_history: report.peak.policy_history,
        chain_journal_records: report.peak.chain_journal_records,
        wall_ms: wall_ms,
        wall_us_per_completed: 1_000.0 * wall_ms / report.requests_completed.max(1) as f64,
    }
}

/// Whether a crowd twice as long as `base` held its state to the
/// rate, not the length: every `peak_*` within 5 % of the base run's
/// and wall time per completed request within 20 %.
fn flat_under_doubling(base: &Members, doubled: &Members) -> bool {
    let number = |row: &Members, column: &str| match report::get(row, column) {
        Some(Value::U64(n)) => *n as f64,
        Some(Value::F64(x)) => *x,
        _ => f64::NAN,
    };
    let within = |column: &str, factor: f64| {
        let bounded = number(doubled, column) <= factor * number(base, column);
        if !bounded {
            eprintln!("e14_load.honest_doubled: {column} grew past {factor}x the base run's");
        }
        bounded
    };
    base.iter()
        .map(|(column, _)| column.as_str())
        .filter(|column| column.starts_with("peak_"))
        .all(|peak| within(peak, 1.05))
        && within("wall_us_per_completed", 1.2)
}

/// E14 — overload robustness: a Zipf-skewed flash crowd over a
/// 2000-tenant population, with every bounded-state mechanism armed.
///
/// Part 1 runs the 250k-request honest flash crowd: the admission cap
/// must shed the overflow (never silently queue it), every admitted
/// request must complete, not a single alert may fire, and every peak
/// tracked-state gauge is recorded. The same crowd at twice the
/// requests must hold those peaks and its wall time per completed
/// request ([`flat_under_doubling`]): state is bounded by the rate,
/// not the length of the run. Part 2 mounts attack campaigns *during*
/// the flash crowd: every mounted attack must still be detected with
/// zero false positives while shedding is active (shed requests carry
/// no evidence, so overflow can never masquerade as an attack or hide
/// one). Part 3 crashes a PDP mid-spike and requires byte-identity
/// with the uninterrupted twin. Emits `BENCH_LOAD.json`.
fn e14_overload(run: &mut Run) -> Vec<Section> {
    // -- part 1: the honest flash crowd, then twice as many requests ------
    let mut spec = scenarios::flash_crowd();
    let honest = honest_crowd(run, "honest", &spec);
    spec.config.total_requests *= 2;
    let mut doubled = honest_crowd(run, "honest_doubled", &spec);
    let flat_ok = flat_under_doubling(&honest, &doubled);
    doubled.extend(members! { flat_ok: flat_ok });

    // -- part 2: attack campaigns inside the flash crowd -------------------
    let mut detection = Vec::new();
    for (threat, seed) in [
        (ThreatKind::DropLog, 41u64),
        (ThreatKind::TamperRequest, 42),
        (ThreatKind::FlipEnforcement, 43),
    ] {
        let mut spec = scenarios::overload_attack_base();
        spec.name = format!("{threat}_under_overload");
        let mut adversary = ScriptedAdversary::new(threat, 0.05, seed)
            .within(FaultWindow::new(2 * SECONDS, 6 * SECONDS)); // the spike
        let (report, truth) = run_scenario(&spec, &mut adversary);
        // Attacks land on admitted requests only: a shed request carries
        // no evidence and no attack. `shed` proves the overload was real
        // while detection stayed total.
        let s = score(threat, &report, &truth);
        detection.push(row! {
            threat: threat.to_string().as_str(),
            attacks: s.attacks,
            detected: s.detected,
            false_positives: s.false_positives,
            shed: report.requests_shed,
        });
    }

    // -- part 3: a PDP crash mid-spike vs its twin -------------------------
    let crash_spec = scenarios::overload_crash();
    let clean = run_scenario(&scenarios::strip_crashes(&crash_spec), &mut NoAdversary);
    let crashed = run_scenario(&crash_spec, &mut NoAdversary);
    let twin = row! {
        scenario: crash_spec.name.as_str(),
        crash_restarts: crashed.0.crash_restarts,
        shed: crashed.0.requests_shed,
        matched: twin_matched(&crash_spec.name, &clean, &crashed),
    };

    let load = section(
        "e14_load",
        members! {
            honest: Value::Obj(honest),
            honest_doubled: Value::Obj(doubled),
            detection_under_overload: detection,
            crash_overload_twin: twin,
        },
    );
    vec![load]
}

/// E16 — the wire (DESIGN.md invariant 9): loopback TCP round-trip
/// latency and frame throughput per payload size, one PDP dispatch's
/// frames as a batch against single round trips, the cost of tearing
/// an echo endpoint down and reconnecting to a fresh one, and a
/// DES-vs-TCP conformance replay of the steady-state scenario.
/// Emits `BENCH_NET.json`.
fn e16_net(_: &mut Run) -> Vec<Section> {
    use drams_core::scenario::run_scenario_with_transport;
    use drams_faas::transport::{Transport, WireFrame, WireRole};
    use drams_net::TcpTransport;

    let mut transport = TcpTransport::loopback();
    let mut seq = 0u64;
    let mut frame = |role: WireRole, payload_bytes: usize| {
        seq += 1;
        WireFrame {
            role,
            kind: 0,
            seq,
            delay: 0,
            payload: vec![0xA5; payload_bytes],
        }
    };
    let pdp = WireRole::Pdp { slot: 0 };

    // -- round-trip latency and throughput per payload size -----------------
    // 192 bytes ≈ a canonical RequestEnvelope; 4 KiB ≈ a batched log
    // delivery. Warm-up covers endpoint provisioning + connect.
    let frames_per_size: u64 = 20_000;
    let mut rows = Vec::new();
    for &payload_bytes in &[192usize, 4_096] {
        transport
            .roundtrip(frame(pdp, payload_bytes))
            .expect("loopback round-trip");
        let mut lat_us = Vec::with_capacity(frames_per_size as usize);
        let wall = Instant::now();
        for _ in 0..frames_per_size {
            let t = Instant::now();
            transport
                .roundtrip(frame(pdp, payload_bytes))
                .expect("loopback round-trip");
            lat_us.push(t.elapsed().as_secs_f64() * 1_000_000.0);
        }
        let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
        lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let rt_mean_us = lat_us.iter().sum::<f64>() / lat_us.len() as f64;
        let rt_p95_us = lat_us[(lat_us.len() * 95 / 100).min(lat_us.len() - 1)];
        let frames_per_sec = frames_per_size as f64 / (wall_ms / 1_000.0).max(1e-9);
        rows.push(row! {
            payload_bytes: payload_bytes,
            frames: frames_per_size,
            wall_ms: wall_ms,
            rt_mean_us: rt_mean_us,
            rt_p95_us: rt_p95_us,
            // Whole frames, as the column has always been written.
            frames_per_sec: frames_per_sec.round() as u64,
        });
    }

    // -- one PDP dispatch: its three frames as one batch vs one at a time ---
    // A PDP receive emits two log deliveries to the infrastructure LI and
    // the response to the PEP; the runtime sends them as one batch. Each
    // repetition times the batch, then the same three frames as single
    // round trips. Warm-up connects both roles.
    let shape = [
        WireRole::Li { index: 0 },
        WireRole::Li { index: 0 },
        WireRole::Pep,
    ];
    let mut dispatch_frames = || shape.map(|role| frame(role, 192)).to_vec();
    transport
        .roundtrip_batch(dispatch_frames())
        .expect("loopback batch");
    let (mut batch_us, mut singles_us) = (0.0, 0.0);
    for _ in 0..frames_per_size {
        let (batch, singles) = (dispatch_frames(), dispatch_frames());
        let t = Instant::now();
        transport.roundtrip_batch(batch).expect("loopback batch");
        batch_us += t.elapsed().as_secs_f64() * 1_000_000.0;
        let t = Instant::now();
        for single in singles {
            transport.roundtrip(single).expect("loopback round-trip");
        }
        singles_us += t.elapsed().as_secs_f64() * 1_000_000.0;
    }
    let dispatch = row! {
        frames_per_batch: shape.len() as u64,
        batches: frames_per_size,
        us_per_batch: batch_us / frames_per_size as f64,
        us_three_singles: singles_us / frames_per_size as f64,
    };

    // -- reconnect cost: tear the endpoint down, respawn, first echo --------
    let cycles: u64 = 100;
    let mut costs_us = Vec::with_capacity(cycles as usize);
    for _ in 0..cycles {
        let t = Instant::now();
        transport.restart(pdp).expect("restart");
        transport
            .roundtrip(frame(pdp, 192))
            .expect("loopback round-trip");
        costs_us.push(t.elapsed().as_secs_f64() * 1_000_000.0);
    }
    let reconnect = row! {
        cycles: cycles,
        mean_us: costs_us.iter().sum::<f64>() / costs_us.len() as f64,
        max_us: costs_us.iter().copied().fold(0.0f64, f64::max),
    };

    // -- conformance: the steady-state scenario over both backends ----------
    let spec = scenarios::steady_state();
    let des = run_scenario(&spec, &mut NoAdversary);
    let mut tcp_transport = TcpTransport::loopback();
    let tcp = run_scenario_with_transport(&spec, &mut NoAdversary, &mut tcp_transport);
    let stats = tcp_transport.stats();
    let conformance = row! {
        scenario: spec.name.as_str(),
        frames: stats.frames,
        batches: stats.batches,
        matched: stats.frames > 0 && twin_matched(&spec.name, &des, &tcp),
    };

    let members = members! {
        transport: transport.name(),
        rows: rows,
        dispatch: dispatch,
        reconnect: reconnect,
        conformance: conformance,
    };
    vec![section("e16_net", members)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Run, ArgError> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn no_selection_or_all_selects_every_experiment() {
        let everything: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
        for line in ["", "all", "e3 all"] {
            assert_eq!(parse(line).expect(line).selected, everything, "{line:?}");
        }
        let args = parse("e5 e14").expect("valid");
        assert_eq!(args.selected, ["e5", "e14"]);
        assert!(args.scenario.is_none());
        let args = parse("e10 --scenario policy_flip").expect("valid");
        assert_eq!(args.scenario.as_deref(), Some("policy_flip"));
    }

    #[test]
    fn typos_are_refused_before_anything_runs() {
        use ArgError::*;
        for (line, error) in [
            ("e17", UnknownExperiment("e17".to_string())),
            ("e15", UnknownExperiment("e15".to_string())),
            ("e4", UnknownExperiment("e4".to_string())),
            ("e5 E6", UnknownExperiment("E6".to_string())),
            ("e5 --quik", UnknownFlag("--quik".to_string())),
            ("-q", UnknownFlag("-q".to_string())),
            ("e10 --scenario", ScenarioNeedsName),
            ("e10 --scenario --steady_state", ScenarioNeedsName),
            ("e9 --scenario steady_state", ScenarioNeedsE10),
            ("e10 --scenario nope", UnknownScenario("nope".to_string())),
        ] {
            assert_eq!(parse(line), Err(error), "{line:?}");
        }
    }

    #[test]
    fn a_lost_admitted_request_is_a_failure() {
        assert_eq!(lost_admitted("honest", 100_000, 25_000, 75_000), None);
        let failure =
            lost_admitted("honest", 100_000, 25_000, 74_999).expect("one request went missing");
        assert!(failure.contains("e14_load.honest:") && failure.contains("74999"));
        assert!(lost_admitted("honest_doubled", 100_000, 0, 99_999)
            .is_some_and(|failure| failure.starts_with("e14_load.honest_doubled:")));
    }
}
