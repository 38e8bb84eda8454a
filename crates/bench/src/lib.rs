//! Shared helpers for the DRAMS benchmark & experiment harness.
//!
//! The experiment catalogue (DESIGN.md §3, EXPERIMENTS.md) is generated by
//! the `run_experiments` binary; the Criterion benches under `benches/`
//! cover the timing-shaped fragments of each experiment.

#![forbid(unsafe_code)]

use drams_core::logent::{LogEntry, ObservationPoint, ProbeId};
use drams_core::probe::Probe;
use drams_crypto::aead::SymmetricKey;
use drams_faas::model::{PepId, TenantId};
use drams_faas::msg::{CorrelationId, RequestEnvelope};
use drams_policy::attr::Request;

/// Builds a log entry whose sealed payload is approximately `payload_size`
/// bytes (the knob of experiment E1).
#[must_use]
pub fn log_entry_of_size(correlation: u64, payload_size: usize) -> LogEntry {
    let key = SymmetricKey::from_bytes([9; 32]);
    let mut probe = Probe::new(ProbeId(1), key, [4; 32]);
    // Pad the request with an attribute of the requested size so the
    // sealed envelope grows accordingly.
    let padding = "x".repeat(payload_size);
    let env = RequestEnvelope {
        correlation: CorrelationId(correlation),
        tenant: TenantId(1),
        pep: PepId(1),
        service: "svc".into(),
        request: Request::builder()
            .subject("role", "doctor")
            .resource("blob", padding.as_str())
            .build(),
        issued_at: 0,
    };
    probe.observe_request(ObservationPoint::PepRequest, &env, 0)
}

/// Formats a microsecond quantity as milliseconds with 2 decimals.
#[must_use]
pub fn ms(us: f64) -> String {
    format!("{:.2}", us / 1_000.0)
}

/// A batch of `size` Schnorr signatures spread over `keys` signer
/// identities — a block's worth of Logging Interface submissions.
///
/// This is the single fixture behind the `bench_crypto` batch targets
/// *and* experiment E9, so the criterion numbers and the committed
/// `BENCH_CRYPTO.json` trajectory always measure the same workload.
/// Borrow with [`batch_items`] to call `schnorr::batch_verify`.
#[must_use]
pub fn schnorr_batch(
    keys: usize,
    size: usize,
) -> Vec<(drams_crypto::PublicKey, Vec<u8>, drams_crypto::Signature)> {
    let kps: Vec<drams_crypto::Keypair> = (0..keys)
        .map(|i| drams_crypto::Keypair::from_seed(format!("bench-li-{i}").as_bytes()))
        .collect();
    (0..size)
        .map(|i| {
            let kp = &kps[i % kps.len()];
            let msg = format!("log batch entry {i}").into_bytes();
            let sig = kp.sign(&msg);
            (kp.public(), msg, sig)
        })
        .collect()
}

/// Borrows a [`schnorr_batch`] fixture in the shape
/// [`drams_crypto::schnorr::batch_verify`] takes.
#[must_use]
pub fn batch_items(
    owned: &[(drams_crypto::PublicKey, Vec<u8>, drams_crypto::Signature)],
) -> Vec<(drams_crypto::PublicKey, &[u8], drams_crypto::Signature)> {
    owned
        .iter()
        .map(|(pk, msg, sig)| (*pk, msg.as_slice(), *sig))
        .collect()
}

/// The machine-readable PDP perf trajectory (`BENCH_PDP.json`).
///
/// `run_experiments e5`/`e6` emit this file at the repo root so the
/// PDP's latency trajectory is tracked across PRs: every future change
/// to the policy engine regenerates the file and the diff shows exactly
/// what moved. The format is deliberately hand-rendered — the vendored
/// serde is a no-op stand-in (see `vendor/README.md`), and the schema is
/// small enough that a renderer plus a shape test is cheaper than a
/// serializer.
pub mod trajectory {
    use std::path::{Path, PathBuf};

    /// One E5 row: µs/decision at a policy-base size, per engine.
    #[derive(Debug, Clone)]
    pub struct PdpScalingRow {
        /// Leaf policies under the root.
        pub policies: usize,
        /// Total rules in the set.
        pub rules: usize,
        /// Tree-walking reference interpreter.
        pub interpreter_us: f64,
        /// Compiled engine, decision cache off.
        pub compiled_us: f64,
        /// Compiled engine with the decision cache warm.
        pub compiled_cached_us: f64,
    }

    impl PdpScalingRow {
        /// Interpreter-over-compiled speedup (cache off).
        #[must_use]
        pub fn speedup(&self) -> f64 {
            if self.compiled_us > 0.0 {
                self.interpreter_us / self.compiled_us
            } else {
                f64::INFINITY
            }
        }
    }

    /// End-to-end latency summary for one E6 configuration.
    #[derive(Debug, Clone)]
    pub struct LatencySummary {
        /// Mean end-to-end request latency.
        pub mean_ms: f64,
        /// 95th percentile.
        pub p95_ms: f64,
        /// 99th percentile.
        pub p99_ms: f64,
        /// Transactions committed on the monitoring chain.
        pub chain_txs: u64,
    }

    /// The E6 monitoring-overhead comparison (monitoring off vs on).
    #[derive(Debug, Clone)]
    pub struct MonitoringOverhead {
        /// Requests driven through the federation.
        pub requests: u64,
        /// Baseline: probes and analyser disabled.
        pub off: LatencySummary,
        /// Monitoring plane fully enabled.
        pub on: LatencySummary,
        /// Monitoring pipeline latency (observation → chain commit).
        pub pipeline_mean_ms: f64,
        /// Wall-clock runtime of the monitoring-off run. The latency
        /// summaries above are *virtual-time* and thus invariant under
        /// crypto changes; wall time is where the signing/hashing cost
        /// of the pipeline actually shows, so the crypto-substrate
        /// trajectory is tracked here.
        pub off_wall_ms: f64,
        /// Wall-clock runtime of the monitoring-on run.
        pub on_wall_ms: f64,
    }

    impl MonitoringOverhead {
        /// Critical-path overhead of monitoring, in percent.
        #[must_use]
        pub fn overhead_pct(&self) -> f64 {
            if self.off.mean_ms > 0.0 {
                (self.on.mean_ms / self.off.mean_ms - 1.0) * 100.0
            } else {
                0.0
            }
        }
    }

    /// JSON-safe float: finite values only (NaN/inf become `null`).
    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "null".to_string()
        }
    }

    fn latency_json(l: &LatencySummary) -> String {
        format!(
            "{{\"mean_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \"chain_txs\": {}}}",
            num(l.mean_ms),
            num(l.p95_ms),
            num(l.p99_ms),
            l.chain_txs
        )
    }

    fn e5_section(rows: &[PdpScalingRow], quick: bool) -> String {
        let mut out = format!("{{\n    \"quick\": {quick},\n    \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"policies\": {}, \"rules\": {}, \
                 \"interpreter_us_per_decision\": {}, \
                 \"compiled_us_per_decision\": {}, \
                 \"compiled_cached_us_per_decision\": {}, \
                 \"speedup_compiled_vs_interpreter\": {}}}{}\n",
                r.policies,
                r.rules,
                num(r.interpreter_us),
                num(r.compiled_us),
                num(r.compiled_cached_us),
                num(r.speedup()),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }");
        out
    }

    fn e6_section(e6: &MonitoringOverhead, quick: bool) -> String {
        format!(
            "{{\n    \"quick\": {quick},\n    \"requests\": {},\n    \"off\": {},\n    \
             \"on\": {},\n    \
             \"critical_path_overhead_pct\": {},\n    \"pipeline_mean_ms\": {},\n    \
             \"sim_wall_ms_off\": {},\n    \"sim_wall_ms_on\": {}\n  }}",
            e6.requests,
            latency_json(&e6.off),
            latency_json(&e6.on),
            num(e6.overhead_pct()),
            num(e6.pipeline_mean_ms),
            num(e6.off_wall_ms),
            num(e6.on_wall_ms)
        )
    }

    /// Extracts one top-level section's value text (`[...]` / `{...}`)
    /// from a previously-written trajectory file, by bracket matching.
    /// Used to carry a section forward when its experiment did not run
    /// in this invocation, so `run_experiments e5` alone cannot silently
    /// drop the committed E6 numbers (and vice versa).
    #[must_use]
    pub fn extract_section(existing: &str, key: &str) -> Option<String> {
        let needle = format!("\"{key}\":");
        let at = existing.find(&needle)? + needle.len();
        let rest = existing[at..].trim_start();
        let open = rest.chars().next()?;
        let close = match open {
            '[' => ']',
            '{' => '}',
            _ => return None,
        };
        let mut depth = 0usize;
        let mut in_string = false;
        for (i, c) in rest.char_indices() {
            // the schema never escapes quotes inside strings
            if c == '"' {
                in_string = !in_string;
            }
            if in_string {
                continue;
            }
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[..=i].to_string());
                }
            }
        }
        None
    }

    /// Renders the trajectory file. A section whose experiment did not
    /// run in this invocation is carried over verbatim from `previous`
    /// (the existing file's contents) when present, and omitted
    /// otherwise. Each section records its own `"quick"` flag, so a
    /// quick rerun of one experiment cannot mislabel the other
    /// section's full-run numbers.
    #[must_use]
    pub fn render_json(
        quick: bool,
        e5: Option<&[PdpScalingRow]>,
        e6: Option<&MonitoringOverhead>,
        previous: Option<&str>,
    ) -> String {
        let carried = |key: &str| previous.and_then(|p| extract_section(p, key));
        let e5_text = e5
            .map(|rows| e5_section(rows, quick))
            .or_else(|| carried("e5_pdp_scaling"));
        let e6_text = e6
            .map(|e6| e6_section(e6, quick))
            .or_else(|| carried("e6_monitoring_overhead"));
        let mut out = String::from("{\n  \"schema\": \"drams-bench-pdp/v2\"");
        if let Some(text) = e5_text {
            out.push_str(&format!(",\n  \"e5_pdp_scaling\": {text}"));
        }
        if let Some(text) = e6_text {
            out.push_str(&format!(",\n  \"e6_monitoring_overhead\": {text}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Resolves a tracked-trajectory file at the repo root, found at
    /// runtime by walking up from the current directory to the workspace
    /// `Cargo.toml` (so a relocated checkout still writes into itself),
    /// with the build-time manifest path as fallback.
    #[must_use]
    pub fn repo_file_path(name: &str) -> PathBuf {
        if let Ok(mut dir) = std::env::current_dir() {
            loop {
                let manifest = dir.join("Cargo.toml");
                if manifest.exists()
                    && std::fs::read_to_string(&manifest)
                        .map(|s| s.contains("[workspace]"))
                        .unwrap_or(false)
                {
                    return dir.join(name);
                }
                if !dir.pop() {
                    break;
                }
            }
        }
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name)
    }

    /// The PDP trajectory file's canonical location (repo root).
    #[must_use]
    pub fn repo_root_path() -> PathBuf {
        repo_file_path("BENCH_PDP.json")
    }
}

/// The machine-readable crypto-substrate trajectory
/// (`BENCH_CRYPTO.json`).
///
/// `run_experiments e9` emits this file at the repo root: µs/op for the
/// primitive layer's hot operations, each measured on the retained
/// Algorithm D reference path *and* the Montgomery fast path, plus
/// batch-vs-individual Schnorr verification. Like `BENCH_PDP.json`, the
/// file is committed so every PR touching `drams-crypto` shows its perf
/// delta in the diff; carry-forward semantics match
/// [`trajectory::render_json`].
pub mod crypto_trajectory {
    use super::trajectory::extract_section;

    /// One old-vs-new comparison row (µs per operation).
    #[derive(Debug, Clone, Copy)]
    pub struct OldNew {
        /// Algorithm D reference path.
        pub reference_us: f64,
        /// Montgomery fast path.
        pub fast_us: f64,
    }

    impl OldNew {
        /// reference/fast speedup.
        #[must_use]
        pub fn speedup(&self) -> f64 {
            if self.fast_us > 0.0 {
                self.reference_us / self.fast_us
            } else {
                f64::INFINITY
            }
        }
    }

    /// The E9 crypto-substrate summary.
    #[derive(Debug, Clone, Copy)]
    pub struct CryptoSummary {
        /// 256-bit modular exponentiation (the Schnorr workhorse).
        pub mod_pow: OldNew,
        /// Schnorr signing.
        pub sign: OldNew,
        /// Schnorr verification.
        pub verify: OldNew,
        /// Signatures per batch in the batch-verify measurement.
        pub batch_size: usize,
        /// Total µs for `batch_size` individual reference verifies.
        pub individual_reference_us: f64,
        /// Total µs for `batch_size` individual fast verifies.
        pub individual_fast_us: f64,
        /// Total µs for one `batch_verify` call over the batch.
        pub batch_us: f64,
    }

    impl CryptoSummary {
        /// Batch speedup against individually verifying on the
        /// committed (reference) path — the acceptance ratio.
        #[must_use]
        pub fn batch_speedup_vs_reference(&self) -> f64 {
            if self.batch_us > 0.0 {
                self.individual_reference_us / self.batch_us
            } else {
                f64::INFINITY
            }
        }

        /// Batch speedup against individually verifying on the fast
        /// path (shows what the per-signer fixed-base tables buy).
        #[must_use]
        pub fn batch_speedup_vs_fast(&self) -> f64 {
            if self.batch_us > 0.0 {
                self.individual_fast_us / self.batch_us
            } else {
                f64::INFINITY
            }
        }
    }

    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "null".to_string()
        }
    }

    fn old_new_json(r: &OldNew) -> String {
        format!(
            "{{\"reference_us\": {}, \"fast_us\": {}, \"speedup\": {}}}",
            num(r.reference_us),
            num(r.fast_us),
            num(r.speedup())
        )
    }

    fn e9_section(s: &CryptoSummary, quick: bool) -> String {
        format!(
            "{{\n    \"quick\": {quick},\n    \"mod_pow\": {},\n    \"sign\": {},\n    \
             \"verify\": {},\n    \"batch_verify\": {{\"batch_size\": {}, \
             \"individual_reference_us\": {}, \"individual_fast_us\": {}, \"batch_us\": {}, \
             \"speedup_vs_individual_reference\": {}, \"speedup_vs_individual_fast\": {}}}\n  }}",
            old_new_json(&s.mod_pow),
            old_new_json(&s.sign),
            old_new_json(&s.verify),
            s.batch_size,
            num(s.individual_reference_us),
            num(s.individual_fast_us),
            num(s.batch_us),
            num(s.batch_speedup_vs_reference()),
            num(s.batch_speedup_vs_fast())
        )
    }

    /// Renders `BENCH_CRYPTO.json`. As with the PDP trajectory, a
    /// section not produced by this invocation is carried over verbatim
    /// from `previous` when present.
    #[must_use]
    pub fn render_json(quick: bool, e9: Option<&CryptoSummary>, previous: Option<&str>) -> String {
        let e9_text = e9
            .map(|s| e9_section(s, quick))
            .or_else(|| previous.and_then(|p| extract_section(p, "e9_crypto")));
        let mut out = String::from("{\n  \"schema\": \"drams-bench-crypto/v1\"");
        if let Some(text) = e9_text {
            out.push_str(&format!(",\n  \"e9_crypto\": {text}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// The crypto trajectory file's canonical location (repo root).
    #[must_use]
    pub fn repo_path() -> std::path::PathBuf {
        super::trajectory::repo_file_path("BENCH_CRYPTO.json")
    }
}

/// The named end-to-end scenario matrix of experiment E10.
///
/// Each scenario is a declarative [`drams_core::scenario::ScenarioSpec`]
/// over the event-driven
/// runtime (`drams_core::scenario`): steady state, burst with tenant
/// churn, mid-flight policy flip, a degraded Logging Interface, and a
/// per-cloud PDP federation. `run_experiments e10` runs the matrix and
/// commits the [`e2e_trajectory`] file; the same specs back the
/// `bench_e2e` criterion targets and the integration tests, so every
/// consumer measures identical workloads.
pub mod scenarios {
    use drams_core::monitor::MonitorConfig;
    use drams_core::scenario::{
        CrashTarget, DiurnalBand, FlashCrowd, LoadProfile, PdpPlacement, Phase, ScenarioSpec,
        ScriptedAction, MIN_RETENTION,
    };
    use drams_faas::des::{MILLIS, SECONDS};
    use drams_faas::fault::{FaultPlan, LinkFault, PartitionWindow, Site};
    use drams_faas::model::{CloudId, FederationSpec, TenantId};
    use drams_policy::attr::{AttributeId, Category};
    use drams_policy::combining::CombiningAlg;
    use drams_policy::decision::Effect;
    use drams_policy::expr::Expr;
    use drams_policy::policy::{Policy, PolicySet};
    use drams_policy::rule::Rule;
    use drams_policy::target::Target;

    fn base_config(quick: bool) -> MonitorConfig {
        MonitorConfig {
            total_requests: if quick { 120 } else { 400 },
            request_rate_per_sec: 150.0,
            ..MonitorConfig::default()
        }
    }

    /// A stricter mid-run policy: only doctors, nothing else.
    #[must_use]
    pub fn doctors_only_policy() -> PolicySet {
        PolicySet::builder("strict-root", CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("doctors-only", CombiningAlg::PermitOverrides)
                    .rule(
                        Rule::builder("doctors", Effect::Permit)
                            .target(Target::expr(Expr::equal(
                                Expr::attr(AttributeId::new(Category::Subject, "role")),
                                Expr::lit("doctor"),
                            )))
                            .build(),
                    )
                    .build(),
            )
            .build()
    }

    /// Constant load on the classic central-PDP topology.
    #[must_use]
    pub fn steady_state(quick: bool) -> ScenarioSpec {
        ScenarioSpec {
            name: "steady_state".to_string(),
            ..ScenarioSpec::canonical(&base_config(quick))
        }
    }

    /// A 5x arrival burst mid-run, with a tenant joining before the burst
    /// and another leaving during it.
    #[must_use]
    pub fn burst_churn(quick: bool) -> ScenarioSpec {
        let mut config = base_config(quick);
        config.total_requests = if quick { 150 } else { 600 };
        config.request_rate_per_sec = 100.0;
        ScenarioSpec {
            name: "burst_churn".to_string(),
            config,
            phases: vec![
                Phase {
                    start: 0,
                    rate_per_sec: 100.0,
                },
                Phase {
                    start: SECONDS,
                    rate_per_sec: 500.0,
                },
                Phase {
                    start: 3 * SECONDS,
                    rate_per_sec: 100.0,
                },
            ],
            placement: PdpPlacement::Central,
            script: vec![
                ScriptedAction::TenantJoin {
                    at: 800 * MILLIS,
                    cloud: CloudId(0),
                    services: 2,
                },
                ScriptedAction::TenantLeave {
                    at: 2500 * MILLIS,
                    tenant: TenantId(2),
                },
            ],
            faults: FaultPlan::default(),
            load: LoadProfile::default(),
        }
    }

    /// Legitimate policy churn: a stricter version is published
    /// mid-flight and rolled back shortly after. Must raise zero alerts.
    #[must_use]
    pub fn policy_flip(quick: bool) -> ScenarioSpec {
        ScenarioSpec {
            name: "policy_flip".to_string(),
            script: vec![
                ScriptedAction::PublishPolicy {
                    at: 400 * MILLIS,
                    policy: doctors_only_policy(),
                },
                ScriptedAction::RollbackPolicy {
                    at: 900 * MILLIS,
                    version: 0,
                },
            ],
            ..ScenarioSpec::canonical(&base_config(quick))
        }
    }

    /// Fault window: tenant 1's Logging Interface stalls for longer than
    /// the group timeout — the monitor must surface the degradation as
    /// missing-observation alerts.
    #[must_use]
    pub fn degraded_li(quick: bool) -> ScenarioSpec {
        ScenarioSpec {
            name: "degraded_li".to_string(),
            script: vec![ScriptedAction::StallLi {
                at: 200 * MILLIS,
                until: 2800 * MILLIS,
                tenant: TenantId(1),
            }],
            ..ScenarioSpec::canonical(&base_config(quick))
        }
    }

    /// The paper's Figure-1 federation: three clouds, each deciding
    /// locally with its own PDP.
    #[must_use]
    pub fn federated_pdp(quick: bool) -> ScenarioSpec {
        let mut config = base_config(quick);
        config.federation = FederationSpec::symmetric(3, 2, 2);
        ScenarioSpec {
            name: "federated_pdp".to_string(),
            placement: PdpPlacement::PerCloud,
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// The whole E10 matrix, in table order.
    #[must_use]
    pub fn matrix(quick: bool) -> Vec<ScenarioSpec> {
        vec![
            steady_state(quick),
            burst_churn(quick),
            policy_flip(quick),
            degraded_li(quick),
            federated_pdp(quick),
        ]
    }

    /// Looks a scenario up by name (E10, E11 and E13 matrices).
    #[must_use]
    pub fn by_name(name: &str, quick: bool) -> Option<ScenarioSpec> {
        matrix(quick)
            .into_iter()
            .chain(recovery_matrix(quick))
            .chain(fault_matrix(quick))
            .find(|s| s.name == name)
    }

    fn crash_scenario(name: &str, quick: bool, target: CrashTarget) -> ScenarioSpec {
        let mut config = base_config(quick);
        // Dense enough that the crash lands with work in flight: a
        // partially filled LI batch, a non-empty mempool, checked and
        // unchecked groups.
        config.request_rate_per_sec = 250.0;
        ScenarioSpec {
            name: name.to_string(),
            script: vec![ScriptedAction::CrashRestart {
                at: 450 * MILLIS,
                target,
            }],
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// The E11 crash-restart matrix: each monitoring-plane service is
    /// killed mid-run and restarted from its durable store. The
    /// acceptance bar (asserted by `run_experiments e11` and
    /// `tests/recovery.rs`) is byte-identical alerts and ground truth
    /// against the uninterrupted twin of each scenario
    /// ([`strip_crashes`]).
    #[must_use]
    pub fn recovery_matrix(quick: bool) -> Vec<ScenarioSpec> {
        vec![
            crash_scenario("crash_chain", quick, CrashTarget::ChainNode),
            crash_scenario("crash_li", quick, CrashTarget::Li(TenantId(1))),
            crash_scenario(
                "crash_infra_li",
                quick,
                CrashTarget::Li(TenantId::INFRASTRUCTURE),
            ),
            crash_scenario("crash_analyser", quick, CrashTarget::Analyser),
            crash_scenario("crash_pdp", quick, CrashTarget::Pdp(CloudId(0))),
        ]
    }

    /// A lossy wildcard link: every message has a 20% drop chance while
    /// the window is active. Shared between the `lossy_links` honest
    /// scenario and E13's detection-under-faults runs.
    #[must_use]
    pub fn lossy_plan() -> FaultPlan {
        FaultPlan {
            links: vec![LinkFault {
                drop_permille: 200,
                active_from: 0,
                active_until: 2 * SECONDS,
                ..LinkFault::default()
            }],
            partitions: Vec::new(),
        }
    }

    /// The E13 fault matrix: declared network-fault plans (plus one
    /// scripted PDP outage) that the robustness layer must fully mask —
    /// the acceptance bar is zero alerts and zero abandoned requests in
    /// every scenario, with the fault plane's counters proving the
    /// faults actually fired.
    #[must_use]
    pub fn fault_matrix(quick: bool) -> Vec<ScenarioSpec> {
        let config = base_config(quick);
        let lossy = ScenarioSpec {
            name: "lossy_links".to_string(),
            faults: lossy_plan(),
            ..ScenarioSpec::canonical(&config)
        };
        let dup_reorder = ScenarioSpec {
            name: "dup_reorder_delay".to_string(),
            faults: FaultPlan {
                links: vec![LinkFault {
                    duplicate_permille: 300,
                    reorder_permille: 200,
                    reorder_spread: 5 * MILLIS,
                    delay: 10 * MILLIS,
                    jitter: 5 * MILLIS,
                    active_from: 0,
                    active_until: 1500 * MILLIS,
                    ..LinkFault::default()
                }],
                partitions: Vec::new(),
            },
            ..ScenarioSpec::canonical(&config)
        };
        let partition = ScenarioSpec {
            name: "partition_li_spill".to_string(),
            faults: FaultPlan {
                links: Vec::new(),
                partitions: vec![PartitionWindow {
                    a: Site::Cloud(CloudId(0)),
                    b: Site::Infra,
                    from: 200 * MILLIS,
                    until: 1200 * MILLIS,
                }],
            },
            ..ScenarioSpec::canonical(&config)
        };
        // Scripted (undeclared) outage shorter than the group timeout:
        // the breaker fails new interceptions over to a healthy cloud
        // while slot-sticky stragglers complete after the outage ends.
        let outage = ScenarioSpec {
            name: "pdp_outage_failover".to_string(),
            placement: PdpPlacement::PerCloud,
            script: vec![ScriptedAction::SilencePdp {
                at: 0,
                until: 1500 * MILLIS,
                cloud: CloudId(0),
            }],
            ..ScenarioSpec::canonical(&config)
        };
        vec![lossy, dup_reorder, partition, outage]
    }

    /// The uninterrupted twin of a scenario: the same spec with every
    /// [`ScriptedAction::CrashRestart`] removed. E11 compares a crashed
    /// run against its twin.
    #[must_use]
    pub fn strip_crashes(spec: &ScenarioSpec) -> ScenarioSpec {
        let mut twin = spec.clone();
        twin.name = format!("{}_uninterrupted", spec.name);
        twin.script
            .retain(|a| !matches!(a, ScriptedAction::CrashRestart { .. }));
        twin
    }

    /// The E14 overload profile: a 2000-tenant Zipf-skewed population,
    /// a diurnal trough-then-peak schedule, one ×4 flash crowd, and
    /// every bounded-state mechanism armed (PEP admission cap, LI
    /// resident cap, idempotency retention, group retirement, chain
    /// journal compaction). Shared by every E14 scenario so honest,
    /// attacked and crashed runs stress identical machinery.
    #[must_use]
    pub fn overload_profile() -> LoadProfile {
        LoadProfile {
            population: 2000,
            zipf_exponent: 1.1,
            diurnal: vec![
                DiurnalBand {
                    start: 0,
                    multiplier_permille: 700, // overnight trough
                },
                DiurnalBand {
                    start: 10 * SECONDS,
                    multiplier_permille: 1200, // business-hours peak
                },
            ],
            spikes: vec![FlashCrowd {
                from: 10 * SECONDS,
                until: 14 * SECONDS,
                multiplier_permille: 4000,
            }],
            pep_inflight_cap: 96,
            li_resident_cap: 512,
            idempotency_retention: MIN_RETENTION,
            analyser_retire_lag: MIN_RETENTION,
            policy_history_retention: MIN_RETENTION,
            chain_compact_interval: 8,
        }
    }

    /// E14 part 1: an honest flash crowd — ≥100k requests even in quick
    /// mode, Poisson arrivals riding the diurnal schedule into a ×4
    /// spike that overruns the PEP admission cap. The acceptance bar is
    /// zero alerts, shed overflow, and every peak-state column bounded.
    #[must_use]
    pub fn flash_crowd(quick: bool) -> ScenarioSpec {
        let mut config = base_config(quick);
        config.total_requests = if quick { 100_000 } else { 250_000 };
        config.request_rate_per_sec = if quick { 3_000.0 } else { 6_000.0 };
        ScenarioSpec {
            name: "flash_crowd".to_string(),
            load: overload_profile(),
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// E14 parts 2 and 3 base: the same overload profile at campaign
    /// scale, with the admission cap tightened so the spike sheds even
    /// at the smaller volume. Attack campaigns and the crash twin ride
    /// on this spec.
    #[must_use]
    pub fn overload_attack_base(quick: bool) -> ScenarioSpec {
        let mut config = base_config(quick);
        config.total_requests = if quick { 20_000 } else { 50_000 };
        config.request_rate_per_sec = if quick { 2_000.0 } else { 5_000.0 };
        let mut load = overload_profile();
        load.pep_inflight_cap = 32;
        load.spikes = vec![FlashCrowd {
            from: 2 * SECONDS,
            until: 6 * SECONDS,
            multiplier_permille: 8000,
        }];
        ScenarioSpec {
            name: "overload_attack_base".to_string(),
            load,
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// E15: the E14 flash crowd scaled up — one million requests in
    /// full mode — as the end-to-end parallel-lane workload. The
    /// arrival rate stays moderate so group retirement and history
    /// pruning keep tracked state bounded over the much longer run.
    #[must_use]
    pub fn mega_crowd(quick: bool) -> ScenarioSpec {
        let mut config = base_config(quick);
        config.total_requests = if quick { 200_000 } else { 1_000_000 };
        config.request_rate_per_sec = if quick { 6_000.0 } else { 10_000.0 };
        ScenarioSpec {
            name: "flash_crowd_1m".to_string(),
            load: overload_profile(),
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// E14 part 3: the crash-under-overload scenario — a PDP dies in
    /// the middle of the flash crowd and must recover byte-identical to
    /// its uninterrupted twin while shedding is active.
    #[must_use]
    pub fn overload_crash(quick: bool) -> ScenarioSpec {
        let mut spec = overload_attack_base(quick);
        spec.name = "overload_crash_pdp".to_string();
        spec.script = vec![ScriptedAction::CrashRestart {
            at: 4 * SECONDS, // mid-spike, with shedding active
            target: CrashTarget::Pdp(CloudId(0)),
        }];
        spec
    }
}

/// The machine-readable end-to-end scenario trajectory
/// (`BENCH_E2E.json`).
///
/// `run_experiments e10` emits this file at the repo root: one row per
/// named scenario of [`scenarios::matrix`] with the run's completion,
/// alert and latency figures plus wall clock. Committed like
/// `BENCH_PDP.json`/`BENCH_CRYPTO.json`, so every PR touching the
/// simulation shows its end-to-end delta in the diff; carry-forward
/// semantics match [`trajectory::render_json`].
pub mod e2e_trajectory {
    use super::trajectory::extract_section;

    /// One scenario's measured row.
    #[derive(Debug, Clone)]
    pub struct ScenarioRow {
        /// Scenario name (see [`super::scenarios`]).
        pub name: String,
        /// Requests issued.
        pub requests: u64,
        /// Requests that reached enforcement.
        pub completed: u64,
        /// Requests swallowed by fault windows.
        pub dropped: u64,
        /// Observation groups completed on-chain.
        pub groups_completed: u64,
        /// Log entries committed.
        pub entries_logged: u64,
        /// Alerts committed on-chain.
        pub alerts: u64,
        /// Policy versions activated (1 = no churn).
        pub policy_activations: u64,
        /// PEP→PDP retransmissions (0 on a perfect network); shows the
        /// fault overhead a scenario's fault plan imposed.
        pub retries: u64,
        /// Delivery-attempt histogram: requests completing after 1, 2,
        /// … attempts (last bucket aggregates the tail).
        pub attempts: Vec<u64>,
        /// Mean end-to-end request latency (virtual ms).
        pub e2e_mean_ms: f64,
        /// 95th-percentile observation→commit latency (virtual ms).
        pub commit_p95_ms: f64,
        /// Wall-clock runtime of the simulation (ms).
        pub wall_ms: f64,
        /// Requests simulated per wall-clock second.
        pub requests_per_sec: f64,
        /// Virtual seconds simulated per wall-clock second (the DES
        /// real-time factor); the perf regression gate compares this
        /// column against the committed file.
        pub sim_speedup: f64,
    }

    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "null".to_string()
        }
    }

    fn row_json(r: &ScenarioRow) -> String {
        let attempts = r
            .attempts
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"scenario\": \"{}\", \"requests\": {}, \"completed\": {}, \
             \"dropped\": {}, \"groups_completed\": {}, \"entries_logged\": {}, \
             \"alerts\": {}, \"policy_activations\": {}, \"retries\": {}, \
             \"delivery_attempts\": [{attempts}], \"e2e_mean_ms\": {}, \
             \"commit_p95_ms\": {}, \"wall_ms\": {}, \
             \"requests_per_sec\": {}, \"sim_speedup\": {}}}",
            r.name,
            r.requests,
            r.completed,
            r.dropped,
            r.groups_completed,
            r.entries_logged,
            r.alerts,
            r.policy_activations,
            r.retries,
            num(r.e2e_mean_ms),
            num(r.commit_p95_ms),
            num(r.wall_ms),
            num(r.requests_per_sec),
            num(r.sim_speedup)
        )
    }

    fn e10_section(rows: &[ScenarioRow], quick: bool) -> String {
        let mut out = format!("{{\n    \"quick\": {quick},\n    \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {}{}\n",
                row_json(r),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }");
        out
    }

    /// Renders `BENCH_E2E.json`; a section not produced by this
    /// invocation is carried over verbatim from `previous` when present.
    #[must_use]
    pub fn render_json(quick: bool, e10: Option<&[ScenarioRow]>, previous: Option<&str>) -> String {
        let e10_text = e10
            .map(|rows| e10_section(rows, quick))
            .or_else(|| previous.and_then(|p| extract_section(p, "e10_scenarios")));
        let mut out = String::from("{\n  \"schema\": \"drams-bench-e2e/v1\"");
        if let Some(text) = e10_text {
            out.push_str(&format!(",\n  \"e10_scenarios\": {text}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// The e2e trajectory file's canonical location (repo root).
    #[must_use]
    pub fn repo_path() -> std::path::PathBuf {
        super::trajectory::repo_file_path("BENCH_E2E.json")
    }

    /// Extracts `(quick, [(scenario, sim_speedup)])` from a committed
    /// `BENCH_E2E.json`, for the wall-clock regression gate. Rows
    /// predating the column are omitted (the gate skips them).
    #[must_use]
    pub fn parse_sim_speedups(previous: &str) -> Option<(bool, Vec<(String, f64)>)> {
        let section = extract_section(previous, "e10_scenarios")?;
        let quick = section
            .split_once("\"quick\":")
            .map(|(_, rest)| rest.trim_start().starts_with("true"))?;
        let mut rows = Vec::new();
        for line in section.lines() {
            let Some((_, after)) = line.split_once("\"scenario\": \"") else {
                continue;
            };
            let Some((name, _)) = after.split_once('"') else {
                continue;
            };
            let Some((_, v)) = line.split_once("\"sim_speedup\":") else {
                continue;
            };
            let digits: String = v
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                .collect();
            if let Ok(speedup) = digits.parse::<f64>() {
                rows.push((name.to_string(), speedup));
            }
        }
        Some((quick, rows))
    }
}

/// The machine-readable storage-engine trajectory (`BENCH_STORE.json`).
///
/// `run_experiments e11` emits this file at the repo root with two
/// sections: `e11_store_engine` (append/replay/snapshot cost of the
/// durable log per backend × durability) and `e11_recovery` (one row per
/// crash-restart scenario, with the `matched` flag recording whether the
/// crashed run was byte-identical to its uninterrupted twin). Committed
/// like the other trajectories; carry-forward semantics match
/// [`trajectory::render_json`].
pub mod store_trajectory {
    use super::trajectory::extract_section;

    /// Measured cost of the log engine on one backend configuration.
    #[derive(Debug, Clone)]
    pub struct EngineRow {
        /// Backend × durability (`mem-flushed`, `fs-buffered`, …).
        pub backend: String,
        /// Records appended in the measurement.
        pub records: u64,
        /// Payload bytes per record.
        pub payload_bytes: usize,
        /// Mean µs per appended record (including per-record sync when
        /// the durability is `Flushed`).
        pub append_us: f64,
        /// Mean µs per record replayed on recovery.
        pub replay_us: f64,
        /// One snapshot write + segment prune, in µs.
        pub snapshot_us: f64,
    }

    /// One crash-restart scenario's outcome.
    #[derive(Debug, Clone)]
    pub struct RecoveryRow {
        /// Scenario name (see `scenarios::recovery_matrix`).
        pub scenario: String,
        /// Requests completed in the crashed run.
        pub completed: u64,
        /// Observation groups completed on-chain.
        pub groups_completed: u64,
        /// Alerts committed.
        pub alerts: u64,
        /// Crash-restarts executed (1 per scenario).
        pub crash_restarts: u64,
        /// Whether alerts + ground truth + counters were byte-identical
        /// to the uninterrupted twin run.
        pub matched: bool,
        /// Wall-clock runtime of the crashed run (ms).
        pub wall_ms: f64,
    }

    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "null".to_string()
        }
    }

    fn engine_section(rows: &[EngineRow], quick: bool) -> String {
        let mut out = format!("{{\n    \"quick\": {quick},\n    \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"backend\": \"{}\", \"records\": {}, \"payload_bytes\": {}, \
                 \"append_us_per_record\": {}, \"replay_us_per_record\": {}, \
                 \"snapshot_prune_us\": {}}}{}\n",
                r.backend,
                r.records,
                r.payload_bytes,
                num(r.append_us),
                num(r.replay_us),
                num(r.snapshot_us),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }");
        out
    }

    fn recovery_section(rows: &[RecoveryRow], quick: bool) -> String {
        let mut out = format!("{{\n    \"quick\": {quick},\n    \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"scenario\": \"{}\", \"completed\": {}, \"groups_completed\": {}, \
                 \"alerts\": {}, \"crash_restarts\": {}, \"matched\": {}, \"wall_ms\": {}}}{}\n",
                r.scenario,
                r.completed,
                r.groups_completed,
                r.alerts,
                r.crash_restarts,
                r.matched,
                num(r.wall_ms),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }");
        out
    }

    /// Renders `BENCH_STORE.json`; a section not produced by this
    /// invocation is carried over verbatim from `previous` when present.
    #[must_use]
    pub fn render_json(
        quick: bool,
        engine: Option<&[EngineRow]>,
        recovery: Option<&[RecoveryRow]>,
        previous: Option<&str>,
    ) -> String {
        let carried = |key: &str| previous.and_then(|p| extract_section(p, key));
        let engine_text = engine
            .map(|rows| engine_section(rows, quick))
            .or_else(|| carried("e11_store_engine"));
        let recovery_text = recovery
            .map(|rows| recovery_section(rows, quick))
            .or_else(|| carried("e11_recovery"));
        let mut out = String::from("{\n  \"schema\": \"drams-bench-store/v1\"");
        if let Some(text) = engine_text {
            out.push_str(&format!(",\n  \"e11_store_engine\": {text}"));
        }
        if let Some(text) = recovery_text {
            out.push_str(&format!(",\n  \"e11_recovery\": {text}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// The storage trajectory file's canonical location (repo root).
    #[must_use]
    pub fn repo_path() -> std::path::PathBuf {
        super::trajectory::repo_file_path("BENCH_STORE.json")
    }
}

/// The machine-readable fuzzing trajectory (`BENCH_FUZZ.json`).
///
/// `run_experiments e12` emits this file at the repo root with one
/// section, `e12_fuzz`: how many generated scenarios ran, how many
/// simulation events they executed, the injected/detected attack totals,
/// false positives, oracle violations (with the count of shrunk minimal
/// reproductions) and a per-attack-family coverage histogram. Committed
/// like the other trajectories; carry-forward semantics match
/// [`trajectory::render_json`].
pub mod fuzz_trajectory {
    use super::trajectory::extract_section;

    /// Aggregated outcome of one E12 fuzzing sweep.
    #[derive(Debug, Clone, Default)]
    pub struct FuzzSummary {
        /// Generated scenarios executed.
        pub scenarios: u64,
        /// Simulation events across all runs (requests issued + entries
        /// logged + blocks mined + alerts committed).
        pub events: u64,
        /// Attack actions injected across all runs.
        pub attacks_injected: u64,
        /// Injected attacks matched by an alert of the promised kind.
        pub attacks_detected: u64,
        /// Alerts not explained by any injected attack.
        pub false_positives: u64,
        /// Runs whose crash-twin equivalence clause was exercised.
        pub crash_twins_checked: u64,
        /// Oracle violations across all runs (0 = the sweep passed).
        pub violations: u64,
        /// Violating cases shrunk to a minimal reproduction.
        pub shrunk_failures: u64,
        /// Scenarios exercising each attack family, by family name.
        pub families: Vec<(String, u64)>,
    }

    fn fuzz_section(s: &FuzzSummary, quick: bool) -> String {
        let mut out = format!(
            "{{\n    \"quick\": {quick},\n    \"scenarios\": {},\n    \"events\": {},\n    \
             \"attacks_injected\": {},\n    \"attacks_detected\": {},\n    \
             \"false_positives\": {},\n    \"crash_twins_checked\": {},\n    \
             \"violations\": {},\n    \"shrunk_failures\": {},\n    \"families\": {{\n",
            s.scenarios,
            s.events,
            s.attacks_injected,
            s.attacks_detected,
            s.false_positives,
            s.crash_twins_checked,
            s.violations,
            s.shrunk_failures,
        );
        for (i, (family, count)) in s.families.iter().enumerate() {
            out.push_str(&format!(
                "      \"{family}\": {count}{}\n",
                if i + 1 < s.families.len() { "," } else { "" }
            ));
        }
        out.push_str("    }\n  }");
        out
    }

    /// Renders `BENCH_FUZZ.json`; the section is carried over verbatim
    /// from `previous` when this invocation did not produce it.
    #[must_use]
    pub fn render_json(quick: bool, e12: Option<&FuzzSummary>, previous: Option<&str>) -> String {
        let fuzz_text = e12
            .map(|s| fuzz_section(s, quick))
            .or_else(|| previous.and_then(|p| extract_section(p, "e12_fuzz")));
        let mut out = String::from("{\n  \"schema\": \"drams-bench-fuzz/v1\"");
        if let Some(text) = fuzz_text {
            out.push_str(&format!(",\n  \"e12_fuzz\": {text}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// The fuzz trajectory file's canonical location (repo root).
    #[must_use]
    pub fn repo_path() -> std::path::PathBuf {
        super::trajectory::repo_file_path("BENCH_FUZZ.json")
    }
}

/// The machine-readable fault-plane trajectory (`BENCH_FAULT.json`).
///
/// `run_experiments e13` emits this file at the repo root with one
/// section, `e13_faults`, in three parts: `rows` (one per honest
/// fault-matrix scenario — availability, retry/failover/spill counters,
/// recovery time, alert count), `detection_under_faults` (attack
/// campaigns run *on top of* the lossy fault plan, which must still be
/// fully detected with zero false positives), and `crash_fault_twin`
/// (a PDP crash under duplicating faults compared byte-for-byte against
/// its uninterrupted twin). Committed like the other trajectories;
/// carry-forward semantics match [`trajectory::render_json`].
pub mod fault_trajectory {
    use super::trajectory::extract_section;

    /// One honest fault-matrix scenario's measured row.
    #[derive(Debug, Clone)]
    pub struct FaultRow {
        /// Scenario name (see `scenarios::fault_matrix`).
        pub scenario: String,
        /// Requests issued.
        pub requests: u64,
        /// Requests that reached enforcement.
        pub completed: u64,
        /// Requests abandoned after the retry budget (must be 0).
        pub dropped: u64,
        /// completed / issued, in percent — the availability figure.
        pub availability_pct: f64,
        /// PEP→PDP retransmissions.
        pub retries: u64,
        /// Messages the fault plane dropped.
        pub msgs_dropped: u64,
        /// Messages the fault plane duplicated.
        pub msgs_duplicated: u64,
        /// Messages the fault plane reordered.
        pub msgs_reordered: u64,
        /// Messages swallowed by an active partition.
        pub partition_blocked: u64,
        /// Circuit-breaker Closed→Open transitions.
        pub breaker_trips: u64,
        /// Requests completed through a failover PDP slot.
        pub failovers: u64,
        /// 95th-percentile end-to-end latency of failover requests
        /// (virtual ms; null when no failovers happened).
        pub failover_p95_ms: f64,
        /// Log entries spilled to the LI WAL during a partition.
        pub li_spilled: u64,
        /// Spilled entries replayed after the partition healed.
        pub li_replayed: u64,
        /// Mean partition recovery time: heal → spill fully replayed
        /// (virtual ms; null when no spill happened).
        pub recovery_mean_ms: f64,
        /// Degraded-mode epoch-timeout retunes committed on-chain.
        pub timeout_retunes: u64,
        /// Alerts committed — every one is a false positive here.
        pub alerts: u64,
        /// Wall-clock runtime (ms).
        pub wall_ms: f64,
    }

    /// One attack campaign scored under an active fault plan.
    #[derive(Debug, Clone)]
    pub struct DetectionRow {
        /// Threat family name.
        pub threat: String,
        /// Attack actions the adversary performed.
        pub attacks: u64,
        /// Attacks matched by an alert of the promised kind.
        pub detected: u64,
        /// Alerts not explained by any injected attack.
        pub false_positives: u64,
        /// Mean request-issue → alert-commit latency (virtual ms).
        pub mean_detection_ms: f64,
    }

    /// The crash-under-faults byte-identity check.
    #[derive(Debug, Clone)]
    pub struct TwinCheck {
        /// Scenario name.
        pub scenario: String,
        /// Crash-restarts executed.
        pub crash_restarts: u64,
        /// Whether alerts + ground truth + counters were byte-identical
        /// to the uninterrupted twin run.
        pub matched: bool,
    }

    /// The whole E13 summary.
    #[derive(Debug, Clone)]
    pub struct FaultSummary {
        /// Honest fault-matrix rows.
        pub rows: Vec<FaultRow>,
        /// Attack campaigns under faults.
        pub detection: Vec<DetectionRow>,
        /// PDP crash under duplicating faults vs its twin.
        pub twin: TwinCheck,
    }

    impl FaultSummary {
        /// Whether every acceptance clause held: no honest alert, no
        /// abandoned request, every attack detected, no false positive,
        /// and the crashed run byte-identical to its twin.
        #[must_use]
        pub fn clean(&self) -> bool {
            self.rows.iter().all(|r| r.alerts == 0 && r.dropped == 0)
                && self
                    .detection
                    .iter()
                    .all(|d| d.detected == d.attacks && d.false_positives == 0)
                && self.twin.matched
        }
    }

    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.3}")
        } else {
            "null".to_string()
        }
    }

    fn row_json(r: &FaultRow) -> String {
        format!(
            "{{\"scenario\": \"{}\", \"requests\": {}, \"completed\": {}, \
             \"dropped\": {}, \"availability_pct\": {}, \"retries\": {}, \
             \"msgs_dropped\": {}, \"msgs_duplicated\": {}, \"msgs_reordered\": {}, \
             \"partition_blocked\": {}, \"breaker_trips\": {}, \"failovers\": {}, \
             \"failover_p95_ms\": {}, \"li_spilled\": {}, \"li_replayed\": {}, \
             \"recovery_mean_ms\": {}, \"timeout_retunes\": {}, \"alerts\": {}, \
             \"wall_ms\": {}}}",
            r.scenario,
            r.requests,
            r.completed,
            r.dropped,
            num(r.availability_pct),
            r.retries,
            r.msgs_dropped,
            r.msgs_duplicated,
            r.msgs_reordered,
            r.partition_blocked,
            r.breaker_trips,
            r.failovers,
            num(r.failover_p95_ms),
            r.li_spilled,
            r.li_replayed,
            num(r.recovery_mean_ms),
            r.timeout_retunes,
            r.alerts,
            num(r.wall_ms)
        )
    }

    fn detection_json(d: &DetectionRow) -> String {
        format!(
            "{{\"threat\": \"{}\", \"attacks\": {}, \"detected\": {}, \
             \"false_positives\": {}, \"mean_detection_ms\": {}}}",
            d.threat,
            d.attacks,
            d.detected,
            d.false_positives,
            num(d.mean_detection_ms)
        )
    }

    fn e13_section(s: &FaultSummary, quick: bool) -> String {
        let mut out = format!("{{\n    \"quick\": {quick},\n    \"rows\": [\n");
        for (i, r) in s.rows.iter().enumerate() {
            out.push_str(&format!(
                "      {}{}\n",
                row_json(r),
                if i + 1 < s.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ],\n    \"detection_under_faults\": [\n");
        for (i, d) in s.detection.iter().enumerate() {
            out.push_str(&format!(
                "      {}{}\n",
                detection_json(d),
                if i + 1 < s.detection.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ],\n    \"crash_fault_twin\": {{\"scenario\": \"{}\", \
             \"crash_restarts\": {}, \"matched\": {}}}\n  }}",
            s.twin.scenario, s.twin.crash_restarts, s.twin.matched
        ));
        out
    }

    /// Renders `BENCH_FAULT.json`; the section is carried over verbatim
    /// from `previous` when this invocation did not produce it.
    #[must_use]
    pub fn render_json(quick: bool, e13: Option<&FaultSummary>, previous: Option<&str>) -> String {
        let text = e13
            .map(|s| e13_section(s, quick))
            .or_else(|| previous.and_then(|p| extract_section(p, "e13_faults")));
        let mut out = String::from("{\n  \"schema\": \"drams-bench-fault/v1\"");
        if let Some(text) = text {
            out.push_str(&format!(",\n  \"e13_faults\": {text}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// The fault trajectory file's canonical location (repo root).
    #[must_use]
    pub fn repo_path() -> std::path::PathBuf {
        super::trajectory::repo_file_path("BENCH_FAULT.json")
    }
}

/// The machine-readable overload trajectory (`BENCH_LOAD.json`).
///
/// `run_experiments e14` emits this file at the repo root: the honest
/// flash-crowd row with every memory/state accounting column (shed and
/// degraded admissions, eviction/retirement/compaction counters, and
/// the peak tracked-state gauges per component), the attack campaigns
/// scored under overload, and the crash-under-overload twin verdict.
/// Committed like `BENCH_FAULT.json`, so every PR touching the bounded
/// -state machinery shows its peak-state delta in the diff; CI fails
/// the run when a peak column more than doubles against the committed
/// file. Carry-forward semantics match [`trajectory::render_json`].
pub mod load_trajectory {
    use super::trajectory::extract_section;

    /// The peak tracked-state columns, in emission order. CI's
    /// regression gate compares exactly these keys against the
    /// committed file.
    pub const PEAK_COLUMNS: [&str; 8] = [
        "peak_pep_inflight",
        "peak_pdp_idempotency",
        "peak_pdp_decision_cache",
        "peak_li_resident",
        "peak_analyser_pending_retire",
        "peak_contract_storage",
        "peak_chain_journal_records",
        "peak_policy_history",
    ];

    /// One overload scenario's measured row.
    #[derive(Debug, Clone)]
    pub struct LoadRow {
        /// Scenario name (see `scenarios::flash_crowd` and friends).
        pub scenario: String,
        /// Requests issued by the workload.
        pub requests: u64,
        /// Requests that reached enforcement.
        pub completed: u64,
        /// Requests shed at the PEP admission boundary.
        pub shed: u64,
        /// Requests admitted above the soft watermark.
        pub degraded: u64,
        /// completed / (issued - shed), in percent: admitted requests
        /// must all complete.
        pub admitted_completion_pct: f64,
        /// Alerts committed — every one is a false positive here.
        pub alerts: u64,
        /// Journaled idempotency-cache entries aged out.
        pub idempotency_evictions: u64,
        /// PDP decision-cache LRU evictions.
        pub decision_cache_evictions: u64,
        /// Closed decision groups retired from contract storage.
        pub groups_retired: u64,
        /// Chain-node journal snapshot+prune compactions.
        pub journal_compactions: u64,
        /// Peak tracked-state gauges, keyed like [`PEAK_COLUMNS`].
        pub peaks: [u64; 8],
        /// Wall-clock runtime (ms).
        pub wall_ms: f64,
    }

    /// One attack campaign scored while shedding is active.
    #[derive(Debug, Clone)]
    pub struct DetectionRow {
        /// Threat family name.
        pub threat: String,
        /// Attack actions the adversary performed (on admitted
        /// requests — shed requests carry no evidence and no attack).
        pub attacks: u64,
        /// Attacks matched by an alert of the promised kind.
        pub detected: u64,
        /// Alerts not explained by any injected attack.
        pub false_positives: u64,
        /// Requests shed during the campaign run — proof the overload
        /// was real while detection stayed total.
        pub shed: u64,
    }

    /// The crash-under-overload byte-identity check.
    #[derive(Debug, Clone)]
    pub struct TwinCheck {
        /// Scenario name.
        pub scenario: String,
        /// Crash-restarts executed.
        pub crash_restarts: u64,
        /// Requests shed in the crashed run.
        pub shed: u64,
        /// Whether alerts + ground truth + counters were byte-identical
        /// to the uninterrupted twin run.
        pub matched: bool,
    }

    /// The whole E14 summary.
    #[derive(Debug, Clone)]
    pub struct LoadSummary {
        /// The honest flash-crowd row.
        pub honest: LoadRow,
        /// Attack campaigns under overload.
        pub detection: Vec<DetectionRow>,
        /// PDP crash mid-spike vs its twin.
        pub twin: TwinCheck,
    }

    impl LoadSummary {
        /// Whether every acceptance clause held: the honest overload
        /// shed real traffic without a single alert, every admitted
        /// request completed, every attack under overload was detected
        /// with zero false positives while shedding, and the crashed
        /// run was byte-identical to its twin.
        #[must_use]
        pub fn clean(&self) -> bool {
            self.honest.alerts == 0
                && self.honest.shed > 0
                && self.honest.completed == self.honest.requests - self.honest.shed
                && self
                    .detection
                    .iter()
                    .all(|d| d.detected == d.attacks && d.attacks > 0 && d.false_positives == 0)
                && self.twin.matched
        }
    }

    fn row_json(r: &LoadRow) -> String {
        let mut out = format!(
            "{{\"scenario\": \"{}\", \"requests\": {}, \"completed\": {}, \
             \"shed\": {}, \"degraded\": {}, \"admitted_completion_pct\": {:.3}, \
             \"alerts\": {}, \"idempotency_evictions\": {}, \
             \"decision_cache_evictions\": {}, \"groups_retired\": {}, \
             \"journal_compactions\": {}",
            r.scenario,
            r.requests,
            r.completed,
            r.shed,
            r.degraded,
            r.admitted_completion_pct,
            r.alerts,
            r.idempotency_evictions,
            r.decision_cache_evictions,
            r.groups_retired,
            r.journal_compactions,
        );
        for (key, value) in PEAK_COLUMNS.iter().zip(r.peaks) {
            out.push_str(&format!(", \"{key}\": {value}"));
        }
        out.push_str(&format!(", \"wall_ms\": {:.3}}}", r.wall_ms));
        out
    }

    fn detection_json(d: &DetectionRow) -> String {
        format!(
            "{{\"threat\": \"{}\", \"attacks\": {}, \"detected\": {}, \
             \"false_positives\": {}, \"shed\": {}}}",
            d.threat, d.attacks, d.detected, d.false_positives, d.shed
        )
    }

    fn e14_section(s: &LoadSummary, quick: bool) -> String {
        let mut out = format!(
            "{{\n    \"quick\": {quick},\n    \"honest\": {},\n    \
             \"detection_under_overload\": [\n",
            row_json(&s.honest)
        );
        for (i, d) in s.detection.iter().enumerate() {
            out.push_str(&format!(
                "      {}{}\n",
                detection_json(d),
                if i + 1 < s.detection.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ],\n    \"crash_overload_twin\": {{\"scenario\": \"{}\", \
             \"crash_restarts\": {}, \"shed\": {}, \"matched\": {}}}\n  }}",
            s.twin.scenario, s.twin.crash_restarts, s.twin.shed, s.twin.matched
        ));
        out
    }

    /// Renders `BENCH_LOAD.json`; the section is carried over verbatim
    /// from `previous` when this invocation did not produce it.
    #[must_use]
    pub fn render_json(quick: bool, e14: Option<&LoadSummary>, previous: Option<&str>) -> String {
        let text = e14
            .map(|s| e14_section(s, quick))
            .or_else(|| previous.and_then(|p| extract_section(p, "e14_load")));
        let mut out = String::from("{\n  \"schema\": \"drams-bench-load/v1\"");
        if let Some(text) = text {
            out.push_str(&format!(",\n  \"e14_load\": {text}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Extracts the honest row's peak columns (and the quick flag) from
    /// a previously committed `BENCH_LOAD.json`, for the peak-state
    /// regression gate. Returns `None` when the file has no comparable
    /// section.
    #[must_use]
    pub fn parse_honest_peaks(previous: &str) -> Option<(bool, [u64; 8])> {
        let section = extract_section(previous, "e14_load")?;
        let quick = u64_or_bool_field(&section, "quick")? != 0;
        let honest = extract_section(&section, "honest")?;
        let mut peaks = [0u64; 8];
        for (slot, key) in peaks.iter_mut().zip(PEAK_COLUMNS) {
            // A column the committed file predates reads as 0, which the
            // regression gate skips (it only compares prev > 0).
            *slot = u64_or_bool_field(&honest, key).unwrap_or(0);
        }
        Some((quick, peaks))
    }

    /// Reads `"key": value` where value is an unsigned integer or a
    /// boolean (`true` = 1, `false` = 0).
    fn u64_or_bool_field(obj: &str, key: &str) -> Option<u64> {
        let needle = format!("\"{key}\":");
        let at = obj.find(&needle)? + needle.len();
        let rest = obj[at..].trim_start();
        if rest.starts_with("true") {
            return Some(1);
        }
        if rest.starts_with("false") {
            return Some(0);
        }
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    }

    /// The overload trajectory file's canonical location (repo root).
    #[must_use]
    pub fn repo_path() -> std::path::PathBuf {
        super::trajectory::repo_file_path("BENCH_LOAD.json")
    }
}

/// The machine-readable parallel-execution trajectory (`BENCH_PAR.json`).
///
/// `run_experiments e15` emits this file at the repo root: one row per
/// workload × worker count (the signature-audit path, compiled-PDP
/// evaluation, and the million-request flash crowd), each with wall
/// clock, throughput and the speedup against the same workload's
/// workers=1 row. `host_cores` records the machine the file was
/// produced on: on a single-core host no wall-clock speedup is
/// physically possible, so the `speedup_ok` gate degrades to an
/// overhead bound there (see `run_experiments`'s E15 docs). The
/// `determinism_ok` flag asserts every workload produced byte-identical
/// results at every worker count — the tentpole invariant. Committed
/// like the other trajectories; carry-forward semantics match
/// [`trajectory::render_json`].
pub mod par_trajectory {
    use super::trajectory::extract_section;

    /// One workload × worker-count measurement.
    #[derive(Debug, Clone)]
    pub struct ParRow {
        /// Workload name (`sig_audit`, `pdp_eval`, `flash_crowd_1m`).
        pub workload: String,
        /// Worker-pool size the run was pinned to.
        pub workers: usize,
        /// Work items processed (transactions verified, decisions
        /// evaluated, or requests simulated).
        pub items: u64,
        /// Wall-clock runtime (ms).
        pub wall_ms: f64,
        /// Items per wall-clock second.
        pub per_sec: f64,
        /// Throughput relative to the same workload at workers=1.
        pub speedup: f64,
    }

    /// The whole E15 summary.
    #[derive(Debug, Clone)]
    pub struct ParSummary {
        /// `std::thread::available_parallelism()` on the producing host.
        pub host_cores: u64,
        /// All workload × worker-count rows.
        pub rows: Vec<ParRow>,
        /// Whether every workload was byte-identical at every worker
        /// count (roots, verdicts, decisions, alerts, ground truth,
        /// counters and peak state).
        pub determinism_ok: bool,
        /// The adaptive speedup gate: on a multi-core host the
        /// verify-heavy row must beat 1.0x at workers=4; on a
        /// single-core host (where parallel wall-clock gains are
        /// physically impossible) the same row must stay above the
        /// overhead floor.
        pub speedup_ok: bool,
    }

    fn row_json(r: &ParRow) -> String {
        format!(
            "{{\"workload\": \"{}\", \"workers\": {}, \"items\": {}, \
             \"wall_ms\": {:.3}, \"per_sec\": {:.3}, \"speedup\": {:.3}}}",
            r.workload, r.workers, r.items, r.wall_ms, r.per_sec, r.speedup
        )
    }

    fn e15_section(s: &ParSummary, quick: bool) -> String {
        let mut out = format!(
            "{{\n    \"quick\": {quick},\n    \"host_cores\": {},\n    \
             \"determinism_ok\": {},\n    \"speedup_ok\": {},\n    \"rows\": [\n",
            s.host_cores, s.determinism_ok, s.speedup_ok
        );
        for (i, r) in s.rows.iter().enumerate() {
            out.push_str(&format!(
                "      {}{}\n",
                row_json(r),
                if i + 1 < s.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  }");
        out
    }

    /// Renders `BENCH_PAR.json`; the section is carried over verbatim
    /// from `previous` when this invocation did not produce it.
    #[must_use]
    pub fn render_json(quick: bool, e15: Option<&ParSummary>, previous: Option<&str>) -> String {
        let text = e15
            .map(|s| e15_section(s, quick))
            .or_else(|| previous.and_then(|p| extract_section(p, "e15_parallel")));
        let mut out = String::from("{\n  \"schema\": \"drams-bench-par/v1\"");
        if let Some(text) = text {
            out.push_str(&format!(",\n  \"e15_parallel\": {text}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// The parallel-execution trajectory file's canonical location
    /// (repo root).
    #[must_use]
    pub fn repo_path() -> std::path::PathBuf {
        super::trajectory::repo_file_path("BENCH_PAR.json")
    }
}

/// The E16 real-transport trajectory (`BENCH_NET.json`): loopback
/// round-trip latency and frame throughput per payload size, the cost
/// of killing and re-provisioning an endpoint, and a DES-vs-TCP
/// conformance verdict, carried forward across sessions like the other
/// trajectory files.
pub mod net_trajectory {
    use super::trajectory::extract_section;

    /// One payload-size × frame-count round-trip measurement over the
    /// loopback TCP transport.
    #[derive(Debug, Clone)]
    pub struct NetRow {
        /// Frame payload size in bytes.
        pub payload_bytes: usize,
        /// Frames round-tripped.
        pub frames: u64,
        /// Total wall-clock for the batch (ms).
        pub wall_ms: f64,
        /// Mean single round-trip latency (µs).
        pub rt_mean_us: f64,
        /// 95th-percentile round-trip latency (µs).
        pub rt_p95_us: f64,
        /// Round-trips per wall-clock second.
        pub frames_per_sec: f64,
    }

    /// Endpoint kill + re-provision + first-round-trip cost.
    #[derive(Debug, Clone)]
    pub struct ReconnectCost {
        /// Restart cycles measured.
        pub cycles: u64,
        /// Mean restart-to-first-echo time (µs).
        pub mean_us: f64,
        /// Worst restart-to-first-echo time (µs).
        pub max_us: f64,
    }

    /// DES-vs-TCP conformance verdict for one scenario.
    #[derive(Debug, Clone)]
    pub struct Conformance {
        /// Scenario name replayed over both backends.
        pub scenario: String,
        /// Frames the TCP run put on the wire.
        pub frames: u64,
        /// Whether alerts, ground truth and counters were identical.
        pub matched: bool,
    }

    /// The whole E16 summary.
    #[derive(Debug, Clone)]
    pub struct NetSummary {
        /// Transport label (`tcp-loopback`).
        pub transport: String,
        /// Round-trip rows per payload size.
        pub rows: Vec<NetRow>,
        /// Endpoint restart/reconnect cost.
        pub reconnect: ReconnectCost,
        /// The conformance verdict.
        pub conformance: Conformance,
    }

    fn row_json(r: &NetRow) -> String {
        format!(
            "{{\"payload_bytes\": {}, \"frames\": {}, \"wall_ms\": {:.3}, \
             \"rt_mean_us\": {:.3}, \"rt_p95_us\": {:.3}, \"frames_per_sec\": {:.0}}}",
            r.payload_bytes, r.frames, r.wall_ms, r.rt_mean_us, r.rt_p95_us, r.frames_per_sec
        )
    }

    fn e16_section(s: &NetSummary, quick: bool) -> String {
        let mut out = format!(
            "{{\n    \"quick\": {quick},\n    \"transport\": \"{}\",\n    \"rows\": [\n",
            s.transport
        );
        for (i, r) in s.rows.iter().enumerate() {
            out.push_str(&format!(
                "      {}{}\n",
                row_json(r),
                if i + 1 < s.rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ],\n    \"reconnect\": {{\"cycles\": {}, \"mean_us\": {:.3}, \"max_us\": {:.3}}},\n",
            s.reconnect.cycles, s.reconnect.mean_us, s.reconnect.max_us
        ));
        out.push_str(&format!(
            "    \"conformance\": {{\"scenario\": \"{}\", \"frames\": {}, \"matched\": {}}}\n  }}",
            s.conformance.scenario, s.conformance.frames, s.conformance.matched
        ));
        out
    }

    /// Renders `BENCH_NET.json`; the section is carried over verbatim
    /// from `previous` when this invocation did not produce it.
    #[must_use]
    pub fn render_json(quick: bool, e16: Option<&NetSummary>, previous: Option<&str>) -> String {
        let text = e16
            .map(|s| e16_section(s, quick))
            .or_else(|| previous.and_then(|p| extract_section(p, "e16_net")));
        let mut out = String::from("{\n  \"schema\": \"drams-bench-net/v1\"");
        if let Some(text) = text {
            out.push_str(&format!(",\n  \"e16_net\": {text}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// The transport trajectory file's canonical location (repo root).
    #[must_use]
    pub fn repo_path() -> std::path::PathBuf {
        super::trajectory::repo_file_path("BENCH_NET.json")
    }
}

#[cfg(test)]
mod tests {
    use super::trajectory::*;
    use super::*;

    #[test]
    fn log_entry_size_tracks_request() {
        let small = log_entry_of_size(1, 64);
        let large = log_entry_of_size(1, 8192);
        assert!(large.wire_len() > small.wire_len() + 8000);
    }

    #[test]
    fn trajectory_json_is_balanced_and_complete() {
        let rows = vec![PdpScalingRow {
            policies: 10,
            rules: 51,
            interpreter_us: 12.5,
            compiled_us: 2.5,
            compiled_cached_us: 0.4,
        }];
        let e6 = MonitoringOverhead {
            requests: 1000,
            off: LatencySummary {
                mean_ms: 40.0,
                p95_ms: 55.0,
                p99_ms: 60.0,
                chain_txs: 0,
            },
            on: LatencySummary {
                mean_ms: 40.1,
                p95_ms: 55.2,
                p99_ms: 60.3,
                chain_txs: 321,
            },
            pipeline_mean_ms: 800.0,
            off_wall_ms: 120.0,
            on_wall_ms: 480.0,
        };
        let json = render_json(false, Some(&rows), Some(&e6), None);
        for key in [
            "\"schema\": \"drams-bench-pdp/v2\"",
            "\"e5_pdp_scaling\"",
            "\"speedup_compiled_vs_interpreter\": 5.000",
            "\"e6_monitoring_overhead\"",
            "\"critical_path_overhead_pct\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced json: {json}");
    }

    #[test]
    fn trajectory_json_omits_absent_sections() {
        let json = render_json(true, None, None, None);
        assert!(json.contains("drams-bench-pdp/v2"));
        assert!(!json.contains("e5_pdp_scaling"));
        assert!(!json.contains("e6_monitoring_overhead"));
    }

    #[test]
    fn partial_runs_carry_the_other_section_forward() {
        let rows = vec![PdpScalingRow {
            policies: 10,
            rules: 51,
            interpreter_us: 12.5,
            compiled_us: 2.5,
            compiled_cached_us: 0.4,
        }];
        let e6 = MonitoringOverhead {
            requests: 1000,
            off: LatencySummary {
                mean_ms: 40.0,
                p95_ms: 55.0,
                p99_ms: 60.0,
                chain_txs: 0,
            },
            on: LatencySummary {
                mean_ms: 40.1,
                p95_ms: 55.2,
                p99_ms: 60.3,
                chain_txs: 321,
            },
            pipeline_mean_ms: 800.0,
            off_wall_ms: 120.0,
            on_wall_ms: 480.0,
        };
        let full = render_json(false, Some(&rows), Some(&e6), None);
        // An e5-only *quick* rerun must not drop the committed e6
        // section, and must not relabel it as quick.
        let e5_only = render_json(true, Some(&rows), None, Some(&full));
        assert!(e5_only.contains("\"e6_monitoring_overhead\""));
        assert!(e5_only.contains("\"pipeline_mean_ms\": 800.000"));
        let e6_sec = extract_section(&e5_only, "e6_monitoring_overhead").unwrap();
        assert!(
            e6_sec.contains("\"quick\": false"),
            "carried section relabelled: {e6_sec}"
        );
        let e5_sec = extract_section(&e5_only, "e5_pdp_scaling").unwrap();
        assert!(e5_sec.contains("\"quick\": true"));
        // …and vice versa.
        let e6_only = render_json(false, None, Some(&e6), Some(&full));
        assert!(e6_only.contains("\"e5_pdp_scaling\""));
        assert!(e6_only.contains("\"policies\": 10"));
        // Carried sections round-trip: a second partial render is stable.
        let again = render_json(true, Some(&rows), None, Some(&e5_only));
        assert_eq!(again, e5_only);
    }

    #[test]
    fn extract_section_bracket_matches() {
        let doc = "{\n  \"a\": [ {\"x\": \"br]ace\"} ],\n  \"b\": {\"y\": 1}\n}";
        assert_eq!(
            extract_section(doc, "a").unwrap(),
            "[ {\"x\": \"br]ace\"} ]"
        );
        assert_eq!(extract_section(doc, "b").unwrap(), "{\"y\": 1}");
        assert!(extract_section(doc, "c").is_none());
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let rows = vec![PdpScalingRow {
            policies: 1,
            rules: 1,
            interpreter_us: 1.0,
            compiled_us: 0.0,
            compiled_cached_us: f64::NAN,
        }];
        let json = render_json(false, Some(&rows), None, None);
        assert!(json.contains("\"compiled_cached_us_per_decision\": null"));
        assert!(json.contains("\"speedup_compiled_vs_interpreter\": null"));
    }

    #[test]
    fn trajectory_path_points_at_repo_root() {
        let path = repo_root_path();
        assert!(path.ends_with("BENCH_PDP.json"));
        assert!(path.parent().unwrap().join("Cargo.toml").exists());
    }

    fn crypto_summary() -> crypto_trajectory::CryptoSummary {
        use crypto_trajectory::{CryptoSummary, OldNew};
        CryptoSummary {
            mod_pow: OldNew {
                reference_us: 120.0,
                fast_us: 20.0,
            },
            sign: OldNew {
                reference_us: 260.0,
                fast_us: 30.0,
            },
            verify: OldNew {
                reference_us: 250.0,
                fast_us: 40.0,
            },
            batch_size: 64,
            individual_reference_us: 16_000.0,
            individual_fast_us: 2_600.0,
            batch_us: 2_000.0,
        }
    }

    #[test]
    fn crypto_trajectory_json_is_balanced_and_complete() {
        let json = crypto_trajectory::render_json(false, Some(&crypto_summary()), None);
        for key in [
            "\"schema\": \"drams-bench-crypto/v1\"",
            "\"e9_crypto\"",
            "\"mod_pow\": {\"reference_us\": 120.000, \"fast_us\": 20.000, \"speedup\": 6.000",
            "\"batch_size\": 64",
            "\"speedup_vs_individual_reference\": 8.000",
            "\"speedup_vs_individual_fast\": 1.300",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced json: {json}");
    }

    #[test]
    fn crypto_trajectory_carries_forward_when_not_rerun() {
        let full = crypto_trajectory::render_json(false, Some(&crypto_summary()), None);
        let carried = crypto_trajectory::render_json(true, None, Some(&full));
        assert!(carried.contains("\"e9_crypto\""));
        let sec = extract_section(&carried, "e9_crypto").unwrap();
        assert!(sec.contains("\"quick\": false"), "relabelled: {sec}");
        // A rerun replaces the section and records its own mode.
        let rerun = crypto_trajectory::render_json(true, Some(&crypto_summary()), Some(&full));
        let sec = extract_section(&rerun, "e9_crypto").unwrap();
        assert!(sec.contains("\"quick\": true"));
        // Nothing to carry and nothing run: section omitted.
        let empty = crypto_trajectory::render_json(true, None, None);
        assert!(!empty.contains("e9_crypto"));
    }

    #[test]
    fn crypto_trajectory_path_points_at_repo_root() {
        let path = crypto_trajectory::repo_path();
        assert!(path.ends_with("BENCH_CRYPTO.json"));
        assert!(path.parent().unwrap().join("Cargo.toml").exists());
    }

    fn e2e_row(name: &str) -> e2e_trajectory::ScenarioRow {
        e2e_trajectory::ScenarioRow {
            name: name.to_string(),
            requests: 400,
            completed: 400,
            dropped: 0,
            groups_completed: 400,
            entries_logged: 1600,
            alerts: 0,
            policy_activations: 1,
            retries: 7,
            attempts: vec![393, 6, 1, 0, 0, 0, 0, 0],
            e2e_mean_ms: 12.5,
            commit_p95_ms: 700.0,
            wall_ms: 150.0,
            requests_per_sec: 2_666.7,
            sim_speedup: 40.0,
        }
    }

    #[test]
    fn e2e_trajectory_json_is_balanced_and_complete() {
        let rows = vec![e2e_row("steady_state"), e2e_row("burst_churn")];
        let json = e2e_trajectory::render_json(false, Some(&rows), None);
        for key in [
            "\"schema\": \"drams-bench-e2e/v1\"",
            "\"e10_scenarios\"",
            "\"scenario\": \"steady_state\"",
            "\"scenario\": \"burst_churn\"",
            "\"commit_p95_ms\": 700.000",
            "\"policy_activations\": 1",
            "\"retries\": 7",
            "\"delivery_attempts\": [393, 6, 1, 0, 0, 0, 0, 0]",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced json: {json}");
    }

    #[test]
    fn e2e_trajectory_carries_forward_when_not_rerun() {
        let full = e2e_trajectory::render_json(false, Some(&[e2e_row("steady_state")]), None);
        let carried = e2e_trajectory::render_json(true, None, Some(&full));
        let sec = extract_section(&carried, "e10_scenarios").unwrap();
        assert!(sec.contains("\"quick\": false"), "relabelled: {sec}");
        assert!(sec.contains("steady_state"));
        let empty = e2e_trajectory::render_json(true, None, None);
        assert!(!empty.contains("e10_scenarios"));
    }

    #[test]
    fn e2e_trajectory_path_points_at_repo_root() {
        let path = e2e_trajectory::repo_path();
        assert!(path.ends_with("BENCH_E2E.json"));
        assert!(path.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn store_trajectory_json_is_balanced_and_carries_forward() {
        use store_trajectory::{EngineRow, RecoveryRow};
        let engine = vec![EngineRow {
            backend: "mem-flushed".into(),
            records: 2048,
            payload_bytes: 256,
            append_us: 1.5,
            replay_us: 0.4,
            snapshot_us: 12.0,
        }];
        let recovery = vec![RecoveryRow {
            scenario: "crash_chain".into(),
            completed: 400,
            groups_completed: 400,
            alerts: 0,
            crash_restarts: 1,
            matched: true,
            wall_ms: 180.0,
        }];
        let full = store_trajectory::render_json(false, Some(&engine), Some(&recovery), None);
        for key in [
            "\"schema\": \"drams-bench-store/v1\"",
            "\"e11_store_engine\"",
            "\"append_us_per_record\": 1.500",
            "\"e11_recovery\"",
            "\"matched\": true",
        ] {
            assert!(full.contains(key), "missing {key} in {full}");
        }
        let open = full.matches(['{', '[']).count();
        let close = full.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced json: {full}");
        // An engine-only rerun carries the recovery rows forward.
        let partial = store_trajectory::render_json(true, Some(&engine), None, Some(&full));
        assert!(partial.contains("\"e11_recovery\""));
        let sec = extract_section(&partial, "e11_recovery").unwrap();
        assert!(sec.contains("\"quick\": false"), "relabelled: {sec}");
        let empty = store_trajectory::render_json(true, None, None, None);
        assert!(!empty.contains("e11_store_engine"));
    }

    #[test]
    fn store_trajectory_path_points_at_repo_root() {
        let path = store_trajectory::repo_path();
        assert!(path.ends_with("BENCH_STORE.json"));
        assert!(path.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn recovery_matrix_covers_all_three_services() {
        use drams_core::scenario::{CrashTarget, ScriptedAction};
        let matrix = scenarios::recovery_matrix(true);
        assert!(matrix.len() >= 3);
        let mut targets = Vec::new();
        for spec in &matrix {
            for action in &spec.script {
                if let ScriptedAction::CrashRestart { target, .. } = action {
                    targets.push(*target);
                }
            }
            // Twins strip the crash and nothing else.
            let twin = scenarios::strip_crashes(spec);
            assert!(twin
                .script
                .iter()
                .all(|a| !matches!(a, ScriptedAction::CrashRestart { .. })));
            assert_eq!(twin.config.total_requests, spec.config.total_requests);
        }
        assert!(targets.iter().any(|t| matches!(t, CrashTarget::ChainNode)));
        assert!(targets.iter().any(|t| matches!(t, CrashTarget::Li(_))));
        assert!(targets.iter().any(|t| matches!(t, CrashTarget::Analyser)));
        assert!(targets.iter().any(|t| matches!(t, CrashTarget::Pdp(_))));
        assert!(scenarios::by_name("crash_chain", true).is_some());
        assert!(scenarios::by_name("crash_pdp", true).is_some());
    }

    #[test]
    fn fault_matrix_covers_the_taxonomy() {
        use drams_core::scenario::ScriptedAction;
        let matrix = scenarios::fault_matrix(true);
        let names: std::collections::HashSet<&str> =
            matrix.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), matrix.len(), "duplicate scenario names");
        // Loss, duplication/reordering, a partition, and a PDP outage
        // must all be represented.
        assert!(matrix
            .iter()
            .any(|s| s.faults.links.iter().any(|l| l.drop_permille > 0)));
        assert!(matrix.iter().any(|s| s
            .faults
            .links
            .iter()
            .any(|l| l.duplicate_permille > 0 && l.reorder_permille > 0)));
        assert!(matrix.iter().any(|s| !s.faults.partitions.is_empty()));
        assert!(matrix.iter().any(|s| s
            .script
            .iter()
            .any(|a| matches!(a, ScriptedAction::SilencePdp { .. }))));
        assert!(scenarios::by_name("lossy_links", true).is_some());
        assert!(!scenarios::lossy_plan().is_empty());
    }

    fn fault_summary() -> fault_trajectory::FaultSummary {
        use fault_trajectory::{DetectionRow, FaultRow, FaultSummary, TwinCheck};
        FaultSummary {
            rows: vec![FaultRow {
                scenario: "lossy_links".into(),
                requests: 400,
                completed: 400,
                dropped: 0,
                availability_pct: 100.0,
                retries: 95,
                msgs_dropped: 88,
                msgs_duplicated: 0,
                msgs_reordered: 0,
                partition_blocked: 0,
                breaker_trips: 0,
                failovers: 0,
                failover_p95_ms: f64::NAN,
                li_spilled: 0,
                li_replayed: 0,
                recovery_mean_ms: f64::NAN,
                timeout_retunes: 2,
                alerts: 0,
                wall_ms: 120.0,
            }],
            detection: vec![DetectionRow {
                threat: "drop-log".into(),
                attacks: 11,
                detected: 11,
                false_positives: 0,
                mean_detection_ms: 4200.0,
            }],
            twin: TwinCheck {
                scenario: "crash_pdp_faults".into(),
                crash_restarts: 1,
                matched: true,
            },
        }
    }

    #[test]
    fn fault_trajectory_json_is_balanced_and_complete() {
        let summary = fault_summary();
        assert!(summary.clean());
        let json = fault_trajectory::render_json(false, Some(&summary), None);
        for key in [
            "\"schema\": \"drams-bench-fault/v1\"",
            "\"e13_faults\"",
            "\"availability_pct\": 100.000",
            "\"failover_p95_ms\": null",
            "\"timeout_retunes\": 2",
            "\"detection_under_faults\"",
            "\"threat\": \"drop-log\"",
            "\"crash_fault_twin\"",
            "\"matched\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced json: {json}");
    }

    #[test]
    fn fault_summary_clean_flags_every_violation_kind() {
        let mut fp = fault_summary();
        fp.rows[0].alerts = 1;
        assert!(!fp.clean());
        let mut abandoned = fault_summary();
        abandoned.rows[0].dropped = 3;
        assert!(!abandoned.clean());
        let mut missed = fault_summary();
        missed.detection[0].detected = 10;
        assert!(!missed.clean());
        let mut diverged = fault_summary();
        diverged.twin.matched = false;
        assert!(!diverged.clean());
    }

    #[test]
    fn fault_trajectory_carries_forward_when_not_rerun() {
        let full = fault_trajectory::render_json(false, Some(&fault_summary()), None);
        let carried = fault_trajectory::render_json(true, None, Some(&full));
        let sec = extract_section(&carried, "e13_faults").unwrap();
        assert!(sec.contains("\"quick\": false"), "relabelled: {sec}");
        assert!(sec.contains("lossy_links"));
        let empty = fault_trajectory::render_json(true, None, None);
        assert!(!empty.contains("e13_faults"));
    }

    #[test]
    fn fault_trajectory_path_points_at_repo_root() {
        let path = fault_trajectory::repo_path();
        assert!(path.ends_with("BENCH_FAULT.json"));
        assert!(path.parent().unwrap().join("Cargo.toml").exists());
    }

    #[test]
    fn scenario_matrix_names_are_unique_and_lookup_works() {
        let matrix = scenarios::matrix(true);
        assert!(matrix.len() >= 4, "the E10 matrix needs >= 4 scenarios");
        let names: std::collections::HashSet<&str> =
            matrix.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), matrix.len(), "duplicate scenario names");
        // One scenario exercises mid-run policy churn, one a per-cloud
        // PDP topology (the E10 acceptance shape).
        assert!(matrix.iter().any(|s| s.script.iter().any(|a| matches!(
            a,
            drams_core::scenario::ScriptedAction::PublishPolicy { .. }
        ))));
        assert!(matrix
            .iter()
            .any(|s| s.placement == drams_core::scenario::PdpPlacement::PerCloud));
        assert!(scenarios::by_name("degraded_li", true).is_some());
        assert!(scenarios::by_name("nope", true).is_none());
    }

    fn load_summary() -> load_trajectory::LoadSummary {
        use load_trajectory::{DetectionRow, LoadRow, LoadSummary, TwinCheck};
        LoadSummary {
            honest: LoadRow {
                scenario: "flash_crowd".to_string(),
                requests: 100_000,
                completed: 75_000,
                shed: 25_000,
                degraded: 31_000,
                admitted_completion_pct: 100.0,
                alerts: 0,
                idempotency_evictions: 8_000,
                decision_cache_evictions: 12,
                groups_retired: 46_000,
                journal_compactions: 9,
                peaks: [96, 65_000, 1_920, 7, 66_000, 342_000, 12_700, 3],
                wall_ms: 20_000.0,
            },
            detection: vec![DetectionRow {
                threat: "drop-log".to_string(),
                attacks: 750,
                detected: 750,
                false_positives: 0,
                shed: 13_000,
            }],
            twin: TwinCheck {
                scenario: "overload_crash_pdp".to_string(),
                crash_restarts: 1,
                shed: 13_000,
                matched: true,
            },
        }
    }

    #[test]
    fn load_trajectory_json_is_balanced_and_parses_back() {
        let summary = load_summary();
        let json = load_trajectory::render_json(true, Some(&summary), None);
        for key in [
            "\"schema\": \"drams-bench-load/v1\"",
            "\"e14_load\"",
            "\"honest\"",
            "\"detection_under_overload\"",
            "\"crash_overload_twin\"",
            "\"peak_contract_storage\": 342000",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced json: {json}");
        // The peak-state regression gate reads back exactly what the
        // renderer wrote — the honest row's gauges, in column order.
        let (quick, peaks) = load_trajectory::parse_honest_peaks(&json).unwrap();
        assert!(quick);
        assert_eq!(peaks, summary.honest.peaks);
        // Carry-forward: an invocation that skipped E14 keeps the
        // committed section verbatim.
        let carried = load_trajectory::render_json(false, None, Some(&json));
        assert!(carried.contains("\"peak_pep_inflight\": 96"));
        assert_eq!(
            load_trajectory::parse_honest_peaks(&carried).unwrap().1,
            summary.honest.peaks
        );
    }

    #[test]
    fn load_summary_clean_flags_every_violation_kind() {
        assert!(load_summary().clean());
        let mut alerting = load_summary();
        alerting.honest.alerts = 1;
        assert!(!alerting.clean());
        let mut unshed = load_summary();
        unshed.honest.shed = 0;
        unshed.honest.completed = unshed.honest.requests;
        assert!(
            !unshed.clean(),
            "a flash crowd that never overran the cap proves nothing"
        );
        let mut lost = load_summary();
        lost.honest.completed -= 1;
        assert!(!lost.clean(), "a lost admitted request is a violation");
        let mut missed = load_summary();
        missed.detection[0].detected -= 1;
        assert!(!missed.clean());
        let mut fp = load_summary();
        fp.detection[0].false_positives = 1;
        assert!(!fp.clean());
        let mut diverged = load_summary();
        diverged.twin.matched = false;
        assert!(!diverged.clean());
        let mut toothless = load_summary();
        toothless.detection[0].attacks = 0;
        toothless.detection[0].detected = 0;
        assert!(
            !toothless.clean(),
            "a campaign that never fired proves nothing"
        );
    }

    #[test]
    fn load_matrix_specs_arm_every_bounded_state_mechanism() {
        use drams_core::scenario::ScriptedAction;
        let honest = scenarios::flash_crowd(true);
        assert!(honest.config.total_requests >= 100_000, "E14 floor");
        assert!(!honest.load.is_empty());
        assert!(honest.load.population > 0);
        assert!(honest.load.pep_inflight_cap > 0);
        assert!(honest.load.li_resident_cap > 0);
        assert!(honest.load.idempotency_retention > 0);
        assert!(honest.load.analyser_retire_lag > 0);
        assert!(honest.load.chain_compact_interval > 0);
        assert!(!honest.load.diurnal.is_empty());
        assert!(!honest.load.spikes.is_empty());
        // The clamp is the identity on the committed specs: what E14
        // declares is what runs.
        assert_eq!(honest.load.clamped(), honest.load);
        let crash = scenarios::overload_crash(true);
        assert!(crash
            .script
            .iter()
            .any(|a| matches!(a, ScriptedAction::CrashRestart { .. })));
        assert_eq!(crash.load.clamped(), crash.load);
    }
}
