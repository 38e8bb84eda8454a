//! Shared helpers for the DRAMS experiment harness.
//!
//! The experiment catalogue (EXPERIMENTS.md) is generated by
//! the `run_experiments` binary from the fixtures and scenario matrices
//! here. [`net`] is E2's multi-node gossip simulation over the chain.
//! [`report`] is the one model behind every tracked `BENCH_*.json`
//! file: values, writer, reader, carry-forward, file registry and
//! acceptance gates.

#![forbid(unsafe_code)]

use drams_core::logent::{LogEntry, ObservationPoint, ProbeId};
use drams_core::probe::Probe;
use drams_crypto::aead::SymmetricKey;
use drams_faas::model::{PepId, TenantId};
use drams_faas::msg::{CorrelationId, RequestEnvelope};
use drams_policy::attr::Request;

/// Builds a log entry whose sealed payload is approximately `payload_size`
/// bytes (the knob of experiment E1; E3 stores 128-byte ones).
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

/// A batch of `size` Schnorr signatures spread over `keys` signer
/// identities — a block's worth of Logging Interface submissions.
///
/// This is the fixture behind experiment E9's batch rows in the
/// committed `BENCH_CRYPTO.json` trajectory. Borrow with
/// [`batch_items`] to call `schnorr::batch_verify`.
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

pub mod net;
pub mod report;

/// The named end-to-end scenario matrix of experiment E10.
///
/// Each scenario is a declarative [`drams_core::scenario::ScenarioSpec`]
/// over the event-driven
/// runtime (`drams_core::scenario`): steady state, burst with tenant
/// churn, mid-flight policy flip, a degraded Logging Interface, and a
/// per-cloud PDP federation. `run_experiments e10` runs the matrix and
/// commits `BENCH_E2E.json`; the same specs back the integration
/// tests, so every consumer measures identical workloads.
pub mod scenarios {
    /// The uninterrupted twin of a scenario (every scripted crash
    /// removed); E11, E13 and E14 compare a crashed run against it.
    pub use drams_fuzz::strip_crashes;

    use drams_core::monitor::MonitorConfig;
    use drams_core::scenario::{
        CrashTarget, DiurnalBand, FlashCrowd, LoadProfile, PdpPlacement, Phase, ScenarioSpec,
        ScriptedAction, MIN_RETENTION,
    };
    use drams_faas::des::{MILLIS, SECONDS};
    use drams_faas::fault::{FaultPlan, LinkFault, PartitionWindow, Site};
    use drams_faas::model::{CloudId, FederationSpec, TenantId};
    use drams_fuzz::strict_policy;

    fn base_config() -> MonitorConfig {
        MonitorConfig {
            total_requests: 400,
            request_rate_per_sec: 150.0,
            ..MonitorConfig::default()
        }
    }

    /// Constant load on the classic central-PDP topology.
    #[must_use]
    pub fn steady_state() -> ScenarioSpec {
        ScenarioSpec {
            name: "steady_state".to_string(),
            ..ScenarioSpec::canonical(&base_config())
        }
    }

    /// A 5x arrival burst mid-run, with a tenant joining before the burst
    /// and another leaving during it.
    #[must_use]
    pub fn burst_churn() -> ScenarioSpec {
        let mut config = base_config();
        config.total_requests = 600;
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

    /// Legitimate policy churn: a stricter version
    /// ([`drams_fuzz::strict_policy`]: only doctors, nothing else) is
    /// published mid-flight and rolled back shortly after. Must raise
    /// zero alerts.
    #[must_use]
    pub fn policy_flip() -> ScenarioSpec {
        ScenarioSpec {
            name: "policy_flip".to_string(),
            script: vec![
                ScriptedAction::PublishPolicy {
                    at: 400 * MILLIS,
                    policy: strict_policy(),
                },
                ScriptedAction::RollbackPolicy {
                    at: 900 * MILLIS,
                    version: 0,
                },
            ],
            ..ScenarioSpec::canonical(&base_config())
        }
    }

    /// Fault window: tenant 1's Logging Interface stalls for longer than
    /// the group timeout — the monitor must surface the degradation as
    /// missing-observation alerts.
    #[must_use]
    pub fn degraded_li() -> ScenarioSpec {
        ScenarioSpec {
            name: "degraded_li".to_string(),
            script: vec![ScriptedAction::StallLi {
                at: 200 * MILLIS,
                until: 2800 * MILLIS,
                tenant: TenantId(1),
            }],
            ..ScenarioSpec::canonical(&base_config())
        }
    }

    /// The paper's Figure-1 federation: three clouds, each deciding
    /// locally with its own PDP.
    #[must_use]
    pub fn federated_pdp() -> ScenarioSpec {
        let mut config = base_config();
        config.federation = FederationSpec::symmetric(3, 2, 2);
        ScenarioSpec {
            name: "federated_pdp".to_string(),
            placement: PdpPlacement::PerCloud,
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// The whole E10 matrix, in table order.
    #[must_use]
    pub fn matrix() -> Vec<ScenarioSpec> {
        vec![
            steady_state(),
            burst_churn(),
            policy_flip(),
            degraded_li(),
            federated_pdp(),
        ]
    }

    /// Looks a scenario up by name (E10, E11 and E13 matrices).
    #[must_use]
    pub fn by_name(name: &str) -> Option<ScenarioSpec> {
        matrix()
            .into_iter()
            .chain(recovery_matrix())
            .chain(fault_matrix())
            .find(|s| s.name == name)
    }

    fn crash_scenario(name: &str, target: CrashTarget) -> ScenarioSpec {
        let mut config = base_config();
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
    pub fn recovery_matrix() -> Vec<ScenarioSpec> {
        vec![
            crash_scenario("crash_chain", CrashTarget::ChainNode),
            crash_scenario("crash_li", CrashTarget::Li(TenantId(1))),
            crash_scenario("crash_infra_li", CrashTarget::Li(TenantId::INFRASTRUCTURE)),
            crash_scenario("crash_analyser", CrashTarget::Analyser),
            crash_scenario("crash_pdp", CrashTarget::Pdp(CloudId(0))),
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
    pub fn fault_matrix() -> Vec<ScenarioSpec> {
        let config = base_config();
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

    /// The E14 overload profile: a 2000-tenant Zipf-skewed population,
    /// a diurnal trough-then-peak schedule, one ×4 flash crowd, and
    /// every bounded-state mechanism armed (PEP admission cap, LI
    /// resident cap, idempotency retention, group retirement). Shared by every E14 scenario so honest,
    /// attacked and crashed runs stress identical machinery.
    #[must_use]
    fn overload_profile() -> LoadProfile {
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
            ..LoadProfile::default()
        }
    }

    /// E14 part 1: an honest flash crowd — 250k requests, Poisson arrivals riding the diurnal schedule into a ×4
    /// spike that overruns the PEP admission cap. The acceptance bar is
    /// zero alerts, shed overflow, and every peak-state column bounded.
    #[must_use]
    pub fn flash_crowd() -> ScenarioSpec {
        let mut config = base_config();
        config.total_requests = 250_000;
        config.request_rate_per_sec = 6_000.0;
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
    pub fn overload_attack_base() -> ScenarioSpec {
        let mut config = base_config();
        config.total_requests = 50_000;
        config.request_rate_per_sec = 5_000.0;
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

    /// E14 part 3: the crash-under-overload scenario — a PDP dies in
    /// the middle of the flash crowd and must recover byte-identical to
    /// its uninterrupted twin while shedding is active.
    #[must_use]
    pub fn overload_crash() -> ScenarioSpec {
        let mut spec = overload_attack_base();
        spec.name = "overload_crash_pdp".to_string();
        spec.script = vec![ScriptedAction::CrashRestart {
            at: 4 * SECONDS, // mid-spike, with shedding active
            target: CrashTarget::Pdp(CloudId(0)),
        }];
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_entry_size_tracks_request() {
        let small = log_entry_of_size(1, 64);
        let large = log_entry_of_size(1, 8192);
        assert!(large.wire_len() > small.wire_len() + 8000);
    }

    use report::{
        commit, evaluate, get, merge, parse, render_json, repo_file_path, table, FileSpec, Gate,
        Members, Report, Rule, Section, Value, Verdict, GATES, REGISTRY,
    };

    fn spec_of(file: &str) -> &'static FileSpec {
        let spec = REGISTRY.iter().find(|spec| spec.file == file);
        spec.expect("a registered file")
    }

    /// A tracked file as committed: its bytes and what the reader makes
    /// of them. The committed files are the fixtures — they hold every
    /// section, and CI keeps them clean under every gate.
    fn committed(file: &str) -> (String, Report) {
        let text = std::fs::read_to_string(repo_file_path(file)).expect("committed at the root");
        let report = parse(&text).expect("the committed file is a report");
        (text, report)
    }

    fn report_of(sections: Vec<Section>) -> Report {
        let schema = "t".to_string();
        Report { schema, sections }
    }

    fn section_of(members: Members) -> Section {
        let key = "s".to_string();
        Section { key, members }
    }

    /// A section exactly as it appears inside any rendered file.
    fn block(section: &Section) -> String {
        let text = render_json(&report_of(vec![section.clone()]));
        let body = text.strip_prefix("{\n  \"schema\": \"t\"").expect("prefix");
        body.strip_suffix("\n}\n").expect("suffix").to_string()
    }

    fn resolves_at_repo_root(file: &str) {
        let path = repo_file_path(file);
        assert!(path.ends_with(file));
        assert!(path.parent().expect("a root").join("Cargo.toml").exists());
        assert!(path.exists(), "{file} is registered but not committed");
    }

    /// What the one reader reads, the one writer writes back byte for
    /// byte, under the schema and section keys the registry declares.
    fn round_trips(file: &str) {
        let (text, report) = committed(file);
        assert_eq!(render_json(&report), text);
        assert_eq!(report.schema, spec_of(file).schema);
        let keys: Vec<&str> = report.sections.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(keys, spec_of(file).sections, "every section is committed");
    }

    /// A run that produced none, or only one, of a file's sections
    /// leaves every other section byte-identical, and a produced section
    /// replaces the committed one.
    fn carries_forward(file: &str) {
        let spec = spec_of(file);
        let (text, report) = committed(file);
        assert_eq!(render_json(&merge(spec, &[], Some(&report))), text);
        for old in &report.sections {
            let fresh = [Section::produced(&old.key, members! { rows: vec![] })];
            let merged = merge(spec, &fresh, Some(&report));
            let merged_text = render_json(&merged);
            assert!(merged_text.contains(&block(&fresh[0])) && !merged_text.contains(&block(old)));
            for kept in report.sections.iter().filter(|s| s.key != old.key) {
                assert!(merged_text.contains(&block(kept)), "{} in {file}", kept.key);
            }
            assert_eq!(merged.sections.len(), report.sections.len());
            // A second partial run over its own output is stable.
            assert_eq!(merge(spec, &fresh, Some(&merged)), merged);
        }
    }

    /// The first row a gate's `member` selects, for breaking it.
    fn first_row_mut<'a>(section: &'a mut Section, member: &str) -> &'a mut Members {
        if member.is_empty() {
            return &mut section.members;
        }
        let rows = section.members.iter_mut().find(|(key, _)| key == member);
        match rows.expect("the member") {
            (_, Value::List(rows)) => match rows.first_mut() {
                Some(Value::Obj(row)) => row,
                _ => panic!("{member} has no rows"),
            },
            (_, Value::Obj(row)) => row,
            _ => panic!("{member} is not rows"),
        }
    }

    fn set(row: &mut Members, column: &str, value: Value) {
        let slot = row.iter_mut().find(|(key, _)| key == column);
        slot.expect("the column").1 = value;
    }

    /// One flip per gate row: breaking exactly that value in the clean
    /// committed section yields exactly that failure.
    fn gates_flip(key: &str) {
        let spec = REGISTRY.iter().find(|spec| spec.sections.contains(&key));
        let (_, report) = committed(spec.expect("a registered section").file);
        let clean = report.sections.iter().find(|s| s.key == key);
        let clean = [clean.expect("committed").clone()];
        assert_eq!(evaluate(&GATES, &clean, Some(&report)), Verdict::default());
        let gates: Vec<&Gate> = GATES.iter().filter(|g| g.section == key).collect();
        assert!(!gates.is_empty(), "{key} has no gates to flip");
        for gate in &gates {
            let mut broken = clean.clone();
            let row = first_row_mut(&mut broken[0], gate.member);
            let number = |column: &str| match get(row, column) {
                Some(Value::U64(n)) => *n as f64,
                Some(Value::F64(x)) => *x,
                other => panic!("{column} is not a number: {other:?}"),
            };
            let flipped = match gate.rule {
                Rule::Zero => Value::U64(1),
                Rule::Positive => Value::U64(0),
                Rule::True => Value::Bool(false),
                Rule::Equals(other) => Value::U64(number(other) as u64 + 1),
                Rule::AtMostCommitted(factor) => Value::F64(number(gate.column) * factor * 1.01),
                Rule::AtLeastCommitted(factor) => Value::F64(number(gate.column) * factor * 0.98),
            };
            set(row, gate.column, flipped);
            // A count that fell to zero takes along the counts that must
            // equal it: no attacks mounted means none detected either.
            for tied in gates.iter().filter(|g| g.member == gate.member) {
                if gate.rule == Rule::Positive && tied.rule == Rule::Equals(gate.column) {
                    set(row, tied.column, Value::U64(0));
                }
            }
            let failures = evaluate(&GATES, &broken, Some(&report)).failures;
            let place = format!("{}.{}[", gate.section, gate.member);
            let what = format!(": {} = ", gate.column);
            assert_eq!(failures.len(), 1, "{gate:?} flipped into {failures:?}");
            assert!(failures[0].starts_with(&place) && failures[0].contains(&what));
        }
    }

    /// One named test per (file, property) and per gated section, so a
    /// failure names both; the bodies are the four helpers above.
    macro_rules! instances {
        ($($name:ident: $property:ident($subject:literal);)*) => {$(
            #[test]
            fn $name() {
                $property($subject);
            }
        )*};
    }
    instances! {
        chain_report_round_trips: round_trips("BENCH_CHAIN.json");
        trajectory_json_is_balanced_and_complete: round_trips("BENCH_PDP.json");
        crypto_trajectory_json_is_balanced_and_complete: round_trips("BENCH_CRYPTO.json");
        e2e_trajectory_json_is_balanced_and_complete: round_trips("BENCH_E2E.json");
        store_report_round_trips: round_trips("BENCH_STORE.json");
        fuzz_report_round_trips: round_trips("BENCH_FUZZ.json");
        fault_trajectory_json_is_balanced_and_complete: round_trips("BENCH_FAULT.json");
        load_trajectory_json_is_balanced_and_parses_back: round_trips("BENCH_LOAD.json");
        net_report_round_trips: round_trips("BENCH_NET.json");
        chain_report_carries_forward: carries_forward("BENCH_CHAIN.json");
        partial_runs_carry_the_other_section_forward: carries_forward("BENCH_PDP.json");
        crypto_trajectory_carries_forward_when_not_rerun: carries_forward("BENCH_CRYPTO.json");
        e2e_trajectory_carries_forward_when_not_rerun: carries_forward("BENCH_E2E.json");
        store_trajectory_json_is_balanced_and_carries_forward: carries_forward("BENCH_STORE.json");
        fuzz_report_carries_forward: carries_forward("BENCH_FUZZ.json");
        fault_trajectory_carries_forward_when_not_rerun: carries_forward("BENCH_FAULT.json");
        load_report_carries_forward: carries_forward("BENCH_LOAD.json");
        net_report_carries_forward: carries_forward("BENCH_NET.json");
        chain_report_path_points_at_repo_root: resolves_at_repo_root("BENCH_CHAIN.json");
        trajectory_path_points_at_repo_root: resolves_at_repo_root("BENCH_PDP.json");
        crypto_trajectory_path_points_at_repo_root: resolves_at_repo_root("BENCH_CRYPTO.json");
        e2e_trajectory_path_points_at_repo_root: resolves_at_repo_root("BENCH_E2E.json");
        store_trajectory_path_points_at_repo_root: resolves_at_repo_root("BENCH_STORE.json");
        fuzz_report_path_points_at_repo_root: resolves_at_repo_root("BENCH_FUZZ.json");
        fault_trajectory_path_points_at_repo_root: resolves_at_repo_root("BENCH_FAULT.json");
        load_report_path_points_at_repo_root: resolves_at_repo_root("BENCH_LOAD.json");
        net_report_path_points_at_repo_root: resolves_at_repo_root("BENCH_NET.json");
        log_size_gate_flags_a_cost_that_does_not_grow: gates_flip("e1_log_size");
        pow_gates_flag_every_violation_kind: gates_flip("e2_pow");
        hybrid_store_gates_flag_every_violation_kind: gates_flip("e3_hybrid");
        pdp_scaling_gate_flags_a_slower_compiled_engine: gates_flip("e5_pdp_scaling");
        monitoring_overhead_gates_flag_every_violation_kind: gates_flip("e6_monitoring_overhead");
        scale_gates_flag_every_violation_kind: gates_flip("e7_scale");
        ablation_gates_flag_every_violation_kind: gates_flip("e8_ablations");
        crypto_gates_flag_every_slower_fast_path: gates_flip("e9_crypto");
        e2e_gates_flag_every_violation_kind: gates_flip("e10_scenarios");
        store_engine_gate_flags_a_lost_record: gates_flip("e11_store_engine");
        recovery_gates_flag_every_violation_kind: gates_flip("e11_recovery");
        fuzz_gates_flag_every_violation_kind: gates_flip("e12_fuzz");
        fault_summary_clean_flags_every_violation_kind: gates_flip("e13_faults");
        load_summary_clean_flags_every_violation_kind: gates_flip("e14_load");
        net_gates_flag_every_violation_kind: gates_flip("e16_net");
    }

    #[test]
    fn every_gate_names_a_registered_section() {
        // A mistyped section key would switch its gate off without a word.
        for gate in &GATES {
            let registered = REGISTRY.iter().any(|s| s.sections.contains(&gate.section));
            assert!(registered, "{gate:?}");
        }
    }

    #[test]
    fn every_registered_section_is_gated() {
        // A section without a gate can move any way without failing a run.
        for spec in &REGISTRY {
            for key in spec.sections {
                let gated = GATES.iter().any(|g| g.section == *key);
                assert!(gated, "{key} in {} has no gate", spec.file);
            }
        }
    }

    #[test]
    fn trajectory_json_omits_absent_sections() {
        for spec in &REGISTRY {
            let empty = merge(spec, &[], None);
            let expected = format!("{{\n  \"schema\": \"{}\"\n}}\n", spec.schema);
            assert_eq!(render_json(&empty), expected);
            assert_eq!(parse(&expected), Ok(empty));
        }
    }

    /// Checks one gate on column `x` of a one-row section whose row
    /// holds `fresh` (JSON members), against a committed twin if any.
    fn check(rule: Rule, fresh: &str, committed: Option<&str>) -> Verdict {
        let section = |columns: &str| {
            let row = format!("{{\"name\": \"r\", {columns}}}");
            let text = format!("{{\"schema\": \"t\", \"s\": {{\"rows\": [{row}]}}}}");
            parse(&text).expect("a fixture").sections.remove(0)
        };
        let (section_key, member, column) = ("s", "rows", "x");
        let gate = Gate {
            section: section_key,
            member,
            column,
            rule,
        };
        let committed = committed.map(|columns| report_of(vec![section(columns)]));
        evaluate(&[gate], &[section(fresh)], committed.as_ref())
    }

    #[test]
    fn comparison_gates_hold_at_the_boundary_and_skip_without_a_baseline() {
        let clean = Verdict::default();
        let (peak, speed) = (Rule::AtMostCommitted(2.0), Rule::AtLeastCommitted(0.5));
        assert_eq!(check(peak, "\"x\": 200", Some("\"x\": 100")), clean);
        assert_eq!(
            check(peak, "\"x\": 201", Some("\"x\": 100")).failures,
            ["s.rows[r]: x = 201, fails AtMostCommitted(2.0) (committed: 100)"]
        );
        assert_eq!(check(speed, "\"x\": 50.000", Some("\"x\": 100.000")), clean);
        let slow = check(speed, "\"x\": 49.000", Some("\"x\": 100.000"));
        assert_eq!(slow.failures.len(), 1, "{slow:?}");
        // Nothing to compare against: no file, no such column, a zero, a null.
        for committed in [None, Some("\"y\": 1"), Some("\"x\": 0")] {
            assert_eq!(check(peak, "\"x\": 999", committed), clean, "{committed:?}");
        }
        assert_eq!(check(speed, "\"x\": 0.100", Some("\"x\": null")), clean);
        // A gate with nothing to check fails; it is never vacuously green.
        assert_eq!(check(peak, "\"x\": \"fast\"", None).failures.len(), 1);
        assert_eq!(
            check(Rule::Zero, "\"y\": 0", None).failures,
            ["s.rows[r]: no column x"]
        );
        let (section_key, member, column, rule) = ("s", "summary", "x", Rule::Zero);
        let gate = Gate {
            section: section_key,
            member,
            column,
            rule,
        };
        let fresh = [section_of(Members::new())];
        assert_eq!(
            evaluate(&[gate], &fresh, None).failures,
            ["s.summary: no such rows"]
        );
    }

    #[test]
    fn rows_without_a_name_compare_by_position() {
        let section = |rows: &str| {
            let text = format!("{{\"schema\": \"t\", \"s\": {{\"rows\": [{rows}]}}}}");
            parse(&text).expect("a fixture").sections.remove(0)
        };
        let gate = Gate {
            section: "s",
            member: "rows",
            column: "x",
            rule: Rule::AtLeastCommitted(0.5),
        };
        let committed = report_of(vec![section(
            "{\"n\": 1, \"x\": 100}, {\"n\": 2, \"x\": 10}",
        )]);
        // Each row against its own committed twin, not the first row.
        let held = [section("{\"n\": 1, \"x\": 60}, {\"n\": 2, \"x\": 9}")];
        assert_eq!(
            evaluate(&[gate], &held, Some(&committed)),
            Verdict::default()
        );
        let slow = [section("{\"n\": 1, \"x\": 60}, {\"n\": 2, \"x\": 4}")];
        assert_eq!(
            evaluate(&[gate], &slow, Some(&committed)).failures,
            ["s.rows[]: x = 4, fails AtLeastCommitted(0.5) (committed: 10)"]
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let row = row! { us: x, nested: row! { ratio: x } };
            let section = section_of(members! { mean: x, rows: vec![row, x.into()] });
            let text = render_json(&report_of(vec![section]));
            assert_eq!(text.matches("null").count(), 4, "{text}");
            assert!(!text.contains("inf") && !text.contains("NaN"), "{text}");
            // …which the reader takes back, and the writer repeats.
            assert_eq!(render_json(&parse(&text).expect("parseable")), text);
        }
    }

    #[test]
    fn each_value_kind_renders_and_reads_back() {
        let members = members! {
            count: u64::MAX,
            size: 7usize,
            mean: 2.5,
            rounded: 0.0004,
            negative: -0.159,
            verdict: true,
            name: "steady_state",
            histogram: vec![1u64.into(), 0u64.into()],
            empty: vec![],
            nested: row! { inner: row! {} },
        };
        assert_eq!(
            Value::Obj(members.clone()).to_string(),
            "{\"count\": 18446744073709551615, \"size\": 7, \"mean\": 2.500, \"rounded\": 0.000, \
             \"negative\": -0.159, \"verdict\": true, \"name\": \"steady_state\", \
             \"histogram\": [1, 0], \"empty\": [], \"nested\": {\"inner\": {}}}"
        );
        let text = render_json(&report_of(vec![section_of(members)]));
        assert_eq!(render_json(&parse(&text).expect("parseable")), text);
    }

    #[test]
    fn quotes_backslashes_and_brackets_in_strings_survive() {
        let nasty = [
            "br]ace",
            "cur{ly",
            "qu\"ote",
            "back\\slash",
            "\\\"",
            "tab\tline\nbreak",
            "µs ✓",
        ];
        let rows: Vec<Value> = nasty
            .iter()
            .map(|s| Value::Obj(vec![(s.to_string(), (*s).into())]))
            .collect();
        let mut report = report_of(vec![section_of(members! { rows: rows })]);
        report.schema = "sch\"ema".to_string();
        report.sections[0].key = "s]".to_string();
        let text = render_json(&report);
        assert_eq!(parse(&text), Ok(report));
        assert!(text.contains(r#"{"qu\"ote": "qu\"ote"}"#), "{text}");
        assert!(text.contains(r#""tab\u0009line\u000abreak""#), "{text}");
    }

    #[test]
    fn malformed_reports_are_typed_errors() {
        let deep = format!("{{\"schema\": {}1{}}}", "[".repeat(8), "]".repeat(8));
        let end = "parse error: input ends inside a value";
        #[rustfmt::skip]
        let cases = [
            ("", end),
            ("  \n", end),
            (r#"{"schema": "s", "a": {"ok": tr"#, end),
            (r#"{"schema": "s", "a": {"matched": true"#, end),
            (r#"{"schema": "s","#, end),
            (r#"{"schema": "s"#, end),
            (r#"{"schema": "s\"#, end),
            (r#"{"schema": "s\u00"#, end),
            (r#"{"schema": "s"} x"#, "parse error at byte 16: characters after the report"),
            (r#"{"schema": "s"}{}"#, "parse error at byte 15: characters after the report"),
            ("{\"schema\": \"s\nt\"}", "parse error at byte 14: control character in a string"),
            (r#"{"schema": @}"#, "parse error at byte 11: unexpected character"),
            (r#"{"schema" "s"}"#, "parse error at byte 10: unexpected character"),
            (r#"{"schema": [1 2]}"#, "parse error at byte 14: unexpected character"),
            (r#"{"schema": [1,]}"#, "parse error at byte 14: unexpected character"),
            (r#"{schema: 1}"#, "parse error at byte 1: unexpected character"),
            (r#"{"schema": 1e5}"#, "parse error at byte 12: unexpected character"),
            (r#"{"schema": "s", "a": {"ok": true, "x": 1, "x": 2}}"#, "parse error at byte 45: duplicate key"),
            (deep.as_str(), "parse error at byte 18: nested too deep"),
            (r#"{"schema": 01}"#, "parse error at byte 11: malformed number"),
            (r#"{"schema": 1.}"#, "parse error at byte 11: malformed number"),
            (r#"{"schema": -1}"#, "parse error at byte 11: malformed number"),
            (r#"{"schema": 18446744073709551616}"#, "parse error at byte 11: malformed number"),
            (r#"{"schema": "a\nb"}"#, "parse error at byte 15: unknown escape"),
            (r#"{"schema": "a\u12"}""#, "parse error at byte 15: unknown escape"),
            (r#"{"schema": "a\ud800"}"#, "parse error at byte 15: unknown escape"),
            ("[]", "not a report: the top level is not an object"),
            ("{}", "not a report: the first member is not a schema string"),
            (r#"{"ok": true}"#, "not a report: the first member is not a schema string"),
            (r#"{"schema": 7}"#, "not a report: the first member is not a schema string"),
            (r#"{"schema": "s", "a": 1}"#, "not a report: a section is not an object"),
        ];
        for (text, message) in cases {
            let error = parse(text).expect_err(text);
            assert_eq!(error.to_string(), message, "{text:?}");
        }
        // Every prefix of a real file is refused, and none panics.
        let (text, _) = committed("BENCH_E2E.json");
        let whole = text.trim_end();
        for end in (0..whole.len()).filter(|&end| whole.is_char_boundary(end)) {
            assert!(parse(&whole[..end]).is_err(), "prefix of {end} bytes");
        }
    }

    fn scratch_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("drams-bench-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn a_corrupt_committed_file_fails_the_run_and_is_not_carried_forward() {
        let spec = spec_of("BENCH_STORE.json");
        let (text, report) = committed(spec.file);
        let path = scratch_file("corrupt");
        let cut = text.find("\"matched\": true").expect("a verdict") + "\"matched\": tr".len();
        std::fs::write(&path, &text[..cut]).expect("temp dir");
        let fresh = [report.sections[0].clone()];
        let verdict = commit(&path, spec, &fresh);
        assert_eq!(
            verdict.failures,
            ["BENCH_STORE.json: parse error: input ends inside a value"]
        );
        // Written all the same — with only what this run measured.
        let written = std::fs::read_to_string(&path).expect("written");
        assert_eq!(parse(&written).expect("a report").sections, fresh);
        // Over a readable file the same run carries the sibling forward…
        std::fs::write(&path, &text).expect("temp dir");
        assert_eq!(commit(&path, spec, &fresh), Verdict::default());
        assert_eq!(std::fs::read_to_string(&path).expect("written"), text);
        // …and over no file at all it just writes.
        std::fs::remove_file(&path).expect("temp file");
        assert_eq!(commit(&path, spec, &fresh), Verdict::default());
        std::fs::remove_file(&path).expect("temp file");
    }

    #[test]
    fn produced_sections_are_stamped_and_carried_ones_keep_what_they_had() {
        let fresh = Section::produced("e5_pdp_scaling", members! { x: 1u64 });
        let Some((stamp, Value::Obj(host))) = fresh.members.first() else {
            panic!("no stamp on {fresh:?}");
        };
        assert_eq!(stamp, "host");
        assert!(matches!(get(host, "cores"), Some(Value::U64(n)) if *n >= 1));
        assert!(matches!(get(host, "rustc"), Some(Value::Str(v)) if v.starts_with("rustc ")));
        // A run of E5 alone must not put this host's name on the
        // committed E6 numbers.
        let (_, report) = committed("BENCH_PDP.json");
        let merged = merge(
            spec_of("BENCH_PDP.json"),
            std::slice::from_ref(&fresh),
            Some(&report),
        );
        assert_eq!(merged.sections, [fresh, report.sections[1].clone()]);
    }

    #[test]
    fn table_aligns_cells_under_their_column_names() {
        let rows = [
            row! { scenario: "steady", alerts: 0u64, p95_ms: 1.5 },
            row! { scenario: "lossy_links", alerts: 24u64, p95_ms: f64::NAN },
        ];
        let expected = "scenario     alerts  p95_ms\n\
                        steady            0   1.500\n\
                        lossy_links      24       -\n";
        assert_eq!(table(&rows), expected);
        assert_eq!(table(&[]), "");
    }

    #[test]
    fn recovery_matrix_covers_all_three_services() {
        use drams_core::scenario::{CrashTarget, ScriptedAction};
        let matrix = scenarios::recovery_matrix();
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
        assert!(scenarios::by_name("crash_chain").is_some());
        assert!(scenarios::by_name("crash_pdp").is_some());
    }

    #[test]
    fn fault_matrix_covers_the_taxonomy() {
        use drams_core::scenario::ScriptedAction;
        let matrix = scenarios::fault_matrix();
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
        assert!(scenarios::by_name("lossy_links").is_some());
        assert!(!scenarios::lossy_plan().is_empty());
    }

    #[test]
    fn scenario_matrix_names_are_unique_and_lookup_works() {
        let matrix = scenarios::matrix();
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
        assert!(scenarios::by_name("degraded_li").is_some());
        assert!(scenarios::by_name("nope").is_none());
    }

    #[test]
    fn load_matrix_specs_arm_every_bounded_state_mechanism() {
        use drams_core::scenario::ScriptedAction;
        let honest = scenarios::flash_crowd();
        assert!(honest.config.total_requests >= 100_000, "E14 floor");
        assert!(!honest.load.is_empty());
        assert!(honest.load.population > 0);
        assert!(honest.load.pep_inflight_cap > 0);
        assert!(honest.load.idempotency_retention > 0);
        assert!(honest.load.analyser_retire_lag > 0);
        assert!(!honest.load.diurnal.is_empty());
        assert!(!honest.load.spikes.is_empty());
        // The clamp is the identity on the committed specs: what E14
        // declares is what runs.
        assert_eq!(honest.load.clamped(), honest.load);
        let crash = scenarios::overload_crash();
        assert!(crash
            .script
            .iter()
            .any(|a| matches!(a, ScriptedAction::CrashRestart { .. })));
        assert_eq!(crash.load.clamped(), crash.load);
    }
}
