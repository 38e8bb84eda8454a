//! E11 crash-recovery, cross-crate: every monitoring-plane service can
//! die mid-run and restart from its durable store with **byte-identical**
//! results — honest and under attack. This is the acceptance bar of the
//! durable storage engine: recovery loses nothing (no missing groups,
//! no dropped alerts) and repeats nothing (no re-raised alerts).

use drams::attack::{ScriptedAdversary, ThreatKind};
use drams::core::adversary::NoAdversary;
use drams::core::monitor::{first_divergence, MonitorConfig};
use drams::core::scenario::{run_scenario, CrashTarget, ScenarioSpec, ScriptedAction};
use drams_bench::scenarios;
use drams_faas::des::MILLIS;
use drams_faas::model::CloudId;

/// The committed recovery matrix: each crashed run must be
/// byte-identical to its uninterrupted twin.
#[test]
fn recovery_matrix_is_byte_identical_to_uninterrupted_runs() {
    for spec in scenarios::recovery_matrix() {
        let twin = scenarios::strip_crashes(&spec);
        let (clean, clean_truth) = run_scenario(&twin, &mut NoAdversary);
        let (crashed, crashed_truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(crashed.crash_restarts, 1, "{}", spec.name);
        assert_eq!(clean.crash_restarts, 0, "{}", twin.name);
        assert_eq!(
            first_divergence(&clean, &clean_truth, &crashed, &crashed_truth),
            None,
            "{}",
            spec.name
        );
        assert_eq!(
            clean.e2e_latency.mean(),
            crashed.e2e_latency.mean(),
            "{}",
            spec.name
        );
    }
}

/// A probe seals each observation under the federation key with the
/// nonce (probe id, observation count), and a restarted PDP resumes its
/// probe's count from the slot's journal. Every entry's nonce and
/// ciphertext is inside the chain tip hash that `first_divergence`
/// compares as `ledger`: a restart that rewound the count would seal
/// the observations after it under other nonces than the twin does, and
/// the tips would differ. The recovery matrix above already holds a PDP
/// crash to its twin; this is the one case it does not cover, a PDP
/// crash under tenant churn.
#[test]
fn crash_restarts_never_reuse_a_probe_nonce() {
    let mut spec = scenarios::burst_churn();
    spec.name = "churn_crash_pdp".to_string();
    spec.script.push(ScriptedAction::CrashRestart {
        at: 1_500 * MILLIS, // after the join, in the burst, before the leave
        target: CrashTarget::Pdp(CloudId(0)),
    });
    let (clean, clean_truth) = run_scenario(&scenarios::strip_crashes(&spec), &mut NoAdversary);
    let (crashed, crashed_truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(crashed.crash_restarts, 1, "{}", spec.name);
    assert_eq!(
        first_divergence(&clean, &clean_truth, &crashed, &crashed_truth),
        None,
        "{}",
        spec.name
    );
}

/// The sharper half of the bar: crash the Analyser *while an attack is
/// raising alerts*. A recovered Analyser that lost its checkpoint would
/// re-scan the chain and re-raise alerts for groups it already checked;
/// one that lost its authorised-policy history would false-alert. Both
/// would break byte-identity.
#[test]
fn analyser_crash_under_attack_neither_loses_nor_repeats_alerts() {
    let config = MonitorConfig {
        total_requests: 80,
        request_rate_per_sec: 200.0,
        ..MonitorConfig::default()
    };
    let crash = ScenarioSpec {
        name: "attacked_crash_analyser".to_string(),
        script: vec![ScriptedAction::CrashRestart {
            at: 400 * MILLIS,
            target: CrashTarget::Analyser,
        }],
        ..ScenarioSpec::canonical(&config)
    };
    let twin = scenarios::strip_crashes(&crash);
    for threat in [
        ThreatKind::CorruptDecision,
        ThreatKind::TamperResponse,
        ThreatKind::FlipEnforcement,
    ] {
        let mut a = ScriptedAdversary::new(threat, 0.2, 41);
        let mut b = ScriptedAdversary::new(threat, 0.2, 41);
        let (clean, clean_truth) = run_scenario(&twin, &mut a);
        let (crashed, crashed_truth) = run_scenario(&crash, &mut b);
        assert!(
            !clean.alerts.is_empty(),
            "{threat}: the attacked twin must alert for this test to bite"
        );
        assert_eq!(
            first_divergence(&clean, &clean_truth, &crashed, &crashed_truth),
            None,
            "{threat}: a recovered analyser must neither drop nor repeat alerts"
        );
    }
}

/// Crash the chain node while a drop-log adversary is active: the
/// timeout-based detections depend on epoch bookkeeping inside contract
/// storage, which must survive the restart via journal replay.
#[test]
fn chain_crash_under_attack_preserves_timeout_detections() {
    let config = MonitorConfig {
        total_requests: 80,
        request_rate_per_sec: 200.0,
        ..MonitorConfig::default()
    };
    let crash = ScenarioSpec {
        name: "attacked_crash_chain".to_string(),
        script: vec![ScriptedAction::CrashRestart {
            at: 600 * MILLIS,
            target: CrashTarget::ChainNode,
        }],
        ..ScenarioSpec::canonical(&config)
    };
    let twin = scenarios::strip_crashes(&crash);
    let mut a = ScriptedAdversary::new(ThreatKind::DropLog, 0.15, 23);
    let mut b = ScriptedAdversary::new(ThreatKind::DropLog, 0.15, 23);
    let (clean, clean_truth) = run_scenario(&twin, &mut a);
    let (crashed, crashed_truth) = run_scenario(&crash, &mut b);
    assert!(!clean.alerts.is_empty(), "drop-log must alert");
    assert_eq!(
        first_divergence(&clean, &clean_truth, &crashed, &crashed_truth),
        None
    );
}

/// Two crashes of different services in one run still recover cleanly.
#[test]
fn double_crash_in_one_run_recovers() {
    let config = MonitorConfig {
        total_requests: 60,
        request_rate_per_sec: 150.0,
        ..MonitorConfig::default()
    };
    let spec = ScenarioSpec {
        name: "double_crash".to_string(),
        script: vec![
            ScriptedAction::CrashRestart {
                at: 200 * MILLIS,
                target: CrashTarget::ChainNode,
            },
            ScriptedAction::CrashRestart {
                at: 350 * MILLIS,
                target: CrashTarget::Analyser,
            },
        ],
        ..ScenarioSpec::canonical(&config)
    };
    let twin = scenarios::strip_crashes(&spec);
    let (clean, clean_truth) = run_scenario(&twin, &mut NoAdversary);
    let (crashed, crashed_truth) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(crashed.crash_restarts, 2);
    assert_eq!(
        first_divergence(&clean, &clean_truth, &crashed, &crashed_truth),
        None
    );
}
