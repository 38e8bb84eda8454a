//! The event-driven scenario runtime, cross-crate: the canonical
//! scenario must reproduce the classic `run_monitor` results
//! byte-for-byte, and the E10 named scenarios must behave as their
//! specs claim.

use drams::attack::{score, FaultWindow, ScriptedAdversary, ThreatKind, WindowedAdversary};
use drams::core::adversary::NoAdversary;
use drams::core::alert::AlertKind;
use drams::core::monitor::{first_divergence, run_monitor, MonitorConfig};
use drams::core::scenario::{run_scenario, ScenarioSpec};
use drams_bench::scenarios;
use drams_faas::des::{MILLIS, SECONDS};

fn base() -> MonitorConfig {
    MonitorConfig {
        total_requests: 60,
        request_rate_per_sec: 120.0,
        ..MonitorConfig::default()
    }
}

/// The refactor's regression bar, part 1: `run_monitor` (the
/// compatibility wrapper) and the default `ScenarioSpec` produce
/// byte-identical alerts, identical ground truth and identical
/// entry/group counts — honest and under attack. (Exact RNG draws
/// deliberately differ from the pre-refactor monolithic loop: the
/// per-component stream split changed every latency sample by design.
/// Equivalence with the *pre-refactor* run is therefore pinned at the
/// invariant level — `golden_default_seed_counts` below plus the
/// unchanged `end_to_end.rs`/`attack_matrix.rs` expectations — while
/// wrapper ≡ canonical spec is pinned byte-for-byte here.)
#[test]
fn golden_canonical_scenario_equals_run_monitor_byte_for_byte() {
    // Honest run.
    let config = base();
    let (wrapper, wrapper_truth) = run_monitor(&config, &mut NoAdversary);
    let (scenario, scenario_truth) =
        run_scenario(&ScenarioSpec::canonical(&config), &mut NoAdversary);
    assert_eq!(
        first_divergence(&wrapper, &wrapper_truth, &scenario, &scenario_truth),
        None
    );
    assert_eq!(wrapper.requests_issued, scenario.requests_issued);
    assert_eq!(wrapper.blocks_mined, scenario.blocks_mined);

    // Attacked run: two identically seeded adversaries.
    for threat in [
        ThreatKind::TamperRequest,
        ThreatKind::DropLog,
        ThreatKind::SwapPolicy,
    ] {
        let mut a = ScriptedAdversary::new(threat, 0.2, 99);
        let mut b = ScriptedAdversary::new(threat, 0.2, 99);
        let (wr, wt) = run_monitor(&config, &mut a);
        let (sr, st) = run_scenario(&ScenarioSpec::canonical(&config), &mut b);
        assert_eq!(first_divergence(&wr, &wt, &sr, &st), None, "{threat}");
    }
}

/// The refactor's regression bar, part 2 — the pre-refactor pins for
/// the default seed: the canonical scenario keeps reproducing the
/// classic run's invariant counts (these values are the ones the
/// pre-refactor loop produced and its test suite asserted).
#[test]
fn golden_default_seed_counts() {
    let (report, truth) = run_monitor(&base(), &mut NoAdversary);
    assert_eq!(report.requests_issued, 60);
    assert_eq!(report.requests_completed, 60);
    assert_eq!(report.entries_logged, 240);
    assert_eq!(report.groups_completed, 60);
    assert_eq!(report.requests_dropped, 0);
    assert_eq!(report.policy_activations, 1);
    assert!(report.alerts.is_empty());
    assert_eq!(truth.total_attacks(), 0);
}

#[test]
fn e10_matrix_shapes_hold() {
    for spec in scenarios::matrix(true) {
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        assert_eq!(
            truth.total_attacks(),
            0,
            "{}: faults are not attacks",
            spec.name
        );
        assert_eq!(
            report.requests_issued, spec.config.total_requests,
            "{}",
            spec.name
        );
        match spec.name.as_str() {
            "degraded_li" => {
                // The stalled LI must surface as missing observations…
                assert!(
                    report
                        .alerts
                        .iter()
                        .any(|a| matches!(a.kind, AlertKind::MissingLog { .. })),
                    "degraded_li raised no MissingLog: {:?}",
                    report.alerts
                );
                assert!(report.groups_completed < report.requests_completed);
            }
            _ => {
                // …and every other scenario runs clean end to end.
                assert!(
                    report.alerts.is_empty(),
                    "{}: unexpected alerts {:?}",
                    spec.name,
                    report.alerts
                );
                assert_eq!(
                    report.groups_completed, report.requests_completed,
                    "{}",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn policy_flip_scenario_has_real_churn() {
    let spec = scenarios::by_name("policy_flip", true).expect("named scenario");
    let (report, _) = run_scenario(&spec, &mut NoAdversary);
    assert_eq!(
        report.policy_activations, 3,
        "initial + publish + rollback must all activate"
    );
    assert!(report.alerts.is_empty(), "churn is legitimate");
}

#[test]
fn federated_pdp_scenario_beats_central_on_decision_latency() {
    let federated = scenarios::by_name("federated_pdp", true).expect("named scenario");
    let mut central = federated.clone();
    central.placement = drams::core::scenario::PdpPlacement::Central;
    let (f, _) = run_scenario(&federated, &mut NoAdversary);
    let (c, _) = run_scenario(&central, &mut NoAdversary);
    assert!(
        f.e2e_latency.mean() * 2.0 < c.e2e_latency.mean(),
        "per-cloud PDPs must cut e2e latency: local {} vs central {}",
        f.e2e_latency.mean(),
        c.e2e_latency.mean()
    );
}

/// A scheduled attack campaign inside a burst scenario: the windowed
/// adversary only fires inside its window and is still fully detected.
#[test]
fn windowed_adversary_inside_scenario_is_detected() {
    let mut spec = scenarios::by_name("steady_state", true).expect("named scenario");
    spec.config.group_timeout = 2 * SECONDS;
    let inner = ScriptedAdversary::new(ThreatKind::CorruptDecision, 0.5, 5);
    let mut adversary =
        WindowedAdversary::new(inner, vec![FaultWindow::new(100 * MILLIS, 400 * MILLIS)]);
    let (report, truth) = run_scenario(&spec, &mut adversary);
    let s = score(ThreatKind::CorruptDecision, &report, &truth);
    assert!(s.attacks > 0);
    assert!((s.attacks as u64) < spec.config.total_requests / 2);
    assert_eq!(s.detected, s.attacks);
    assert_eq!(s.false_positives, 0);
}
