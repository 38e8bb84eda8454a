//! The full threat-model matrix (paper §I), run as an integration test:
//! every threat must be detected with zero false positives.
//!
//! Assertions are made on **alert multisets derived from the ground
//! truth** — the set of correlations carrying a matching alert must
//! equal the set of attacked correlations — never on the order alerts
//! happen to be appended in, so detector scheduling changes cannot make
//! these tests flap.

use drams::attack::{expected_alert_kinds, score, DetectionScore, ScriptedAdversary, ThreatKind};
use drams::core::monitor::{run_monitor, GroundTruth, MonitorConfig, MonitorReport};
use drams_faas::des::SECONDS;
use drams_faas::msg::CorrelationId;
use std::collections::BTreeSet;

fn config(seed: u64) -> MonitorConfig {
    MonitorConfig {
        total_requests: 80,
        request_rate_per_sec: 100.0,
        group_timeout: 2 * SECONDS,
        seed,
        ..MonitorConfig::default()
    }
}

/// The correlations the ground truth says `threat` attacked — the same
/// join the scorer performs, restated here so the test checks the
/// contract rather than trusting the scorer's own bookkeeping.
fn attacked(threat: ThreatKind, truth: &GroundTruth) -> BTreeSet<CorrelationId> {
    match threat {
        ThreatKind::TamperRequest => truth.tampered_requests.iter().copied().collect(),
        ThreatKind::TamperResponse => truth.tampered_responses.iter().copied().collect(),
        ThreatKind::CorruptDecision | ThreatKind::ColludePdpLi => {
            truth.corrupted_decisions.iter().copied().collect()
        }
        ThreatKind::FlipEnforcement => truth.flipped_enforcements.iter().copied().collect(),
        ThreatKind::DropLog => truth.dropped_logs.iter().map(|(c, _)| *c).collect(),
        ThreatKind::TamperLog => truth.tampered_logs.iter().map(|(c, _)| *c).collect(),
        ThreatKind::ReplayLog => truth.replayed_logs.iter().map(|(c, _)| *c).collect(),
        ThreatKind::SwapPolicy => BTreeSet::new(),
    }
}

/// The multiset law every per-transaction threat must satisfy: the set
/// of correlations carrying an alert of the threat's expected kinds is
/// exactly the set of attacked correlations. Order-free, duplicate-free
/// — immune to alert scheduling and batching changes.
fn assert_alert_multiset_matches_truth(
    threat: ThreatKind,
    report: &MonitorReport,
    truth: &GroundTruth,
) {
    if threat == ThreatKind::SwapPolicy && truth.policy_swapped {
        // Policy swap is one global attack, not a per-transaction one:
        // alerts land on whichever requests the wrong policy version
        // served, which the ground truth does not enumerate.
        return;
    }
    let matchers = expected_alert_kinds(threat);
    let alerted: BTreeSet<CorrelationId> = report
        .alerts
        .iter()
        .filter(|a| matchers.iter().any(|m| m(&a.kind)))
        .map(|a| a.correlation)
        .collect();
    let expected = attacked(threat, truth);
    assert_eq!(
        alerted, expected,
        "{threat}: matching-alert correlations must equal attacked correlations"
    );
}

/// Runs one threat campaign, checks the multiset law and returns the
/// aggregate score beside the run's report.
fn run_campaign(
    threat: ThreatKind,
    probability: f64,
    seed: u64,
) -> (DetectionScore, MonitorReport) {
    let mut adversary = ScriptedAdversary::new(threat, probability, seed ^ 0xabcd);
    let (report, truth) = run_monitor(&config(seed), &mut adversary);
    assert_alert_multiset_matches_truth(threat, &report, &truth);
    (score(threat, &report, &truth), report)
}

fn run_threat(threat: ThreatKind, probability: f64, seed: u64) -> DetectionScore {
    run_campaign(threat, probability, seed).0
}

fn assert_clean_sweep(s: &DetectionScore) {
    assert!(s.attacks > 0, "{}: campaign injected nothing", s.threat);
    assert_eq!(s.detected, s.attacks, "{}", s.threat);
    assert_eq!(s.false_positives, 0, "{}", s.threat);
}

#[test]
fn tampered_requests_are_always_detected() {
    assert_clean_sweep(&run_threat(ThreatKind::TamperRequest, 0.2, 1));
}

#[test]
fn tampered_responses_are_always_detected() {
    assert_clean_sweep(&run_threat(ThreatKind::TamperResponse, 0.2, 2));
}

#[test]
fn lying_pdp_is_always_detected() {
    assert_clean_sweep(&run_threat(ThreatKind::CorruptDecision, 0.2, 3));
}

#[test]
fn rogue_pep_enforcement_is_always_detected() {
    assert_clean_sweep(&run_threat(ThreatKind::FlipEnforcement, 0.2, 4));
}

#[test]
fn dropped_logs_are_detected_via_epoch_timeout() {
    let (s, report) = run_campaign(ThreatKind::DropLog, 0.1, 5);
    assert_clean_sweep(&s);
    // Timeout-based detection is necessarily slower than digest
    // matching: request issue → alert on chain spans the group timeout.
    assert!(report.detection_latency.mean() >= 1_000_000.0);
}

#[test]
fn compromised_li_is_detected() {
    assert_clean_sweep(&run_threat(ThreatKind::TamperLog, 0.1, 6));
}

#[test]
fn policy_swap_is_detected() {
    let s = run_threat(ThreatKind::SwapPolicy, 1.0, 7);
    assert_eq!(s.attacks, 1);
    assert_eq!(s.detected, 1);
}

/// Colluding PDP + LI: the PDP corrupts a decision and the member-cloud
/// LI suppresses the evidence that would expose it. The suppressed
/// observation keeps the group from completing, so detection falls
/// through to the epoch timeout (or a late `PolicyViolation` when the
/// group did complete) — either way every colluded transaction alerts.
#[test]
fn colluding_pdp_and_li_is_detected() {
    let s = run_threat(ThreatKind::ColludePdpLi, 0.15, 10);
    assert_clean_sweep(&s);
}

#[test]
fn colluding_pdp_and_li_survives_higher_collusion_rates() {
    for p in [0.05, 0.3] {
        let s = run_threat(ThreatKind::ColludePdpLi, p, 11);
        assert_eq!(
            s.detected, s.attacks,
            "rate {p}: {} of {} detected",
            s.detected, s.attacks
        );
        assert_eq!(s.false_positives, 0, "rate {p}");
    }
}

/// Cross-tenant log replay: a compromised LI re-submits another
/// transaction's stale evidence under a fresh correlation. The spliced
/// entry carries the wrong probe MAC and mismatching pairwise digests,
/// so every replayed transaction raises a monitoring-plane alert.
#[test]
fn cross_tenant_log_replay_is_detected() {
    let s = run_threat(ThreatKind::ReplayLog, 0.15, 12);
    assert_clean_sweep(&s);
}

#[test]
fn cross_tenant_log_replay_survives_higher_replay_rates() {
    for p in [0.05, 0.3] {
        let s = run_threat(ThreatKind::ReplayLog, p, 13);
        assert_eq!(
            s.detected, s.attacks,
            "rate {p}: {} of {} detected",
            s.detected, s.attacks
        );
        assert_eq!(s.false_positives, 0, "rate {p}");
    }
}

#[test]
fn detection_survives_higher_attack_rates() {
    for p in [0.05, 0.3, 0.6] {
        let s = run_threat(ThreatKind::TamperResponse, p, 8);
        assert_eq!(
            s.detected, s.attacks,
            "rate {p}: {} of {} detected",
            s.detected, s.attacks
        );
    }
}

/// An honest run must score clean against **all nine** threat kinds,
/// and the multiset law must hold vacuously (no matching alerts at
/// all) for each of them.
#[test]
fn honest_runs_have_no_false_positives_across_threat_scoring() {
    let (report, truth) = run_monitor(&config(9), &mut drams::core::adversary::NoAdversary);
    assert_eq!(ThreatKind::ALL.len(), 9);
    for threat in ThreatKind::ALL {
        let s = score(threat, &report, &truth);
        assert_eq!(s.attacks, 0, "{threat}");
        assert_eq!(s.false_positives, 0, "{threat}");
        assert_alert_multiset_matches_truth(threat, &report, &truth);
    }
}
