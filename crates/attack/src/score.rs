//! Detection scoring: joins a run's alerts with the adversary's ground
//! truth into detection and false-positive counts. Detection latency is
//! not a score: a run measures it as
//! [`MonitorReport::detection_latency`] (request issue → alert on chain).

use crate::threat::ThreatKind;
use drams_core::alert::{Alert, AlertKind};
use drams_core::monitor::{GroundTruth, MonitorReport};
use drams_faas::msg::CorrelationId;
use std::collections::HashSet;
use std::fmt;

/// Which alert kinds count as detecting a given threat.
#[must_use]
pub fn expected_alert_kinds(threat: ThreatKind) -> &'static [fn(&AlertKind) -> bool] {
    fn is_request_tampering(k: &AlertKind) -> bool {
        matches!(k, AlertKind::RequestTampering)
    }
    fn is_response_tampering(k: &AlertKind) -> bool {
        matches!(k, AlertKind::ResponseTampering)
    }
    fn is_policy_violation(k: &AlertKind) -> bool {
        matches!(k, AlertKind::PolicyViolation)
    }
    fn is_enforcement(k: &AlertKind) -> bool {
        matches!(k, AlertKind::EnforcementMismatch)
    }
    fn is_missing(k: &AlertKind) -> bool {
        matches!(k, AlertKind::MissingLog { .. })
    }
    fn is_monitor_compromise(k: &AlertKind) -> bool {
        matches!(
            k,
            AlertKind::MonitorCompromise
                | AlertKind::ConflictingObservation { .. }
                | AlertKind::RequestTampering
                | AlertKind::ResponseTampering
        )
    }
    fn is_policy_swap(k: &AlertKind) -> bool {
        matches!(
            k,
            AlertKind::WrongPolicyVersion | AlertKind::PolicyViolation
        )
    }
    match threat {
        ThreatKind::TamperRequest => &[is_request_tampering],
        ThreatKind::TamperResponse => &[is_response_tampering],
        ThreatKind::CorruptDecision => &[is_policy_violation],
        ThreatKind::FlipEnforcement => &[is_enforcement],
        ThreatKind::DropLog => &[is_missing],
        // A compromised LI surfaces either as a broken probe MAC or as the
        // digest-mismatch it caused; both mean "monitoring plane attacked".
        ThreatKind::TamperLog => &[is_monitor_compromise],
        ThreatKind::SwapPolicy => &[is_policy_swap],
        // The suppressed PDP-side evidence keeps the group from
        // completing, so the only remaining signature is the timeout; a
        // late-arriving PolicyViolation (if the group did complete) also
        // counts.
        ThreatKind::ColludePdpLi => &[is_missing, is_policy_violation],
        // Spliced stale evidence breaks the probe MAC and mismatches the
        // pairwise digests.
        ThreatKind::ReplayLog => &[is_monitor_compromise],
    }
}

/// Counts how many of `correlations` have **any** alert at all.
///
/// Under composite attacks, threats can mask each other's *signatures*
/// (e.g. dropping the logs of a corrupted decision turns the
/// `PolicyViolation` into a `MissingLog`) while the transaction is still
/// flagged — this is the right detection notion for multi-threat runs.
#[must_use]
pub fn detected_by_any_alert(report: &MonitorReport, correlations: &[CorrelationId]) -> usize {
    let alerted: HashSet<CorrelationId> = report.alerts.iter().map(|a| a.correlation).collect();
    correlations
        .iter()
        .collect::<HashSet<_>>()
        .iter()
        .filter(|c| alerted.contains(c))
        .count()
}

/// Detection score for one threat in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionScore {
    /// The scored threat.
    pub threat: ThreatKind,
    /// Attack actions the adversary actually performed.
    pub attacks: usize,
    /// Attacked transactions for which a matching alert was raised.
    pub detected: usize,
    /// Alerts of the matching kinds on *non-attacked* transactions.
    pub false_positives: usize,
}

impl DetectionScore {
    /// Detection rate in `[0, 1]`; 1.0 when there were no attacks.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.attacks == 0 {
            1.0
        } else {
            self.detected as f64 / self.attacks as f64
        }
    }
}

impl fmt::Display for DetectionScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<18} attacks {:>5}  detected {:>5}  rate {:>6.1}%  fp {:>3}",
            self.threat.to_string(),
            self.attacks,
            self.detected,
            self.rate() * 100.0,
            self.false_positives,
        )
    }
}

fn attacked_correlations(threat: ThreatKind, truth: &GroundTruth) -> Vec<CorrelationId> {
    match threat {
        ThreatKind::TamperRequest => truth.tampered_requests.clone(),
        ThreatKind::TamperResponse => truth.tampered_responses.clone(),
        ThreatKind::CorruptDecision => truth.corrupted_decisions.clone(),
        ThreatKind::FlipEnforcement => truth.flipped_enforcements.clone(),
        ThreatKind::DropLog => truth.dropped_logs.iter().map(|(c, _)| *c).collect(),
        ThreatKind::TamperLog => truth.tampered_logs.iter().map(|(c, _)| *c).collect(),
        ThreatKind::SwapPolicy => Vec::new(), // policy-level, scored globally
        // The collusion is one attack per corrupted decision; the
        // coordinated log suppression is part of the same action.
        ThreatKind::ColludePdpLi => truth.corrupted_decisions.clone(),
        ThreatKind::ReplayLog => truth.replayed_logs.iter().map(|(c, _)| *c).collect(),
    }
}

/// Scores one run for one threat.
#[must_use]
pub fn score(threat: ThreatKind, report: &MonitorReport, truth: &GroundTruth) -> DetectionScore {
    let matchers = expected_alert_kinds(threat);
    let matches = |k: &AlertKind| matchers.iter().any(|m| m(k));

    if threat == ThreatKind::SwapPolicy {
        // Policy swap is a single global attack; detection = any matching
        // alert at all.
        let alerted = report.alerts.iter().any(|a| matches(&a.kind));
        return DetectionScore {
            threat,
            attacks: usize::from(truth.policy_swapped),
            detected: usize::from(truth.policy_swapped && alerted),
            false_positives: usize::from(!truth.policy_swapped && alerted),
        };
    }

    let attacked: HashSet<CorrelationId> =
        attacked_correlations(threat, truth).into_iter().collect();
    let mut detected_set: HashSet<CorrelationId> = HashSet::new();
    let mut false_positives = 0usize;
    for alert in &report.alerts {
        if !matches(&alert.kind) {
            continue;
        }
        if attacked.contains(&alert.correlation) {
            detected_set.insert(alert.correlation);
        } else {
            false_positives += 1;
        }
    }
    DetectionScore {
        threat,
        attacks: attacked.len(),
        detected: detected_set.len(),
        false_positives,
    }
}

/// Per-family outcome of the chain-level attack oracle: the Byzantine
/// behaviours that are injected by scenario script rather than by an
/// [`Adversary`](drams_core::adversary::Adversary) hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainAttackScore {
    /// Fork and equivocation imports the ground truth records.
    pub forks_injected: u64,
    /// `MonitorCompromise` alerts carrying a "chain fork" detail.
    pub forks_alerted: u64,
    /// Invalid-signature blocks imported.
    pub invalid_sig_injected: u64,
    /// `MonitorCompromise` alerts naming an invalid transaction signature.
    pub invalid_sig_alerted: u64,
    /// Withheld log entries ((correlation, point) pairs).
    pub withheld_injected: usize,
    /// Withheld entries covered by a matching `MissingLog` alert.
    pub withheld_alerted: usize,
}

impl ChainAttackScore {
    /// True when every injected chain-level attack produced its expected
    /// alert: at least one fork alert per run with fork activity, at
    /// least one invalid-signature audit alert per bad block, and a
    /// `MissingLog` for **each** withheld entry.
    #[must_use]
    pub fn all_detected(&self) -> bool {
        (self.forks_injected == 0 || self.forks_alerted >= 1)
            && self.invalid_sig_alerted >= self.invalid_sig_injected
            && self.withheld_alerted == self.withheld_injected
    }
}

/// Joins a scenario run's alerts with the chain-level ground truth.
#[must_use]
pub fn chain_attack_score(alerts: &[Alert], truth: &GroundTruth) -> ChainAttackScore {
    let forks_alerted = alerts
        .iter()
        .filter(|a| {
            matches!(a.kind, AlertKind::MonitorCompromise) && a.detail.starts_with("chain fork")
        })
        .count() as u64;
    let invalid_sig_alerted = alerts
        .iter()
        .filter(|a| {
            matches!(a.kind, AlertKind::MonitorCompromise)
                && a.detail.contains("invalid transaction signature")
        })
        .count() as u64;
    let withheld_alerted = truth
        .withheld_logs
        .iter()
        .filter(|(corr, point)| {
            alerts.iter().any(|a| {
                a.correlation == *corr
                    && matches!(&a.kind, AlertKind::MissingLog { point: p } if p == point)
            })
        })
        .count();
    ChainAttackScore {
        forks_injected: truth.chain_forks + truth.equivocations,
        forks_alerted,
        invalid_sig_injected: truth.invalid_sig_blocks,
        invalid_sig_alerted,
        withheld_injected: truth.withheld_logs.len(),
        withheld_alerted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(alerts: Vec<Alert>) -> MonitorReport {
        MonitorReport {
            alerts,
            ..MonitorReport::default()
        }
    }

    #[test]
    fn perfect_detection_scores_one() {
        let truth = GroundTruth {
            tampered_requests: vec![CorrelationId(1), CorrelationId(2)],
            ..GroundTruth::default()
        };
        let report = report_with(vec![
            Alert::new(AlertKind::RequestTampering, CorrelationId(1), 100, ""),
            Alert::new(AlertKind::RequestTampering, CorrelationId(2), 200, ""),
        ]);
        let s = score(ThreatKind::TamperRequest, &report, &truth);
        assert_eq!(s.attacks, 2);
        assert_eq!(s.detected, 2);
        assert_eq!(s.false_positives, 0);
        assert_eq!(s.rate(), 1.0);
    }

    #[test]
    fn missed_attack_lowers_rate() {
        let truth = GroundTruth {
            tampered_requests: vec![CorrelationId(1), CorrelationId(2)],
            ..GroundTruth::default()
        };
        let report = report_with(vec![Alert::new(
            AlertKind::RequestTampering,
            CorrelationId(1),
            100,
            "",
        )]);
        let s = score(ThreatKind::TamperRequest, &report, &truth);
        assert_eq!(s.rate(), 0.5);
    }

    #[test]
    fn unrelated_alert_is_false_positive() {
        let truth = GroundTruth::default();
        let report = report_with(vec![Alert::new(
            AlertKind::RequestTampering,
            CorrelationId(9),
            100,
            "",
        )]);
        let s = score(ThreatKind::TamperRequest, &report, &truth);
        assert_eq!(s.attacks, 0);
        assert_eq!(s.false_positives, 1);
        assert_eq!(s.rate(), 1.0); // no attacks to miss
    }

    #[test]
    fn duplicate_alerts_count_once() {
        let truth = GroundTruth {
            corrupted_decisions: vec![CorrelationId(3)],
            ..GroundTruth::default()
        };
        let report = report_with(vec![
            Alert::new(AlertKind::PolicyViolation, CorrelationId(3), 100, ""),
            Alert::new(AlertKind::PolicyViolation, CorrelationId(3), 150, ""),
        ]);
        let s = score(ThreatKind::CorruptDecision, &report, &truth);
        assert_eq!(s.detected, 1);
    }

    #[test]
    fn policy_swap_scored_globally() {
        let truth = GroundTruth {
            policy_swapped: true,
            ..GroundTruth::default()
        };
        let report = report_with(vec![Alert::new(
            AlertKind::WrongPolicyVersion,
            CorrelationId(1),
            500,
            "",
        )]);
        let s = score(ThreatKind::SwapPolicy, &report, &truth);
        assert_eq!(s.attacks, 1);
        assert_eq!(s.detected, 1);
        // undetected swap
        let s2 = score(ThreatKind::SwapPolicy, &report_with(vec![]), &truth);
        assert_eq!(s2.detected, 0);
    }

    #[test]
    fn wrong_alert_kind_does_not_count() {
        let truth = GroundTruth {
            tampered_requests: vec![CorrelationId(1)],
            ..GroundTruth::default()
        };
        let report = report_with(vec![Alert::new(
            AlertKind::ResponseTampering,
            CorrelationId(1),
            100,
            "",
        )]);
        let s = score(ThreatKind::TamperRequest, &report, &truth);
        assert_eq!(s.detected, 0);
    }
}
