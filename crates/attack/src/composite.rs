//! Composite adversaries: several threats mounted simultaneously.
//!
//! Real compromises rarely come one at a time — a compromised
//! infrastructure section may tamper responses *and* drop the logs that
//! would expose it. [`CompositeAdversary`] runs any number of scripted
//! campaigns side by side, preserving per-threat ground truth so
//! detection can still be scored exactly. An empty composite is the
//! honest adversary.

use crate::threat::{ScriptedAdversary, ThreatKind};
use drams_core::adversary::Adversary;
use drams_core::logent::LogEntry;
use drams_faas::des::SimTime;
use drams_faas::msg::{RequestEnvelope, ResponseEnvelope};
use drams_policy::policy::PolicySet;

/// Runs several [`ScriptedAdversary`]s at once; a hook fires when any
/// constituent fires (first mutation wins per hook invocation).
#[derive(Debug, Default)]
pub struct CompositeAdversary {
    parts: Vec<ScriptedAdversary>,
}

impl CompositeAdversary {
    /// Creates an empty composite (equivalent to no adversary).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a threat with its firing probability, active at every
    /// instant (builder style).
    #[must_use]
    pub fn with(self, kind: ThreatKind, probability: f64, seed: u64) -> Self {
        self.with_part(ScriptedAdversary::new(kind, probability, seed))
    }

    /// Adds a prebuilt campaign, e.g. one narrowed by
    /// [`ScriptedAdversary::within`] (builder style).
    #[must_use]
    pub fn with_part(mut self, part: ScriptedAdversary) -> Self {
        self.parts.push(part);
        self
    }

    /// Number of constituent adversaries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when no threats are configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl Adversary for CompositeAdversary {
    fn tamper_request_in_transit(&mut self, envelope: &mut RequestEnvelope, now: SimTime) -> bool {
        self.parts
            .iter_mut()
            .any(|p| p.tamper_request_in_transit(envelope, now))
    }

    fn tamper_response_in_transit(
        &mut self,
        envelope: &mut ResponseEnvelope,
        now: SimTime,
    ) -> bool {
        self.parts
            .iter_mut()
            .any(|p| p.tamper_response_in_transit(envelope, now))
    }

    fn swap_policy(&mut self, authorised: &PolicySet) -> Option<PolicySet> {
        self.parts
            .iter_mut()
            .find_map(|p| p.swap_policy(authorised))
    }

    fn corrupt_pdp_decision(&mut self, envelope: &mut ResponseEnvelope, now: SimTime) -> bool {
        self.parts
            .iter_mut()
            .any(|p| p.corrupt_pdp_decision(envelope, now))
    }

    fn flip_enforcement(&mut self, granted: &mut bool, now: SimTime) -> bool {
        self.parts
            .iter_mut()
            .any(|p| p.flip_enforcement(granted, now))
    }

    fn drop_log(&mut self, entry: &LogEntry, now: SimTime) -> bool {
        self.parts.iter_mut().any(|p| p.drop_log(entry, now))
    }

    fn tamper_log(&mut self, entry: &mut LogEntry, now: SimTime) -> bool {
        self.parts.iter_mut().any(|p| p.tamper_log(entry, now))
    }

    fn replay_log(&mut self, entry: &mut LogEntry, now: SimTime) -> bool {
        self.parts.iter_mut().any(|p| p.replay_log(entry, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score;
    use drams_core::monitor::{run_monitor, MonitorConfig};

    #[test]
    fn empty_composite_is_honest() {
        let config = MonitorConfig {
            total_requests: 20,
            ..MonitorConfig::default()
        };
        let (report, truth) = run_monitor(&config, &mut CompositeAdversary::new());
        assert_eq!(truth.total_attacks(), 0);
        assert!(report.alerts.is_empty());
    }

    #[test]
    fn simultaneous_threats_are_all_detected() {
        let config = MonitorConfig {
            total_requests: 120,
            request_rate_per_sec: 120.0,
            seed: 3,
            ..MonitorConfig::default()
        };
        let mut adversary = CompositeAdversary::new()
            .with(ThreatKind::TamperRequest, 0.08, 1)
            .with(ThreatKind::CorruptDecision, 0.08, 2)
            .with(ThreatKind::DropLog, 0.05, 3);
        assert_eq!(adversary.len(), 3);
        let (report, truth) = run_monitor(&config, &mut adversary);
        assert!(truth.tampered_requests.len() > 1);
        assert!(truth.corrupted_decisions.len() > 1);
        assert!(!truth.dropped_logs.is_empty());
        // Simultaneous threats can mask each other's *signatures* (a
        // dropped log turns a PolicyViolation into a MissingLog), so the
        // composite detection notion is any-alert coverage: every attacked
        // transaction must be flagged somehow.
        use crate::score::detected_by_any_alert;
        let dropped: Vec<_> = truth.dropped_logs.iter().map(|(c, _)| *c).collect();
        for (name, attacked) in [
            ("tamper-request", &truth.tampered_requests),
            ("corrupt-decision", &truth.corrupted_decisions),
            ("drop-log", &dropped),
        ] {
            let unique: std::collections::HashSet<_> = attacked.iter().collect();
            let covered = detected_by_any_alert(&report, attacked);
            assert_eq!(
                covered,
                unique.len(),
                "{name}: {covered}/{} attacked transactions flagged",
                unique.len()
            );
        }
        // Signature-exact scoring still holds for the wire-level tamper,
        // whose digest evidence cannot be masked by log drops on *other*
        // observation points of the same transaction.
        let s = score(ThreatKind::TamperRequest, &report, &truth);
        assert!(s.detected <= s.attacks);
    }

    #[test]
    fn composite_preserves_per_threat_attribution() {
        // Request tampering must not inflate response-tamper ground truth.
        let config = MonitorConfig {
            total_requests: 60,
            seed: 5,
            ..MonitorConfig::default()
        };
        let mut adversary = CompositeAdversary::new().with(ThreatKind::TamperRequest, 0.2, 9);
        let (_, truth) = run_monitor(&config, &mut adversary);
        assert!(!truth.tampered_requests.is_empty());
        assert!(truth.tampered_responses.is_empty());
        assert!(truth.corrupted_decisions.is_empty());
    }
}
