//! The three-part ground-truth oracle.
//!
//! [`run_case`] executes one generated [`FuzzCase`] through the real
//! scenario runtime and judges the outcome:
//!
//! 1. **Detection** — every attack the ground truth records must be
//!    matched by an alert of the kind the threat matrix promises
//!    (scored via [`drams_attack::score()`] for hook campaigns and
//!    [`drams_attack::chain_attack_score`] for Byzantine chain-node
//!    behaviour).
//! 2. **No false alarms** — an honest run (churn, bursts, policy flips,
//!    crashes, but no adversary) must finish with zero alerts; a
//!    chain-attack run must raise only the alerts that attack explains.
//! 3. **Crash equivalence** — a run with [`CrashRestart`] points must be
//!    byte-identical (alerts, ground truth, throughput counters, finish
//!    time) to its [`strip_crashes`] twin, even under adversarial load.
//!
//! Any failed clause becomes a human-readable violation string; an empty
//! [`CaseOutcome::violations`] means the case passed.
//!
//! [`CrashRestart`]: drams_core::scenario::ScriptedAction::CrashRestart

use crate::gen::FuzzCase;
use drams_attack::{chain_attack_score, score};
use drams_core::alert::AlertKind;
use drams_core::monitor::first_divergence;
use drams_core::scenario::{run_scenario, ScenarioSpec, ScriptedAction};

/// What one fuzz case did and whether the oracle accepted it.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Scenario name (carries the seed and attack class).
    pub name: String,
    /// Oracle violations; empty = the case passed.
    pub violations: Vec<String>,
    /// Attack actions the adversary (or Byzantine node) performed.
    pub attacks_injected: usize,
    /// Injected attacks matched by an alert of the promised kind.
    pub attacks_detected: usize,
    /// Alerts not explained by any injected attack.
    pub false_positives: usize,
    /// Alerts committed on-chain.
    pub alerts: usize,
    /// Simulation events executed: requests issued + entries logged +
    /// blocks mined + alerts committed.
    pub events: u64,
    /// Whether the crash-twin clause ran (the script had a crash).
    pub crash_twin_checked: bool,
}

/// The uninterrupted twin of a scenario: same deployment, phases and
/// script minus every [`ScriptedAction::CrashRestart`]. The one copy:
/// `drams_bench::scenarios` re-exports it for E11, E13 and E14.
#[must_use]
pub fn strip_crashes(spec: &ScenarioSpec) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("{}_uninterrupted", spec.name),
        config: spec.config.clone(),
        phases: spec.phases.clone(),
        placement: spec.placement,
        script: spec
            .script
            .iter()
            .filter(|a| !matches!(a, ScriptedAction::CrashRestart { .. }))
            .cloned()
            .collect(),
        faults: spec.faults.clone(),
        load: spec.load.clone(),
    }
}

fn is_chain_attack(action: &ScriptedAction) -> bool {
    matches!(
        action,
        ScriptedAction::ForkChain { .. }
            | ScriptedAction::EquivocateBlock { .. }
            | ScriptedAction::InvalidSignatureBlock { .. }
            | ScriptedAction::WithholdTx { .. }
    )
}

/// Runs `case` end to end and applies all three oracle clauses.
#[must_use]
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    let mut adversary = case.plan.build();
    let (report, truth) = run_scenario(&case.spec, &mut adversary);

    let mut violations = Vec::new();
    let mut attacks_injected = 0usize;
    let mut attacks_detected = 0usize;
    let mut false_positives = 0usize;
    let has_chain_action = case.spec.script.iter().any(is_chain_attack);

    match case.plan.campaign_kind() {
        // Clause 1 (campaigns): everything the hook adversary did must
        // be detected through the threat's promised alert kinds.
        Some(kind) => {
            let s = score(kind, &report, &truth);
            attacks_injected = s.attacks;
            attacks_detected = s.detected;
            false_positives = s.false_positives;
            if s.detected < s.attacks {
                violations.push(format!(
                    "{}: campaign {kind} only {} of {} attacks detected",
                    case.spec.name, s.detected, s.attacks
                ));
            }
        }
        // Clause 1 + 2 (Byzantine chain node): the chain-level score
        // must be clean AND no alert may exist that the attack does not
        // explain.
        None if has_chain_action => {
            let cs = chain_attack_score(&report.alerts, &truth);
            attacks_injected = cs.forks_injected as usize
                + cs.invalid_sig_injected as usize
                + cs.withheld_injected;
            attacks_detected = cs.forks_alerted.min(cs.forks_injected) as usize
                + cs.invalid_sig_alerted.min(cs.invalid_sig_injected) as usize
                + cs.withheld_alerted.min(cs.withheld_injected);
            if !cs.all_detected() {
                violations.push(format!(
                    "{}: chain attack under-detected ({cs:?})",
                    case.spec.name
                ));
            }
            for alert in &report.alerts {
                let explained = match &alert.kind {
                    AlertKind::MonitorCompromise => {
                        alert.detail.starts_with("chain fork")
                            || alert.detail.contains("invalid transaction signature")
                    }
                    AlertKind::MissingLog { point } => {
                        truth.withheld_logs.contains(&(alert.correlation, *point))
                    }
                    _ => false,
                };
                if !explained {
                    false_positives += 1;
                    violations.push(format!(
                        "{}: unexplained alert {:?} on {:?}: {}",
                        case.spec.name, alert.kind, alert.correlation, alert.detail
                    ));
                }
            }
        }
        // Clause 2 (honest): ground truth empty, zero alerts.
        None => {
            if truth.total_attacks() != 0 || truth.policy_swapped {
                violations.push(format!(
                    "{}: honest run recorded attacks in its ground truth",
                    case.spec.name
                ));
            }
            false_positives = report.alerts.len();
            for alert in &report.alerts {
                violations.push(format!(
                    "{}: false positive in honest run: {:?} on {:?}: {}",
                    case.spec.name, alert.kind, alert.correlation, alert.detail
                ));
            }
        }
    }

    // Clause 3: a crashed run must be indistinguishable from its
    // uninterrupted twin — the E11 bar, applied under adversarial load.
    // The twin gets its own adversary built from the same plan so both
    // runs face an identical hook sequence.
    let crash_twin_checked = case.has_crash();
    if crash_twin_checked {
        let twin_spec = strip_crashes(&case.spec);
        let mut twin_adversary = case.plan.build();
        let (twin_report, twin_truth) = run_scenario(&twin_spec, &mut twin_adversary);
        if let Some(d) = first_divergence(&report, &truth, &twin_report, &twin_truth) {
            violations.push(format!(
                "{}: crashed run diverges from its twin on {d}",
                case.spec.name
            ));
        }
    }

    CaseOutcome {
        name: case.spec.name.clone(),
        violations,
        attacks_injected,
        attacks_detected,
        false_positives,
        alerts: report.alerts.len(),
        events: report.requests_issued
            + report.entries_logged
            + report.blocks_mined
            + report.alerts.len() as u64,
        crash_twin_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use drams_faas::des::MILLIS;
    use drams_faas::model::TenantId;

    #[test]
    fn strip_crashes_removes_only_crash_actions() {
        let mut case = generate(13);
        case.spec.script.push(ScriptedAction::CrashRestart {
            at: 500 * MILLIS,
            target: drams_core::scenario::CrashTarget::Li(TenantId(1)),
        });
        let before = case.spec.script.len();
        let twin = strip_crashes(&case.spec);
        assert!(twin.name.ends_with("_uninterrupted"));
        assert_eq!(twin.script.len(), before - 1);
        assert!(!twin
            .script
            .iter()
            .any(|a| matches!(a, ScriptedAction::CrashRestart { .. })));
    }

    #[test]
    fn honest_prelude_case_passes_the_oracle() {
        let outcome = run_case(&generate(13));
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert_eq!(outcome.attacks_injected, 0);
        assert_eq!(outcome.false_positives, 0);
        assert!(outcome.events > 0);
    }

    #[test]
    fn crash_case_exercises_the_twin_clause() {
        let outcome = run_case(&generate(14));
        assert!(outcome.crash_twin_checked);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }
}
