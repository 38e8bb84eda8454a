//! The threat catalogue and scripted adversaries.
//!
//! One implementation of [`Adversary`] per threat the paper names (§I):
//! modified requests, modified responses, altered policies, altered
//! evaluation process — plus the monitoring-plane attacks DRAMS claims
//! resilience against: dropped logs, tampered logs, compromised LIs.
//!
//! A campaign is schedulable over virtual time: [`ScriptedAdversary::within`]
//! restricts its hooks to one [`FaultWindow`], so a scenario can model
//! "the LI is compromised between t₁ and t₂" and score detection against
//! a ground truth that is empty outside the window.

use drams_core::adversary::Adversary;
use drams_core::logent::{LogEntry, ObservationPoint};
use drams_crypto::sha256::Digest;
use drams_faas::des::SimTime;
use drams_faas::msg::{RequestEnvelope, ResponseEnvelope};
use drams_policy::attr::Category;
use drams_policy::decision::{Decision, ExtDecision, Response};
use drams_policy::policy::PolicySet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// The attacks of the threat matrix (`tests/attack_matrix.rs`, E12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThreatKind {
    /// Modify the access request on the PEP→PDP wire.
    TamperRequest,
    /// Modify the access decision on the PDP→PEP wire.
    TamperResponse,
    /// Make the PDP itself emit a wrong decision (altered evaluation
    /// process).
    CorruptDecision,
    /// Make the PEP enforce the opposite of the decision.
    FlipEnforcement,
    /// Suppress probe logs before they reach the Logging Interface.
    DropLog,
    /// Alter log entries inside a compromised Logging Interface.
    TamperLog,
    /// Replace the policy the PDP evaluates (altered policy).
    SwapPolicy,
    /// A colluding PDP **and** Logging Interface: the PDP emits a wrong
    /// decision and the compromised LI suppresses the PDP-side log entry
    /// that would reveal it. Detection must come from the group timeout,
    /// not from comparing the (suppressed) evidence.
    ColludePdpLi,
    /// A compromised LI replays evidence (digest, sealed payload and
    /// probe MAC) from an earlier entry — possibly another tenant's —
    /// in place of the current observation. The probe MAC binds the
    /// correlation and point, so the stale splice cannot verify.
    ReplayLog,
}

impl ThreatKind {
    /// All nine threats.
    pub const ALL: [ThreatKind; 9] = [
        ThreatKind::TamperRequest,
        ThreatKind::TamperResponse,
        ThreatKind::CorruptDecision,
        ThreatKind::FlipEnforcement,
        ThreatKind::DropLog,
        ThreatKind::TamperLog,
        ThreatKind::SwapPolicy,
        ThreatKind::ColludePdpLi,
        ThreatKind::ReplayLog,
    ];

    /// Short name for tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ThreatKind::TamperRequest => "tamper-request",
            ThreatKind::TamperResponse => "tamper-response",
            ThreatKind::CorruptDecision => "corrupt-decision",
            ThreatKind::FlipEnforcement => "flip-enforcement",
            ThreatKind::DropLog => "drop-log",
            ThreatKind::TamperLog => "tamper-log",
            ThreatKind::SwapPolicy => "swap-policy",
            ThreatKind::ColludePdpLi => "collude-pdp-li",
            ThreatKind::ReplayLog => "replay-log",
        }
    }
}

impl fmt::Display for ThreatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A half-open virtual-time window `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl FaultWindow {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics on an empty window (`until <= from`).
    #[must_use]
    pub fn new(from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "fault window must be non-empty");
        FaultWindow { from, until }
    }

    /// Whether `now` falls inside the window.
    #[must_use]
    pub fn contains(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// A scripted campaign: fires one [`ThreatKind`] with a fixed per-event
/// probability, only inside its activity window.
///
/// Outside the window a hook returns before it draws from the RNG or
/// touches the colluding set or the replay stash, so what the campaign
/// does inside its window does not depend on how long the honest
/// phases last.
#[derive(Debug)]
pub struct ScriptedAdversary {
    kind: ThreatKind,
    probability: f64,
    rng: StdRng,
    /// Where the hooks may fire; all time unless
    /// [`ScriptedAdversary::within`] narrows it.
    window: FaultWindow,
    /// Correlations whose decision this adversary corrupted — the
    /// colluding LI suppresses the PDP-side entries for exactly these
    /// ([`ThreatKind::ColludePdpLi`]).
    colluding: BTreeSet<u64>,
    /// Previously observed entries a replaying LI can splice evidence
    /// from ([`ThreatKind::ReplayLog`]). Bounded; oldest are kept since
    /// staleness is the point.
    stash: Vec<LogEntry>,
}

/// How many donor entries a replaying LI keeps around.
const REPLAY_STASH_CAP: usize = 64;

impl ScriptedAdversary {
    /// Creates an adversary mounting `kind` with the given per-event
    /// probability, active at every instant.
    ///
    /// # Panics
    ///
    /// Panics when `probability` is outside `[0, 1]`.
    #[must_use]
    pub fn new(kind: ThreatKind, probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability must be in [0, 1]"
        );
        ScriptedAdversary {
            kind,
            probability,
            rng: StdRng::seed_from_u64(seed),
            window: FaultWindow::new(0, SimTime::MAX),
            colluding: BTreeSet::new(),
            stash: Vec::new(),
        }
    }

    /// Restricts the campaign to `window` (builder style).
    #[must_use]
    pub fn within(mut self, window: FaultWindow) -> Self {
        self.window = window;
        self
    }

    /// The threat being mounted.
    #[must_use]
    pub fn kind(&self) -> ThreatKind {
        self.kind
    }

    /// Whether the activity window covers `now`.
    fn active_at(&self, now: SimTime) -> bool {
        self.window.contains(now)
    }

    fn fires(&mut self) -> bool {
        self.probability > 0.0 && self.rng.gen_bool(self.probability)
    }
}

fn flip_response(response: &mut Response) {
    let flipped = match response.decision {
        Decision::Permit => ExtDecision::Deny,
        _ => ExtDecision::Permit,
    };
    *response = Response::new(flipped, response.obligations.clone());
}

impl Adversary for ScriptedAdversary {
    fn tamper_request_in_transit(&mut self, envelope: &mut RequestEnvelope, now: SimTime) -> bool {
        if !self.active_at(now) || self.kind != ThreatKind::TamperRequest || !self.fires() {
            return false;
        }
        // Privilege escalation: rewrite the subject role.
        let mut request = envelope.request.clone();
        request.add(Category::Subject, "role", "doctor");
        envelope.request = request;
        true
    }

    fn tamper_response_in_transit(
        &mut self,
        envelope: &mut ResponseEnvelope,
        now: SimTime,
    ) -> bool {
        if !self.active_at(now) || self.kind != ThreatKind::TamperResponse || !self.fires() {
            return false;
        }
        flip_response(&mut envelope.response);
        true
    }

    fn corrupt_pdp_decision(&mut self, envelope: &mut ResponseEnvelope, now: SimTime) -> bool {
        let colluding = self.kind == ThreatKind::ColludePdpLi;
        if !self.active_at(now)
            || (self.kind != ThreatKind::CorruptDecision && !colluding)
            || !self.fires()
        {
            return false;
        }
        flip_response(&mut envelope.response);
        if colluding {
            // Mark the correlation so the colluding LI knows which
            // PDP-side entries to suppress.
            self.colluding.insert(envelope.correlation.0);
        }
        true
    }

    fn flip_enforcement(&mut self, granted: &mut bool, now: SimTime) -> bool {
        if !self.active_at(now) || self.kind != ThreatKind::FlipEnforcement || !self.fires() {
            return false;
        }
        *granted = !*granted;
        true
    }

    fn drop_log(&mut self, entry: &LogEntry, now: SimTime) -> bool {
        if !self.active_at(now) {
            return false;
        }
        match self.kind {
            ThreatKind::DropLog => self.fires(),
            // The colluding LI deterministically suppresses the PDP-side
            // evidence of every corrupted decision. PEP-side entries are
            // delivered by the (honest) member-tenant LI, so the group
            // still opens and the timeout sweep can notice the gap.
            ThreatKind::ColludePdpLi => {
                matches!(
                    entry.point,
                    ObservationPoint::PdpRequest | ObservationPoint::PdpResponse
                ) && self.colluding.contains(&entry.correlation.0)
            }
            _ => false,
        }
    }

    fn tamper_log(&mut self, entry: &mut LogEntry, now: SimTime) -> bool {
        if !self.active_at(now) || self.kind != ThreatKind::TamperLog || !self.fires() {
            return false;
        }
        // A compromised LI rewriting the comparable digest; it cannot fix
        // the probe MAC because the key sits in the tenant TPM.
        entry.digest = Digest::of_parts(&[b"li-rewrite", entry.digest.as_bytes()]);
        true
    }

    fn replay_log(&mut self, entry: &mut LogEntry, now: SimTime) -> bool {
        if !self.active_at(now) || self.kind != ThreatKind::ReplayLog {
            return false;
        }
        if self.fires() {
            // Splice the full evidence (digest, sealed payload, MAC) of a
            // stale entry from a *different* correlation — a replaying LI
            // passing off old observations as current. The donor MAC was
            // computed over the donor's correlation and point, so it can
            // never verify against this entry's.
            if let Some(donor) = self
                .stash
                .iter()
                .find(|e| e.correlation != entry.correlation)
            {
                entry.digest = donor.digest;
                entry.sealed_payload = donor.sealed_payload.clone();
                entry.probe_mac = donor.probe_mac;
                return true;
            }
        }
        if self.stash.len() < REPLAY_STASH_CAP {
            self.stash.push(entry.clone());
        }
        false
    }

    fn swap_policy(&mut self, authorised: &PolicySet) -> Option<PolicySet> {
        // Policy swap happens at deployment time (virtual time 0): it
        // fires only when the window covers the start of the run.
        if !self.active_at(0) || self.kind != ThreatKind::SwapPolicy {
            return None;
        }
        // Replace with an open-door policy: everything is permitted.
        use drams_policy::combining::CombiningAlg;
        use drams_policy::decision::Effect;
        use drams_policy::policy::Policy;
        use drams_policy::rule::Rule;
        let _ = authorised;
        Some(
            PolicySet::builder("swapped-root", CombiningAlg::PermitUnlessDeny)
                .policy(
                    Policy::builder("open-door", CombiningAlg::PermitOverrides)
                        .rule(Rule::always("allow-everything", Effect::Permit))
                        .build(),
                )
                .build(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score;
    use drams_core::logent::ProbeId;
    use drams_core::monitor::{run_monitor, MonitorConfig};
    use drams_crypto::aead::{seal, SymmetricKey};
    use drams_faas::des::{MILLIS, SECONDS};
    use drams_faas::model::{PepId, TenantId};
    use drams_faas::msg::CorrelationId;
    use drams_policy::attr::Request;

    fn request_env() -> RequestEnvelope {
        RequestEnvelope {
            correlation: CorrelationId(1),
            tenant: TenantId(1),
            pep: PepId(1),
            service: "svc".into(),
            request: Request::builder().subject("role", "nurse").build(),
            issued_at: 0,
        }
    }

    fn response_env() -> ResponseEnvelope {
        ResponseEnvelope {
            correlation: CorrelationId(1),
            pep: PepId(1),
            response: Response::new(ExtDecision::Deny, vec![]),
            policy_version: Digest::ZERO,
            decided_at: 0,
        }
    }

    #[test]
    fn request_tamper_changes_digest() {
        let mut adv = ScriptedAdversary::new(ThreatKind::TamperRequest, 1.0, 1);
        let mut env = request_env();
        let before = env.digest();
        assert!(adv.tamper_request_in_transit(&mut env, 0));
        assert_ne!(env.digest(), before);
    }

    #[test]
    fn response_tamper_flips_decision() {
        let mut adv = ScriptedAdversary::new(ThreatKind::TamperResponse, 1.0, 1);
        let mut env = response_env();
        assert!(adv.tamper_response_in_transit(&mut env, 0));
        assert_eq!(env.response.decision, Decision::Permit);
        // and the internal consistency of the response is preserved
        assert_eq!(env.response.extended.to_decision(), env.response.decision);
    }

    #[test]
    fn threats_do_not_cross_fire() {
        // A request-tampering adversary never touches responses or logs.
        let mut adv = ScriptedAdversary::new(ThreatKind::TamperRequest, 1.0, 1);
        let mut resp = response_env();
        assert!(!adv.tamper_response_in_transit(&mut resp, 0));
        let mut granted = true;
        assert!(!adv.flip_enforcement(&mut granted, 0));
        assert!(adv
            .swap_policy(&drams_core::monitor::default_policy())
            .is_none());
    }

    #[test]
    fn probability_zero_never_fires() {
        let mut adv = ScriptedAdversary::new(ThreatKind::TamperRequest, 0.0, 1);
        let mut env = request_env();
        for _ in 0..100 {
            assert!(!adv.tamper_request_in_transit(&mut env, 0));
        }
    }

    #[test]
    fn probability_is_respected_statistically() {
        let mut adv = ScriptedAdversary::new(ThreatKind::FlipEnforcement, 0.3, 42);
        let mut fired = 0;
        for _ in 0..10_000 {
            let mut granted = true;
            if adv.flip_enforcement(&mut granted, 0) {
                fired += 1;
            }
        }
        let rate = fired as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn swap_policy_produces_permissive_policy() {
        let mut adv = ScriptedAdversary::new(ThreatKind::SwapPolicy, 1.0, 1);
        let authorised = drams_core::monitor::default_policy();
        let swapped = adv.swap_policy(&authorised).unwrap();
        assert_ne!(swapped.version_digest(), authorised.version_digest());
        // the swapped policy permits a request the authorised one denies
        let req = Request::builder().subject("role", "external").build();
        assert_eq!(swapped.evaluate(&req).0, ExtDecision::Permit);
        assert_eq!(authorised.evaluate(&req).0, ExtDecision::Deny);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn invalid_probability_panics() {
        let _ = ScriptedAdversary::new(ThreatKind::DropLog, 1.5, 1);
    }

    #[test]
    fn hooks_fire_only_inside_windows() {
        let mut adv = ScriptedAdversary::new(ThreatKind::TamperRequest, 1.0, 1)
            .within(FaultWindow::new(100, 200));
        let mut env = request_env();
        assert!(!adv.tamper_request_in_transit(&mut env, 99));
        assert!(adv.tamper_request_in_transit(&mut env, 100));
        assert!(adv.tamper_request_in_transit(&mut env, 199));
        assert!(!adv.tamper_request_in_transit(&mut env, 200));
    }

    #[test]
    fn swap_policy_needs_a_window_over_deployment_time() {
        let authorised = drams_core::monitor::default_policy();
        let mut late = ScriptedAdversary::new(ThreatKind::SwapPolicy, 1.0, 3)
            .within(FaultWindow::new(100, 200));
        assert!(late.swap_policy(&authorised).is_none());
        let mut early =
            ScriptedAdversary::new(ThreatKind::SwapPolicy, 1.0, 3).within(FaultWindow::new(0, 200));
        assert!(early.swap_policy(&authorised).is_some());
    }

    fn log_entry(correlation: u64) -> LogEntry {
        let key = SymmetricKey::from_bytes([1; 32]);
        let mut e = LogEntry {
            correlation: CorrelationId(correlation),
            point: ObservationPoint::PepRequest,
            probe: ProbeId(1),
            digest: Digest::of(&correlation.to_be_bytes()),
            policy_version: None,
            observed_at: correlation,
            sealed_payload: seal(&key, [0; 12], b"", &correlation.to_be_bytes()),
            probe_mac: Digest::ZERO,
        };
        e.probe_mac = e.compute_mac(&[7; 32]);
        e
    }

    /// Calls outside the window draw nothing from the RNG and stash
    /// nothing: the windowed campaign fires on exactly the calls an
    /// unwindowed twin fires on when it only sees the window's instants,
    /// and splices the same donors.
    #[test]
    fn a_window_does_not_touch_the_campaigns_rng() {
        let window = FaultWindow::new(100, 200);
        let mut windowed = ScriptedAdversary::new(ThreatKind::ReplayLog, 0.5, 11).within(window);
        let mut twin = ScriptedAdversary::new(ThreatKind::ReplayLog, 0.5, 11);
        let mut fired = 0;
        for now in 0..300 {
            let mut entry = log_entry(now);
            let hit = windowed.replay_log(&mut entry, now);
            if window.contains(now) {
                let mut twin_entry = log_entry(now);
                assert_eq!(hit, twin.replay_log(&mut twin_entry, now), "call at {now}");
                assert_eq!(entry, twin_entry, "entry at {now}");
                fired += u32::from(hit);
            } else {
                assert!(!hit, "fired outside the window at {now}");
                assert_eq!(entry, log_entry(now));
            }
        }
        assert!(fired > 0 && fired < 100, "fired {fired} times in 100 calls");
    }

    #[test]
    #[should_panic(expected = "fault window must be non-empty")]
    fn empty_window_panics() {
        let _ = FaultWindow::new(10, 10);
    }

    /// End-to-end: a windowed campaign only attacks inside the window,
    /// and everything it does is still detected.
    #[test]
    fn windowed_campaign_is_bounded_and_fully_detected() {
        let config = MonitorConfig {
            total_requests: 80,
            request_rate_per_sec: 100.0,
            group_timeout: 2 * SECONDS,
            seed: 21,
            ..MonitorConfig::default()
        };
        let mut adv = ScriptedAdversary::new(ThreatKind::TamperResponse, 0.5, 9)
            .within(FaultWindow::new(200 * MILLIS, 500 * MILLIS));
        let (report, truth) = run_monitor(&config, &mut adv);
        let s = score(ThreatKind::TamperResponse, &report, &truth);
        assert!(s.attacks > 0, "the window must see some traffic");
        assert!(
            (s.attacks as u64) < config.total_requests / 2,
            "attacks must be bounded by the window, got {}",
            s.attacks
        );
        assert_eq!(s.detected, s.attacks);
        assert_eq!(s.false_positives, 0);
    }
}
