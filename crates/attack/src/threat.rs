//! The threat catalogue and scripted adversaries.
//!
//! One implementation of [`Adversary`] per threat the paper names (§I):
//! modified requests, modified responses, altered policies, altered
//! evaluation process — plus the monitoring-plane attacks DRAMS claims
//! resilience against: dropped logs, tampered logs, compromised LIs.

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

/// A scripted adversary: fires one [`ThreatKind`] with a fixed per-event
/// probability.
#[derive(Debug)]
pub struct ScriptedAdversary {
    kind: ThreatKind,
    probability: f64,
    rng: StdRng,
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
    /// probability.
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
            colluding: BTreeSet::new(),
            stash: Vec::new(),
        }
    }

    /// The threat being mounted.
    #[must_use]
    pub fn kind(&self) -> ThreatKind {
        self.kind
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
    fn tamper_request_in_transit(&mut self, envelope: &mut RequestEnvelope, _now: SimTime) -> bool {
        if self.kind != ThreatKind::TamperRequest || !self.fires() {
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
        _now: SimTime,
    ) -> bool {
        if self.kind != ThreatKind::TamperResponse || !self.fires() {
            return false;
        }
        flip_response(&mut envelope.response);
        true
    }

    fn corrupt_pdp_decision(&mut self, envelope: &mut ResponseEnvelope, _now: SimTime) -> bool {
        let colluding = self.kind == ThreatKind::ColludePdpLi;
        if (self.kind != ThreatKind::CorruptDecision && !colluding) || !self.fires() {
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

    fn flip_enforcement(&mut self, granted: &mut bool, _now: SimTime) -> bool {
        if self.kind != ThreatKind::FlipEnforcement || !self.fires() {
            return false;
        }
        *granted = !*granted;
        true
    }

    fn drop_log(&mut self, entry: &LogEntry, _now: SimTime) -> bool {
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

    fn tamper_log(&mut self, entry: &mut LogEntry, _now: SimTime) -> bool {
        if self.kind != ThreatKind::TamperLog || !self.fires() {
            return false;
        }
        // A compromised LI rewriting the comparable digest; it cannot fix
        // the probe MAC because the key sits in the tenant TPM.
        entry.digest = Digest::of_parts(&[b"li-rewrite", entry.digest.as_bytes()]);
        true
    }

    fn replay_log(&mut self, entry: &mut LogEntry, _now: SimTime) -> bool {
        if self.kind != ThreatKind::ReplayLog {
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
        if self.kind != ThreatKind::SwapPolicy {
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
}
