//! End-to-end DRAMS simulation: configuration, report and ground truth.
//!
//! One run wires together: a workload generator issuing access requests
//! across the federation's tenants; PEPs intercepting and enforcing; the
//! PDP deciding in the infrastructure tenant; probes at all four
//! observation points; per-tenant Logging Interfaces batching entries onto
//! the private chain; the monitor contract matching logs; epoch sweeps;
//! and the Analyser re-evaluating every completed group. An
//! [`Adversary`] may tamper at any
//! interception point, and the run returns both the monitor's alerts and
//! the exact ground truth, so experiments can score detection precisely.
//!
//! The simulation itself lives in [`crate::scenario`]: an event-driven
//! runtime of [`drams_faas::des::SimService`]s. [`run_monitor`] is
//! exactly `run_scenario(&ScenarioSpec::canonical(config), adversary)` —
//! the *canonical scenario*: fixed topology, one central PDP, no script.
//! Richer deployments (multi-PDP federations, phased load, policy churn,
//! tenant join/leave, fault windows) are declared as
//! [`crate::scenario::ScenarioSpec`]s and run through
//! [`crate::scenario::run_scenario`].
//!
//! **Modelling note.** Inside virtual time the chain runs at difficulty 0
//! with a configurable block cadence: wall-clock hashing cannot meaningfully
//! mix with virtual time. The real hashing cost of PoW as a function of
//! difficulty and payload size is measured separately (experiments E1/E2 on
//! the chain crate itself).

use crate::adversary::Adversary;
use crate::alert::Alert;
use crate::logent::ObservationPoint;
use crate::scenario::{run_scenario, ScenarioSpec};
use drams_crypto::codec::Encode;
use drams_faas::des::{LatencyStats, SimTime, MILLIS, SECONDS};
use drams_faas::model::FederationSpec;
use drams_faas::msg::CorrelationId;
use drams_faas::pep::EnforcementBias;
use drams_policy::policy::PolicySet;

/// Configuration of one monitor simulation run.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Federation topology.
    pub federation: FederationSpec,
    /// The authorised policy.
    pub policy: PolicySet,
    /// PEP enforcement bias.
    pub bias: EnforcementBias,
    /// Request arrival rate (federation-wide, Poisson).
    pub request_rate_per_sec: f64,
    /// Stop issuing after this many requests.
    pub total_requests: u64,
    /// Hard virtual-time stop.
    pub horizon: SimTime,
    /// Virtual time between blocks on the private chain.
    pub block_interval: SimTime,
    /// Submit an `advance_epoch` every this many blocks.
    pub epoch_blocks: u64,
    /// Group timeout enforced by the contract.
    pub group_timeout: SimTime,
    /// Entries per Logging Interface transaction.
    pub li_batch_size: usize,
    /// Interval at which LIs flush partial batches.
    pub li_flush_interval: SimTime,
    /// Interval at which the Analyser polls the chain.
    pub analyser_poll_interval: SimTime,
    /// Master switch: with `false`, no probes, no chain traffic (the E6
    /// baseline).
    pub monitoring_enabled: bool,
    /// Whether the Analyser runs (contract checks alone otherwise).
    pub analyser_enabled: bool,
    /// Master RNG seed; runs are deterministic per seed. Each simulation
    /// component draws from its own named stream derived from this seed
    /// (see [`crate::scenario::stream_rng`]).
    pub seed: u64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            federation: FederationSpec::symmetric(2, 2, 2),
            policy: default_policy(),
            bias: EnforcementBias::DenyBiased,
            request_rate_per_sec: 50.0,
            total_requests: 200,
            horizon: 600 * SECONDS,
            block_interval: 500 * MILLIS,
            epoch_blocks: 2,
            group_timeout: 2 * SECONDS,
            li_batch_size: 8,
            li_flush_interval: 100 * MILLIS,
            analyser_poll_interval: 250 * MILLIS,
            monitoring_enabled: true,
            analyser_enabled: true,
            seed: 7,
        }
    }
}

/// A policy over the default workload vocabulary: doctors and nurses may
/// read records during the day; everything else is denied.
#[must_use]
pub fn default_policy() -> PolicySet {
    use drams_policy::attr::{AttributeId, Category};
    use drams_policy::combining::CombiningAlg;
    use drams_policy::decision::Effect;
    use drams_policy::expr::{Expr, Func};
    use drams_policy::policy::Policy;
    use drams_policy::rule::Rule;
    use drams_policy::target::Target;

    let role = |v: &str| {
        Expr::equal(
            Expr::attr(AttributeId::new(Category::Subject, "role")),
            Expr::lit(v),
        )
    };
    PolicySet::builder("federation-root", CombiningAlg::DenyUnlessPermit)
        .policy(
            Policy::builder("clinical-access", CombiningAlg::PermitOverrides)
                .rule(
                    Rule::builder("doctors-any-action", Effect::Permit)
                        .target(Target::expr(role("doctor")))
                        .build(),
                )
                .rule(
                    Rule::builder("nurses-read-daytime", Effect::Permit)
                        .target(Target::expr(role("nurse")))
                        .condition(Expr::and(vec![
                            Expr::equal(
                                Expr::attr(AttributeId::new(Category::Action, "id")),
                                Expr::lit("read"),
                            ),
                            Expr::Apply(
                                Func::Less,
                                vec![
                                    Expr::attr(AttributeId::new(Category::Environment, "hour")),
                                    Expr::lit(20i64),
                                ],
                            ),
                        ]))
                        .build(),
                )
                .build(),
        )
        .build()
}

/// Ground truth of what the adversary actually did during a run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    /// Requests tampered on the PEP→PDP wire.
    pub tampered_requests: Vec<CorrelationId>,
    /// Responses tampered on the PDP→PEP wire.
    pub tampered_responses: Vec<CorrelationId>,
    /// Decisions corrupted inside the PDP.
    pub corrupted_decisions: Vec<CorrelationId>,
    /// Enforcements flipped at the PEP.
    pub flipped_enforcements: Vec<CorrelationId>,
    /// Log entries suppressed before reaching an LI.
    pub dropped_logs: Vec<(CorrelationId, ObservationPoint)>,
    /// Log entries altered inside a compromised LI.
    pub tampered_logs: Vec<(CorrelationId, ObservationPoint)>,
    /// Log entries whose evidence was replaced with evidence replayed
    /// from an earlier (possibly cross-tenant) entry.
    pub replayed_logs: Vec<(CorrelationId, ObservationPoint)>,
    /// Committed-log transactions a Byzantine chain node withheld from
    /// its mempool; each suppressed entry is listed.
    pub withheld_logs: Vec<(CorrelationId, ObservationPoint)>,
    /// Whether the PDP ran a swapped policy.
    pub policy_swapped: bool,
    /// Hostile chain forks mounted (re-mining a suffix of the chain).
    pub chain_forks: u64,
    /// Equivocations mounted (two sibling blocks at the same height).
    pub equivocations: u64,
    /// Blocks injected carrying an invalid transaction signature.
    pub invalid_sig_blocks: u64,
}

impl GroundTruth {
    /// Total number of injected attack actions.
    #[must_use]
    pub fn total_attacks(&self) -> usize {
        self.tampered_requests.len()
            + self.tampered_responses.len()
            + self.corrupted_decisions.len()
            + self.flipped_enforcements.len()
            + self.dropped_logs.len()
            + self.tampered_logs.len()
            + self.replayed_logs.len()
            + self.withheld_logs.len()
            + self.chain_forks as usize
            + self.equivocations as usize
            + self.invalid_sig_blocks as usize
    }
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct MonitorReport {
    /// Requests issued by the workload.
    pub requests_issued: u64,
    /// Requests whose response reached enforcement.
    pub requests_completed: u64,
    /// Requests the PEP abandoned after its retry deadline budget ran
    /// out (the PDP stayed unreachable through every backoff attempt);
    /// always 0 in the canonical scenario.
    pub requests_dropped: u64,
    /// Accesses actually granted / refused.
    pub granted: u64,
    /// See [`MonitorReport::granted`].
    pub refused: u64,
    /// Subject-to-enforcement latency.
    pub e2e_latency: LatencyStats,
    /// Observation-to-commit latency per log entry.
    pub log_commit_latency: LatencyStats,
    /// Alert-on-chain latency: request issue → alert committed.
    pub detection_latency: LatencyStats,
    /// All alerts committed on-chain, in commit order.
    pub alerts: Vec<Alert>,
    /// Blocks mined.
    pub blocks_mined: u64,
    /// Transactions committed.
    pub txs_committed: u64,
    /// Largest mempool backlog observed.
    pub max_mempool: usize,
    /// Log-entry groups the contract saw to completion.
    pub groups_completed: u64,
    /// Log entries committed on-chain.
    pub entries_logged: u64,
    /// Policy versions activated over the run (1 = no churn).
    pub policy_activations: u64,
    /// Scripted crash-restarts executed (E11 recovery scenarios); 0 in
    /// the canonical scenario.
    pub crash_restarts: u64,
    /// PEP→PDP resends after an attempt timeout (capped exponential
    /// backoff); 0 on a perfect network.
    pub retries_total: u64,
    /// Requests that completed through a non-home PDP slot after the
    /// home slot's circuit breaker opened.
    pub failovers: u64,
    /// Circuit-breaker Closed→Open transitions across all PEP views.
    pub breaker_trips: u64,
    /// Entries an LI spilled to its WAL while the chain was unreachable.
    pub li_spilled: u64,
    /// Spilled entries replayed to the chain after the partition healed.
    pub li_replayed: u64,
    /// Degraded-mode epoch-timeout changes committed on-chain (widen +
    /// restore transactions).
    pub timeout_retunes: u64,
    /// End-to-end latency of requests that completed on a failover slot.
    pub failover_e2e: LatencyStats,
    /// Per-LI partition recovery time: heal → spill fully replayed.
    pub spill_recovery: LatencyStats,
    /// What the network fault plane did to traffic (all zero on a
    /// perfect network).
    pub faults: drams_faas::fault::FaultStats,
    /// Requests refused at the PEP admission gate because the in-flight
    /// window was full (overload shedding); 0 without a load profile.
    pub requests_shed: u64,
    /// Requests admitted past the soft watermark (the degraded band
    /// between 3/4 of the in-flight cap and the cap itself).
    pub degraded_admissions: u64,
    /// Decision-idempotency entries aged out of the PDP retransmission
    /// cache after their retention window closed.
    pub idempotency_evictions: u64,
    /// Entries the PDP engine's bounded decision cache evicted (LRU).
    pub decision_cache_evictions: u64,
    /// Completed decision groups the Analyser retired (evidence pruned
    /// from contract storage after the replay window).
    pub groups_retired: u64,
    /// Superseded authorised-policy versions the Analyser dropped past
    /// the history-retention horizon.
    pub policy_history_retired: u64,
    /// Chain write-ahead-journal compactions (snapshot + prune) run.
    pub journal_compactions: u64,
    /// High-water marks of every bounded state pool (capacity planning
    /// and the E14 regression gate).
    pub peak: PeakState,
    /// Virtual time at which the run ended.
    pub finished_at: SimTime,
}

/// Peak tracked-state sizes per component over one run: the quantities
/// that must stay bounded under overload for the monitor to be
/// long-running. Each is a max over the run, sampled at the points the
/// pool grows.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PeakState {
    /// In-flight (unanswered, unabandoned) PEP requests.
    pub pep_inflight: u64,
    /// As-sent responses held for idempotent retransmission answers
    /// across all PDP slots.
    pub pdp_idempotency: u64,
    /// Entries in the PDP engines' decision caches (max over slots).
    pub pdp_decision_cache: u64,
    /// Log entries resident in LI memory (max over LIs; WAL spill not
    /// counted — that is the bounded-memory escape hatch).
    pub li_resident: u64,
    /// Decision groups queued for retirement in the Analyser's window.
    pub analyser_pending_retire: u64,
    /// Keys in the monitor contract's storage.
    pub contract_storage: u64,
    /// Unconsumed records in the chain node's write-ahead journal.
    pub chain_journal_records: u64,
    /// Authorised-policy versions in the Analyser's verification
    /// history (bounded by the retention horizon under policy churn).
    pub policy_history: u64,
}

impl MonitorReport {
    /// Alerts of a given kind.
    #[must_use]
    pub fn alerts_of(&self, pred: impl Fn(&Alert) -> bool) -> Vec<&Alert> {
        self.alerts.iter().filter(|a| pred(a)).collect()
    }

    /// The alerts in their canonical encoding, in commit order: what
    /// "the same alerts, byte for byte" compares.
    #[must_use]
    pub fn alert_bytes(&self) -> Vec<Vec<u8>> {
        self.alerts.iter().map(Encode::to_canonical_bytes).collect()
    }
}

/// One member of the byte-identical-twin bar on which two runs differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The differing member: `ground_truth`, `alerts` or a
    /// [`MonitorReport`] field name.
    pub member: &'static str,
    /// The member as the first run has it.
    pub left: String,
    /// The member as the second run has it.
    pub right: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} vs {}", self.member, self.left, self.right)
    }
}

/// The byte-identical-twin bar behind DESIGN.md invariants 5, 7 and 9:
/// two runs are twins when they have the same ground truth, the same
/// canonical alert bytes in the same order, and the same
/// `requests_completed`, `entries_logged`, `groups_completed`,
/// `txs_committed` and `finished_at`. Returns the first member, in that
/// order, on which they differ; `None` means identical.
#[must_use]
pub fn first_divergence(
    a: &MonitorReport,
    a_truth: &GroundTruth,
    b: &MonitorReport,
    b_truth: &GroundTruth,
) -> Option<Divergence> {
    fn differ<T: PartialEq + std::fmt::Debug>(
        member: &'static str,
        left: &T,
        right: &T,
    ) -> Option<Divergence> {
        (left != right).then(|| Divergence {
            member,
            left: format!("{left:?}"),
            right: format!("{right:?}"),
        })
    }
    let alerts = || {
        let (left, right) = (a.alert_bytes(), b.alert_bytes());
        let at = left.iter().zip(&right).take_while(|(l, r)| l == r).count();
        let show = |r: &MonitorReport| {
            format!("{} alerts, #{at} = {:?}", r.alerts.len(), r.alerts.get(at))
        };
        (left != right).then(|| Divergence {
            member: "alerts",
            left: show(a),
            right: show(b),
        })
    };
    let counters = [
        (
            "requests_completed",
            a.requests_completed,
            b.requests_completed,
        ),
        ("entries_logged", a.entries_logged, b.entries_logged),
        ("groups_completed", a.groups_completed, b.groups_completed),
        ("txs_committed", a.txs_committed, b.txs_committed),
        ("finished_at", a.finished_at, b.finished_at),
    ];
    differ("ground_truth", a_truth, b_truth)
        .or_else(alerts)
        .or_else(|| counters.iter().find_map(|(m, l, r)| differ(m, l, r)))
}

/// Runs one full simulation of the classic fixed-topology deployment —
/// the canonical scenario of the event-driven runtime (see
/// [`crate::scenario`]).
///
/// # Panics
///
/// Panics on internal invariant violations (the chain rejecting its own
/// miner's block), which indicate bugs rather than recoverable errors.
pub fn run_monitor<A: Adversary>(
    config: &MonitorConfig,
    adversary: &mut A,
) -> (MonitorReport, GroundTruth) {
    run_scenario(&ScenarioSpec::canonical(config), adversary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NoAdversary;

    fn small_config() -> MonitorConfig {
        MonitorConfig {
            total_requests: 40,
            request_rate_per_sec: 100.0,
            ..MonitorConfig::default()
        }
    }

    #[test]
    fn honest_run_completes_cleanly() {
        let (report, truth) = run_monitor(&small_config(), &mut NoAdversary);
        assert_eq!(report.requests_issued, 40);
        assert_eq!(report.requests_completed, 40);
        assert_eq!(truth.total_attacks(), 0);
        // no attacks ⇒ no alerts
        assert!(report.alerts.is_empty(), "alerts: {:?}", report.alerts);
        // every request produced 4 observations, all committed
        assert_eq!(report.entries_logged, 160);
        assert_eq!(report.groups_completed, 40);
        assert!(report.blocks_mined > 0);
        assert!(report.e2e_latency.len() == 40);
        assert!(report.log_commit_latency.mean() > 0.0);
    }

    #[test]
    fn first_divergence_names_exactly_the_perturbed_member() {
        use crate::alert::AlertKind;
        type Perturb = fn(&mut MonitorReport, &mut GroundTruth);
        let table: [(&str, Perturb); 7] = [
            ("ground_truth", |_, t| t.chain_forks += 1),
            ("alerts", |r, _| {
                let kind = AlertKind::RequestTampering;
                r.alerts
                    .push(Alert::new(kind, CorrelationId(3), 7, "planted"));
            }),
            ("requests_completed", |r, _| r.requests_completed += 1),
            ("entries_logged", |r, _| r.entries_logged += 1),
            ("groups_completed", |r, _| r.groups_completed += 1),
            ("txs_committed", |r, _| r.txs_committed += 1),
            ("finished_at", |r, _| r.finished_at += 1),
        ];
        let (a, a_truth) = run_monitor(&small_config(), &mut NoAdversary);
        for (member, perturb) in table {
            let (mut b, mut b_truth) = run_monitor(&small_config(), &mut NoAdversary);
            assert_eq!(first_divergence(&a, &a_truth, &b, &b_truth), None);
            perturb(&mut b, &mut b_truth);
            let found = first_divergence(&a, &a_truth, &b, &b_truth).expect(member);
            assert_eq!(found.member, member, "{found}");
            assert_ne!(found.left, found.right, "{found}");
        }
        // Members outside the bar are not its business.
        let (mut b, b_truth) = run_monitor(&small_config(), &mut NoAdversary);
        b.crash_restarts += 1;
        b.retries_total += 1;
        assert_eq!(first_divergence(&a, &a_truth, &b, &b_truth), None);
    }

    #[test]
    fn runs_are_deterministic() {
        let (a, _) = run_monitor(&small_config(), &mut NoAdversary);
        let (b, _) = run_monitor(&small_config(), &mut NoAdversary);
        assert_eq!(a.requests_completed, b.requests_completed);
        assert_eq!(a.entries_logged, b.entries_logged);
        assert_eq!(a.blocks_mined, b.blocks_mined);
        assert_eq!(a.e2e_latency.mean(), b.e2e_latency.mean());
    }

    #[test]
    fn monitoring_off_still_serves_requests() {
        let config = MonitorConfig {
            monitoring_enabled: false,
            analyser_enabled: false,
            ..small_config()
        };
        let (report, _) = run_monitor(&config, &mut NoAdversary);
        assert_eq!(report.requests_completed, 40);
        assert_eq!(report.entries_logged, 0);
        assert_eq!(report.blocks_mined, 0);
        assert!(report.alerts.is_empty());
    }

    #[test]
    fn deny_biased_policy_splits_grants() {
        let (report, _) = run_monitor(&small_config(), &mut NoAdversary);
        // The default policy permits doctors and daytime nurse reads; the
        // Zipf workload guarantees both outcomes occur.
        assert!(report.granted > 0);
        assert!(report.refused > 0);
        assert_eq!(report.granted + report.refused, 40);
    }

    #[test]
    fn batching_reduces_tx_count() {
        let mut unbatched = small_config();
        unbatched.li_batch_size = 1;
        let mut batched = small_config();
        batched.li_batch_size = 16;
        let (r1, _) = run_monitor(&unbatched, &mut NoAdversary);
        let (r16, _) = run_monitor(&batched, &mut NoAdversary);
        assert_eq!(r1.entries_logged, r16.entries_logged);
        assert!(
            r16.txs_committed < r1.txs_committed,
            "batched {} vs unbatched {}",
            r16.txs_committed,
            r1.txs_committed
        );
    }

    #[test]
    fn larger_block_interval_raises_commit_latency() {
        let mut fast = small_config();
        fast.block_interval = 100 * MILLIS;
        let mut slow = small_config();
        slow.block_interval = 2 * SECONDS;
        slow.group_timeout = 8 * SECONDS;
        let (rf, _) = run_monitor(&fast, &mut NoAdversary);
        let (rs, _) = run_monitor(&slow, &mut NoAdversary);
        assert!(
            rs.log_commit_latency.mean() > rf.log_commit_latency.mean(),
            "slow {} vs fast {}",
            rs.log_commit_latency.mean(),
            rf.log_commit_latency.mean()
        );
    }
}
