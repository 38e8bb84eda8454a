//! Deterministic scenario generation: one seed, one fuzz case.
//!
//! [`generate`] maps a `u64` seed to a [`FuzzCase`] — a complete
//! [`ScenarioSpec`] plus an [`AttackPlan`] describing what (if anything)
//! attacks the run. The mapping is pure: the same seed always yields the
//! same case, so a failing seed *is* the reproduction. Seeds below
//! [`COVERAGE_PRELUDE`] are directed — they enumerate every attack
//! family once, so any budget that includes the prelude exercises the
//! whole threat matrix; seeds beyond it draw the class at random.

use drams_attack::{CompositeAdversary, FaultWindow, ScriptedAdversary, ThreatKind};
use drams_core::monitor::MonitorConfig;
use drams_core::scenario::{
    CrashTarget, DiurnalBand, FlashCrowd, LoadProfile, PdpPlacement, Phase, ScenarioSpec,
    ScriptedAction, MIN_RETENTION,
};
use drams_faas::des::{SimTime, MILLIS};
use drams_faas::fault::{FaultPlan, LinkFault, PartitionWindow, Site};
use drams_faas::model::{CloudId, FederationSpec, TenantId};
use drams_policy::attr::{AttributeId, Category};
use drams_policy::combining::CombiningAlg;
use drams_policy::decision::Effect;
use drams_policy::expr::Expr;
use drams_policy::policy::{Policy, PolicySet};
use drams_policy::rule::Rule;
use drams_policy::target::Target;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeds below this value enumerate every attack family deterministically
/// (4 chain attacks, 9 campaign threats, honest, honest+crash,
/// campaign+crash, honest+faults, campaign+crash+faults, honest under an
/// overload profile, and a campaign with an in-window crash under an
/// overload profile); any seed budget containing `0..COVERAGE_PRELUDE`
/// covers the whole threat matrix — with and without a network fault
/// plan or a population/overload profile underneath.
pub const COVERAGE_PRELUDE: u64 = 20;

/// The Byzantine chain-node attack families (script-injected, as opposed
/// to the hook-injected [`ThreatKind`] campaigns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainAttackKind {
    /// Re-mine a suffix of the chain on a side branch and force a reorg.
    Fork,
    /// Mine two sibling blocks at the same height.
    Equivocate,
    /// Inject a block carrying a forged transaction signature.
    InvalidSignature,
    /// Silently discard a pending log transaction from the mempool.
    Withhold,
}

impl ChainAttackKind {
    /// All four families.
    pub const ALL: [ChainAttackKind; 4] = [
        ChainAttackKind::Fork,
        ChainAttackKind::Equivocate,
        ChainAttackKind::InvalidSignature,
        ChainAttackKind::Withhold,
    ];

    /// Short name for tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ChainAttackKind::Fork => "fork-chain",
            ChainAttackKind::Equivocate => "equivocate-block",
            ChainAttackKind::InvalidSignature => "invalid-sig-block",
            ChainAttackKind::Withhold => "withhold-tx",
        }
    }
}

/// What attacks a generated scenario, if anything.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackPlan {
    /// No adversary hooks; the scenario may still carry churn, policy
    /// flips, phases and crash-restarts. Chain-level attacks (which ride
    /// in the script, not in the adversary) also use this plan.
    Honest,
    /// A windowed [`ScriptedAdversary`] campaign: `kind` fires with
    /// `permille`/1000 per-event probability inside `[from, until)`.
    Campaign {
        /// The mounted threat.
        kind: ThreatKind,
        /// Per-event firing probability in permille (integers render and
        /// compare exactly; floats do not).
        permille: u32,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// The adversary's RNG seed.
        adversary_seed: u64,
    },
}

impl AttackPlan {
    /// Builds the adversary this plan describes: an empty composite for
    /// the honest plan, else one windowed campaign. Called once per run
    /// — the crash-twin oracle builds it twice from the same plan so
    /// both runs see an identical hook sequence.
    #[must_use]
    pub fn build(&self) -> CompositeAdversary {
        match self {
            AttackPlan::Honest => CompositeAdversary::new(),
            AttackPlan::Campaign {
                kind,
                permille,
                from,
                until,
                adversary_seed,
            } => CompositeAdversary::new().with_part(
                ScriptedAdversary::new(*kind, f64::from(*permille) / 1000.0, *adversary_seed)
                    .within(FaultWindow::new(*from, *until)),
            ),
        }
    }

    /// The campaign's threat kind, if this plan is a campaign.
    #[must_use]
    pub(crate) fn campaign_kind(&self) -> Option<ThreatKind> {
        match self {
            AttackPlan::Honest => None,
            AttackPlan::Campaign { kind, .. } => Some(*kind),
        }
    }
}

/// One generated fuzz case: the scenario and its attack plan.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The generating seed (the reproduction handle).
    pub seed: u64,
    /// The scenario to run.
    pub spec: ScenarioSpec,
    /// What attacks it.
    pub plan: AttackPlan,
}

impl FuzzCase {
    /// The attack families this case exercises, by short name — the
    /// campaign threat and/or any chain-attack script actions.
    #[must_use]
    pub fn families(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if let Some(kind) = self.plan.campaign_kind() {
            out.push(kind.name());
        }
        for action in &self.spec.script {
            match action {
                ScriptedAction::ForkChain { .. } => out.push(ChainAttackKind::Fork.name()),
                ScriptedAction::EquivocateBlock { .. } => {
                    out.push(ChainAttackKind::Equivocate.name());
                }
                ScriptedAction::InvalidSignatureBlock { .. } => {
                    out.push(ChainAttackKind::InvalidSignature.name());
                }
                ScriptedAction::WithholdTx { .. } => out.push(ChainAttackKind::Withhold.name()),
                _ => {}
            }
        }
        out
    }

    /// Whether the script carries a crash-restart point.
    #[must_use]
    pub(crate) fn has_crash(&self) -> bool {
        self.spec
            .script
            .iter()
            .any(|a| matches!(a, ScriptedAction::CrashRestart { .. }))
    }
}

/// The stricter policy the generator publishes mid-run (only doctors,
/// nothing else), and the one the E10 `policy_flip` scenario publishes.
#[must_use]
pub fn strict_policy() -> PolicySet {
    PolicySet::builder("fuzz-strict-root", CombiningAlg::DenyUnlessPermit)
        .policy(
            Policy::builder("doctors-only", CombiningAlg::PermitOverrides)
                .rule(
                    Rule::builder("doctors", Effect::Permit)
                        .target(Target::expr(Expr::equal(
                            Expr::attr(AttributeId::new(Category::Subject, "role")),
                            Expr::lit("doctor"),
                        )))
                        .build(),
                )
                .build(),
        )
        .build()
}

/// The scenario classes the generator draws from. `faults` layers a
/// bounded network fault plan underneath (honest runs must mask it
/// without alerting; campaigns must still be detected through it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Honest {
        crash: bool,
        faults: bool,
        overload: bool,
    },
    Campaign {
        kind: ThreatKind,
        crash: bool,
        faults: bool,
        overload: bool,
    },
    Chain(ChainAttackKind),
}

impl Class {
    fn overload(self) -> bool {
        match self {
            Class::Honest { overload, .. } | Class::Campaign { overload, .. } => overload,
            Class::Chain(_) => false,
        }
    }
}

fn ms(v: u64) -> SimTime {
    v * MILLIS
}

/// Generates the case for `seed`. Pure and total: every seed yields a
/// runnable case whose oracle expectations are sound by construction
/// (e.g. chain attacks are never combined with a chain-node crash, and
/// fault classes that legitimately alert are never labelled honest).
#[must_use]
pub fn generate(seed: u64) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed);

    let class = if seed < COVERAGE_PRELUDE {
        directed_class(seed)
    } else {
        random_class(&mut rng)
    };

    // --- base deployment ---------------------------------------------------
    let clouds = if rng.gen_bool(0.25) { 3 } else { 2 };
    let config = MonitorConfig {
        federation: FederationSpec::symmetric(clouds, 2, 2),
        total_requests: rng.gen_range(40..=100),
        request_rate_per_sec: rng.gen_range(80..=300) as f64,
        seed: rng.gen_range(0..u64::MAX),
        ..MonitorConfig::default()
    };
    let placement = if rng.gen_bool(0.25) {
        PdpPlacement::PerCloud
    } else {
        PdpPlacement::Central
    };

    // --- phased load -------------------------------------------------------
    let mut phases = Vec::new();
    if rng.gen_bool(0.5) {
        phases.push(Phase {
            start: 0,
            rate_per_sec: config.request_rate_per_sec,
        });
        let extra = rng.gen_range(1..=2);
        let mut start = 0u64;
        for _ in 0..extra {
            start += rng.gen_range(300u64..1200);
            phases.push(Phase {
                start: ms(start),
                rate_per_sec: rng.gen_range(50..=500) as f64,
            });
        }
    }

    // --- benign churn and policy administration ----------------------------
    let member_tenants = config.federation.tenant_count() as u32;
    let mut script: Vec<ScriptedAction> = Vec::new();
    if rng.gen_bool(0.35) {
        script.push(ScriptedAction::TenantJoin {
            at: ms(rng.gen_range(200..1500)),
            cloud: CloudId(rng.gen_range(0..u64::from(clouds)) as u32),
            services: 2,
        });
    }
    if rng.gen_bool(0.25) {
        script.push(ScriptedAction::TenantLeave {
            at: ms(rng.gen_range(400..1800)),
            tenant: TenantId(rng.gen_range(1..=u64::from(member_tenants)) as u32),
        });
    }
    if rng.gen_bool(0.3) {
        let at = rng.gen_range(300u64..900);
        script.push(ScriptedAction::PublishPolicy {
            at: ms(at),
            policy: strict_policy(),
        });
        if rng.gen_bool(0.5) {
            script.push(ScriptedAction::RollbackPolicy {
                at: ms(at + rng.gen_range(200u64..800)),
                version: 0,
            });
        }
    }

    // --- class-specific content --------------------------------------------
    let mut faults = FaultPlan::default();
    let plan = match class {
        Class::Honest {
            crash,
            faults: with_faults,
            ..
        } => {
            if crash {
                script.push(crash_action(&mut rng, clouds, None));
            }
            if with_faults {
                faults = fault_plan(&mut rng, clouds);
            }
            AttackPlan::Honest
        }
        Class::Campaign {
            kind,
            crash,
            faults: with_faults,
            ..
        } => {
            // The policy swap happens at deployment time, so its window
            // must cover virtual time 0 to fire at all.
            let from_ms = if kind == ThreatKind::SwapPolicy {
                0
            } else {
                rng.gen_range(50u64..400)
            };
            let until_ms = from_ms + rng.gen_range(600u64..1500);
            if crash {
                // The crash lands *inside* the active attack window: the
                // hardest spot for the twin oracle, since recovery has to
                // preserve mid-campaign state byte for byte.
                script.push(crash_action(&mut rng, clouds, Some((from_ms, until_ms))));
            }
            if with_faults {
                faults = fault_plan(&mut rng, clouds);
            }
            AttackPlan::Campaign {
                kind,
                permille: rng.gen_range(80..=250),
                from: ms(from_ms),
                until: ms(until_ms),
                adversary_seed: rng.gen_range(0..u64::MAX),
            }
        }
        Class::Chain(kind) => {
            script.push(match kind {
                ChainAttackKind::Fork => ScriptedAction::ForkChain {
                    at: ms(rng.gen_range(700..1600)),
                    depth: rng.gen_range(1..=3),
                },
                ChainAttackKind::Equivocate => ScriptedAction::EquivocateBlock {
                    at: ms(rng.gen_range(600..1600)),
                },
                ChainAttackKind::InvalidSignature => ScriptedAction::InvalidSignatureBlock {
                    at: ms(rng.gen_range(600..1600)),
                },
                // Early enough that log transactions are still flowing
                // through the mempool — a withhold with nothing pending
                // is a no-op (and labelled as such in the ground truth).
                ChainAttackKind::Withhold => ScriptedAction::WithholdTx {
                    at: ms(rng.gen_range(300..900)),
                },
            });
            AttackPlan::Honest
        }
    };

    // --- overload profile ---------------------------------------------------
    // Drawn only for overload classes, so every other seed's RNG
    // sequence (and thus its generated case) is untouched.
    let load = if class.overload() {
        load_profile(&mut rng)
    } else {
        LoadProfile::default()
    };

    script.sort_by_key(ScriptedAction::at);
    // Put the class into the seed's name so shrunk reproductions and
    // trajectory tables stay self-describing.
    let label = match class {
        Class::Honest {
            crash,
            faults,
            overload,
        } => format!(
            "honest{}{}{}",
            if crash { "_crash" } else { "" },
            if faults { "_faults" } else { "" },
            if overload { "_load" } else { "" }
        ),
        Class::Campaign {
            kind,
            crash,
            faults,
            overload,
        } => format!(
            "{}{}{}{}",
            kind.name(),
            if crash { "_crash" } else { "" },
            if faults { "_faults" } else { "" },
            if overload { "_load" } else { "" }
        ),
        Class::Chain(kind) => kind.name().to_string(),
    };
    FuzzCase {
        seed,
        spec: ScenarioSpec {
            name: format!("fuzz_{seed}_{label}"),
            config,
            phases,
            placement,
            script,
            faults,
            load,
        },
        plan,
    }
}

/// A bounded overload profile: a Zipf-skewed virtual population, one
/// diurnal step, one in-window flash-crowd spike, and small caps on
/// every bounded pool. Every knob stays inside the clamp bands of
/// [`LoadProfile::clamped`], and retention windows only ever use
/// [`MIN_RETENTION`] — eviction can never race the retry budget, so an
/// honest overloaded run must still end with zero alerts.
fn load_profile(rng: &mut StdRng) -> LoadProfile {
    let spike_from = rng.gen_range(200u64..900);
    let step_at = rng.gen_range(300u64..1000);
    LoadProfile {
        population: rng.gen_range(200..=2000),
        zipf_exponent: f64::from(rng.gen_range(6u32..=14)) / 10.0,
        diurnal: vec![
            DiurnalBand {
                start: 0,
                multiplier_permille: 1000,
            },
            DiurnalBand {
                start: ms(step_at),
                multiplier_permille: rng.gen_range(500..=2000),
            },
        ],
        spikes: vec![FlashCrowd {
            from: ms(spike_from),
            until: ms(spike_from + rng.gen_range(200u64..=800)),
            multiplier_permille: rng.gen_range(2000..=8000),
        }],
        pep_inflight_cap: rng.gen_range(8..=64),
        li_resident_cap: rng.gen_range(32..=256),
        idempotency_retention: if rng.gen_bool(0.5) { MIN_RETENTION } else { 0 },
        analyser_retire_lag: if rng.gen_bool(0.5) { MIN_RETENTION } else { 0 },
        policy_history_retention: if rng.gen_bool(0.5) { MIN_RETENTION } else { 0 },
        // Read by nothing since the chain journal stopped being
        // compacted; still drawn, so every later draw (and E12's cases)
        // stays what it was.
        chain_compact_interval: if rng.gen_bool(0.5) {
            rng.gen_range(4..=16)
        } else {
            0
        },
    }
}

/// The deterministic coverage prelude: seeds `0..=3` mount the four
/// chain-attack families, `4..=12` the nine campaign threats, `13` is
/// honest, `14` honest with a chain-node crash, `15` a drop-log campaign
/// with a crash inside its attack window, `16` honest over a network
/// fault plan, `17` a tamper-request campaign with both a fault plan
/// underneath and a crash inside the attack window, `18` honest under an
/// overload profile (shedding must not alert), `19` a drop-log campaign
/// with an in-window crash under an overload profile.
fn directed_class(seed: u64) -> Class {
    match seed {
        0..=3 => Class::Chain(ChainAttackKind::ALL[seed as usize]),
        4..=12 => Class::Campaign {
            kind: ThreatKind::ALL[(seed - 4) as usize],
            crash: false,
            faults: false,
            overload: false,
        },
        13 => Class::Honest {
            crash: false,
            faults: false,
            overload: false,
        },
        14 => Class::Honest {
            crash: true,
            faults: false,
            overload: false,
        },
        15 => Class::Campaign {
            kind: ThreatKind::DropLog,
            crash: true,
            faults: false,
            overload: false,
        },
        16 => Class::Honest {
            crash: false,
            faults: true,
            overload: false,
        },
        17 => Class::Campaign {
            kind: ThreatKind::TamperRequest,
            crash: true,
            faults: true,
            overload: false,
        },
        18 => Class::Honest {
            crash: false,
            faults: false,
            overload: true,
        },
        _ => Class::Campaign {
            kind: ThreatKind::DropLog,
            crash: true,
            faults: false,
            overload: true,
        },
    }
}

fn random_class(rng: &mut StdRng) -> Class {
    match rng.gen_range(0..10u32) {
        0..=2 => Class::Honest {
            crash: rng.gen_bool(0.4),
            faults: rng.gen_bool(0.35),
            overload: rng.gen_bool(0.2),
        },
        3..=7 => Class::Campaign {
            kind: ThreatKind::ALL[rng.gen_range(0..ThreatKind::ALL.len())],
            crash: rng.gen_bool(0.25),
            faults: rng.gen_bool(0.3),
            overload: rng.gen_bool(0.15),
        },
        _ => Class::Chain(ChainAttackKind::ALL[rng.gen_range(0..ChainAttackKind::ALL.len())]),
    }
}

/// A crash-restart of a random monitoring-plane service. Chain-attack
/// scenarios never call this ([`random_class`] keeps the classes
/// disjoint): a forked or withheld-from node's journal interplay with
/// replay is covered by dedicated tests, not left to chance labelling.
/// With `window`, the crash point lands strictly inside the campaign's
/// `[from, until)` attack window (both in milliseconds).
fn crash_action(rng: &mut StdRng, clouds: u32, window: Option<(u64, u64)>) -> ScriptedAction {
    let target = match rng.gen_range(0..5u32) {
        0 => CrashTarget::ChainNode,
        1 => CrashTarget::Li(TenantId(1)),
        2 => CrashTarget::Li(TenantId::INFRASTRUCTURE),
        3 => CrashTarget::Pdp(CloudId(rng.gen_range(0..clouds))),
        _ => CrashTarget::Analyser,
    };
    let at_ms = match window {
        Some((from, until)) => rng.gen_range(from + 1..until),
        None => rng.gen_range(300..800),
    };
    ScriptedAction::CrashRestart {
        at: ms(at_ms),
        target,
    }
}

/// A bounded network fault plan. Every knob is capped so the PEP retry
/// budget provably masks it: fault windows end by 2.5s and partitions
/// heal within 3.3s, while retransmissions keep coming for ~9s after
/// the last (≤ ~2s) arrival — so an honest run never abandons a request
/// and the oracle may demand zero alerts. Real attacks layered on top
/// must still be detected through the noise.
fn fault_plan(rng: &mut StdRng, clouds: u32) -> FaultPlan {
    let mut links = Vec::new();
    for _ in 0..rng.gen_range(1..=2u32) {
        let from_ms = rng.gen_range(0u64..800);
        links.push(LinkFault {
            // Mostly wildcard links; sometimes only one cloud's uplink.
            from: if rng.gen_bool(0.3) {
                Some(Site::Cloud(CloudId(rng.gen_range(0..clouds))))
            } else {
                None
            },
            to: None,
            drop_permille: rng.gen_range(0..=250),
            duplicate_permille: rng.gen_range(0..=200),
            reorder_permille: rng.gen_range(0..=200),
            reorder_spread: ms(rng.gen_range(1..=10)),
            delay: ms(rng.gen_range(0..=20)),
            jitter: ms(rng.gen_range(0..=10)),
            active_from: ms(from_ms),
            active_until: ms(from_ms + rng.gen_range(400u64..=1700)),
        });
    }
    let mut partitions = Vec::new();
    if rng.gen_bool(0.4) {
        let from_ms = rng.gen_range(100u64..800);
        partitions.push(PartitionWindow {
            a: Site::Cloud(CloudId(rng.gen_range(0..clouds))),
            b: Site::Infra,
            from: ms(from_ms),
            until: ms(from_ms + rng.gen_range(500u64..=2500)),
        });
    }
    FaultPlan { links, partitions }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 7, 16, 99, 1_000_003] {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.spec.name, b.spec.name);
            assert_eq!(a.spec.config.seed, b.spec.config.seed);
            assert_eq!(a.spec.config.total_requests, b.spec.config.total_requests);
            assert_eq!(a.spec.phases, b.spec.phases);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.spec.script.len(), b.spec.script.len());
        }
    }

    #[test]
    fn prelude_covers_every_family() {
        let mut families: Vec<&'static str> = Vec::new();
        for seed in 0..COVERAGE_PRELUDE {
            families.extend(generate(seed).families());
        }
        for kind in ThreatKind::ALL {
            assert!(families.contains(&kind.name()), "missing {kind}");
        }
        for kind in ChainAttackKind::ALL {
            assert!(families.contains(&kind.name()), "missing {}", kind.name());
        }
    }

    #[test]
    fn prelude_includes_crash_cases() {
        let crashes = (0..COVERAGE_PRELUDE)
            .filter(|&s| generate(s).has_crash())
            .count();
        assert!(crashes >= 2, "prelude must exercise the crash-twin oracle");
    }

    #[test]
    fn scripts_are_sorted_by_time() {
        for seed in 0..64 {
            let case = generate(seed);
            let times: Vec<_> = case.spec.script.iter().map(ScriptedAction::at).collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            assert_eq!(times, sorted, "seed {seed}");
        }
    }

    #[test]
    fn prelude_includes_fault_plan_cases() {
        let faulted: Vec<u64> = (0..COVERAGE_PRELUDE)
            .filter(|&s| !generate(s).spec.faults.is_empty())
            .collect();
        assert!(
            faulted.len() >= 2,
            "prelude must cross the fault plane with honest and attacked runs"
        );
        // Seed 17 is the hardest cross: campaign + crash inside the
        // attack window + a fault plan underneath.
        let hard = generate(17);
        assert!(!hard.spec.faults.is_empty() && hard.has_crash());
        assert!(hard.plan.campaign_kind().is_some());
    }

    #[test]
    fn campaign_crashes_land_inside_the_attack_window() {
        let mut checked = 0;
        for seed in 0..512 {
            let case = generate(seed);
            let (Some(_), true) = (case.plan.campaign_kind(), case.has_crash()) else {
                continue;
            };
            let AttackPlan::Campaign { from, until, .. } = case.plan else {
                unreachable!()
            };
            for action in &case.spec.script {
                if let ScriptedAction::CrashRestart { at, .. } = action {
                    assert!(
                        *at > from && *at < until,
                        "seed {seed}: crash at {at} outside attack window [{from}, {until})"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 10, "too few campaign+crash cases ({checked})");
    }

    #[test]
    fn generated_fault_plans_are_bounded_by_the_retry_budget() {
        // The honest-runs-stay-silent oracle clause is only sound if no
        // generated fault plan can outlast the PEP retry budget: windows
        // must close early enough that retransmissions still land.
        for seed in 0..512 {
            let case = generate(seed);
            for l in &case.spec.faults.links {
                assert!(l.drop_permille <= 250, "seed {seed}");
                assert!(l.active_until <= 2500 * MILLIS, "seed {seed}");
                assert!(l.delay + l.jitter <= 30 * MILLIS, "seed {seed}");
            }
            for p in &case.spec.faults.partitions {
                assert!(p.until - p.from <= 2500 * MILLIS, "seed {seed}");
                assert!(p.until <= 3300 * MILLIS, "seed {seed}");
            }
        }
    }

    #[test]
    fn chain_attacks_never_combine_with_crashes() {
        for seed in 0..256 {
            let case = generate(seed);
            let chain = case.spec.script.iter().any(|a| {
                matches!(
                    a,
                    ScriptedAction::ForkChain { .. }
                        | ScriptedAction::EquivocateBlock { .. }
                        | ScriptedAction::InvalidSignatureBlock { .. }
                        | ScriptedAction::WithholdTx { .. }
                )
            });
            assert!(
                !(chain && case.has_crash()),
                "seed {seed} mixes a chain attack with a crash"
            );
        }
    }
}
