//! Cross-crate integration: the full DRAMS pipeline under varied
//! configurations.

use drams::attack::{score, ScriptedAdversary, ThreatKind};
use drams::core::adversary::NoAdversary;
use drams::core::monitor::{run_monitor, MonitorConfig};
use drams::policy::attr::{AttributeId, Category};
use drams::policy::combining::CombiningAlg;
use drams::policy::decision::Effect;
use drams::policy::expr::Expr;
use drams::policy::policy::{Policy, PolicySet};
use drams::policy::rule::Rule;
use drams::policy::target::Target;
use drams_faas::des::{MILLIS, SECONDS};
use drams_faas::model::FederationSpec;
use drams_faas::pep::EnforcementBias;

fn base() -> MonitorConfig {
    MonitorConfig {
        total_requests: 60,
        request_rate_per_sec: 120.0,
        ..MonitorConfig::default()
    }
}

#[test]
fn every_request_is_fully_observed_and_committed() {
    let (report, _) = run_monitor(&base(), &mut NoAdversary);
    assert_eq!(report.requests_completed, 60);
    assert_eq!(report.entries_logged, 60 * 4);
    assert_eq!(report.groups_completed, 60);
    assert!(report.alerts.is_empty());
}

#[test]
fn scales_to_larger_federations() {
    for tenants in [1u32, 4, 8] {
        let config = MonitorConfig {
            federation: FederationSpec::symmetric(tenants, 1, 2),
            ..base()
        };
        let (report, _) = run_monitor(&config, &mut NoAdversary);
        assert_eq!(
            report.requests_completed, 60,
            "federation with {tenants} clouds"
        );
        assert_eq!(report.groups_completed, 60);
    }
}

#[test]
fn permit_biased_pep_grants_more() {
    let deny_biased = base();
    let permit_biased = MonitorConfig {
        bias: EnforcementBias::PermitBiased,
        ..base()
    };
    let (d, _) = run_monitor(&deny_biased, &mut NoAdversary);
    let (p, _) = run_monitor(&permit_biased, &mut NoAdversary);
    // With deny-unless-permit root there are no NA/Indeterminate outcomes,
    // so both biases agree here; permit-biased can never grant less.
    assert!(p.granted >= d.granted);
}

/// A `PermitOverrides` root whose only rule permits doctors: every other
/// role's request is `NotApplicable`, which the two biases enforce
/// differently.
fn doctors_only() -> PolicySet {
    let doctor = Expr::equal(
        Expr::attr(AttributeId::new(Category::Subject, "role")),
        Expr::lit("doctor"),
    );
    PolicySet::builder("root", CombiningAlg::PermitOverrides)
        .policy(
            Policy::builder("p", CombiningAlg::PermitOverrides)
                .rule(
                    Rule::builder("allow-doctors", Effect::Permit)
                        .target(Target::expr(doctor))
                        .build(),
                )
                .build(),
        )
        .build()
}

#[test]
fn enforcement_is_judged_under_the_deployment_bias() {
    for bias in [EnforcementBias::DenyBiased, EnforcementBias::PermitBiased] {
        let config = MonitorConfig {
            policy: doctors_only(),
            bias,
            ..base()
        };
        let (report, _) = run_monitor(&config, &mut NoAdversary);
        assert!(
            report.alerts.is_empty(),
            "{bias:?}: an honest run raised {:?}",
            report.alerts
        );
        let mut rogue_pep = ScriptedAdversary::new(ThreatKind::FlipEnforcement, 0.3, 11);
        let (report, truth) = run_monitor(&config, &mut rogue_pep);
        let s = score(ThreatKind::FlipEnforcement, &report, &truth);
        assert!(s.attacks > 0, "{bias:?}: the campaign flipped nothing");
        assert_eq!(s.detected, s.attacks, "{bias:?}");
        assert_eq!(s.false_positives, 0, "{bias:?}");
    }
}

#[test]
fn monitoring_overhead_on_critical_path_is_negligible() {
    // The paper's probes sit off the decision path: end-to-end latency
    // with monitoring on must be within noise of monitoring off.
    let with = base();
    let without = MonitorConfig {
        monitoring_enabled: false,
        analyser_enabled: false,
        ..base()
    };
    let (on, _) = run_monitor(&with, &mut NoAdversary);
    let (off, _) = run_monitor(&without, &mut NoAdversary);
    let overhead = on.e2e_latency.mean() / off.e2e_latency.mean();
    assert!(
        (0.9..1.1).contains(&overhead),
        "monitoring must be off the critical path, got overhead factor {overhead}"
    );
}

#[test]
fn faster_blocks_cut_detection_pipeline_latency() {
    let fast = MonitorConfig {
        block_interval: 100 * MILLIS,
        ..base()
    };
    let slow = MonitorConfig {
        block_interval: SECONDS,
        group_timeout: 4 * SECONDS,
        ..base()
    };
    let (f, _) = run_monitor(&fast, &mut NoAdversary);
    let (s, _) = run_monitor(&slow, &mut NoAdversary);
    assert!(f.log_commit_latency.mean() < s.log_commit_latency.mean());
}

#[test]
fn seeds_change_workload_but_not_correctness() {
    for seed in [1u64, 7, 123, 9999] {
        let config = MonitorConfig { seed, ..base() };
        let (report, truth) = run_monitor(&config, &mut NoAdversary);
        assert_eq!(report.requests_completed, 60, "seed {seed}");
        assert_eq!(truth.total_attacks(), 0);
        assert!(report.alerts.is_empty(), "seed {seed}: {:?}", report.alerts);
    }
}
