//! Fuzz seed 815: a `drop-log` campaign under a load profile. One request
//! of one PEP lost all four observations while that PEP went on to issue
//! later requests, and the monitor contract raised nothing for it before
//! its gap rule.
//!
//! The body is `drams_fuzz::render_rust(&drams_fuzz::generate(815))`
//! as the generator produced it then, with the rendered closing
//! `run_scenario` call replaced by the case it ran, so a later change to
//! the generator cannot move the fixture.

use drams_fuzz::FuzzCase;

pub fn case() -> FuzzCase {
    use drams_attack::ThreatKind;
    use drams_core::monitor::MonitorConfig;
    use drams_core::scenario::{
        DiurnalBand, FlashCrowd, LoadProfile, PdpPlacement, Phase, ScenarioSpec, ScriptedAction,
    };
    use drams_faas::model::{CloudId, FederationSpec};
    use drams_fuzz::AttackPlan;

    let config = MonitorConfig {
        federation: FederationSpec::symmetric(3, 2, 2),
        total_requests: 84,
        request_rate_per_sec: 274.0,
        seed: 3252601479988060636,
        ..MonitorConfig::default()
    };
    let spec = ScenarioSpec {
        name: "fuzz_815_drop-log_load".to_string(),
        config,
        phases: vec![
            Phase {
                start: 0,
                rate_per_sec: 274.0,
            },
            Phase {
                start: 904000,
                rate_per_sec: 60.0,
            },
        ],
        placement: PdpPlacement::Central,
        script: vec![ScriptedAction::TenantJoin {
            at: 1346000,
            cloud: CloudId(0),
            services: 2,
        }],
        faults: Default::default(),
        load: LoadProfile {
            population: 1174,
            zipf_exponent: 0.7,
            diurnal: vec![
                DiurnalBand {
                    start: 0,
                    multiplier_permille: 1000,
                },
                DiurnalBand {
                    start: 603000,
                    multiplier_permille: 671,
                },
            ],
            spikes: vec![FlashCrowd {
                from: 489000,
                until: 748000,
                multiplier_permille: 2761,
            }],
            pep_inflight_cap: 46,
            li_resident_cap: 133,
            idempotency_retention: 0,
            analyser_retire_lag: 0,
            policy_history_retention: 0,
            chain_compact_interval: 14,
        },
    };
    let plan = AttackPlan::Campaign {
        kind: ThreatKind::DropLog,
        permille: 205,
        from: 55000,
        until: 923000,
        adversary_seed: 10719432123043002428,
    };
    FuzzCase {
        seed: 815,
        spec,
        plan,
    }
}
