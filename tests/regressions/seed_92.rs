//! Fuzz seed 92: a `drop-log` campaign under a load profile, on three
//! clouds. One request of one PEP lost all four observations while that
//! PEP went on to issue later requests, and the monitor contract raised
//! nothing for it before its gap rule.
//!
//! The body is `drams_fuzz::render_rust(&drams_fuzz::generate(92))`
//! as the generator produced it then, with the rendered closing
//! `run_scenario` call replaced by the case it ran, so a later change to
//! the generator cannot move the fixture.

use drams_fuzz::FuzzCase;

pub fn case() -> FuzzCase {
    use drams_attack::ThreatKind;
    use drams_core::monitor::MonitorConfig;
    use drams_core::scenario::{DiurnalBand, FlashCrowd, LoadProfile, PdpPlacement, ScenarioSpec};
    use drams_faas::model::FederationSpec;
    use drams_fuzz::AttackPlan;

    let config = MonitorConfig {
        federation: FederationSpec::symmetric(3, 2, 2),
        total_requests: 69,
        request_rate_per_sec: 158.0,
        seed: 12620761330375942588,
        ..MonitorConfig::default()
    };
    let spec = ScenarioSpec {
        name: "fuzz_92_drop-log_load".to_string(),
        config,
        phases: vec![],
        placement: PdpPlacement::Central,
        script: vec![],
        faults: Default::default(),
        load: LoadProfile {
            population: 893,
            zipf_exponent: 1.1,
            diurnal: vec![
                DiurnalBand {
                    start: 0,
                    multiplier_permille: 1000,
                },
                DiurnalBand {
                    start: 634000,
                    multiplier_permille: 612,
                },
            ],
            spikes: vec![FlashCrowd {
                from: 747000,
                until: 1514000,
                multiplier_permille: 7383,
            }],
            pep_inflight_cap: 43,
            li_resident_cap: 42,
            idempotency_retention: 16000000,
            analyser_retire_lag: 0,
            policy_history_retention: 16000000,
            chain_compact_interval: 0,
        },
    };
    let plan = AttackPlan::Campaign {
        kind: ThreatKind::DropLog,
        permille: 236,
        from: 87000,
        until: 787000,
        adversary_seed: 18049978811050444926,
    };
    FuzzCase {
        seed: 92,
        spec,
        plan,
    }
}
