//! Fuzz seed 128: a plain `drop-log` campaign on two clouds. One request
//! of one PEP lost all four observations while that PEP went on to issue
//! later requests, and the monitor contract raised nothing for it before
//! its gap rule.
//!
//! The body is `drams_fuzz::render_rust(&drams_fuzz::generate(128))`
//! as the generator produced it then, with the rendered closing
//! `run_scenario` call replaced by the case it ran, so a later change to
//! the generator cannot move the fixture.

use drams_fuzz::FuzzCase;

pub fn case() -> FuzzCase {
    use drams_attack::ThreatKind;
    use drams_core::monitor::MonitorConfig;
    use drams_core::scenario::{LoadProfile, PdpPlacement, ScenarioSpec, ScriptedAction};
    use drams_faas::model::{CloudId, FederationSpec, TenantId};
    use drams_fuzz::AttackPlan;

    let config = MonitorConfig {
        federation: FederationSpec::symmetric(2, 2, 2),
        total_requests: 85,
        request_rate_per_sec: 122.0,
        seed: 15216351185632986465,
        ..MonitorConfig::default()
    };
    let spec = ScenarioSpec {
        name: "fuzz_128_drop-log".to_string(),
        config,
        phases: vec![],
        placement: PdpPlacement::Central,
        script: vec![
            ScriptedAction::TenantLeave {
                at: 435000,
                tenant: TenantId(4),
            },
            ScriptedAction::PublishPolicy {
                at: 825000,
                policy: drams_fuzz::strict_policy(),
            },
            ScriptedAction::TenantJoin {
                at: 1190000,
                cloud: CloudId(1),
                services: 2,
            },
            ScriptedAction::RollbackPolicy {
                at: 1272000,
                version: 0,
            },
        ],
        faults: Default::default(),
        load: LoadProfile::default(),
    };
    let plan = AttackPlan::Campaign {
        kind: ThreatKind::DropLog,
        permille: 227,
        from: 180000,
        until: 1106000,
        adversary_seed: 6560093302600813526,
    };
    FuzzCase {
        seed: 128,
        spec,
        plan,
    }
}
