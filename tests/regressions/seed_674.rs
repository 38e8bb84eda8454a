//! Fuzz seed 674: a `drop-log` campaign with a chain-node crash inside
//! its window. One request of one PEP lost all four observations while
//! that PEP went on to issue later requests, and the monitor contract
//! raised nothing for it before its gap rule.
//!
//! The body is `drams_fuzz::render_rust(&drams_fuzz::generate(674))`
//! as the generator produced it then, with the rendered closing
//! `run_scenario` call replaced by the case it ran, so a later change to
//! the generator cannot move the fixture.

use drams_fuzz::FuzzCase;

pub fn case() -> FuzzCase {
    use drams_attack::ThreatKind;
    use drams_core::monitor::MonitorConfig;
    use drams_core::scenario::{
        CrashTarget, LoadProfile, PdpPlacement, ScenarioSpec, ScriptedAction,
    };
    use drams_faas::model::FederationSpec;
    use drams_fuzz::AttackPlan;

    let config = MonitorConfig {
        federation: FederationSpec::symmetric(2, 2, 2),
        total_requests: 77,
        request_rate_per_sec: 145.0,
        seed: 15923012608379203597,
        ..MonitorConfig::default()
    };
    let spec = ScenarioSpec {
        name: "fuzz_674_drop-log_crash".to_string(),
        config,
        phases: vec![],
        placement: PdpPlacement::Central,
        script: vec![ScriptedAction::CrashRestart {
            at: 640000,
            target: CrashTarget::ChainNode,
        }],
        faults: Default::default(),
        load: LoadProfile::default(),
    };
    let plan = AttackPlan::Campaign {
        kind: ThreatKind::DropLog,
        permille: 248,
        from: 299000,
        until: 1096000,
        adversary_seed: 12321679082373555547,
    };
    FuzzCase {
        seed: 674,
        spec,
        plan,
    }
}
