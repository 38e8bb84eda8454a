//! Failure minimisation: shrink an oracle-violating case to a minimal
//! reproduction and print it as compilable Rust.
//!
//! [`shrink`] is a greedy fixpoint loop: it repeatedly tries removing
//! one scenario ingredient at a time (the overload profile, a script
//! action, a workload phase, the fault plan or one of its
//! links/partitions, the attack campaign, half the request volume) and
//! keeps any removal under which the supplied predicate still fails. The
//! result is a case where every remaining ingredient is load-bearing —
//! drop any one and the violation disappears.
//!
//! [`render_rust`] turns a case into a self-contained Rust snippet that
//! rebuilds the exact `ScenarioSpec` and adversary, so a fuzz failure
//! pastes straight into a regression test.

use crate::gen::{AttackPlan, FuzzCase};
use drams_core::scenario::{CrashTarget, LoadProfile, ScenarioSpec, ScriptedAction};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Shrinks `case` to a locally-minimal failing case: the returned case
/// still satisfies `still_fails`, and no single simplification step
/// (drop an action, drop a phase, drop the campaign, halve the load)
/// preserves the failure.
///
/// `still_fails` is typically `|c| !run_case(c).violations.is_empty()`;
/// it is re-run once per candidate, so shrinking a case with `n` script
/// actions costs `O(n²)` scenario executions in the worst case.
pub fn shrink<F: Fn(&FuzzCase) -> bool>(case: &FuzzCase, still_fails: F) -> FuzzCase {
    let mut best = case.clone();
    loop {
        let mut improved = false;

        // Try stripping the overload profile first: it multiplies the
        // request volume and arms every bounded-state mechanism, so a
        // violation that survives without it shrinks far faster.
        if !best.spec.load.is_empty() {
            let mut candidate = best.clone();
            candidate.spec.load = LoadProfile::default();
            if still_fails(&candidate) {
                best = candidate;
                continue;
            }
        }

        // Try dropping each script action, shortest-lived candidate
        // first (indices re-checked every pass because earlier drops
        // shift them).
        for i in 0..best.spec.script.len() {
            let mut candidate = best.clone();
            candidate.spec.script.remove(i);
            if still_fails(&candidate) {
                best = candidate;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }

        // Try dropping each workload phase.
        for i in 0..best.spec.phases.len() {
            let mut candidate = best.clone();
            candidate.spec.phases.remove(i);
            if still_fails(&candidate) {
                best = candidate;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }

        // Try dropping the network fault plan (and then each of its
        // links / partitions individually).
        if !best.spec.faults.is_empty() {
            let mut candidate = best.clone();
            candidate.spec.faults = Default::default();
            if still_fails(&candidate) {
                best = candidate;
                continue;
            }
            for i in 0..best.spec.faults.links.len() {
                let mut candidate = best.clone();
                candidate.spec.faults.links.remove(i);
                if still_fails(&candidate) {
                    best = candidate;
                    improved = true;
                    break;
                }
            }
            if improved {
                continue;
            }
            for i in 0..best.spec.faults.partitions.len() {
                let mut candidate = best.clone();
                candidate.spec.faults.partitions.remove(i);
                if still_fails(&candidate) {
                    best = candidate;
                    improved = true;
                    break;
                }
            }
            if improved {
                continue;
            }
        }

        // Try disarming the campaign entirely.
        if best.plan != AttackPlan::Honest {
            let mut candidate = best.clone();
            candidate.plan = AttackPlan::Honest;
            if still_fails(&candidate) {
                best = candidate;
                continue;
            }
        }

        // Try halving the request volume (floor 10 keeps the scenario
        // meaningful).
        if best.spec.config.total_requests >= 20 {
            let mut candidate = best.clone();
            candidate.spec.config.total_requests /= 2;
            if still_fails(&candidate) {
                best = candidate;
                continue;
            }
        }

        return best;
    }
}

fn render_action(action: &ScriptedAction) -> String {
    match action {
        ScriptedAction::PublishPolicy { at, .. } => format!(
            "ScriptedAction::PublishPolicy {{ at: {at}, policy: drams_fuzz::strict_policy() }}"
        ),
        ScriptedAction::RollbackPolicy { at, version } => {
            format!("ScriptedAction::RollbackPolicy {{ at: {at}, version: {version} }}")
        }
        ScriptedAction::TenantJoin {
            at,
            cloud,
            services,
        } => format!(
            "ScriptedAction::TenantJoin {{ at: {at}, cloud: CloudId({}), services: {services} }}",
            cloud.0
        ),
        ScriptedAction::TenantLeave { at, tenant } => format!(
            "ScriptedAction::TenantLeave {{ at: {at}, tenant: TenantId({}) }}",
            tenant.0
        ),
        ScriptedAction::StallLi { at, until, tenant } => format!(
            "ScriptedAction::StallLi {{ at: {at}, until: {until}, tenant: TenantId({}) }}",
            tenant.0
        ),
        ScriptedAction::SilencePdp { at, until, cloud } => format!(
            "ScriptedAction::SilencePdp {{ at: {at}, until: {until}, cloud: CloudId({}) }}",
            cloud.0
        ),
        ScriptedAction::CrashRestart { at, target } => {
            let target = match target {
                CrashTarget::ChainNode => "CrashTarget::ChainNode".to_string(),
                CrashTarget::Li(t) => format!("CrashTarget::Li(TenantId({}))", t.0),
                CrashTarget::Pdp(c) => format!("CrashTarget::Pdp(CloudId({}))", c.0),
                CrashTarget::Analyser => "CrashTarget::Analyser".to_string(),
            };
            format!("ScriptedAction::CrashRestart {{ at: {at}, target: {target} }}")
        }
        ScriptedAction::ForkChain { at, depth } => {
            format!("ScriptedAction::ForkChain {{ at: {at}, depth: {depth} }}")
        }
        ScriptedAction::EquivocateBlock { at } => {
            format!("ScriptedAction::EquivocateBlock {{ at: {at} }}")
        }
        ScriptedAction::InvalidSignatureBlock { at } => {
            format!("ScriptedAction::InvalidSignatureBlock {{ at: {at} }}")
        }
        ScriptedAction::WithholdTx { at } => {
            format!("ScriptedAction::WithholdTx {{ at: {at} }}")
        }
    }
}

fn render_site(site: drams_faas::fault::Site) -> String {
    match site {
        drams_faas::fault::Site::Cloud(c) => format!("Site::Cloud(CloudId({}))", c.0),
        drams_faas::fault::Site::Infra => "Site::Infra".to_string(),
    }
}

fn render_site_opt(site: Option<drams_faas::fault::Site>) -> String {
    site.map_or_else(
        || "None".to_string(),
        |s| format!("Some({})", render_site(s)),
    )
}

fn render_plan(plan: &AttackPlan) -> String {
    match plan {
        AttackPlan::Honest => "AttackPlan::Honest".to_string(),
        AttackPlan::Campaign {
            kind,
            permille,
            from,
            until,
            adversary_seed,
        } => format!(
            "AttackPlan::Campaign {{ kind: ThreatKind::{kind:?}, permille: {permille}, \
             from: {from}, until: {until}, adversary_seed: {adversary_seed} }}"
        ),
    }
}

/// Every name a rendered case can use, by the path it is imported from,
/// in the order the `use` lines are printed.
const IMPORTS: &[(&str, &[&str])] = &[
    ("drams_attack", &["ThreatKind"]),
    (
        "drams_core::scenario",
        &[
            "run_scenario",
            "CrashTarget",
            "DiurnalBand",
            "FlashCrowd",
            "LoadProfile",
            "Phase",
            "PdpPlacement",
            "ScenarioSpec",
            "ScriptedAction",
        ],
    ),
    ("drams_core::monitor", &["MonitorConfig"]),
    (
        "drams_faas::model",
        &["CloudId", "FederationSpec", "TenantId"],
    ),
    ("drams_fuzz", &["AttackPlan"]),
    (
        "drams_faas::fault",
        &["FaultPlan", "LinkFault", "PartitionWindow", "Site"],
    ),
];

/// Renders `case` as a compilable Rust snippet reproducing the exact
/// scenario and adversary. Paste it into a test, run it, and the same
/// oracle violation replays deterministically. It imports exactly the
/// names its body uses, so it compiles without an unused import.
#[must_use]
pub fn render_rust(case: &FuzzCase) -> String {
    let spec: &ScenarioSpec = &case.spec;
    let config = &spec.config;
    // The generator only builds symmetric(c, 2, 2) federations; recover
    // the cloud count from the tenant count.
    let clouds = (config.federation.tenant_count() / 2).max(1);
    let mut out = String::new();
    let _ = writeln!(out, "let config = MonitorConfig {{");
    let _ = writeln!(
        out,
        "    federation: FederationSpec::symmetric({clouds}, 2, 2),"
    );
    let _ = writeln!(out, "    total_requests: {},", config.total_requests);
    let _ = writeln!(
        out,
        "    request_rate_per_sec: {:.1},",
        config.request_rate_per_sec
    );
    let _ = writeln!(out, "    seed: {},", config.seed);
    let _ = writeln!(out, "    ..MonitorConfig::default()");
    let _ = writeln!(out, "}};");
    let _ = writeln!(out, "let spec = ScenarioSpec {{");
    let _ = writeln!(out, "    name: {:?}.to_string(),", spec.name);
    let _ = writeln!(out, "    config,");
    if spec.phases.is_empty() {
        let _ = writeln!(out, "    phases: vec![],");
    } else {
        let _ = writeln!(out, "    phases: vec![");
        for phase in &spec.phases {
            let _ = writeln!(
                out,
                "        Phase {{ start: {}, rate_per_sec: {:.1} }},",
                phase.start, phase.rate_per_sec
            );
        }
        let _ = writeln!(out, "    ],");
    }
    let _ = writeln!(out, "    placement: PdpPlacement::{:?},", spec.placement);
    if spec.script.is_empty() {
        let _ = writeln!(out, "    script: vec![],");
    } else {
        let _ = writeln!(out, "    script: vec![");
        for action in &spec.script {
            let _ = writeln!(out, "        {},", render_action(action));
        }
        let _ = writeln!(out, "    ],");
    }
    if spec.faults.is_empty() {
        let _ = writeln!(out, "    faults: Default::default(),");
    } else {
        let _ = writeln!(out, "    faults: FaultPlan {{");
        let _ = writeln!(out, "        links: vec![");
        for l in &spec.faults.links {
            let _ = writeln!(
                out,
                "            LinkFault {{ from: {}, to: {}, drop_permille: {}, \
                 duplicate_permille: {}, reorder_permille: {}, reorder_spread: {}, \
                 delay: {}, jitter: {}, active_from: {}, active_until: {} }},",
                render_site_opt(l.from),
                render_site_opt(l.to),
                l.drop_permille,
                l.duplicate_permille,
                l.reorder_permille,
                l.reorder_spread,
                l.delay,
                l.jitter,
                l.active_from,
                l.active_until
            );
        }
        let _ = writeln!(out, "        ],");
        let _ = writeln!(out, "        partitions: vec![");
        for p in &spec.faults.partitions {
            let _ = writeln!(
                out,
                "            PartitionWindow {{ a: {}, b: {}, from: {}, until: {} }},",
                render_site(p.a),
                render_site(p.b),
                p.from,
                p.until
            );
        }
        let _ = writeln!(out, "        ],");
        let _ = writeln!(out, "    }},");
    }
    if spec.load.is_empty() {
        let _ = writeln!(out, "    load: LoadProfile::default(),");
    } else {
        let load = &spec.load;
        let _ = writeln!(out, "    load: LoadProfile {{");
        let _ = writeln!(out, "        population: {},", load.population);
        let _ = writeln!(out, "        zipf_exponent: {:?},", load.zipf_exponent);
        let _ = writeln!(out, "        diurnal: vec![");
        for band in &load.diurnal {
            let _ = writeln!(
                out,
                "            DiurnalBand {{ start: {}, multiplier_permille: {} }},",
                band.start, band.multiplier_permille
            );
        }
        let _ = writeln!(out, "        ],");
        let _ = writeln!(out, "        spikes: vec![");
        for spike in &load.spikes {
            let _ = writeln!(
                out,
                "            FlashCrowd {{ from: {}, until: {}, multiplier_permille: {} }},",
                spike.from, spike.until, spike.multiplier_permille
            );
        }
        let _ = writeln!(out, "        ],");
        let _ = writeln!(out, "        pep_inflight_cap: {},", load.pep_inflight_cap);
        let _ = writeln!(out, "        li_resident_cap: {},", load.li_resident_cap);
        let _ = writeln!(
            out,
            "        idempotency_retention: {},",
            load.idempotency_retention
        );
        let _ = writeln!(
            out,
            "        analyser_retire_lag: {},",
            load.analyser_retire_lag
        );
        let _ = writeln!(
            out,
            "        policy_history_retention: {},",
            load.policy_history_retention
        );
        let _ = writeln!(
            out,
            "        chain_compact_interval: {},",
            load.chain_compact_interval
        );
        let _ = writeln!(out, "    }},");
    }
    let _ = writeln!(out, "}};");
    let _ = writeln!(out, "let plan = {};", render_plan(&case.plan));
    let _ = writeln!(out, "let mut adversary = plan.build();");
    let _ = writeln!(
        out,
        "let (report, truth) = run_scenario(&spec, &mut adversary);"
    );
    let used: BTreeSet<&str> = out
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .collect();
    let mut rust = format!("// Minimal reproduction of fuzz seed {}.\n", case.seed);
    for (path, names) in IMPORTS {
        let names: Vec<&str> = names.iter().copied().filter(|n| used.contains(n)).collect();
        match names.as_slice() {
            [] => {}
            [name] => {
                let _ = writeln!(rust, "use {path}::{name};");
            }
            _ => {
                let _ = writeln!(rust, "use {path}::{{{}}};", names.join(", "));
            }
        }
    }
    rust.push('\n');
    rust + &out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    /// Synthetic predicate: "fails" iff the script still contains a
    /// crash-restart AND the campaign is armed. The shrinker must strip
    /// everything else and nothing more — no scenario runs needed.
    #[test]
    fn shrinks_to_exactly_the_load_bearing_ingredients() {
        let case = generate(15); // drop-log campaign + crash + churn
        assert!(case.plan != AttackPlan::Honest);
        let needs = |c: &FuzzCase| {
            c.plan != AttackPlan::Honest
                && c.spec
                    .script
                    .iter()
                    .any(|a| matches!(a, ScriptedAction::CrashRestart { .. }))
        };
        assert!(needs(&case), "seed 15 must start out failing");
        let minimal = shrink(&case, needs);
        assert!(needs(&minimal));
        assert_eq!(minimal.spec.script.len(), 1, "only the crash survives");
        assert!(minimal.spec.phases.is_empty());
        assert!(minimal.spec.config.total_requests < 20);
    }

    #[test]
    fn shrinking_a_passing_case_is_identity_shaped() {
        let case = generate(13);
        let never = |_: &FuzzCase| true; // everything "fails": shrink to the bone
        let minimal = shrink(&case, never);
        assert!(minimal.spec.script.is_empty());
        assert!(minimal.spec.phases.is_empty());
        assert_eq!(minimal.plan, AttackPlan::Honest);
    }

    #[test]
    fn shrinking_strips_a_non_load_bearing_fault_plan() {
        let case = generate(16); // honest over a fault plan
        assert!(
            !case.spec.faults.is_empty(),
            "seed 16 must carry a fault plan"
        );
        let never = |_: &FuzzCase| true;
        let minimal = shrink(&case, never);
        assert!(minimal.spec.faults.is_empty());
    }

    #[test]
    fn rendered_reproduction_includes_the_fault_plan() {
        let case = generate(17); // campaign + crash-in-window + faults
        assert!(!case.spec.faults.is_empty() && case.has_crash());
        let rust = render_rust(&case);
        assert!(rust.contains("faults: FaultPlan {"));
        assert!(rust.contains("LinkFault {"));
        assert!(rust.contains("CrashTarget::"));
    }

    #[test]
    fn rendered_reproduction_imports_only_what_its_body_uses() {
        for seed in (0..crate::COVERAGE_PRELUDE).chain([92, 128, 674, 815]) {
            let rust = render_rust(&generate(seed));
            let (head, body) = rust.split_once("\n\n").expect("imports, then the body");
            let body: BTreeSet<&str> = body
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .collect();
            for line in head.lines().filter(|l| l.starts_with("use ")) {
                let names = line.trim_end_matches(';').rsplit("::").next().unwrap();
                for name in names.trim_matches(['{', '}']).split(", ") {
                    assert!(body.contains(name), "seed {seed} imports unused {name}");
                }
            }
        }
    }

    #[test]
    fn rendered_reproduction_mentions_every_ingredient() {
        let case = generate(15);
        let rust = render_rust(&case);
        assert!(rust.contains("FederationSpec::symmetric("));
        assert!(rust.contains("run_scenario(&spec, &mut adversary)"));
        assert!(rust.contains("AttackPlan::Campaign"));
        assert!(rust.contains(&format!("seed: {},", case.spec.config.seed)));
        for action in &case.spec.script {
            let rendered = render_action(action);
            assert!(rust.contains(&rendered), "missing {rendered}");
        }
    }
}
