//! Determinism property: the fault plane must not cost replayability.
//!
//! The whole debugging story of the simulator (crash twins, shrinking,
//! the E12/E13 oracles) rests on runs being byte-identical given the
//! same seed and the same declared [`FaultPlan`] — the fault plane draws
//! from its own named RNG stream, so drops, duplicates, reorders and
//! partitions must replay exactly. This suite runs arbitrary bounded
//! fault plans (with a drop-log campaign on top, so the alert stream is
//! non-trivial) twice and requires the alert bytes, ground truth,
//! throughput counters, fault counters and finish time to match.
//!
//! [`FaultPlan`]: drams_faas::fault::FaultPlan

use drams_attack::{ScriptedAdversary, ThreatKind};
use drams_core::monitor::{first_divergence, GroundTruth, MonitorConfig, MonitorReport};
use drams_core::scenario::{run_scenario, ScenarioSpec};
use drams_faas::des::MILLIS;
use drams_faas::fault::{FaultPlan, LinkFault, PartitionWindow, Site};
use drams_faas::model::CloudId;
use proptest::prelude::*;

fn spec_with(faults: FaultPlan) -> ScenarioSpec {
    let config = MonitorConfig {
        total_requests: 40,
        request_rate_per_sec: 100.0,
        ..MonitorConfig::default()
    };
    ScenarioSpec {
        name: "prop_fault_determinism".to_string(),
        faults,
        ..ScenarioSpec::canonical(&config)
    }
}

fn run(spec: &ScenarioSpec, adversary_seed: u64) -> (MonitorReport, GroundTruth) {
    // Seed 0 = honest run: the adversary is consulted but never acts.
    let probability = if adversary_seed == 0 { 0.0 } else { 0.1 };
    let mut adversary =
        ScriptedAdversary::new(ThreatKind::DropLog, probability, adversary_seed.max(1));
    run_scenario(spec, &mut adversary)
}

/// Asserts two runs of the same spec + adversary seed are byte-identical.
fn assert_twin_runs(spec: &ScenarioSpec, adversary_seed: u64) {
    let (a, ta) = run(spec, adversary_seed);
    let (b, tb) = run(spec, adversary_seed);
    assert_eq!(first_divergence(&a, &ta, &b, &tb), None);
    assert_eq!(a.requests_issued, b.requests_issued);
    assert_eq!(a.requests_dropped, b.requests_dropped);
    assert_eq!(a.blocks_mined, b.blocks_mined);
    assert_eq!(a.retries_total, b.retries_total);
    assert_eq!(a.failovers, b.failovers);
    assert_eq!(a.breaker_trips, b.breaker_trips);
    assert_eq!(a.li_spilled, b.li_spilled);
    assert_eq!(a.li_replayed, b.li_replayed);
    assert_eq!(a.timeout_retunes, b.timeout_retunes);
    assert_eq!(a.faults.dropped, b.faults.dropped);
    assert_eq!(a.faults.duplicated, b.faults.duplicated);
    assert_eq!(a.faults.reordered, b.faults.reordered);
    assert_eq!(a.faults.delayed, b.faults.delayed);
    assert_eq!(a.faults.partition_blocked, b.faults.partition_blocked);
    let (ra, rb) = (a.e2e_latency.report(), b.e2e_latency.report());
    assert_eq!(ra.count, rb.count);
    assert_eq!(ra.retries, rb.retries);
    assert_eq!(ra.attempts, rb.attempts);
    assert_eq!(ra.p95, rb.p95);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary bounded fault plans (kept inside the retry budget, as
    /// the fuzzer's generator guarantees) replay byte-identically, with
    /// and without an attack campaign on top.
    #[test]
    fn same_seed_and_plan_is_byte_identical(
        drop_permille in 0u32..=250,
        duplicate_permille in 0u32..=300,
        reorder_permille in 0u32..=200,
        spread_ms in 1u64..=10,
        until_ms in 400u64..=1500,
        partition in 0u8..=1,
        adversary_seed in 0u64..=3,
    ) {
        let mut plan = FaultPlan {
            links: vec![LinkFault {
                drop_permille,
                duplicate_permille,
                reorder_permille,
                reorder_spread: spread_ms * MILLIS,
                active_from: 0,
                active_until: until_ms * MILLIS,
                ..LinkFault::default()
            }],
            partitions: Vec::new(),
        };
        if partition == 1 {
            plan.partitions.push(PartitionWindow {
                a: Site::Cloud(CloudId(0)),
                b: Site::Infra,
                from: 200 * MILLIS,
                until: 900 * MILLIS,
            });
        }
        assert_twin_runs(&spec_with(plan), adversary_seed);
    }
}

/// The satellite's pinned case: heavy duplication + reordering with an
/// active drop-log campaign — the nastiest ordering pressure the plan
/// generator produces — must still replay byte-identically.
#[test]
fn reorder_duplicate_faults_replay_byte_identically() {
    let plan = FaultPlan {
        links: vec![LinkFault {
            drop_permille: 150,
            duplicate_permille: 300,
            reorder_permille: 200,
            reorder_spread: 5 * MILLIS,
            active_from: 0,
            active_until: 1500 * MILLIS,
            ..LinkFault::default()
        }],
        partitions: vec![PartitionWindow {
            a: Site::Cloud(CloudId(0)),
            b: Site::Infra,
            from: 300 * MILLIS,
            until: 1000 * MILLIS,
        }],
    };
    assert_twin_runs(&spec_with(plan), 17);
}
