//! Transport conformance: the DES as oracle for the real wire.
//!
//! The same `ScenarioSpec` is replayed over both transport backends —
//! the in-memory DES event queue and loopback TCP, where every
//! federation-crossing message is CRC-framed, sent to the destination
//! role's validating echo endpoint and scheduled from the bytes that
//! came back. The bar is DESIGN.md invariant 9: the wire format is
//! observationally invisible — byte-identical canonical alerts,
//! identical ground truth, identical detection counters, for honest,
//! attacked and crash-restart scenarios alike.

use drams::attack::{ScriptedAdversary, ThreatKind};
use drams::core::adversary::{Adversary, NoAdversary};
use drams::core::monitor::{first_divergence, MonitorConfig};
use drams::core::scenario::{
    run_scenario, run_scenario_with_transport, CrashTarget, ScenarioSpec, ScriptedAction,
};
use drams::net::TcpTransport;
use drams_bench::scenarios;
use drams_faas::des::MILLIS;

/// Runs `spec` over both backends and asserts observational equality.
/// Returns the TCP transport's wire counters so callers can assert the
/// wire actually carried traffic.
fn assert_conformant<A: Adversary, B: Adversary>(
    spec: &ScenarioSpec,
    des_adversary: &mut A,
    tcp_adversary: &mut B,
) -> drams::net::NetStats {
    let (des, des_truth) = run_scenario(spec, des_adversary);
    let mut transport = TcpTransport::loopback();
    let (tcp, tcp_truth) = run_scenario_with_transport(spec, tcp_adversary, &mut transport);
    let stats = transport.stats();
    assert!(
        stats.frames > 0,
        "{}: the TCP run must actually cross the wire",
        spec.name
    );
    assert_eq!(
        first_divergence(&des, &des_truth, &tcp, &tcp_truth),
        None,
        "{}",
        spec.name
    );
    assert_eq!(
        des.crash_restarts, tcp.crash_restarts,
        "{}: crash_restarts",
        spec.name
    );
    assert_eq!(
        des.retries_total, tcp.retries_total,
        "{}: retries_total",
        spec.name
    );
    assert_eq!(
        des.e2e_latency.mean(),
        tcp.e2e_latency.mean(),
        "{}: e2e latency",
        spec.name
    );
    stats
}

/// The whole E10 matrix — steady state, burst + churn, policy flips, a
/// degraded LI and the per-cloud PDP federation — is byte-identical
/// over DES and loopback TCP.
#[test]
fn e10_matrix_is_identical_over_des_and_tcp() {
    for spec in scenarios::matrix() {
        assert_conformant(&spec, &mut NoAdversary, &mut NoAdversary);
    }
}

/// An attacked run: the adversary corrupts decisions, the Analyser
/// alerts — and the alert stream is byte-identical over both wires.
/// (The attack rides *inside* the services; the wire below them changes,
/// detection must not.)
#[test]
fn attacked_run_is_identical_over_des_and_tcp() {
    let config = MonitorConfig {
        total_requests: 80,
        request_rate_per_sec: 200.0,
        ..MonitorConfig::default()
    };
    let spec = ScenarioSpec {
        name: "attacked_transport".to_string(),
        ..ScenarioSpec::canonical(&config)
    };
    let (probe, _) = run_scenario(
        &spec,
        &mut ScriptedAdversary::new(ThreatKind::CorruptDecision, 0.2, 41),
    );
    assert!(
        !probe.alerts.is_empty(),
        "the attacked spec must alert for this test to bite"
    );
    let mut a = ScriptedAdversary::new(ThreatKind::CorruptDecision, 0.2, 41);
    let mut b = ScriptedAdversary::new(ThreatKind::CorruptDecision, 0.2, 41);
    assert_conformant(&spec, &mut a, &mut b);
}

/// A crash-restart run: a PDP dies mid-scenario. Over TCP this kills
/// the slot's real endpoint — the transport connects to a fresh one —
/// and the run still converges to the DES twin byte for byte.
#[test]
fn crash_restart_run_is_identical_over_des_and_tcp() {
    let config = MonitorConfig {
        total_requests: 80,
        request_rate_per_sec: 200.0,
        ..MonitorConfig::default()
    };
    let spec = ScenarioSpec {
        name: "crash_pdp_transport".to_string(),
        script: vec![ScriptedAction::CrashRestart {
            at: 400 * MILLIS,
            target: CrashTarget::Pdp(drams_faas::model::CloudId(0)),
        }],
        ..ScenarioSpec::canonical(&config)
    };
    let stats = assert_conformant(&spec, &mut NoAdversary, &mut NoAdversary);
    assert_eq!(stats.restarts, 1, "the endpoint must really have died");
    assert!(
        stats.connects >= 2,
        "the transport must have reconnected after the crash"
    );
}

/// The recovery matrix (every service crashed once) stays conformant
/// over the wire, including endpoint teardown/reconnect for the roles
/// that carry traffic.
#[test]
fn recovery_matrix_is_identical_over_des_and_tcp() {
    for spec in scenarios::recovery_matrix() {
        let stats = assert_conformant(&spec, &mut NoAdversary, &mut NoAdversary);
        assert_eq!(stats.restarts, 1, "{}", spec.name);
    }
}

/// Faulted runs: the fault plane's drop/duplicate/reorder decisions
/// compose with the wire — every surviving delivery (duplicates
/// included) crosses the socket and the outcome matches the DES twin.
#[test]
fn lossy_links_are_identical_over_des_and_tcp() {
    let config = MonitorConfig {
        total_requests: 60,
        request_rate_per_sec: 150.0,
        ..MonitorConfig::default()
    };
    let spec = ScenarioSpec {
        name: "lossy_transport".to_string(),
        faults: scenarios::lossy_plan(),
        ..ScenarioSpec::canonical(&config)
    };
    assert_conformant(&spec, &mut NoAdversary, &mut NoAdversary);
}
