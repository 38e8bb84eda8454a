//! Quickstart: run a monitored cloud federation end to end.
//!
//! Builds a two-cloud federation with the default clinical policy, pushes
//! 100 access requests through PEPs and the PDP while DRAMS probes,
//! Logging Interfaces, the monitor contract and the Analyser watch, and
//! prints what the monitoring pipeline measured.
//!
//! Run with: `cargo run --example quickstart`

use drams::core::adversary::NoAdversary;
use drams::core::monitor::{run_monitor, MonitorConfig};

fn main() {
    let config = MonitorConfig {
        total_requests: 100,
        request_rate_per_sec: 50.0,
        ..MonitorConfig::default()
    };

    println!("DRAMS quickstart — honest federation, full monitoring\n");
    println!(
        "federation: {} tenants, policy `{}`",
        config.federation.tenant_count(),
        config.policy.id
    );

    let (report, truth) = run_monitor(&config, &mut NoAdversary);

    println!("\n--- access control plane ---");
    println!("requests issued     : {}", report.requests_issued);
    println!("requests completed  : {}", report.requests_completed);
    println!(
        "granted / refused   : {} / {}",
        report.granted, report.refused
    );
    println!(
        "end-to-end latency  : mean {:.2} ms, p95 {:.2} ms",
        report.e2e_latency.mean() / 1_000.0,
        report.e2e_latency.percentile(95.0) as f64 / 1_000.0
    );

    println!("\n--- monitoring plane ---");
    println!("log entries committed : {}", report.entries_logged);
    println!("blocks mined          : {}", report.blocks_mined);
    println!("transactions          : {}", report.txs_committed);
    println!("groups completed      : {}", report.groups_completed);
    println!(
        "observation→commit    : mean {:.2} ms, p95 {:.2} ms",
        report.log_commit_latency.mean() / 1_000.0,
        report.log_commit_latency.percentile(95.0) as f64 / 1_000.0
    );

    println!("\n--- verdict ---");
    println!("attacks injected      : {}", truth.total_attacks());
    println!("alerts raised         : {}", report.alerts.len());
    assert!(report.alerts.is_empty(), "honest run must stay silent");
    println!("OK: an honest federation raises no alerts.");
}
