//! Attack detection: inject every threat from the paper's threat model
//! and watch DRAMS catch it.
//!
//! For each of the nine threats (tampered requests/responses, corrupted
//! decisions, flipped enforcement, dropped logs, compromised LI, swapped
//! policy, colluding PDP+LI, cross-tenant log replay) this example runs
//! the full monitored federation with a scripted adversary and prints
//! the detection scoreboard.
//!
//! Run with: `cargo run --example attack_detection`

use drams::attack::{score, ScriptedAdversary, ThreatKind};
use drams::core::monitor::{run_monitor, MonitorConfig};
use drams_faas::des::SECONDS;

fn main() {
    println!("DRAMS attack-detection matrix (paper §I threat model)\n");
    println!(
        "{:<18} {:>8} {:>9} {:>7} {:>5} {:>14}",
        "threat", "attacks", "detected", "rate", "fp", "mean latency"
    );
    println!("{}", "-".repeat(66));

    for threat in ThreatKind::ALL {
        let config = MonitorConfig {
            total_requests: 150,
            request_rate_per_sec: 80.0,
            group_timeout: 2 * SECONDS,
            seed: 11,
            ..MonitorConfig::default()
        };
        let mut adversary = ScriptedAdversary::new(threat, 0.15, 99);
        let (report, truth) = run_monitor(&config, &mut adversary);
        let s = score(threat, &report, &truth);
        println!(
            "{:<18} {:>8} {:>9} {:>6.1}% {:>5} {:>11.1} ms",
            threat.to_string(),
            s.attacks,
            s.detected,
            s.rate() * 100.0,
            s.false_positives,
            report.detection_latency.mean() / 1_000.0
        );
        assert!(
            s.attacks == 0 || s.rate() > 0.99,
            "{threat}: detection rate {:.2} below 100%",
            s.rate()
        );
    }

    println!("\nAll injected attacks were detected.");
}
