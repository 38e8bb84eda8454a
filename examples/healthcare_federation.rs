//! A healthcare cloud federation under attack — the paper's motivating
//! scenario, end to end.
//!
//! Three hospitals federate their clouds to share patient records (the
//! SUNFISH use case behind FaaS). A federation-wide policy governs access;
//! DRAMS monitors it. Mid-run, the response channel between the PDP and
//! one hospital's PEP is compromised and starts flipping decisions — the
//! monitor contract's digest comparison catches every flip.
//!
//! Run with: `cargo run --example healthcare_federation`

use drams::attack::{score, ScriptedAdversary, ThreatKind};
use drams::core::monitor::{run_monitor, MonitorConfig};
use drams::policy::parser::parse_policy_set;
use drams_faas::des::{MILLIS, SECONDS};
use drams_faas::model::FederationSpec;

const HOSPITAL_POLICY: &str = r#"
policyset hospitals { deny-unless-permit
  policy record-access { permit-overrides
    rule doctors (permit) {
      target: equal(subject.role, "doctor")
    }
    rule nurses-read (permit) {
      target: equal(subject.role, "nurse")
      condition: and(equal(action.id, "read"), less(environment.hour, 20))
    }
    rule researchers-anonymised (permit) {
      target: equal(subject.role, "researcher")
      condition: and(equal(action.id, "read"), equal(resource.type, "report"))
    }
  }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let policy = parse_policy_set(HOSPITAL_POLICY)?;
    let config = MonitorConfig {
        federation: FederationSpec::symmetric(3, 1, 3), // 3 hospitals
        policy,
        total_requests: 300,
        request_rate_per_sec: 100.0,
        block_interval: 250 * MILLIS,
        group_timeout: 2 * SECONDS,
        seed: 2017,
        ..MonitorConfig::default()
    };

    println!("Healthcare federation: 3 hospitals, shared record policy");
    println!("Attack: response channel flips decisions with p = 0.1\n");

    let mut adversary = ScriptedAdversary::new(ThreatKind::TamperResponse, 0.1, 44);
    let (report, truth) = run_monitor(&config, &mut adversary);

    println!("requests completed : {}", report.requests_completed);
    println!(
        "granted / refused  : {} / {}",
        report.granted, report.refused
    );
    println!("responses tampered : {}", truth.tampered_responses.len());

    let s = score(ThreatKind::TamperResponse, &report, &truth);
    println!("\ndetection rate     : {:.1}%", s.rate() * 100.0);
    println!("false positives    : {}", s.false_positives);
    println!(
        "detection latency  : mean {:.1} ms (issue → alert on-chain)",
        s.mean_detection_latency_us / 1_000.0
    );
    println!(
        "monitoring latency : log commit mean {:.1} ms",
        report.log_commit_latency.mean() / 1_000.0
    );
    println!(
        "e2e request latency: mean {:.2} ms (p99 {:.2} ms)",
        report.e2e_latency.mean() / 1_000.0,
        report.e2e_latency.percentile(99.0) as f64 / 1_000.0
    );

    assert_eq!(
        s.detected, s.attacks,
        "every flipped decision must be caught"
    );
    println!(
        "\nAll {} tampered responses were detected on-chain.",
        s.attacks
    );
    Ok(())
}
