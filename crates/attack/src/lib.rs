//! Attack-injection framework for the DRAMS evaluation.
//!
//! Implements the paper's threat model (§I: compromised components that
//! modify "access requests or responses … or the policies and the
//! evaluation process", plus attacks "targeting the integrity of the logs
//! or of the monitoring components") as scripted
//! [`Adversary`](drams_core::adversary::Adversary) implementations, and
//! scores detection against exact ground truth.
//!
//! * [`threat`] — the nine-threat catalogue and [`ScriptedAdversary`],
//!   including the colluding PDP+LI and cross-tenant log-replay families.
//! * [`score`](mod@score) — detection rate / false positives / latency scoring.
//! * [`window`] — fault windows: any adversary becomes a schedulable
//!   scenario component active only inside declared virtual-time windows.
//!
//! # Example
//!
//! ```
//! use drams_attack::{ScriptedAdversary, ThreatKind, score};
//! use drams_core::monitor::{run_monitor, MonitorConfig};
//!
//! let config = MonitorConfig { total_requests: 30, ..MonitorConfig::default() };
//! let mut adversary = ScriptedAdversary::new(ThreatKind::TamperRequest, 0.3, 1);
//! let (report, truth) = run_monitor(&config, &mut adversary);
//! let s = score(ThreatKind::TamperRequest, &report, &truth);
//! assert_eq!(s.detected, s.attacks); // every tamper is caught
//! ```

#![forbid(unsafe_code)]

pub mod composite;
pub mod score;
pub mod threat;
pub mod window;

pub use composite::CompositeAdversary;
pub use score::{
    chain_attack_score, detected_by_any_alert, expected_alert_kinds, score, ChainAttackScore,
    DetectionScore,
};
pub use threat::{ScriptedAdversary, ThreatKind};
pub use window::{FaultWindow, WindowedAdversary};
