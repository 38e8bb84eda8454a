//! DRAMS — Decentralised Runtime Access Monitoring System.
//!
//! The paper's primary contribution (Ferdous et al., ICDCS 2017):
//! a runtime monitoring architecture for distributed access control
//! systems in cloud federations, built on a smart-contract blockchain.
//!
//! * [`logent`] — the 4-quadrant access-log schema probes submit.
//! * [`probe`] — probing agents attached to PEPs and the PDP.
//! * [`li`] — the per-tenant Logging Interface (encryption, batching,
//!   chain submission).
//! * [`contract`] — the monitor smart contract: digest matching, epoch
//!   timeouts, conflict detection, on-chain violation registry.
//! * [`analyser`] — the Analyser service re-evaluating logged decisions
//!   against the formal policy semantics (ref \[8\]).
//! * [`alert`] — the security-alert vocabulary.
//! * [`adversary`] — attack hooks (implemented by `drams-attack`).
//! * [`monitor`] — configuration, report and ground truth of the
//!   end-to-end virtual-time simulation of Figure 1.
//! * [`scenario`] — the event-driven scenario runtime: the simulation
//!   decomposed into services, plus the declarative [`ScenarioSpec`]
//!   layer (phased load, multi-PDP placement, policy churn, tenant
//!   join/leave, fault windows). One Figure-1 role per file:
//!   * `scenario/spec` — `ScenarioSpec`, `LoadProfile`, `ScriptedAction`,
//!     probe ids/keys, named RNG streams (the whole public surface
//!     besides the two `run_*` functions);
//!   * `scenario/msg` — the private `Msg` event enum and the one event
//!     loop that dispatches it;
//!   * `scenario/wire` — which messages are federation links: frame
//!     kinds, wire codec, the fault-plane/transport shim;
//!   * `scenario/ctx` — the shared context (chain substrate, sinks,
//!     routing tables);
//!   * `scenario/workload` — Poisson arrivals and the drain deadline;
//!   * `scenario/pep` — PEPs and probes: admission, retry/backoff,
//!     circuit breaker;
//!   * `scenario/pdp` — the PRP and the PDP slots with their journaled
//!     idempotency cache;
//!   * `scenario/li` — the Logging Interfaces: stall, spill/replay,
//!     crash recovery;
//!   * `scenario/chain` — mining cadence, epoch sweep, alert harvest;
//!   * `scenario/analyser` — polls, checkpoints, provisioning;
//!   * `scenario/controller` — the script: churn, fault windows, chain
//!     attacks;
//!   * `scenario/run` — assembly (`run_scenario`,
//!     `run_scenario_with_transport`).
//!
//! # Who holds which key
//!
//! One federation key *K* seals every payload; each probe also has a MAC
//! key of its own (`scenario::probe_mac_key`).
//!
//! | role | holds | uses it to |
//! |---|---|---|
//! | probe (each PEP, each PDP slot) | *K*; its own MAC key | seal each payload under *K*; MAC each entry |
//! | LI | its Schnorr keypair | sign its `store_log_batch` transactions; it seals and opens nothing |
//! | Analyser | *K*; every probe MAC key; its Schnorr keypair | open payloads (`LogEntryRef::open_payload_into`); check each entry's MAC; sign its on-chain reports |
//! | chain admin | its Schnorr keypair | sign the monitor contract's `init` and `set_timeout` calls |
//!
//! # Example: a full monitored federation run
//!
//! ```
//! use drams_core::monitor::{run_monitor, MonitorConfig};
//! use drams_core::adversary::NoAdversary;
//!
//! let config = MonitorConfig {
//!     total_requests: 10,
//!     ..MonitorConfig::default()
//! };
//! let (report, truth) = run_monitor(&config, &mut NoAdversary);
//! assert_eq!(report.requests_completed, 10);
//! assert_eq!(truth.total_attacks(), 0);
//! assert!(report.alerts.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod adversary;
pub mod alert;
pub mod analyser;
pub mod contract;
pub mod li;
pub mod logent;
pub mod monitor;
pub mod probe;
pub mod scenario;

pub use adversary::{Adversary, NoAdversary};
pub use alert::{Alert, AlertKind};
pub use analyser::Analyser;
pub use contract::{MonitorContract, MONITOR_CONTRACT};
pub use li::LoggingInterface;
pub use logent::{LogEntry, ObservationPoint, ProbeId};
pub use monitor::{run_monitor, GroundTruth, MonitorConfig, MonitorReport};
pub use probe::Probe;
pub use scenario::{run_scenario, PdpPlacement, Phase, ScenarioSpec, ScriptedAction};
