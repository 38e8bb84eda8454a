//! # DRAMS — Decentralised Runtime Access Monitoring System
//!
//! Facade crate for the reproduction of *"Decentralised Runtime Monitoring
//! for Access Control Systems in Cloud Federations"* (Ferdous, Margheri,
//! Paci, Yang, Sassone — ICDCS 2017).
//!
//! This crate re-exports the whole workspace under one roof:
//!
//! * [`crypto`] — hashes, symmetric encryption, Merkle trees, signatures.
//! * [`policy`] — the XACML/FACPL-style access-control engine (PDP).
//! * [`analysis`] — the formally-grounded policy analyser.
//! * [`chain`] — the private smart-contract proof-of-work blockchain.
//! * [`faas`] — the FaaS cloud-federation substrate and discrete-event
//!   simulator (PEPs, PRP, tenants, workloads).
//! * [`core`] — DRAMS itself: probes, Logging Interface, monitor contract,
//!   Analyser service, alerts, TPM simulation.
//! * [`store`] — the hybrid database+blockchain log store of ref \[9\].
//! * [`attack`] — the attack-injection framework used in the evaluation.
//! * [`net`] — the wire-format conformance harness: CRC-framed messages
//!   echoed by validating loopback endpoints, with the DES as oracle.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the experiment catalogue.
//!
//! # Example: a full monitored federation run
//!
//! The whole of Figure 1 — PEPs, PDP, probes, Logging Interfaces, the
//! monitor contract mining blocks, and the Analyser re-evaluating every
//! logged decision — in one call:
//!
//! ```
//! use drams::core::adversary::NoAdversary;
//! use drams::core::monitor::{run_monitor, MonitorConfig};
//!
//! let config = MonitorConfig {
//!     total_requests: 10,
//!     ..MonitorConfig::default()
//! };
//! let (report, truth) = run_monitor(&config, &mut NoAdversary);
//! assert_eq!(report.requests_completed, 10);
//! assert_eq!(truth.total_attacks(), 0);
//! assert!(report.alerts.is_empty(), "an honest run raises no alerts");
//! ```

#![forbid(unsafe_code)]

pub use drams_analysis as analysis;
pub use drams_attack as attack;
pub use drams_chain as chain;
pub use drams_core as core;
pub use drams_crypto as crypto;
pub use drams_faas as faas;
pub use drams_net as net;
pub use drams_policy as policy;
pub use drams_store as store;
