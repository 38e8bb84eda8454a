//! The event-driven scenario runtime: Figure 1 as a graph of services.
//!
//! Seven services run on one deterministic event queue
//! ([`drams_faas::des::EventQueue`]): a workload source, the PEPs with
//! their probes, one-or-more PDPs (central in the infrastructure tenant,
//! or one per member cloud), the per-tenant Logging Interfaces, the chain
//! node with its contract sweep, the Analyser, and a scenario controller.
//! Services share nothing but the simulation context
//! ([`measurement sinks`](crate::monitor::MonitorReport) and the chain
//! substrate); everything between them travels as a typed scheduled
//! event (the private `Msg` enum), and one loop (`msg::Services`) hands
//! each popped event to the service that owns it.
//!
//! On top of the services sits the declarative [`ScenarioSpec`] layer:
//! phased arrival rates, mid-run policy publication/rollback through the
//! PRP, tenant join/leave churn, per-cloud PDP placement and scripted
//! fault windows (a stalled LI, a silent PDP). The canonical scenario —
//! no phases, central PDP, empty script — reproduces the classic
//! [`run_monitor`](crate::monitor::run_monitor) deployment exactly.
//!
//! A declared [`FaultPlan`](drams_faas::fault::FaultPlan) additionally
//! interposes a deterministic
//! [`FaultPlane`](drams_faas::fault::FaultPlane) between every service
//! outbox and the event queue: per-link drop / duplicate / reorder /
//! delay faults and timed partitions between named sites. The protocol
//! is robust against it — PEPs retry with capped exponential backoff
//! and fail over through a per-cloud circuit breaker, PDPs answer
//! retransmissions from a journaled decision cache, receivers dedupe
//! duplicates on correlation id, the contract keys groups on correlation
//! so reordering is harmless, probe→LI deliveries are delayed but never
//! dropped (losing evidence stays an adversary's act), LIs spill their
//! backlog to the WAL while the chain is unreachable and replay on heal,
//! and the epoch sweep is retuned to a widened group timeout across
//! each disruption window so transient faults never surface as
//! `MissingLog` false positives.
//!
//! # Event taxonomy (service graph)
//!
//! ```text
//! Workload --Intercept--> PEPs --PdpReceive--> PDPs
//!    ^                     ^  \                 |  \
//!    |          PepReceive-+   +--LiDeliver--+  |   +--LiDeliver--+
//!  Arrival                                   v  v                 v
//! Controller --Script/Activate...-->       LIs --(chain submit)--> [node]
//!     |\--PolicyAdmin/SilencePdp--> PDPs    ^
//!     |\--StallLi/ProvisionLi-----> LIs     +--LiFlushTick (self)
//!     |\--ProvisionPep------------> PEPs
//!      \--ProvisionProbeKey/AnalyserPolicy--> Analyser --AnalyserTick (self)
//! Chain --MineTick (self)--> [mines, sweeps epochs, harvests alerts]
//! ```
//!
//! One Figure-1 role per file; the crate root lists them.

mod analyser;
mod chain;
mod controller;
mod ctx;
mod li;
mod msg;
mod pdp;
mod pep;
mod run;
mod spec;
mod wire;
mod workload;

#[cfg(test)]
mod tests;

pub use run::{run_scenario, run_scenario_with_transport};
pub use spec::*;
