//! FaaS cloud-federation substrate.
//!
//! The deployment context of DRAMS (paper §I and Figure 1):
//! Federation-as-a-Service deploys an XACML access control system across a
//! cloud federation — the PDP and policy management live in the jointly
//! owned *infrastructure tenant*, PEPs guard the edge of every member
//! tenant. This crate models that world:
//!
//! * [`model`] — clouds, tenants, sections, PEP placement, link latencies.
//! * [`msg`] — the request/response envelopes whose canonical digests the
//!   DRAMS probes log.
//! * [`pep`] — Policy Enforcement Points with deny/permit-biased
//!   enforcement.
//! * [`prp`] — the versioned Policy Retrieval Point.
//! * [`des`] — a deterministic virtual-time discrete-event engine; all
//!   latency experiments run on it.
//! * [`fault`] — a deterministic per-link network fault plane (drop,
//!   duplicate, reorder, delay, timed partitions) the scenario's net shim
//!   applies between services.
//! * [`par`] — an order-preserving scoped-thread `map` with no caller in
//!   the workspace; it stays only until the frozen `benchmark/` package
//!   stops linking it.
//! * [`transport`] — the pluggable carrier for wire messages: the DES
//!   identity backend (the conformance oracle) and the frame format the
//!   TCP backend in `drams-net` puts on real sockets.
//! * [`workload`] — Poisson arrivals, Zipf popularity, request and policy
//!   generators shared by experiments and property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod fault;
pub mod model;
pub mod msg;
pub mod par;
pub mod pep;
pub mod prp;
pub mod transport;
pub mod workload;

pub use des::{EventQueue, LatencyStats, SimTime, MILLIS, SECONDS};
pub use fault::{FaultPlan, FaultPlane, FaultStats, LinkFault, PartitionWindow, Site};
pub use model::{CloudId, FederationSpec, LatencyModel, PepId, TenantId, TenantSpec};
pub use msg::{CorrelationId, RequestEnvelope, ResponseEnvelope};
pub use pep::{Enforcement, EnforcementBias, Pep};
pub use prp::{PolicyVersion, Prp};
pub use transport::{DesTransport, Transport, TransportError, WireFrame, WireRole};
pub use workload::{
    PoissonArrivals, PolicyGenerator, PolicyShape, RequestGenerator, Vocabulary, Zipf,
};
