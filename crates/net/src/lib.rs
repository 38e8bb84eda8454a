//! drams-net — the real transport for the DRAMS scenario runtime.
//!
//! Figure 1 of the paper deploys the monitoring architecture across a
//! cloud federation: PEPs at every tenant edge, a PDP (with its PRP)
//! per cloud or centrally in the infrastructure tenant, a Logging
//! Interface per tenant, the blockchain node and the Analyser. The
//! scenario runtime (`drams_core::scenario`) normally carries the
//! messages between those services through its in-memory event queue;
//! this crate makes the wire real:
//!
//! * [`frame`] — length-prefixed, CRC-checked byte framing (the WAL
//!   record format around canonical-codec frame bodies) with an
//!   incremental parser that survives arbitrarily torn reads.
//! * [`endpoint`] — the service-side socket endpoint: validates every
//!   frame (CRC, role pinning, sequence continuity) and acknowledges it
//!   by echoing it back; hostable as a thread or as a standalone
//!   process via the `drams-node` binary.
//! * [`transport`] — [`TcpTransport`], the `Transport` backend that
//!   routes every federation-crossing message through the destination
//!   service's endpoint with one synchronous round-trip per message,
//!   reconnecting (and re-resolving) across service crashes.
//!
//! The DES backend stays the conformance oracle: the same
//! `ScenarioSpec` must produce byte-identical alerts and ground truth
//! over `DesTransport` and [`TcpTransport`]
//! (`tests/transport_conformance.rs`, DESIGN.md invariant 9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endpoint;
pub mod frame;
pub mod transport;

pub use endpoint::{serve, EndpointStats, NodeEndpoint};
pub use frame::{frame_bytes, read_frame, write_frame, FrameReader, FRAME_PREFIX};
pub use transport::{NetStats, ProcessProvisioner, Provisioner, TcpTransport, ThreadProvisioner};
