//! drams-net — a wire-format conformance harness for the DRAMS scenario
//! runtime.
//!
//! Figure 1 of the paper deploys the monitoring architecture across a
//! cloud federation: PEPs at every tenant edge, a PDP (with its PRP)
//! per cloud or centrally in the infrastructure tenant, a Logging
//! Interface per tenant, the blockchain node and the Analyser. The
//! scenario runtime (`drams_core::scenario`) carries the messages
//! between those roles through its in-memory event queue; this crate
//! sends each of them over a real loopback socket and back first:
//!
//! * [`frame`] — length-prefixed, CRC-checked byte framing (the WAL
//!   record format around canonical-codec frame bodies) with an
//!   incremental parser that survives arbitrarily torn reads.
//! * [`endpoint`] — [`NodeEndpoint`], one per role behind a loopback
//!   listener: validates every frame (CRC, role pinning, strictly
//!   increasing sequence numbers) and acknowledges it by echoing it back.
//! * [`transport`] — [`TcpTransport`], the `Transport` backend that
//!   routes every federation-crossing message through the destination
//!   role's endpoint, one synchronous batch per dispatch, serving the
//!   endpoint inline on the driver's thread (the crate spawns no
//!   thread); on `Transport::restart` it connects to a fresh endpoint.
//!   A batch is sent once: a failure drops the batch's connections and
//!   returns its typed error, with no resend.
//!
//! What the suites establish (DESIGN.md invariant 9): every
//! federation-crossing message survives canonical encode → CRC frame →
//! loopback socket → validation → echo → decode unchanged; scheduling
//! from the decoded echo changes no alert byte, ground truth, counter
//! or finish time against the DES oracle
//! (`tests/transport_conformance.rs`); and a restart is a real teardown
//! and reconnect. What they do not: the roles themselves still run in
//! the scenario driver — no Figure-1 role logic runs behind a socket.
//! Hosting one remotely (the PDP slot, say) would start from
//! [`NodeEndpoint`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endpoint;
pub mod frame;
pub mod transport;

pub use endpoint::{EndpointStats, NodeEndpoint};
pub use frame::{frame_bytes, FrameReader, FRAME_PREFIX};
pub use transport::{NetStats, TcpTransport};
