//! The transport seam: how wire messages travel between Figure-1
//! services.
//!
//! The scenario runtime emits typed messages between services; every
//! message that crosses a federation link (request, response, log
//! delivery — the same set the fault plane classifies) can be carried by
//! a pluggable [`Transport`]. Two backends exist:
//!
//! * [`DesTransport`] — the identity backend: messages go straight into
//!   the event queue, exactly the pre-transport code path. This is the
//!   conformance oracle.
//! * `drams_net::TcpTransport` (in the `drams-net` crate) — every wire
//!   message is serialised into a CRC-checked [`WireFrame`], sent over a
//!   loopback socket to the destination role's endpoint (served inline
//!   on the caller's thread; it validates and echoes and runs no role
//!   logic) and scheduled from the bytes that came back off the wire.
//!   One dispatch's frames travel as one batch
//!   ([`Transport::roundtrip_batch`]).
//!
//! The scenario runtime stays the single logical clock for both
//! backends; that is what makes the differential conformance suite
//! (`tests/transport_conformance.rs`) possible: the same `ScenarioSpec`
//! must produce byte-identical alerts and ground truth over either
//! transport (DESIGN.md invariant 9).

use std::fmt;

use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::CryptoError;

use crate::des::SimTime;

/// Magic bytes opening every frame body: `DRNF` (DRams Net Frame).
pub const FRAME_MAGIC: u32 = 0x4452_4e46;

/// Wire-format version carried in every frame body.
pub const FRAME_VERSION: u8 = 1;

/// Hard ceiling on a frame body (header + payload). A length prefix
/// above this is rejected before any allocation — a corrupt or hostile
/// peer cannot make the reader reserve gigabytes.
pub const MAX_FRAME_BODY: usize = 1 << 20;

/// The Figure-1 service a frame is addressed to.
///
/// PDP slots and Logging Interfaces are per-instance endpoints (one per
/// federated cloud, one per tenant, as in the paper's Figure 1): under
/// the TCP backend each role gets its own echo endpoint and connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WireRole {
    /// The Policy Enforcement Point service at the tenant edge.
    Pep,
    /// The PDP (plus PRP) instance in slot `slot` (one per cloud under
    /// per-cloud placement, slot 0 under central placement).
    Pdp {
        /// PDP slot index.
        slot: u32,
    },
    /// The Logging Interface with index `index` (tenants `0..n`, the
    /// infrastructure LI at `n`).
    Li {
        /// LI index.
        index: u32,
    },
    /// The blockchain node hosting the monitor contract.
    Chain,
    /// The Analyser.
    Analyser,
}

impl WireRole {
    /// Stable numeric tag used on the wire.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            WireRole::Pep => 1,
            WireRole::Pdp { .. } => 2,
            WireRole::Li { .. } => 3,
            WireRole::Chain => 4,
            WireRole::Analyser => 5,
        }
    }

    /// Instance parameter (PDP slot / LI index; 0 for singleton roles).
    #[must_use]
    pub fn param(self) -> u32 {
        match self {
            WireRole::Pdp { slot } => slot,
            WireRole::Li { index } => index,
            WireRole::Pep | WireRole::Chain | WireRole::Analyser => 0,
        }
    }

    /// Rebuilds a role from its wire `(tag, param)` pair.
    pub fn from_wire(tag: u8, param: u32) -> Result<Self, TransportError> {
        match tag {
            1 => Ok(WireRole::Pep),
            2 => Ok(WireRole::Pdp { slot: param }),
            3 => Ok(WireRole::Li { index: param }),
            4 => Ok(WireRole::Chain),
            5 => Ok(WireRole::Analyser),
            other => Err(TransportError::Malformed(format!(
                "unknown role tag {other}"
            ))),
        }
    }
}

impl fmt::Display for WireRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireRole::Pep => write!(f, "pep"),
            WireRole::Pdp { slot } => write!(f, "pdp/{slot}"),
            WireRole::Li { index } => write!(f, "li/{index}"),
            WireRole::Chain => write!(f, "chain"),
            WireRole::Analyser => write!(f, "analyser"),
        }
    }
}

/// One framed wire message: the unit a [`Transport`] carries.
///
/// The body encoding (canonical codec, `crates/crypto/src/codec.rs`) is
///
/// ```text
/// magic u32 ("DRNF") | version u8 | role tag u8 | role param u32 |
/// kind u8 | seq u64 | delay u64 | payload (varint len + bytes)
/// ```
///
/// and the byte-level wire framing (`drams-net`) wraps the body exactly
/// like a WAL record: `len u32 | crc32(body) u32 | body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Destination service.
    pub role: WireRole,
    /// Message discriminant (scenario-defined; 0 is reserved for
    /// transport-level pings).
    pub kind: u8,
    /// Strictly increasing per-run sequence number; endpoints reject
    /// regressions, so a reordering or replaying wire is caught at the
    /// frame layer.
    pub seq: u64,
    /// The virtual-time delivery delay the scheduler attached; carried
    /// on the wire so the delivery time is literally read back off it.
    pub delay: SimTime,
    /// The canonical-codec payload of the wire message itself.
    pub payload: Vec<u8>,
}

impl WireFrame {
    /// A transport-level ping (kind 0) addressed to `role`.
    #[must_use]
    pub fn ping(role: WireRole, seq: u64) -> Self {
        WireFrame {
            role,
            kind: 0,
            seq,
            delay: 0,
            payload: Vec::new(),
        }
    }
}

impl Encode for WireFrame {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(FRAME_MAGIC);
        w.put_u8(FRAME_VERSION);
        w.put_u8(self.role.tag());
        w.put_u32(self.role.param());
        w.put_u8(self.kind);
        w.put_u64(self.seq);
        w.put_u64(self.delay);
        w.put_bytes(&self.payload);
    }
}

impl Decode for WireFrame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let magic = r.get_u32()?;
        if magic != FRAME_MAGIC {
            return Err(CryptoError::Malformed("bad frame magic".to_string()));
        }
        let version = r.get_u8()?;
        if version != FRAME_VERSION {
            return Err(CryptoError::Malformed(format!(
                "unsupported frame version {version}"
            )));
        }
        let tag = r.get_u8()?;
        let param = r.get_u32()?;
        let role =
            WireRole::from_wire(tag, param).map_err(|e| CryptoError::Malformed(e.to_string()))?;
        let kind = r.get_u8()?;
        let seq = r.get_u64()?;
        let delay = r.get_u64()?;
        let payload = r.get_bytes()?;
        Ok(WireFrame {
            role,
            kind,
            seq,
            delay,
            payload,
        })
    }
}

/// Typed failures of the transport layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// An underlying socket operation failed (message carries the
    /// `std::io::Error` text so the type stays I/O-free).
    Io(String),
    /// A frame failed its CRC or structural check.
    Corrupt(String),
    /// A length prefix exceeded [`MAX_FRAME_BODY`].
    Oversized {
        /// The advertised body length.
        len: u64,
        /// The enforced ceiling.
        max: u64,
    },
    /// The peer closed the connection mid-frame.
    Closed,
    /// A read hit its deadline with no complete frame (retryable).
    TimedOut,
    /// A frame decoded but its contents were invalid (bad role tag,
    /// unknown kind, trailing bytes).
    Malformed(String),
    /// A frame arrived at an endpoint pinned to a different role.
    RoleMismatch {
        /// The role the endpoint serves.
        expected: WireRole,
        /// The role the frame was addressed to.
        got: WireRole,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            TransportError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes (max {max})")
            }
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::TimedOut => write!(f, "read timed out"),
            TransportError::Malformed(why) => write!(f, "malformed frame: {why}"),
            TransportError::RoleMismatch { expected, got } => {
                write!(f, "frame for {got} arrived at {expected} endpoint")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A carrier for wire frames between the scenario runtime and the
/// Figure-1 service endpoints.
///
/// The runtime performs one synchronous batch per dispatch: every wire
/// frame one handled event emitted travels to its destination service's
/// endpoint, is validated there, and comes back; the messages the
/// scheduler enqueues are decoded from the returned bytes. A batch
/// completes before the dispatch that produced it returns, so no frame
/// is ever in flight when a scripted crash fires — which is what keeps
/// crash/reconnect deterministic.
pub trait Transport {
    /// Whether frames actually leave the process boundary. The runtime
    /// skips serialisation entirely when this is `false`.
    fn is_wire(&self) -> bool;

    /// Carries every frame of `frames` to its destination endpoint and
    /// returns the frames as delivered (decoded from the returned
    /// bytes), one per input frame, in input order.
    fn roundtrip_batch(&mut self, frames: Vec<WireFrame>)
        -> Result<Vec<WireFrame>, TransportError>;

    /// Carries one frame: a batch of one.
    fn roundtrip(&mut self, frame: WireFrame) -> Result<WireFrame, TransportError> {
        let echoes = self.roundtrip_batch(vec![frame])?;
        let [echo] = <[WireFrame; 1]>::try_from(echoes).map_err(|echoes| {
            TransportError::Corrupt(format!("{} echoes for one frame", echoes.len()))
        })?;
        Ok(echo)
    }

    /// Notifies the transport that the service behind `role` crashed
    /// and restarted: wire backends drop the connection and tear down
    /// the endpoint so the next frame connects to a fresh one.
    fn restart(&mut self, role: WireRole) -> Result<(), TransportError>;

    /// Human-readable backend name (for reports and logs).
    fn name(&self) -> &'static str;
}

/// The identity backend: frames never leave the process, the scheduler
/// consumes exactly the message the service emitted. This is the
/// conformance oracle every wire backend is measured against.
#[derive(Debug, Default, Clone, Copy)]
pub struct DesTransport;

impl Transport for DesTransport {
    fn is_wire(&self) -> bool {
        false
    }

    fn roundtrip_batch(
        &mut self,
        frames: Vec<WireFrame>,
    ) -> Result<Vec<WireFrame>, TransportError> {
        Ok(frames)
    }

    fn restart(&mut self, _role: WireRole) -> Result<(), TransportError> {
        Ok(())
    }

    fn name(&self) -> &'static str {
        "des"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_canonically() {
        let frame = WireFrame {
            role: WireRole::Pdp { slot: 2 },
            kind: 1,
            seq: 99,
            delay: 1_500,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = frame.to_canonical_bytes();
        let back = WireFrame::from_canonical_bytes(&bytes).expect("decode");
        assert_eq!(frame, back);
    }

    #[test]
    fn role_tags_round_trip() {
        for role in [
            WireRole::Pep,
            WireRole::Pdp { slot: 7 },
            WireRole::Li { index: 3 },
            WireRole::Chain,
            WireRole::Analyser,
        ] {
            assert_eq!(
                WireRole::from_wire(role.tag(), role.param()).expect("tag"),
                role
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let frame = WireFrame::ping(WireRole::Chain, 1);
        let mut bytes = frame.to_canonical_bytes();
        bytes[0] ^= 0xff;
        assert!(WireFrame::from_canonical_bytes(&bytes).is_err());
        let mut bytes = frame.to_canonical_bytes();
        bytes[4] = FRAME_VERSION + 1;
        assert!(WireFrame::from_canonical_bytes(&bytes).is_err());
    }

    #[test]
    fn des_transport_is_the_identity() {
        let mut t = DesTransport;
        assert!(!t.is_wire());
        let frame = WireFrame::ping(WireRole::Analyser, 42);
        assert_eq!(t.roundtrip(frame.clone()).expect("identity"), frame);
        let batch = vec![WireFrame::ping(WireRole::Pep, 43), frame];
        assert_eq!(t.roundtrip_batch(batch.clone()).expect("identity"), batch);
        assert!(t.restart(WireRole::Analyser).is_ok());
    }
}
