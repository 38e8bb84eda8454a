//! The TCP backend of the scenario runtime's [`Transport`] seam.
//!
//! [`TcpTransport`] keeps one table, role → (connection, endpoint), and
//! performs one synchronous round-trip per wire message: write the
//! frame, read the endpoint's validated echo, hand the echoed frame
//! back to the scheduler. A role's [`NodeEndpoint`] — an in-process
//! thread behind a real loopback socket — is spawned on first contact.
//! The endpoint validates and echoes; no Figure-1 role logic runs
//! behind the socket.
//!
//! A scripted service crash reaches the transport as
//! [`Transport::restart`]: the connection is closed, the endpoint thread
//! joined, and the next frame for that role spawns a fresh endpoint at a
//! fresh port and connects to it — a real reconnect across a real
//! socket.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

use drams_faas::transport::{Transport, TransportError, WireFrame, WireRole};

use crate::endpoint::NodeEndpoint;
use crate::frame::{io_error, read_frame, write_frame, FrameReader};

/// How long a single blocked read may wait for the endpoint's echo
/// before the round-trip is abandoned and retried on a fresh
/// connection.
const READ_DEADLINE: Duration = Duration::from_secs(5);

/// Round-trip attempts per frame; each failure (a refused connect
/// included) drops the connection and reconnects, so this bounds the
/// reconnect storm a flapping endpoint can cause.
const ROUNDTRIP_ATTEMPTS: u32 = 5;

/// Wire-level counters the bench runner reports (E16).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Completed round-trips.
    pub frames: u64,
    /// Wire bytes written (outer framing included).
    pub bytes_sent: u64,
    /// Connections established (first contacts and re-establishments).
    pub connects: u64,
    /// Round-trips that had to re-establish a connection mid-flight.
    pub reconnects: u64,
    /// Service restarts signalled via [`Transport::restart`].
    pub restarts: u64,
}

struct Conn {
    stream: TcpStream,
    parser: FrameReader,
}

/// One role's row of the table. `conn` is declared before `endpoint` so
/// that dropping a `Link` closes the socket first: the endpoint thread
/// is blocked in a read on it, sees EOF at once, and its join returns
/// immediately instead of waiting out the read timeout.
struct Link {
    conn: Option<Conn>,
    endpoint: NodeEndpoint,
}

/// The TCP implementation of the scenario runtime's [`Transport`].
pub struct TcpTransport {
    links: HashMap<WireRole, Link>,
    stats: NetStats,
}

impl TcpTransport {
    /// A transport with no endpoints yet: each role's endpoint thread is
    /// spawned, and connected to over loopback, on first contact.
    #[must_use]
    pub fn loopback() -> Self {
        TcpTransport {
            links: HashMap::new(),
            stats: NetStats::default(),
        }
    }

    /// Wire counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    fn try_roundtrip(
        &mut self,
        role: WireRole,
        frame: &WireFrame,
    ) -> Result<WireFrame, TransportError> {
        let link = match self.links.entry(role) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Link {
                conn: None,
                endpoint: NodeEndpoint::spawn(role).map_err(io_error)?,
            }),
        };
        let conn = match &mut link.conn {
            Some(conn) => conn,
            None => {
                let stream = TcpStream::connect(link.endpoint.addr()).map_err(io_error)?;
                let _ = stream.set_nodelay(true);
                stream
                    .set_read_timeout(Some(READ_DEADLINE))
                    .map_err(io_error)?;
                self.stats.connects += 1;
                link.conn.insert(Conn {
                    stream,
                    parser: FrameReader::new(),
                })
            }
        };
        let n = write_frame(&mut conn.stream, frame)?;
        let echo = read_frame(&mut conn.stream, &mut conn.parser)?;
        self.stats.frames += 1;
        self.stats.bytes_sent += n as u64;
        Ok(echo)
    }
}

impl Transport for TcpTransport {
    fn is_wire(&self) -> bool {
        true
    }

    fn roundtrip(&mut self, frame: WireFrame) -> Result<WireFrame, TransportError> {
        let role = frame.role;
        let mut last = TransportError::Closed;
        for attempt in 0..ROUNDTRIP_ATTEMPTS {
            match self.try_roundtrip(role, &frame) {
                Ok(echo) => {
                    if echo != frame {
                        // The endpoint acked something else: the wire
                        // (or the endpoint) corrupted the frame.
                        return Err(TransportError::Corrupt(format!(
                            "echo mismatch for seq {}",
                            frame.seq
                        )));
                    }
                    return Ok(echo);
                }
                // Structural rejections are not cured by reconnecting.
                Err(
                    e @ (TransportError::Corrupt(_)
                    | TransportError::Oversized { .. }
                    | TransportError::Malformed(_)
                    | TransportError::RoleMismatch { .. }),
                ) => return Err(e),
                Err(e) => {
                    // I/O failure or endpoint death: reconnect and
                    // resend. The endpoint is a validating relay, so a
                    // duplicate send is harmless — only the echo the
                    // driver reads is ever scheduled.
                    if let Some(link) = self.links.get_mut(&role) {
                        link.conn = None;
                    }
                    if attempt + 1 < ROUNDTRIP_ATTEMPTS {
                        self.stats.reconnects += 1;
                    }
                    last = e;
                }
            }
        }
        Err(last)
    }

    fn restart(&mut self, role: WireRole) -> Result<(), TransportError> {
        // Dropping the `Link` closes the connection, then joins the
        // endpoint thread (field order, see `Link`).
        self.links.remove(&role);
        self.stats.restarts += 1;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "tcp-loopback"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_roundtrip_reconnects_after_restart() {
        let mut t = TcpTransport::loopback();
        let role = WireRole::Pdp { slot: 1 };
        let frame = WireFrame {
            role,
            kind: 1,
            seq: 1,
            delay: 10,
            payload: vec![9; 32],
        };
        assert_eq!(t.roundtrip(frame.clone()).expect("first"), frame);
        t.restart(role).expect("restart");
        let next = WireFrame { seq: 2, ..frame };
        assert_eq!(t.roundtrip(next.clone()).expect("reconnect"), next);
        let stats = t.stats();
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.connects, 2, "restart forces a fresh connection");
    }

    #[test]
    fn distinct_roles_get_distinct_endpoints() {
        let mut t = TcpTransport::loopback();
        for (seq, role) in [
            WireRole::Pep,
            WireRole::Pdp { slot: 0 },
            WireRole::Li { index: 0 },
            WireRole::Chain,
            WireRole::Analyser,
        ]
        .into_iter()
        .enumerate()
        {
            let frame = WireFrame::ping(role, seq as u64 + 1);
            assert_eq!(t.roundtrip(frame.clone()).expect("ping"), frame);
        }
        assert_eq!(t.stats().connects, 5);
    }

    /// An endpoint thread sits in a 50 ms read between frames. Restart
    /// and drop close the connection before joining it, so neither
    /// waits that read out: joining first costs 20 × 50 ms here before
    /// the drop is even counted.
    #[test]
    fn restart_and_teardown_do_not_wait_out_the_read_timeout() {
        let started = std::time::Instant::now();
        let mut t = TcpTransport::loopback();
        let role = WireRole::Li { index: 0 };
        for seq in 1..=20 {
            t.restart(role).expect("restart");
            let frame = WireFrame::ping(role, seq);
            assert_eq!(t.roundtrip(frame.clone()).expect("ping"), frame);
        }
        for role in [
            WireRole::Pep,
            WireRole::Pdp { slot: 0 },
            WireRole::Chain,
            WireRole::Analyser,
        ] {
            t.roundtrip(WireFrame::ping(role, 1)).expect("ping");
        }
        assert_eq!(t.stats().connects, 24);
        drop(t);
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "took {took:?}");
    }
}
