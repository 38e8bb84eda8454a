//! The TCP backend of the scenario runtime's [`Transport`] seam.
//!
//! [`TcpTransport`] keeps one table, role → (connection, endpoint), and
//! carries one dispatch's wire messages as one synchronous batch: frame
//! every message, write each role's frames to its connection, then read
//! every echo back in input order and hand the echoed frames to the
//! scheduler. Writing everything before reading anything lets the
//! endpoint threads validate side by side, and the driver sleeps once
//! per batch instead of once per frame. A role's [`NodeEndpoint`] — an
//! in-process thread behind a real loopback socket — is spawned on
//! first contact. The endpoint validates and echoes; no Figure-1 role
//! logic runs behind the socket.
//!
//! A scripted service crash reaches the transport as
//! [`Transport::restart`]: the connection is closed, the endpoint thread
//! joined, and the next frame for that role spawns a fresh endpoint at a
//! fresh port and connects to it — a real reconnect across a real
//! socket.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use drams_faas::transport::{Transport, TransportError, WireFrame, WireRole};

use crate::endpoint::NodeEndpoint;
use crate::frame::{frame_bytes, io_error, read_frame, FrameReader};

/// How long a single blocked read may wait for the endpoint's echo
/// before the batch is abandoned and resent on fresh connections.
const READ_DEADLINE: Duration = Duration::from_secs(5);

/// Attempts per batch; each failure (a refused connect included) drops
/// the batch's connections and reconnects, so this bounds the reconnect
/// storm a flapping endpoint can cause.
const ROUNDTRIP_ATTEMPTS: u32 = 5;

/// Bytes a batch writes before it reads their echoes. An endpoint echoes
/// as it reads, and the driver reads nothing while it writes, so the
/// echoes of one write round wait in loopback socket buffers; a round
/// this small always fits, and neither side can block the other.
/// Without rounds, a batch larger than both directions' buffers (24 MiB
/// to one role on a stock Linux loopback) leaves both sides blocked in
/// `write` for good. A frame larger than this is a round of its own,
/// which the endpoint reads whole before it echoes.
const WRITE_ROUND: usize = 32 * 1024;

/// Wire-level counters the bench runner reports (E16).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Completed round-trips (frames echoed and checked).
    pub frames: u64,
    /// Completed [`Transport::roundtrip_batch`] calls; a
    /// [`Transport::roundtrip`] is a batch of one.
    pub batches: u64,
    /// Wire bytes written (outer framing included).
    pub bytes_sent: u64,
    /// Connections established (first contacts and re-establishments).
    pub connects: u64,
    /// Batch attempts that failed and were resent on fresh connections.
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

    /// `role`'s connection, spawning its endpoint and connecting to it
    /// on first contact.
    fn conn(&mut self, role: WireRole) -> Result<&mut Conn, TransportError> {
        let link = match self.links.entry(role) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Link {
                conn: None,
                endpoint: NodeEndpoint::spawn(role).map_err(io_error)?,
            }),
        };
        let conn = match link.conn.take() {
            Some(conn) => conn,
            None => {
                let stream = TcpStream::connect(link.endpoint.addr()).map_err(io_error)?;
                let _ = stream.set_nodelay(true);
                stream
                    .set_read_timeout(Some(READ_DEADLINE))
                    .map_err(io_error)?;
                self.stats.connects += 1;
                Conn {
                    stream,
                    parser: FrameReader::new(),
                }
            }
        };
        Ok(link.conn.insert(conn))
    }

    /// One attempt at a batch whose frames are already encoded in
    /// `wires`: per write round, one `write_all` per distinct role, then
    /// every echo of the round read from its role's connection in input
    /// order.
    fn try_batch(
        &mut self,
        frames: &[WireFrame],
        wires: &[Vec<u8>],
    ) -> Result<Vec<WireFrame>, TransportError> {
        let mut echoes = Vec::with_capacity(frames.len());
        let mut start = 0;
        while start < frames.len() {
            let mut end = start + 1;
            let mut round_bytes = wires[start].len();
            while end < frames.len() && round_bytes + wires[end].len() <= WRITE_ROUND {
                round_bytes += wires[end].len();
                end += 1;
            }
            let round = start..end;
            let mut writes: Vec<(WireRole, Vec<u8>)> = Vec::new();
            for (frame, wire) in frames[round.clone()].iter().zip(&wires[round.clone()]) {
                match writes.iter_mut().find(|(role, _)| *role == frame.role) {
                    Some((_, bytes)) => bytes.extend_from_slice(wire),
                    None => writes.push((frame.role, wire.clone())),
                }
            }
            for (role, bytes) in writes {
                let conn = self.conn(role)?;
                conn.stream.write_all(&bytes).map_err(io_error)?;
            }
            for frame in &frames[round] {
                let conn = self.conn(frame.role)?;
                echoes.push(read_frame(&mut conn.stream, &mut conn.parser)?);
            }
            start = end;
        }
        Ok(echoes)
    }
}

impl Transport for TcpTransport {
    fn is_wire(&self) -> bool {
        true
    }

    fn roundtrip_batch(
        &mut self,
        frames: Vec<WireFrame>,
    ) -> Result<Vec<WireFrame>, TransportError> {
        // Frame everything before writing anything: an oversized frame
        // fails the batch with no byte on the wire.
        let wires = frames
            .iter()
            .map(frame_bytes)
            .collect::<Result<Vec<_>, _>>()?;
        let mut last = TransportError::Closed;
        for attempt in 0..ROUNDTRIP_ATTEMPTS {
            let failure = match self.try_batch(&frames, &wires) {
                Ok(echoes) if echoes == frames => {
                    self.stats.frames += frames.len() as u64;
                    self.stats.batches += 1;
                    self.stats.bytes_sent += wires.iter().map(|w| w.len() as u64).sum::<u64>();
                    return Ok(echoes);
                }
                // The endpoint acked something else: the wire (or the
                // endpoint) corrupted a frame.
                Ok(echoes) => {
                    let bad = echoes
                        .iter()
                        .zip(&frames)
                        .find(|(echo, frame)| echo != frame);
                    let seq = bad.map_or(0, |(_, frame)| frame.seq);
                    TransportError::Corrupt(format!("echo mismatch for seq {seq}"))
                }
                Err(e) => e,
            };
            // A failed batch may leave echoes unread on any of its
            // connections: drop them all, so the next batch starts clean.
            for frame in &frames {
                if let Some(link) = self.links.get_mut(&frame.role) {
                    link.conn = None;
                }
            }
            match failure {
                // Structural rejections are not cured by reconnecting.
                e @ (TransportError::Corrupt(_)
                | TransportError::Oversized { .. }
                | TransportError::Malformed(_)
                | TransportError::RoleMismatch { .. }) => return Err(e),
                // I/O failure or endpoint death: reconnect and resend the
                // whole batch. The endpoint checks seq per connection and
                // only the echoes the driver reads are ever scheduled, so
                // a duplicate send is harmless.
                e => {
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

    fn frame(role: WireRole, seq: u64) -> WireFrame {
        WireFrame {
            role,
            kind: 3,
            seq,
            delay: 100 * seq,
            payload: vec![seq as u8; 40 + seq as usize],
        }
    }

    #[test]
    fn a_batch_across_roles_echoes_in_input_order() {
        let mut t = TcpTransport::loopback();
        let batch = vec![
            frame(WireRole::Li { index: 0 }, 1),
            frame(WireRole::Pep, 2),
            frame(WireRole::Li { index: 0 }, 3),
            frame(WireRole::Pdp { slot: 0 }, 4),
        ];
        let wire_bytes: u64 = batch
            .iter()
            .map(|f| frame_bytes(f).expect("frame").len() as u64)
            .sum();
        assert_eq!(t.roundtrip_batch(batch.clone()).expect("batch"), batch);
        let stats = t.stats();
        assert_eq!((stats.frames, stats.batches), (4, 1));
        assert_eq!(stats.bytes_sent, wire_bytes);
        assert_eq!(stats.connects, 3, "one connection per distinct role");
    }

    #[test]
    fn a_restart_between_batches_reconnects() {
        let mut t = TcpTransport::loopback();
        let pdp = WireRole::Pdp { slot: 0 };
        let first = vec![frame(pdp, 1), frame(WireRole::Pep, 2)];
        assert_eq!(t.roundtrip_batch(first.clone()).expect("first"), first);
        t.restart(pdp).expect("restart");
        let second = vec![frame(WireRole::Pep, 3), frame(pdp, 4)];
        assert_eq!(t.roundtrip_batch(second.clone()).expect("second"), second);
        let stats = t.stats();
        assert_eq!((stats.batches, stats.restarts, stats.reconnects), (2, 1, 0));
        assert_eq!(stats.connects, 3, "only the restarted role reconnects");
    }

    /// Batches larger than a write round still complete: the rounds are
    /// written and read in turn, and a frame larger than a round goes
    /// alone.
    #[test]
    fn a_batch_larger_than_a_write_round_completes() {
        let mut t = TcpTransport::loopback();
        let li = WireRole::Li { index: 1 };
        let mut batch: Vec<WireFrame> = (1..=40)
            .map(|seq| WireFrame {
                payload: vec![7; 4_000],
                ..frame(li, seq)
            })
            .collect();
        batch.push(WireFrame {
            payload: vec![8; 3 * WRITE_ROUND],
            ..frame(li, 41)
        });
        assert_eq!(t.roundtrip_batch(batch.clone()).expect("batch"), batch);
        assert_eq!((t.stats().frames, t.stats().batches), (41, 1));
    }

    #[test]
    fn an_oversized_frame_fails_the_batch_before_any_byte_is_written() {
        let mut t = TcpTransport::loopback();
        let role = WireRole::Chain;
        t.roundtrip(frame(role, 1)).expect("warm-up");
        let oversized = WireFrame {
            payload: vec![0; drams_faas::transport::MAX_FRAME_BODY + 1],
            ..frame(role, 3)
        };
        let batch = vec![frame(role, 2), oversized];
        assert!(matches!(
            t.roundtrip_batch(batch),
            Err(TransportError::Oversized { .. })
        ));
        assert_eq!((t.stats().frames, t.stats().batches), (1, 1));
        let link = t.links.remove(&role).expect("the warmed-up role");
        drop(link.conn);
        assert_eq!(
            link.endpoint.shutdown().frames,
            1,
            "the endpoint saw no byte"
        );
    }
}
