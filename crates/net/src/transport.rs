//! The TCP backend of the scenario runtime's [`Transport`] seam.
//!
//! [`TcpTransport`] keeps one table, role → (connection, endpoint), and
//! carries one dispatch's wire messages as one synchronous batch: frame
//! every message, move each run of consecutive frames to one role to
//! its endpoint and their echoes back, and hand the echoed frames to the
//! scheduler in input order. A role's [`NodeEndpoint`] is bound, and connected to over
//! loopback, on first contact. It is served inline, on the driver's
//! thread: both ends of a role's connection are non-blocking, and a
//! transfer alternates between them in bounded slices — write a slice,
//! let the endpoint read, validate and echo what arrived, read the
//! echoes — so no thread sleeps and none has to be woken. The endpoint
//! validates and echoes; no Figure-1 role logic runs behind the socket.
//!
//! A scripted service crash reaches the transport as
//! [`Transport::restart`]: the connection and the endpoint's listener are
//! closed, and the next frame for that role binds a fresh endpoint at a
//! fresh port and connects to it — a real reconnect across a real
//! socket.
//!
//! A batch is sent once. If it fails — an I/O error, a closed or stalled
//! connection, an echo that differs from its frame — every connection it
//! used is dropped, so the next batch starts clean, and the typed error
//! is returned: a wire fault surfaces, it is not masked by a resend.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use drams_faas::transport::{Transport, TransportError, WireFrame, WireRole};

use crate::endpoint::NodeEndpoint;
use crate::frame::{frame_bytes, io_error, would_block, FrameReader, SLICE};

/// How long a transfer may go on after it first finds no byte to move
/// before the batch fails with [`TransportError::TimedOut`].
const STALL_DEADLINE: Duration = Duration::from_secs(5);

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
    /// Connections established: a role's first contact, and its next
    /// after a restart or a failed batch.
    pub connects: u64,
    /// Service restarts signalled via [`Transport::restart`].
    pub restarts: u64,
}

/// One role's row of the table: its endpoint and, once connected, the
/// driver's end of the connection to it.
pub(crate) struct Link {
    pub(crate) endpoint: NodeEndpoint,
    pub(crate) conn: Option<(TcpStream, FrameReader)>,
}

impl Link {
    pub(crate) fn bind(role: WireRole) -> Result<Self, TransportError> {
        let endpoint = NodeEndpoint::bind(role).map_err(io_error)?;
        Ok(Link {
            endpoint,
            conn: None,
        })
    }

    /// Connects to the endpoint, unless connected already, and has it
    /// accept the connection. Returns whether it connected.
    pub(crate) fn connect(&mut self) -> Result<bool, TransportError> {
        if self.conn.is_some() {
            return Ok(false);
        }
        let stream = TcpStream::connect(self.endpoint.addr()).map_err(io_error)?;
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).map_err(io_error)?;
        let local = stream.local_addr().map_err(io_error)?;
        let deadline = Instant::now() + STALL_DEADLINE;
        self.endpoint.accept(local, deadline).map_err(io_error)?;
        self.conn = Some((stream, FrameReader::new()));
        Ok(true)
    }

    /// Sends `bytes`, which hold `want` whole frames, to the endpoint and
    /// pushes their echoes onto `echoes`. Each turn writes at most one
    /// [`SLICE`], serves the endpoint once and reads at most one slice of
    /// echoes, so neither end ever waits on the other, whatever the
    /// socket buffers hold.
    pub(crate) fn transfer(
        &mut self,
        bytes: &[u8],
        want: usize,
        echoes: &mut Vec<WireFrame>,
    ) -> Result<(), TransportError> {
        let (stream, parser) = self.conn.as_mut().ok_or(TransportError::Closed)?;
        let target = echoes.len() + want;
        let mut sent = 0;
        let mut stalled = None;
        while echoes.len() < target {
            let slice = &bytes[sent..bytes.len().min(sent + SLICE)];
            let written = would_block(stream.write(slice)).map_err(io_error)?;
            let written = written.unwrap_or(0);
            sent += written;
            let served = self.endpoint.serve();
            let read = would_block(parser.read_from(stream)).map_err(io_error)?;
            while echoes.len() < target {
                let Some(echo) = parser.next_frame()? else {
                    break;
                };
                echoes.push(echo);
            }
            if read == Some(0) && echoes.len() < target {
                return Err(TransportError::Closed);
            }
            if written == 0 && !served && read.is_none() {
                // Loopback bytes are usually delivered before `write`
                // returns; this waits out the rare deferred delivery.
                if stalled.get_or_insert_with(Instant::now).elapsed() >= STALL_DEADLINE {
                    return Err(TransportError::TimedOut);
                }
                std::hint::spin_loop();
            }
        }
        Ok(())
    }
}

/// The TCP implementation of the scenario runtime's [`Transport`].
#[derive(Default)]
pub struct TcpTransport {
    links: HashMap<WireRole, Link>,
    stats: NetStats,
}

impl TcpTransport {
    /// A transport with no endpoints yet: each role's endpoint is bound,
    /// and connected to over loopback, on first contact.
    #[must_use]
    pub fn loopback() -> Self {
        Self::default()
    }

    /// Wire counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Sends a batch already encoded as runs of consecutive frames to one
    /// role: each run transferred in turn, so the echoes arrive in input
    /// order.
    fn send_runs(
        &mut self,
        runs: &[(WireRole, Vec<u8>, usize)],
    ) -> Result<Vec<WireFrame>, TransportError> {
        let mut echoes = Vec::with_capacity(runs.iter().map(|run| run.2).sum());
        for (role, bytes, count) in runs {
            let link = match self.links.entry(*role) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(Link::bind(*role)?),
            };
            if link.connect()? {
                self.stats.connects += 1;
            }
            link.transfer(bytes, *count, &mut echoes)?;
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
        let mut runs: Vec<(WireRole, Vec<u8>, usize)> = Vec::new();
        for frame in &frames {
            let wire = frame_bytes(frame)?;
            match runs.last_mut() {
                Some((role, bytes, count)) if *role == frame.role => {
                    bytes.extend_from_slice(&wire);
                    *count += 1;
                }
                _ => runs.push((frame.role, wire, 1)),
            }
        }
        let failure = match self.send_runs(&runs) {
            Ok(echoes) if echoes == frames => {
                self.stats.frames += frames.len() as u64;
                self.stats.batches += 1;
                self.stats.bytes_sent += runs.iter().map(|(_, b, _)| b.len() as u64).sum::<u64>();
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
        // A failed batch may leave bytes unread on any of its
        // connections: drop them all, so the next batch starts clean.
        for (role, ..) in &runs {
            if let Some(link) = self.links.get_mut(role) {
                link.conn = None;
            }
        }
        Err(failure)
    }

    fn restart(&mut self, role: WireRole) -> Result<(), TransportError> {
        // Dropping the `Link` closes both ends of the connection and the
        // endpoint's listener.
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
    use drams_crypto::codec::Encode;
    use drams_faas::transport::MAX_FRAME_BODY;

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

    /// Restart and teardown only close sockets: nothing is joined and
    /// nothing is waited out.
    #[test]
    fn restart_and_teardown_do_not_wait_out_the_read_timeout() {
        let started = Instant::now();
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
        assert_eq!((stats.batches, stats.restarts), (2, 1));
        assert_eq!(stats.connects, 3, "only the restarted role connects again");
    }

    /// Nothing rests on socket buffer sizes: a batch many slices long, a
    /// frame of exactly `MAX_FRAME_BODY` and a batch to one role larger
    /// than both directions of a stock loopback connection hold all
    /// complete on this one thread.
    #[test]
    fn a_max_size_frame_and_a_batch_over_24_mib_complete_on_one_thread() {
        let mut t = TcpTransport::loopback();
        let li = WireRole::Li { index: 0 };
        let sized = |seq: u64, len: usize| WireFrame {
            payload: vec![seq as u8; len],
            ..frame(li, seq)
        };
        let small: Vec<WireFrame> = (1..=40).map(|seq| sized(seq, 4_000)).collect();
        assert_eq!(t.roundtrip_batch(small.clone()).expect("small"), small);
        let largest = sized(41, MAX_FRAME_BODY - 30);
        assert_eq!(largest.to_canonical_bytes().len(), MAX_FRAME_BODY);
        assert_eq!(t.roundtrip(largest.clone()).expect("largest"), largest);
        let batch: Vec<WireFrame> = (42..=66)
            .map(|seq| sized(seq, MAX_FRAME_BODY - 30))
            .collect();
        let bytes_before = t.stats().bytes_sent;
        assert_eq!(t.roundtrip_batch(batch.clone()).expect("batch"), batch);
        let stats = t.stats();
        assert!(stats.bytes_sent - bytes_before > 24 << 20);
        assert_eq!((stats.frames, stats.batches, stats.connects), (66, 3, 1));
    }

    /// A batch is sent once. A frame the endpoint refuses fails it with a
    /// typed error; a resend on a fresh connection, where the repeated
    /// sequence number would pass, would have masked it. The failed
    /// batch's connection is dropped, so the next batch starts clean.
    #[test]
    fn a_refused_batch_fails_once_and_the_next_starts_clean() {
        let mut t = TcpTransport::loopback();
        let role = WireRole::Chain;
        assert_eq!(t.roundtrip(frame(role, 5)).expect("first"), frame(role, 5));
        assert_eq!(t.roundtrip(frame(role, 5)), Err(TransportError::Closed));
        assert!(
            t.links[&role].conn.is_none(),
            "the failed batch's connection"
        );
        assert_eq!(t.roundtrip(frame(role, 6)).expect("next"), frame(role, 6));
        let stats = t.stats();
        assert_eq!((stats.frames, stats.batches, stats.connects), (2, 2, 2));
        let endpoint = t.links[&role].endpoint.stats();
        assert_eq!((endpoint.rejected, endpoint.connections), (1, 2));
    }

    #[test]
    fn an_oversized_frame_fails_the_batch_before_any_byte_is_written() {
        let mut t = TcpTransport::loopback();
        let role = WireRole::Chain;
        t.roundtrip(frame(role, 1)).expect("warm-up");
        let oversized = WireFrame {
            payload: vec![0; MAX_FRAME_BODY + 1],
            ..frame(role, 3)
        };
        let batch = vec![frame(role, 2), oversized];
        assert!(matches!(
            t.roundtrip_batch(batch),
            Err(TransportError::Oversized { .. })
        ));
        assert_eq!((t.stats().frames, t.stats().batches), (1, 1));
        let link = t.links.remove(&role).expect("the warmed-up role");
        assert_eq!(link.endpoint.stats().frames, 1, "the endpoint saw no byte");
    }
}
