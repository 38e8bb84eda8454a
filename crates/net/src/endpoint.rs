//! The socket endpoint a [`TcpTransport`](crate::TcpTransport) sends a
//! role's frames to.
//!
//! An endpoint owns a loopback listener and serves one accepted
//! connection at a time (the scenario driver's). It validates every
//! arriving frame — outer CRC, canonical decode, role pinning, strictly
//! increasing sequence numbers — and acknowledges it by echoing the
//! frame back. The driver schedules the message it decodes from that
//! echo, so everything the simulation consumes has actually crossed the
//! wire twice. Invalid traffic never gets an acknowledgement: the
//! endpoint acks the frames before it, then drops the connection, which
//! the driver observes as a typed error.
//!
//! That is all an endpoint does: it validates and echoes, holds no
//! state beyond its counters and runs no Figure-1 role logic. It has no
//! thread of its own. Its sockets are non-blocking, and its holder — the
//! transport, on the driver's thread — calls [`NodeEndpoint::serve`]
//! whenever it wants the endpoint to move bytes.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Instant;

use drams_faas::transport::WireRole;

use crate::frame::{frame_bytes, would_block, FrameReader};

/// Counters an endpoint accumulates over its lifetime.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EndpointStats {
    /// Frames validated and echoed.
    pub frames: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Frames refused (bad role, sequence regression, corrupt bytes).
    pub rejected: u64,
}

/// The accepted connection an endpoint serves.
#[derive(Debug)]
struct Served {
    stream: TcpStream,
    parser: FrameReader,
    last_seq: Option<u64>,
    /// Echoes not yet written.
    acks: Vec<u8>,
    /// A frame was refused: send the acks before it, then close.
    refused: bool,
}

impl Served {
    /// Writes what the socket takes of the pending echoes.
    fn flush(&mut self) -> io::Result<bool> {
        let written = would_block(self.stream.write(&self.acks))?.unwrap_or(0);
        self.acks.drain(..written);
        Ok(written > 0)
    }

    /// One serving step: flush pending echoes or, once they are all out,
    /// read one slice and echo its complete frames. Corrupt, oversized or
    /// malformed bytes, a foreign role or a seq regression (a replayed or
    /// reordered frame) end the stream: the frames before it are acked,
    /// it never is. Returns whether a byte moved; `Err` ends the
    /// connection.
    fn step(&mut self, pinned: WireRole, stats: &mut EndpointStats) -> io::Result<bool> {
        if !self.acks.is_empty() {
            return self.flush();
        }
        if self.refused {
            return Err(io::ErrorKind::InvalidData.into());
        }
        match would_block(self.parser.read_from(&mut self.stream))? {
            None => return Ok(false),
            Some(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Some(_) => {}
        }
        loop {
            let echo = match self.parser.next_frame() {
                Ok(None) => break,
                Ok(Some(frame))
                    if frame.role == pinned && self.last_seq.is_none_or(|s| frame.seq > s) =>
                {
                    self.last_seq = Some(frame.seq);
                    frame_bytes(&frame).ok()
                }
                Ok(Some(_)) | Err(_) => None,
            };
            let Some(echo) = echo else {
                self.refused = true;
                stats.rejected += 1;
                break;
            };
            self.acks.extend_from_slice(&echo);
            stats.frames += 1;
        }
        if !self.acks.is_empty() {
            self.flush()?;
        }
        Ok(true)
    }
}

/// A validating echo endpoint for one role, served inline by its holder.
#[derive(Debug)]
pub struct NodeEndpoint {
    role: WireRole,
    listener: TcpListener,
    addr: SocketAddr,
    served: Option<Served>,
    stats: EndpointStats,
}

impl NodeEndpoint {
    /// Binds a non-blocking listener on `127.0.0.1:0` for `role`. It is
    /// listening before this returns, so a connect never races it.
    pub fn bind(role: WireRole) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        Ok(NodeEndpoint {
            role,
            addr: listener.local_addr()?,
            listener,
            served: None,
            stats: EndpointStats::default(),
        })
    }

    /// The endpoint's listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// Serves, instead of any current connection, the queued one whose
    /// peer address is `peer` (the connecting side's local address).
    /// Connections ahead of it, left by an attempt that failed, are
    /// closed unserved. Polls until `deadline`, then fails with
    /// `WouldBlock`; a loopback connect is queued when it returns.
    pub fn accept(&mut self, peer: SocketAddr, deadline: Instant) -> io::Result<()> {
        self.served = None;
        loop {
            match self.listener.accept() {
                Ok((stream, from)) if from == peer => {
                    stream.set_nonblocking(true)?;
                    let _ = stream.set_nodelay(true);
                    self.stats.connections += 1;
                    self.served = Some(Served {
                        stream,
                        parser: FrameReader::new(),
                        last_seq: None,
                        acks: Vec::new(),
                        refused: false,
                    });
                    return Ok(());
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::hint::spin_loop();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Moves what bytes it can without waiting: writes pending echoes,
    /// or reads at most one slice and echoes the complete frames in it.
    /// Returns whether a byte moved; a refused frame, EOF or a socket
    /// error closes the connection, and that counts as a move.
    pub fn serve(&mut self) -> bool {
        let Some(served) = self.served.as_mut() else {
            return false;
        };
        match served.step(self.role, &mut self.stats) {
            Ok(moved) => moved,
            Err(_) => {
                self.served = None;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Link;
    use drams_faas::transport::{TransportError, WireFrame};
    use std::io::Read;
    use std::time::Duration;

    fn wire(frames: &[WireFrame]) -> Vec<u8> {
        frames
            .iter()
            .flat_map(|f| frame_bytes(f).expect("frame"))
            .collect()
    }

    /// Sends `frames` in one stream and collects the echoes, connecting
    /// first if need be; all on this thread.
    fn exchange(
        link: &mut Link,
        frames: &[WireFrame],
    ) -> (Vec<WireFrame>, Result<(), TransportError>) {
        link.connect().expect("connect");
        let mut echoes = Vec::new();
        let done = link.transfer(&wire(frames), frames.len(), &mut echoes);
        (echoes, done)
    }

    #[test]
    fn endpoint_echoes_valid_frames() {
        let mut link = Link::bind(WireRole::Chain).expect("bind");
        for seq in 1..=10 {
            let frame = [WireFrame::ping(WireRole::Chain, seq)];
            assert_eq!(exchange(&mut link, &frame), (frame.to_vec(), Ok(())));
        }
        let stats = link.endpoint.stats();
        assert_eq!(
            (stats.frames, stats.connections, stats.rejected),
            (10, 1, 0)
        );
    }

    #[test]
    fn endpoint_refuses_wrong_role_and_sequence_regressions() {
        // Wrong role: the pinned endpoint drops the connection unacked.
        let mut link = Link::bind(WireRole::Analyser).expect("bind");
        let (echoes, done) = exchange(&mut link, &[WireFrame::ping(WireRole::Chain, 1)]);
        assert!(echoes.is_empty() && done.is_err());

        // Sequence regression on a fresh connection.
        link.conn = None;
        let first = [WireFrame::ping(WireRole::Analyser, 5)];
        assert_eq!(exchange(&mut link, &first), (first.to_vec(), Ok(())));
        let (echoes, done) = exchange(&mut link, &first);
        assert!(echoes.is_empty() && done.is_err());
        let stats = link.endpoint.stats();
        assert_eq!((stats.rejected, stats.connections), (2, 2));
    }

    #[test]
    fn frames_in_one_write_are_all_echoed_and_a_refusal_acks_only_those_before_it() {
        let mut link = Link::bind(WireRole::Pep).expect("bind");
        let good = vec![
            WireFrame::ping(WireRole::Pep, 1),
            WireFrame::ping(WireRole::Pep, 2),
        ];
        let mut all = good.clone();
        all.push(WireFrame::ping(WireRole::Chain, 3));
        let no_third_ack = Err(TransportError::Closed);
        assert_eq!(exchange(&mut link, &all), (good, no_third_ack));
        let stats = link.endpoint.stats();
        assert_eq!((stats.frames, stats.rejected), (2, 1));
    }

    /// Nothing waits on an endpoint: one that never served drops at once.
    #[test]
    fn an_endpoint_that_never_accepted_stops_at_once() {
        let started = Instant::now();
        let ep = NodeEndpoint::bind(WireRole::Chain).expect("bind");
        assert_eq!(ep.stats(), EndpointStats::default());
        drop(ep);
        let took = started.elapsed();
        assert!(took < Duration::from_millis(100), "drop took {took:?}");
    }

    /// A connection a failed attempt left in the accept queue is closed
    /// unserved; the one whose peer is the connecting side is served.
    #[test]
    fn a_stale_queued_connection_is_skipped_not_served() {
        let role = WireRole::Li { index: 0 };
        let mut link = Link::bind(role).expect("bind");
        let mut stale = TcpStream::connect(link.endpoint.addr()).expect("stale connect");
        let frame = [WireFrame::ping(role, 1)];
        assert_eq!(exchange(&mut link, &frame), (frame.to_vec(), Ok(())));
        stale
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let _ = stale.write_all(&wire(&frame));
        let echoed = matches!(stale.read(&mut [0u8; 1]), Ok(n) if n > 0);
        assert!(!echoed, "the stale connection is closed, never echoed");
        let stats = link.endpoint.stats();
        assert_eq!((stats.connections, stats.frames), (1, 1));
    }
}
