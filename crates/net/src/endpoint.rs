//! The socket endpoint a [`TcpTransport`](crate::TcpTransport) sends a
//! role's frames to.
//!
//! An endpoint accepts one client connection at a time (the scenario
//! driver), validates every arriving frame — outer CRC, canonical
//! decode, role pinning, strictly increasing sequence numbers — and
//! acknowledges it by echoing the frame back. Every complete frame
//! already in its buffer is echoed with one write, so a driver that sent
//! a batch gets the batch's echoes back together. The driver schedules
//! the message it decodes from that echo, so everything the simulation
//! consumes has actually crossed the wire twice. Invalid traffic never
//! gets an acknowledgement: the endpoint acks the frames before it, then
//! drops the connection, which the driver observes as a typed error.
//!
//! That is all an endpoint does: it validates and echoes, holds no
//! state beyond its counters and runs no Figure-1 role logic. It is
//! hosted one way — a thread in the driver's process behind a real
//! loopback socket ([`NodeEndpoint::spawn`]), blocked in `accept`
//! between connections.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use drams_faas::transport::{TransportError, WireFrame, WireRole};

use crate::frame::{frame_bytes, read_frame, FrameReader};

/// Counters an endpoint accumulates over its lifetime.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EndpointStats {
    /// Frames validated and echoed.
    pub frames: u64,
    /// Wire bytes received (outer framing included).
    pub bytes: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Frames refused (bad role, sequence regression, corrupt bytes).
    pub rejected: u64,
}

/// Whether `frame` may be acked on a connection pinned to `pinned` whose
/// last acked sequence number is `last_seq`; records its seq if so. A
/// replayed or reordered frame refuses the whole stream.
fn admit(frame: &WireFrame, pinned: WireRole, last_seq: &mut Option<u64>) -> bool {
    if frame.role != pinned || last_seq.is_some_and(|last| frame.seq <= last) {
        return false;
    }
    *last_seq = Some(frame.seq);
    true
}

/// Serves one accepted connection until EOF, error, or `stop`.
fn serve_connection(
    mut stream: TcpStream,
    pinned: WireRole,
    stop: &AtomicBool,
    stats: &mut EndpointStats,
) {
    let _ = stream.set_nodelay(true);
    // A short read timeout keeps the loop responsive to `stop` without
    // busy-waiting on an idle connection.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut parser = FrameReader::new();
    let mut last_seq: Option<u64> = None;
    let mut acks = Vec::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let mut next = match read_frame(&mut stream, &mut parser) {
            Ok(frame) => Ok(Some(frame)),
            Err(TransportError::TimedOut) => continue,
            Err(TransportError::Closed) => return,
            Err(e) => Err(e),
        };
        // Ack this frame and every complete one behind it in the buffer
        // with one write. Corrupt, oversized or malformed bytes, a
        // foreign role or a seq regression end the stream: the frames
        // before it are acked, it never is.
        acks.clear();
        let mut acked = 0;
        let refused = loop {
            match next {
                Ok(None) => break false,
                Ok(Some(frame)) if admit(&frame, pinned, &mut last_seq) => {
                    match frame_bytes(&frame) {
                        Ok(bytes) => acks.extend_from_slice(&bytes),
                        Err(_) => break true,
                    }
                    acked += 1;
                    next = parser.next_frame();
                }
                Ok(Some(_)) | Err(_) => break true,
            }
        };
        if !acks.is_empty() {
            if stream.write_all(&acks).is_err() {
                return;
            }
            stats.frames += acked;
            stats.bytes += acks.len() as u64;
        }
        if refused {
            stats.rejected += 1;
            return;
        }
    }
}

/// Runs the accept loop on `listener` until `stop` is set. `accept`
/// blocks; whoever sets `stop` then connects once to wake it, and that
/// connection is never served.
fn serve(listener: &TcpListener, pinned: WireRole, stop: &AtomicBool) -> EndpointStats {
    let mut stats = EndpointStats::default();
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { break };
        stats.connections += 1;
        serve_connection(stream, pinned, stop, &mut stats);
    }
    stats
}

/// A validating echo endpoint for one role, served by its own thread.
#[derive(Debug)]
pub struct NodeEndpoint {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<EndpointStats>>,
    handle: Option<JoinHandle<()>>,
}

impl NodeEndpoint {
    /// Binds `127.0.0.1:0` and serves `role` in a fresh thread. The
    /// listener is live before this returns, so a connect attempt never
    /// races the spawn.
    pub fn spawn(role: WireRole) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(EndpointStats::default()));
        let thread_stop = stop.clone();
        let thread_stats = stats.clone();
        let handle = std::thread::Builder::new()
            .name(format!("drams-endpoint-{role}"))
            .spawn(move || {
                let out = serve(&listener, role, &thread_stop);
                *thread_stats.lock().expect("stats lock") = out;
            })?;
        Ok(NodeEndpoint {
            addr,
            stop,
            stats,
            handle: Some(handle),
        })
    }

    /// The endpoint's listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serve loop and returns the endpoint's final counters.
    pub fn shutdown(mut self) -> EndpointStats {
        self.stop_and_join();
        *self.stats.lock().expect("stats lock")
    }

    /// Sets `stop`, wakes the thread's blocking `accept` with one
    /// connect, and joins it.
    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            // Refused when the accept loop has already ended: nothing to
            // wake then.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for NodeEndpoint {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::io_error;
    use std::time::Instant;

    fn send(stream: &mut TcpStream, frame: &WireFrame) -> io::Result<()> {
        stream.write_all(&frame_bytes(frame).expect("frame"))
    }

    fn roundtrip_one(
        stream: &mut TcpStream,
        parser: &mut FrameReader,
        frame: &WireFrame,
    ) -> Result<WireFrame, TransportError> {
        send(stream, frame).map_err(io_error)?;
        read_frame(stream, parser)
    }

    #[test]
    fn endpoint_echoes_valid_frames() {
        let ep = NodeEndpoint::spawn(WireRole::Chain).expect("spawn");
        let mut stream = TcpStream::connect(ep.addr())
            .map_err(io_error)
            .expect("connect");
        let mut parser = FrameReader::new();
        for seq in 1..=10 {
            let frame = WireFrame::ping(WireRole::Chain, seq);
            let echo = roundtrip_one(&mut stream, &mut parser, &frame).expect("echo");
            assert_eq!(echo, frame);
        }
        drop(stream);
        let stats = ep.shutdown();
        assert_eq!(stats.frames, 10);
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn endpoint_refuses_wrong_role_and_sequence_regressions() {
        // Wrong role: the pinned endpoint drops the connection unacked.
        let ep = NodeEndpoint::spawn(WireRole::Analyser).expect("spawn");
        let mut stream = TcpStream::connect(ep.addr()).expect("connect");
        let mut parser = FrameReader::new();
        send(&mut stream, &WireFrame::ping(WireRole::Chain, 1)).expect("write");
        assert!(roundtrip_one(
            &mut stream,
            &mut parser,
            &WireFrame::ping(WireRole::Chain, 2)
        )
        .is_err());
        drop(stream);

        // Sequence regression on a fresh connection.
        let mut stream = TcpStream::connect(ep.addr()).expect("connect");
        let mut parser = FrameReader::new();
        let ok = roundtrip_one(
            &mut stream,
            &mut parser,
            &WireFrame::ping(WireRole::Analyser, 5),
        )
        .expect("first frame");
        assert_eq!(ok.seq, 5);
        send(&mut stream, &WireFrame::ping(WireRole::Analyser, 5)).expect("write");
        assert!(read_frame(&mut stream, &mut parser).is_err());
        drop(stream);
        let stats = ep.shutdown();
        assert_eq!(stats.rejected, 2);
    }

    #[test]
    fn frames_in_one_write_are_all_echoed_and_a_refusal_acks_only_those_before_it() {
        let ep = NodeEndpoint::spawn(WireRole::Pep).expect("spawn");
        let mut stream = TcpStream::connect(ep.addr()).expect("connect");
        let mut parser = FrameReader::new();
        let good = [
            WireFrame::ping(WireRole::Pep, 1),
            WireFrame::ping(WireRole::Pep, 2),
        ];
        let foreign = WireFrame::ping(WireRole::Chain, 3);
        let mut bytes = Vec::new();
        for frame in good.iter().chain([&foreign]) {
            bytes.extend(frame_bytes(frame).expect("frame"));
        }
        stream.write_all(&bytes).expect("one write");
        for frame in &good {
            assert_eq!(&read_frame(&mut stream, &mut parser).expect("ack"), frame);
        }
        assert!(
            read_frame(&mut stream, &mut parser).is_err(),
            "no third ack"
        );
        drop(stream);
        let stats = ep.shutdown();
        assert_eq!((stats.frames, stats.rejected), (2, 1));
    }

    /// `accept` blocks, so stopping an endpoint must wake it: an idle
    /// endpoint's drop and shutdown both return at once.
    #[test]
    fn an_endpoint_that_never_accepted_stops_at_once() {
        let started = Instant::now();
        drop(NodeEndpoint::spawn(WireRole::Chain).expect("spawn"));
        let took = started.elapsed();
        assert!(took < Duration::from_millis(100), "drop took {took:?}");

        let started = Instant::now();
        let stats = NodeEndpoint::spawn(WireRole::Chain)
            .expect("spawn")
            .shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
        assert_eq!(stats, EndpointStats::default(), "the wake-up is not served");
    }
}
