//! The socket endpoint a [`TcpTransport`](crate::TcpTransport) sends a
//! role's frames to.
//!
//! An endpoint accepts one client connection at a time (the scenario
//! driver), validates every arriving frame — outer CRC, canonical
//! decode, role pinning, strictly increasing sequence numbers — and
//! acknowledges it by echoing the frame back. The driver schedules the
//! message it decodes from that echo, so everything the simulation
//! consumes has actually crossed the wire twice. Invalid traffic never
//! gets an acknowledgement: the endpoint drops the connection, which
//! the driver observes as a typed error.
//!
//! That is all an endpoint does: it validates and echoes, holds no
//! state beyond its counters and runs no Figure-1 role logic. It is
//! hosted one way — a thread in the driver's process behind a real
//! loopback socket ([`NodeEndpoint::spawn`]).

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use drams_faas::transport::{TransportError, WireRole};

use crate::frame::{read_frame, write_frame, FrameReader};

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
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let frame = match read_frame(&mut stream, &mut parser) {
            Ok(frame) => frame,
            Err(TransportError::TimedOut) => continue,
            Err(TransportError::Closed) => return,
            Err(_) => {
                // Corrupt, oversized or malformed bytes: the stream is
                // unrecoverable — drop the connection, never ack.
                stats.rejected += 1;
                return;
            }
        };
        if frame.role != pinned {
            stats.rejected += 1;
            return;
        }
        if last_seq.is_some_and(|last| frame.seq <= last) {
            // A replayed or reordered frame: refuse the whole stream.
            stats.rejected += 1;
            return;
        }
        last_seq = Some(frame.seq);
        match write_frame(&mut stream, &frame) {
            Ok(n) => {
                stats.frames += 1;
                stats.bytes += n as u64;
            }
            Err(_) => return,
        }
    }
}

/// Runs the accept loop on `listener` until `stop` is set.
fn serve(listener: &TcpListener, pinned: WireRole, stop: &AtomicBool) -> EndpointStats {
    let mut stats = EndpointStats::default();
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stats.connections += 1;
                // Back to blocking mode for the connection itself.
                let _ = stream.set_nonblocking(false);
                serve_connection(stream, pinned, stop, &mut stats);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
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
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        *self.stats.lock().expect("stats lock")
    }
}

impl Drop for NodeEndpoint {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::io_error;
    use drams_faas::transport::WireFrame;

    fn roundtrip_one(
        stream: &mut TcpStream,
        parser: &mut FrameReader,
        frame: &WireFrame,
    ) -> Result<WireFrame, TransportError> {
        write_frame(stream, frame)?;
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
        write_frame(&mut stream, &WireFrame::ping(WireRole::Chain, 1)).expect("write");
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
        write_frame(&mut stream, &WireFrame::ping(WireRole::Analyser, 5)).expect("write");
        assert!(read_frame(&mut stream, &mut parser).is_err());
        drop(stream);
        let stats = ep.shutdown();
        assert_eq!(stats.rejected, 2);
    }
}
