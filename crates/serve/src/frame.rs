//! Deadline-bounded frame I/O over a [`TcpStream`].
//!
//! Thin transport plumbing around the dependency-free wire codec in
//! [`capmaestro_core::wire`]: a [`FrameReader`] that accumulates bytes
//! until one length-prefixed frame is complete (tolerating arbitrary TCP
//! segmentation), and `write_frame` which writes one frame under a
//! write timeout. Both sides of the control plane — the room
//! controller's [`crate::socket::SocketTransport`] and the
//! [`crate::agent`] processes — speak through this module only.
//!
//! Error taxonomy, which the callers rely on:
//!
//! - `Ok(Some(payload))` — one complete frame.
//! - `Ok(None)` — the deadline passed without a complete frame; any
//!   partial bytes stay buffered and the next call resumes cleanly.
//! - `Err(UnexpectedEof)` — the peer closed (cleanly or mid-frame). A
//!   torn frame is indistinguishable from a crash and is treated the
//!   same: the connection is dead.
//! - `Err(InvalidData)` — the peer is speaking garbage (oversized or
//!   malformed length prefix). The connection must be torn down.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use capmaestro_core::wire::{frame, split_frame, WireError};

/// Granularity of the read poll: each blocking read waits at most this
/// long so deadline and shutdown checks stay responsive.
const READ_SLICE: Duration = Duration::from_millis(50);

/// Accumulates stream bytes and yields complete frames.
///
/// One reader per connection; it owns the partial-frame buffer, so a
/// frame split across TCP segments (or across calls) reassembles
/// transparently.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader { buf: Vec::new() }
    }

    /// Pops a complete frame out of the internal buffer, if one is
    /// already there, without touching the stream.
    fn pop_buffered(&mut self) -> Result<Option<Vec<u8>>, io::Error> {
        match split_frame(&self.buf) {
            Ok(Some((payload, consumed))) => {
                let payload = payload.to_vec();
                self.buf.drain(..consumed);
                Ok(Some(payload))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(wire_to_io(e)),
        }
    }

    /// Reads from `stream` until one complete frame is available or
    /// `deadline` passes. See the module docs for the error taxonomy.
    pub(crate) fn read_frame(
        &mut self,
        stream: &mut TcpStream,
        deadline: Instant,
    ) -> io::Result<Option<Vec<u8>>> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(payload) = self.pop_buffered()? {
                return Ok(Some(payload));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let wait = (deadline - now).min(READ_SLICE).max(Duration::from_millis(1));
            stream.set_read_timeout(Some(wait))?;
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        if self.buf.is_empty() {
                            "peer closed the connection"
                        } else {
                            "peer closed mid-frame"
                        },
                    ));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    // Poll slice elapsed; loop to re-check the deadline.
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Writes one frame around `payload` under `timeout`.
///
/// A short write, timeout, or I/O error all mean the connection can no
/// longer carry whole frames and must be torn down by the caller.
pub(crate) fn write_frame(
    stream: &mut TcpStream,
    payload: &[u8],
    timeout: Duration,
) -> io::Result<()> {
    stream.set_write_timeout(Some(timeout.max(Duration::from_millis(1))))?;
    stream.write_all(&frame(payload))?;
    stream.flush()
}

/// Maps a codec-level framing error onto the I/O error the connection
/// handler tears down with.
fn wire_to_io(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    #[test]
    fn frame_round_trips_over_tcp() {
        let (mut a, mut b) = pair();
        write_frame(&mut a, b"hello", Duration::from_secs(1)).expect("write");
        let mut reader = FrameReader::new();
        let got = reader
            .read_frame(&mut b, Instant::now() + Duration::from_secs(1))
            .expect("read")
            .expect("frame");
        assert_eq!(got, b"hello");
    }

    #[test]
    fn deadline_returns_none_and_partial_bytes_survive() {
        let (mut a, mut b) = pair();
        // Write only half a frame.
        let full = frame(b"split");
        use std::io::Write as _;
        a.write_all(&full[..3]).expect("half write");
        a.flush().expect("flush");
        let mut reader = FrameReader::new();
        let got = reader
            .read_frame(&mut b, Instant::now() + Duration::from_millis(80))
            .expect("no error on deadline");
        assert!(got.is_none(), "half a frame is not a frame");
        // The rest arrives; the reader resumes from its buffer.
        a.write_all(&full[3..]).expect("rest");
        a.flush().expect("flush");
        let got = reader
            .read_frame(&mut b, Instant::now() + Duration::from_secs(1))
            .expect("read")
            .expect("frame");
        assert_eq!(got, b"split");
    }

    #[test]
    fn peer_close_is_unexpected_eof() {
        let (a, mut b) = pair();
        drop(a);
        let mut reader = FrameReader::new();
        let err = reader
            .read_frame(&mut b, Instant::now() + Duration::from_secs(1))
            .expect_err("closed peer");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn torn_frame_is_unexpected_eof() {
        let (mut a, mut b) = pair();
        let full = frame(b"torn");
        use std::io::Write as _;
        a.write_all(&full[..5]).expect("partial");
        drop(a);
        let mut reader = FrameReader::new();
        let err = reader
            .read_frame(&mut b, Instant::now() + Duration::from_secs(1))
            .expect_err("torn frame");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn hostile_length_prefix_is_invalid_data() {
        let (mut a, mut b) = pair();
        use std::io::Write as _;
        // 16 MiB claimed length: over MAX_FRAME_BYTES.
        a.write_all(&(16u32 << 20).to_le_bytes()).expect("prefix");
        a.flush().expect("flush");
        let mut reader = FrameReader::new();
        let err = reader
            .read_frame(&mut b, Instant::now() + Duration::from_secs(1))
            .expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
