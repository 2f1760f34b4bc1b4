//! Nonblocking per-connection framing for the worker-pool server.
//!
//! Each accepted socket becomes a [`Conn`]: a nonblocking stream plus an
//! accumulation buffer that survives between worker visits. A worker
//! drains whatever bytes are readable *right now* ([`Conn::fill`]),
//! pops any complete frames ([`Conn::next_frame`], length-checked by
//! [`frame_len`]), and puts the connection back on the shared ready
//! queue. An idle connection pins no OS thread, but it is not free:
//! every sweep pops it, makes a `read` syscall on it and requeues it,
//! and a busy connection waits behind all of them. With the default
//! 4-worker pool a paced 4 KiB put/get client's p50 rises from 0.19 ms
//! alone to ~20 ms beside 64 idle connections and ~300 ms beside 1000
//! (DESIGN §16).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use bytes::Bytes;

use crate::proto::{frame_len, ProtoError, MAX_FRAME_BYTES};

/// Consecutive `WouldBlock` naps tolerated while writing one response
/// before the peer is declared dead (×[`WRITE_NAP`] ≈ 10 s).
const WRITE_STALL_LIMIT: u32 = 100_000;

/// Nap between write retries on a full socket buffer.
const WRITE_NAP: Duration = Duration::from_micros(100);

/// One multiplexed connection: a nonblocking socket plus the partial
/// frame bytes read so far.
pub(crate) struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Adopt an accepted socket into the multiplexed set.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Drain readable bytes into the frame buffer without ever blocking.
    /// Returns `(made_progress, closed)`. Reading stops once a full
    /// maximal frame is buffered so a fire-hose peer cannot run the
    /// buffer past one frame cap of lookahead.
    pub(crate) fn fill(&mut self, scratch: &mut [u8]) -> (bool, bool) {
        let mut progress = false;
        loop {
            if self.buf.len() > MAX_FRAME_BYTES + 4 {
                break;
            }
            match self.stream.read(scratch) {
                Ok(0) => return (progress, true),
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return (progress, true),
            }
        }
        (progress, false)
    }

    /// Pop the next complete sealed frame body, if one is fully
    /// buffered. A hostile length prefix (over the frame cap) is a
    /// protocol error — the caller answers once and hangs up, exactly
    /// like the blocking reader did.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Bytes>, ProtoError> {
        let Some(prefix) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let declared = frame_len(*prefix)?;
        if self.buf.len() < 4 + declared {
            return Ok(None);
        }
        let sealed = Bytes::copy_from_slice(&self.buf[4..4 + declared]);
        self.buf.drain(..4 + declared);
        Ok(Some(sealed))
    }

    /// Write one whole response frame, riding out `WouldBlock` with
    /// short naps (the socket is nonblocking). At most one response
    /// chunk is ever in flight per connection, so this bounds a worker's
    /// stall on a non-draining peer the same way the old blocking write
    /// timeout did.
    pub(crate) fn write_frame(&mut self, frame: &Bytes) -> std::io::Result<()> {
        let mut off = 0usize;
        let mut stalls = 0u32;
        while off < frame.len() {
            match self.stream.write(&frame[off..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "peer stopped accepting bytes mid-frame",
                    ))
                }
                Ok(n) => {
                    off += n;
                    stalls = 0;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    stalls += 1;
                    if stalls >= WRITE_STALL_LIMIT {
                        return Err(std::io::Error::new(
                            ErrorKind::TimedOut,
                            "peer stalled draining a response",
                        ));
                    }
                    std::thread::sleep(WRITE_NAP);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn partial_frames_accumulate_across_fills() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut conn = Conn::new(accepted).unwrap();
        let mut scratch = vec![0u8; 4096];

        let body = b"sealed-bytes";
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(body);

        // Deliver the frame one byte at a time: every prefix parse must
        // say "not yet" without consuming anything.
        for (i, b) in wire.iter().enumerate() {
            peer.write_all(&[*b]).unwrap();
            peer.flush().unwrap();
            // Wait for the byte to arrive (loopback is fast but async).
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                let (progress, closed) = conn.fill(&mut scratch);
                assert!(!closed);
                if progress || std::time::Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            let got = conn.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "frame complete too early at byte {i}");
            } else {
                assert_eq!(got.unwrap().as_slice(), body);
            }
        }
    }

    #[test]
    fn hostile_length_prefix_is_a_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut conn = Conn::new(accepted).unwrap();
        let mut scratch = vec![0u8; 4096];

        peer.write_all(&((MAX_FRAME_BYTES as u32) + 1).to_le_bytes())
            .unwrap();
        peer.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while conn.buf.len() < 4 && std::time::Instant::now() < deadline {
            conn.fill(&mut scratch);
            std::thread::sleep(Duration::from_micros(50));
        }
        assert!(matches!(
            conn.next_frame(),
            Err(ProtoError::Oversized { .. })
        ));
    }
}
