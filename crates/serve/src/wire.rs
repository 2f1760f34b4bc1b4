//! Blocking frame I/O over a `TcpStream`, the one framing code both
//! ends of a connection use: the client and each server connection
//! thread.
//!
//! A frame is a 4-byte length prefix, checked by [`frame_len`] before a
//! single body byte is buffered, then the sealed body. The stream's read
//! timeout bounds every read: a peer that stalls before or in the middle
//! of a frame fails the read with that timeout. A frame cut short leaves
//! the stream out of step, so the caller must drop the connection.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

use bytes::Bytes;

use crate::proto::{frame_len, ProtoError};

/// A transport-layer failure while reading a frame.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (reset, timeout, mid-frame EOF).
    Io(std::io::Error),
    /// The length prefix itself was inadmissible (over the frame cap).
    Proto(ProtoError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o failure: {e}"),
            WireError::Proto(e) => write!(f, "wire framing failure: {e}"),
        }
    }
}

/// Read one sealed frame body (length prefix stripped). `Ok(None)` means
/// the peer closed the connection cleanly before the frame began.
pub fn read_frame(stream: &mut TcpStream) -> Result<Option<Bytes>, WireError> {
    let mut prefix = [0u8; 4];
    let first = loop {
        match stream.read(&mut prefix) {
            Ok(n) => break n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    };
    if first == 0 {
        return Ok(None);
    }
    stream
        .read_exact(&mut prefix[first..])
        .map_err(WireError::Io)?;
    // Allocation is bounded: `frame_len` caps the declared length.
    let mut raw = vec![0u8; frame_len(prefix).map_err(WireError::Proto)?];
    stream.read_exact(&mut raw).map_err(WireError::Io)?;
    Ok(Some(Bytes::from(raw)))
}

/// Write one whole frame (length prefix included).
pub fn write_frame(stream: &mut TcpStream, frame: &Bytes) -> Result<(), WireError> {
    stream.write_all(frame).map_err(WireError::Io)?;
    stream.flush().map_err(WireError::Io)
}
