//! The blocking protocol client used by `loadgen`, the CLI and tests.
//!
//! Sessions are configured through [`ServeClient::builder`]: tenant,
//! per-op timeout, and the chunk size used by streamed transfers.
//! `Overloaded` answers reach the caller as data; the client never
//! retries.
//!
//! Objects larger than one frame travel through [`ServeClient::put_stream`]
//! / [`ServeClient::get_stream`]: the client holds one chunk at a time
//! and folds the whole-object fnv64 digest incrementally, so a 64 MiB
//! round trip peaks at O(chunk) memory on this side too.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use bytes::Bytes;
use daspos_tiers::codec::{fnv64_resume, FNV64_OFFSET};
use daspos_vault::ObjectKind;

use crate::proto::{
    decode_response, encode_request, validate_tenant, Op, Request, Response, Status,
    MAX_CHUNK_BYTES,
};
use crate::server::ServeError;
use crate::stream;
use crate::wire::{self, WireError};

/// Default per-response wait before a client declares the server hung.
pub const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Default chunk size for streamed transfers (4 MiB).
pub const DEFAULT_CLIENT_CHUNK: usize = crate::proto::DEFAULT_CHUNK_BYTES;

/// Builder for a [`ServeClient`] session.
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    tenant: String,
    op_timeout: Duration,
    chunk_bytes: usize,
}

impl ClientBuilder {
    /// Per-response wait before the client declares the server hung
    /// (tests drive this down to catch hangs fast).
    pub fn op_timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.op_timeout = timeout;
        self
    }

    /// Chunk size for streamed transfers (validated at connect time:
    /// 1..=[`MAX_CHUNK_BYTES`]).
    pub fn chunk_bytes(mut self, n: usize) -> ClientBuilder {
        self.chunk_bytes = n;
        self
    }

    /// Validate the session settings and connect.
    pub fn connect(self, addr: &str) -> Result<ServeClient, ServeError> {
        validate_tenant(&self.tenant)?;
        if self.chunk_bytes == 0 || self.chunk_bytes > MAX_CHUNK_BYTES {
            return Err(ServeError::Config(format!(
                "stream chunk size must be 1..={MAX_CHUNK_BYTES} bytes, got {}",
                self.chunk_bytes
            )));
        }
        let stream = TcpStream::connect(addr).map_err(|e| ServeError::Io(e.to_string()))?;
        stream
            .set_read_timeout(Some(self.op_timeout))
            .map_err(|e| ServeError::Io(e.to_string()))?;
        stream
            .set_write_timeout(Some(self.op_timeout))
            .map_err(|e| ServeError::Io(e.to_string()))?;
        Ok(ServeClient {
            stream,
            tenant: self.tenant,
            chunk_bytes: self.chunk_bytes,
        })
    }
}

/// One tenant's connection to a preservation server.
pub struct ServeClient {
    stream: TcpStream,
    tenant: String,
    chunk_bytes: usize,
}

impl ServeClient {
    /// Start building a session for `tenant` (validated at connect).
    pub fn builder(tenant: &str) -> ClientBuilder {
        ClientBuilder {
            tenant: tenant.to_string(),
            op_timeout: DEFAULT_OP_TIMEOUT,
            chunk_bytes: DEFAULT_CLIENT_CHUNK,
        }
    }

    /// The tenant this connection operates as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The chunk size streamed transfers use on this session.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Send one request and wait for its response. Transport and
    /// protocol failures are errors; non-OK *statuses* are data (the
    /// caller decides whether `NotFound` or `Overloaded` is exceptional).
    ///
    /// A response not complete within the op timeout fails the op and
    /// closes the session: the stream is out of step after a cut frame.
    pub fn request(&mut self, req: &Request) -> Result<Response, ServeError> {
        let read = wire::write_frame(&mut self.stream, &encode_request(req))
            .and_then(|()| wire::read_frame(&mut self.stream));
        match read {
            Ok(Some(sealed)) => Ok(decode_response(&sealed)?),
            Ok(None) => Err(ServeError::Io(
                "server closed the connection before responding".to_string(),
            )),
            Err(e) => {
                let _ = self.stream.shutdown(Shutdown::Both);
                Err(match e {
                    WireError::Io(io)
                        if matches!(io.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                    {
                        ServeError::Io("timed out waiting for a response".to_string())
                    }
                    e => e.into(),
                })
            }
        }
    }

    /// Store `payload` under this tenant's `key`.
    pub fn put(
        &mut self,
        key: &str,
        kind: ObjectKind,
        payload: &Bytes,
    ) -> Result<Response, ServeError> {
        self.request(&Request {
            op: Op::Put,
            kind,
            tenant: self.tenant.clone(),
            key: key.to_string(),
            payload: payload.clone(),
        })
    }

    /// Fetch the object under this tenant's `key`.
    pub fn get(&mut self, key: &str) -> Result<Response, ServeError> {
        let tenant = self.tenant.clone();
        self.request(&Request::control(Op::Get, &tenant, key))
    }

    /// Integrity-check one object (empty `key`: the whole vault).
    pub fn verify(&mut self, key: &str) -> Result<Response, ServeError> {
        let tenant = self.tenant.clone();
        self.request(&Request::control(Op::Verify, &tenant, key))
    }

    /// Trigger a repairing scrub of the whole vault.
    pub fn scrub(&mut self) -> Result<Response, ServeError> {
        let tenant = self.tenant.clone();
        self.request(&Request::control(Op::Scrub, &tenant, ""))
    }

    /// Fetch server statistics.
    pub fn stat(&mut self) -> Result<Response, ServeError> {
        let tenant = self.tenant.clone();
        self.request(&Request::control(Op::Stat, &tenant, ""))
    }

    /// Ask the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<Response, ServeError> {
        let tenant = self.tenant.clone();
        self.request(&Request::control(Op::Shutdown, &tenant, ""))
    }

    /// Stream everything `reader` yields to the server under `key`,
    /// one chunk frame at a time: `PutBegin`, N× `PutChunk`, then a
    /// `PutCommit` carrying the chunk count, total length and fnv64
    /// digest folded while reading. Peak memory here is one chunk.
    ///
    /// A non-OK response mid-stream aborts the stream (best effort) and
    /// is returned as data, like every other status.
    pub fn put_stream(
        &mut self,
        key: &str,
        kind: ObjectKind,
        reader: &mut dyn Read,
    ) -> Result<Response, ServeError> {
        let chunk_bytes = self.chunk_bytes;
        let begin = self.request(&Request {
            op: Op::PutBegin,
            kind,
            tenant: self.tenant.clone(),
            key: key.to_string(),
            payload: stream::encode_begin(chunk_bytes as u32),
        })?;
        if begin.status != Status::Ok {
            return Ok(begin);
        }
        let id: u64 = begin.detail.parse().map_err(|_| {
            ServeError::Verification(format!(
                "server answered PutBegin with unparsable stream id {:?}",
                begin.detail
            ))
        })?;

        let mut buf = vec![0u8; chunk_bytes];
        let mut fold = FNV64_OFFSET;
        let mut total_len = 0u64;
        let mut seq = 0u32;
        loop {
            // Fill a whole chunk before framing it; a short fill means
            // the reader hit EOF.
            let mut n = 0;
            while n < buf.len() {
                match reader.read(&mut buf[n..]) {
                    Ok(0) => break,
                    Ok(k) => n += k,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        self.try_abort(id);
                        return Err(ServeError::Io(format!("stream source failed: {e}")));
                    }
                }
            }
            if n == 0 {
                break;
            }
            let resp = self.request(&Request {
                op: Op::PutChunk,
                kind,
                tenant: self.tenant.clone(),
                key: id.to_string(),
                payload: stream::encode_chunk(seq, &buf[..n]),
            })?;
            if resp.status != Status::Ok {
                self.try_abort(id);
                return Ok(resp);
            }
            fold = fnv64_resume(fold, &buf[..n]);
            total_len += n as u64;
            seq += 1;
            if n < buf.len() {
                break;
            }
        }
        self.request(&Request {
            op: Op::PutCommit,
            kind,
            tenant: self.tenant.clone(),
            key: id.to_string(),
            payload: stream::encode_commit(&stream::StreamInfo {
                total_len,
                chunk_size: chunk_bytes as u32,
                chunks: seq,
                digest: fold,
            }),
        })
    }

    /// [`put_stream`](ServeClient::put_stream) over an in-memory
    /// payload — the drop-in replacement for [`put`](ServeClient::put)
    /// when the object may exceed one frame.
    pub fn put_chunked(
        &mut self,
        key: &str,
        kind: ObjectKind,
        payload: &Bytes,
    ) -> Result<Response, ServeError> {
        let mut slice: &[u8] = payload;
        self.put_stream(key, kind, &mut slice)
    }

    /// Stream the object under `key` into `out`, one chunk frame at a
    /// time, verifying the whole-object fnv64 digest the server
    /// declared at `GetBegin`. On success returns that `GetBegin`
    /// response (detail = object kind, payload = the stream geometry);
    /// a non-OK status comes back as data with nothing written.
    pub fn get_stream(
        &mut self,
        key: &str,
        out: &mut dyn Write,
    ) -> Result<Response, ServeError> {
        let chunk_bytes = self.chunk_bytes;
        let tenant = self.tenant.clone();
        let begin = self.request(&Request {
            op: Op::GetBegin,
            kind: ObjectKind::Opaque,
            tenant: tenant.clone(),
            key: key.to_string(),
            payload: stream::encode_begin(chunk_bytes as u32),
        })?;
        if begin.status != Status::Ok {
            return Ok(begin);
        }
        let info = stream::decode_info(&begin.payload)?;
        let mut fold = FNV64_OFFSET;
        let mut written = 0u64;
        for seq in 0..info.chunks {
            let resp = self.request(&Request {
                op: Op::GetChunk,
                kind: ObjectKind::Opaque,
                tenant: tenant.clone(),
                key: key.to_string(),
                payload: stream::encode_get_chunk(seq, info.chunk_size),
            })?;
            if resp.status != Status::Ok {
                return Ok(resp);
            }
            let (got_seq, data) = stream::decode_chunk(&resp.payload)?;
            let expected = (info.total_len - written).min(u64::from(info.chunk_size));
            if got_seq != seq || data.len() as u64 != expected {
                return Err(ServeError::Verification(format!(
                    "chunk {seq}: got seq {got_seq}, {} bytes (expected {expected})",
                    data.len()
                )));
            }
            fold = fnv64_resume(fold, &data);
            out.write_all(&data)
                .map_err(|e| ServeError::Io(format!("stream sink failed: {e}")))?;
            written += data.len() as u64;
        }
        if written != info.total_len || fold != info.digest {
            return Err(ServeError::Verification(format!(
                "streamed get of {key:?}: {written} bytes folded to {fold:016x}, \
                 server declared {} bytes / {:016x}",
                info.total_len, info.digest
            )));
        }
        Ok(begin)
    }

    /// [`get_stream`](ServeClient::get_stream) buffered into a
    /// [`Response`] payload — convenient for tests and loadgen, which
    /// want the bytes for deep verification anyway. (This buffers the
    /// whole object; real consumers should stream to a sink.)
    pub fn get_streamed_bytes(&mut self, key: &str) -> Result<Response, ServeError> {
        let mut buf = Vec::new();
        let resp = self.get_stream(key, &mut buf)?;
        if resp.status != Status::Ok {
            return Ok(resp);
        }
        Ok(Response {
            op: resp.op,
            status: Status::Ok,
            detail: resp.detail,
            payload: Bytes::from(buf),
        })
    }

    /// Best-effort stream abort after a mid-stream failure; the server
    /// sweeps orphans at the next commit to the key anyway.
    fn try_abort(&mut self, id: u64) {
        let tenant = self.tenant.clone();
        let _ = self.request(&Request::control(Op::PutAbort, &tenant, &id.to_string()));
    }
}

/// Promote a non-OK status to a typed error (`Overloaded` and
/// `QuotaExceeded` keep their own variants so callers can dispatch on
/// backpressure vs. budget).
pub fn expect_ok(resp: Response) -> Result<Response, ServeError> {
    match resp.status {
        Status::Ok => Ok(resp),
        Status::Overloaded => Err(ServeError::Overloaded {
            op: resp.op,
            detail: resp.detail,
        }),
        Status::QuotaExceeded => Err(ServeError::QuotaExceeded {
            op: resp.op,
            detail: resp.detail,
        }),
        status => Err(ServeError::Remote {
            op: resp.op,
            status,
            detail: resp.detail,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::time::Instant;

    /// A fake server that reads the request, answers with `partial`
    /// (a frame cut short) and then stalls until the test is done.
    fn stat_against_a_stalling_server(
        partial: Vec<u8>,
    ) -> (Result<Response, ServeError>, Duration) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (done, stalled) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut request = [0u8; 64];
            let _ = sock.read(&mut request).unwrap();
            sock.write_all(&partial).unwrap();
            sock.flush().unwrap();
            let _ = stalled.recv_timeout(Duration::from_secs(60));
        });
        let mut client = ServeClient::builder("cms")
            .op_timeout(Duration::from_millis(100))
            .connect(&addr)
            .unwrap();
        let start = Instant::now();
        let result = client.stat();
        let took = start.elapsed();
        done.send(()).unwrap();
        server.join().unwrap();
        (result, took)
    }

    #[test]
    fn op_timeout_bounds_a_stall_inside_the_length_prefix() {
        let (result, took) = stat_against_a_stalling_server(vec![200, 0]);
        assert!(result.is_err(), "{result:?}");
        assert!(took < Duration::from_secs(2), "stat took {took:?}");
    }

    #[test]
    fn op_timeout_bounds_a_stall_inside_the_frame_body() {
        let mut partial = 200u32.to_le_bytes().to_vec();
        partial.extend_from_slice(b"DPSL-half-a-body");
        let (result, took) = stat_against_a_stalling_server(partial);
        assert!(result.is_err(), "{result:?}");
        assert!(took < Duration::from_secs(2), "stat took {took:?}");
    }
}
