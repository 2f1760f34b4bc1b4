//! # daspos-serve — the multi-tenant preservation service daemon
//!
//! The DASPOS preservation model is a *service*, not a library: a
//! community of analysts deposits and retrieves archives from a central,
//! always-on store the way CERN's EOS or the HEPData repository serve
//! whole experiments. This crate is that daemon, layered on the
//! replicated [`Vault`](daspos_vault::Vault):
//!
//! - [`proto`] — the DPRQ/DPRS framed wire protocol. Every frame body is
//!   wrapped in the tier codec's DPSL fnv64 seal, so the fault campaign
//!   attacks service frames with the same machinery (and the same
//!   "detected or harmless" guarantee) as archived tier files.
//! - [`stream`] — multi-frame streamed transfers: chunk payload codecs
//!   and the `DPSM` manifest that publishes a chunked object atomically.
//!   Objects beyond the 16 MiB frame cap round-trip byte-identically
//!   with O(chunk) peak memory on both ends.
//! - [`server`] — [`Service`] (admission-controlled op handling over one
//!   shared vault, per-tenant namespaces and [`Quota`]s, graceful drain)
//!   and [`Server`] (one blocking thread per accepted connection, up to
//!   a fixed cap, plus a background scrubber that yields to foreground
//!   traffic).
//! - [`wire`] — blocking frame reads and writes, the one framing code
//!   both the server and the client use.
//! - [`client`] — the blocking [`ServeClient`], configured through
//!   [`ServeClient::builder`].
//! - [`loadgen`] — deterministic concurrent load generation with
//!   byte-identity deep verification and p50/p99 latency reporting,
//!   including streamed large-object traffic.
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::Duration;
//! use bytes::Bytes;
//! use daspos_obs::Obs;
//! use daspos_serve::{client::expect_ok, ServeClient, ServeConfig, Server, Service};
//! use daspos_vault::{MemoryBackend, ObjectKind, StorageBackend, Vault};
//!
//! let vault = Vault::builder()
//!     .backends(vec![
//!         Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>,
//!         Arc::new(MemoryBackend::new()),
//!     ])
//!     .build()
//!     .unwrap();
//! let service = Arc::new(Service::new(vault, &ServeConfig::default(), Obs::disabled()));
//! let server = Server::start(service, "127.0.0.1:0", Duration::from_millis(20)).unwrap();
//! let mut client = ServeClient::builder("cms")
//!     .op_timeout(Duration::from_secs(5))
//!     .connect(&server.addr().to_string())
//!     .unwrap();
//! expect_ok(client.put("aod.dpef", ObjectKind::Opaque, &Bytes::from_static(b"bytes")).unwrap())
//!     .unwrap();
//! // Objects bigger than one frame stream chunk-by-chunk:
//! let big = Bytes::from(vec![7u8; 20 * 1024 * 1024]);
//! expect_ok(client.put_chunked("aod-full.dpef", ObjectKind::Opaque, &big).unwrap()).unwrap();
//! client.shutdown_server().unwrap();
//! server.join();
//! ```

pub mod client;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod stream;
pub mod wire;

pub use client::{expect_ok, ClientBuilder, ServeClient};
pub use loadgen::{LoadgenConfig, LoadgenReport, MixWeights, OpStats};
pub use proto::{Op, ProtoError, Request, Response, Status};
pub use server::{
    Chaos, Quota, ServeConfig, ServeConfigBuilder, ServeError, Server, Service,
};
pub use stream::StreamInfo;

use std::io::{Read, Write};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

use bytes::Bytes;
use daspos_hep::seq::splitmix64;
use daspos_obs::Obs;
use daspos_vault::{MemoryBackend, ObjectKind, StorageBackend, StorageError, Vault};

/// A deterministic pseudo-random byte source with O(1) state: the
/// streaming-transfer tests read gigabyte-scale "objects" out of it
/// without ever materializing them.
pub struct PatternReader {
    state: u64,
    remaining: u64,
    stash: [u8; 8],
    stash_len: usize,
}

impl PatternReader {
    /// A `len`-byte deterministic stream seeded by `seed`.
    pub fn new(seed: u64, len: u64) -> PatternReader {
        PatternReader {
            state: seed,
            remaining: len,
            stash: [0; 8],
            stash_len: 0,
        }
    }
}

impl Read for PatternReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (buf.len() as u64).min(self.remaining) as usize;
        for slot in buf.iter_mut().take(n) {
            if self.stash_len == 0 {
                self.stash = splitmix64(&mut self.state).to_le_bytes();
                self.stash_len = 8;
            }
            *slot = self.stash[8 - self.stash_len];
            self.stash_len -= 1;
        }
        self.remaining -= n as u64;
        Ok(n)
    }
}

/// The verifying sink twin of [`PatternReader`]: regenerates the same
/// byte stream and compares, holding O(1) state — true byte-identity
/// for arbitrarily large round trips without a reference buffer.
pub struct PatternChecker {
    expect: PatternReader,
    received: u64,
    first_mismatch: Option<u64>,
}

impl PatternChecker {
    /// Expect the stream `PatternReader::new(seed, len)` produces.
    pub fn new(seed: u64, len: u64) -> PatternChecker {
        PatternChecker {
            expect: PatternReader::new(seed, len),
            received: 0,
            first_mismatch: None,
        }
    }

    /// Total bytes written into the checker.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// `Ok` iff exactly `expected_len` bytes arrived and every one
    /// matched the pattern.
    pub fn verify(&self, expected_len: u64) -> Result<(), String> {
        if let Some(off) = self.first_mismatch {
            return Err(format!("byte {off} differs from the pattern"));
        }
        if self.received != expected_len {
            return Err(format!(
                "received {} bytes, expected {expected_len}",
                self.received
            ));
        }
        Ok(())
    }
}

impl Write for PatternChecker {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut want = vec![0u8; buf.len()];
        let n = self.expect.read(&mut want).expect("pattern reads are infallible");
        for (i, (&got, &exp)) in buf.iter().zip(want[..n].iter()).enumerate() {
            if got != exp && self.first_mismatch.is_none() {
                self.first_mismatch = Some(self.received + i as u64);
            }
        }
        if n < buf.len() && self.first_mismatch.is_none() {
            // More bytes than the pattern holds: everything past the
            // end is a mismatch by definition.
            self.first_mismatch = Some(self.received + n as u64);
        }
        self.received += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// How long each of the scrubber's slot reads takes in the selftest: a
/// disk-like read leaves foreground ops time to arrive mid-object.
const SCRUB_READ_DELAY: Duration = Duration::from_millis(1);

/// The selftest's watch on the background scrubber, shared by every
/// backend of its vault. The scrubber must give way to foreground
/// traffic within one slot read: once a read of a scrub step has run
/// beside a foreground op (one in flight at its start or end, or served
/// during it), the step must read no further slot. `stalls` counts the
/// reads that broke that rule; the selftest requires zero.
#[derive(Default)]
struct ScrubProbe {
    service: OnceLock<Weak<Service>>,
    tally: Mutex<ScrubTally>,
}

#[derive(Default, Clone, Copy)]
struct ScrubTally {
    reads: u64,
    overlapped: u64,
    stalls: u64,
    /// The current step has already read a slot beside a foreground op.
    step_overlapped: bool,
}

impl ScrubProbe {
    fn tally(&self) -> std::sync::MutexGuard<'_, ScrubTally> {
        self.tally.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A memory backend that reports the scrubber's reads to a [`ScrubProbe`].
struct ProbedBackend {
    inner: MemoryBackend,
    probe: Arc<ScrubProbe>,
}

fn on_scrubber() -> bool {
    std::thread::current().name() == Some(server::SCRUB_THREAD)
}

impl StorageBackend for ProbedBackend {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn put(&self, key: &str, data: &Bytes) -> Result<(), StorageError> {
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        let service = self.probe.service.get().and_then(Weak::upgrade);
        let Some(service) = service.filter(|_| on_scrubber()) else {
            return self.inner.get(key);
        };
        let (inflight, ops) = (service.inflight(), service.stats().ops());
        let mut tally = self.probe.tally();
        tally.reads += 1;
        tally.stalls += u64::from(tally.step_overlapped);
        drop(tally);
        std::thread::sleep(SCRUB_READ_DELAY);
        let got = self.inner.get(key);
        if inflight > 0 || service.inflight() > 0 || service.stats().ops() != ops {
            let mut tally = self.probe.tally();
            tally.overlapped += 1;
            tally.step_overlapped = true;
        }
        got
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.inner.delete(key)
    }

    /// Every scrub step starts by listing the vault's keys.
    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        if on_scrubber() {
            self.probe.tally().step_overlapped = false;
        }
        self.inner.list(prefix)
    }
}

/// End-to-end smoke, parametrized by the streamed-object size so the
/// debug-build unit test stays fast while the tier-1 CLI selftest
/// pushes a full 64 MiB through the chunk pipeline.
pub fn selftest_sized(stream_bytes: u64) -> Result<String, ServeError> {
    const STREAM_CHUNK: usize = 1024 * 1024;
    const CAPPED_QUOTA: u64 = 4096;

    let probe = Arc::new(ScrubProbe::default());
    let probed = || {
        Arc::new(ProbedBackend {
            inner: MemoryBackend::new(),
            probe: probe.clone(),
        }) as Arc<dyn StorageBackend>
    };
    let vault = Vault::builder()
        .backends(vec![probed(), probed()])
        .build()
        .expect("two backends were supplied");
    let cfg = ServeConfig::builder()
        .quota(
            "capped",
            Quota {
                max_bytes: CAPPED_QUOTA,
                max_inflight: 0,
                ops_per_sec: 0,
            },
        )
        .build()?;
    let service = Arc::new(Service::new(vault, &cfg, Obs::disabled()));
    let _ = probe.service.set(Arc::downgrade(&service));
    let server = Server::start(service.clone(), "127.0.0.1:0", Duration::from_millis(5))?;
    let addr = server.addr().to_string();

    // The steps run against the live server, which is stopped and
    // drained whatever they find.
    let steps = || -> Result<(LoadgenReport, u64), ServeError> {
        // 1. The classic concurrent burst with deep verification — now
        // with every sixth PUT streaming a multi-chunk object beside the
        // small ops.
        let report = loadgen::run(&LoadgenConfig {
            addr: addr.clone(),
            clients: 8,
            ops_per_client: 12,
            tenants: 3,
            seed: 2013,
            payload_bytes: 128,
            large_every: 6,
            large_payload_bytes: 96 * 1024,
            chunk_bytes: 16 * 1024,
            ..LoadgenConfig::default()
        });

        // 2. A streamed round trip far beyond the frame cap, byte-verified
        // with O(1) client state; the server-side high-water mark proves
        // staging never buffered more than one chunk.
        let mut archive = ServeClient::builder("archive")
            .chunk_bytes(STREAM_CHUNK)
            .op_timeout(Duration::from_secs(30))
            .connect(&addr)?;
        let mut source = PatternReader::new(0xD45_905, stream_bytes);
        expect_ok(archive.put_stream("full-aod.dpef", ObjectKind::SealedTier, &mut source)?)?;
        let high_water = service.stats().stream_chunk_high_water();
        if high_water > STREAM_CHUNK as u64 {
            return Err(ServeError::Verification(format!(
                "server staged a {high_water}-byte chunk; bound is {STREAM_CHUNK}"
            )));
        }
        let mut checker = PatternChecker::new(0xD45_905, stream_bytes);
        expect_ok(archive.get_stream("full-aod.dpef", &mut checker)?)?;
        if let Err(e) = checker.verify(stream_bytes) {
            return Err(ServeError::Verification(format!(
                "streamed round trip not byte-identical: {e}"
            )));
        }

        // 3. A forced quota rejection: the capped tenant must bounce with
        // the typed status while everyone above sailed through untouched.
        let mut capped = ServeClient::builder("capped").connect(&addr)?;
        let resp = capped.put(
            "over-budget.bin",
            ObjectKind::Opaque,
            &Bytes::from(vec![0u8; 2 * CAPPED_QUOTA as usize]),
        )?;
        if resp.status != Status::QuotaExceeded {
            return Err(ServeError::Verification(format!(
                "capped tenant expected quota-exceeded, got {}: {}",
                resp.status.name(),
                resp.detail
            )));
        }
        Ok((report, high_water))
    };
    let outcome = steps();
    server.stop();
    let (report, high_water) = outcome?;
    if !report.ok() {
        return Err(ServeError::Verification(format!(
            "selftest campaign failed:\n{}",
            report.to_text()
        )));
    }
    // The background scrubber (5 ms cadence above, running throughout)
    // must give way to foreground ops within one slot read.
    let scrub = *probe.tally();
    if scrub.stalls > 0 {
        return Err(ServeError::Verification(format!(
            "scrub stall: the scrubber started {} slot read(s) after a read that ran beside \
             foreground ops ({} of {} reads overlapped)",
            scrub.stalls, scrub.overlapped, scrub.reads
        )));
    }
    Ok(format!(
        "{}\nstream: {stream_bytes} bytes round-tripped in {STREAM_CHUNK}-byte chunks \
         (server high water {high_water} bytes)\nquota: capped tenant rejected with {}\n\
         scrub: {} scrubber slot read(s), {} beside foreground ops, {} after such a read\n",
        report.to_text(),
        Status::QuotaExceeded.name(),
        scrub.reads,
        scrub.overlapped,
        scrub.stalls,
    ))
}

/// End-to-end smoke: an in-process server over a fresh 2-replica
/// memory vault, a short concurrent loadgen burst, a 64 MiB streamed
/// round trip, and a forced quota rejection — zero tolerated failures.
/// This is the tier-1 `daspos-cli serve --selftest` body.
pub fn selftest() -> Result<String, ServeError> {
    selftest_sized(64 * 1024 * 1024)
}

#[cfg(test)]
mod tests {
    #[test]
    fn selftest_round_trips_a_concurrent_burst() {
        // 24 MiB keeps the debug-build test quick while still crossing
        // the 16 MiB frame cap; the release-build CLI selftest runs the
        // full 64 MiB.
        let text = super::selftest_sized(24 * 1024 * 1024).expect("selftest must pass");
        assert!(text.contains("zero failures"), "got: {text}");
        assert!(text.contains("stream: "), "got: {text}");
        assert!(text.contains("quota: "), "got: {text}");
        assert!(text.contains("scrub: "), "got: {text}");
    }

    #[test]
    fn pattern_reader_and_checker_agree() {
        use std::io::{Read, Write};
        let mut r = super::PatternReader::new(42, 100_000);
        let mut c = super::PatternChecker::new(42, 100_000);
        let mut buf = vec![0u8; 7919];
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            c.write_all(&buf[..n]).unwrap();
        }
        c.verify(100_000).unwrap();

        let mut bad = super::PatternChecker::new(42, 10);
        bad.write_all(b"wrongbytes").unwrap();
        assert!(bad.verify(10).is_err());
    }

    /// The pattern stream is pinned to bytes recorded from an earlier
    /// build, so objects written by older selftests stay checkable.
    #[test]
    fn pattern_stream_is_pinned() {
        use std::io::Read;
        let mut head = [0u8; 32];
        super::PatternReader::new(0xD45_905, 64)
            .read_exact(&mut head)
            .unwrap();
        assert_eq!(
            head,
            [
                0x43, 0xf0, 0xbc, 0x4a, 0x54, 0x3a, 0xc3, 0xa4, 0xc6, 0xe3, 0x39, 0x30, 0xe9, 0x0f,
                0x87, 0x22, 0xb6, 0x3d, 0x6f, 0x31, 0x88, 0x42, 0x4b, 0x23, 0x72, 0xd1, 0x18, 0x03,
                0x7f, 0x01, 0xbf, 0xaf,
            ]
        );
    }
}
