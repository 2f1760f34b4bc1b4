//! Deterministic concurrent load generation against a running server.
//!
//! `loadgen` simulates a community of analysts: N client threads, each
//! with its own connection, its own tenant (drawn round-robin from a
//! configurable tenant pool so namespaces are shared *and* disjoint),
//! and its own seeded RNG driving a weighted put/get/verify/scrub mix.
//! Every client remembers the exact bytes of every PUT it issued and
//! **deep-verifies** every GET against them — byte identity, not just a
//! clean status — so a server that serves corrupt data fails the
//! campaign even when every frame seal checks out. `Overloaded`
//! responses are retried with backoff and counted, never dropped.
//!
//! The report carries per-op p50/p99 latencies and aggregate throughput.

use std::time::{Duration, Instant};

use bytes::Bytes;
use daspos_hep::seq::mix64;
use daspos_vault::ObjectKind;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

use crate::client::{expect_ok, ServeClient};
use crate::proto::{Op, Status};
use crate::server::ServeError;

/// Relative weights of the op mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixWeights {
    /// Weight of PUT ops.
    pub put: u32,
    /// Weight of GET ops (deep-verified).
    pub get: u32,
    /// Weight of per-object VERIFY ops.
    pub verify: u32,
    /// Weight of whole-vault SCRUB ops.
    pub scrub: u32,
}

impl Default for MixWeights {
    /// The "analyst" mix: mostly deposits and retrievals, occasional
    /// integrity checks, rare scrubs.
    fn default() -> MixWeights {
        MixWeights {
            put: 6,
            get: 6,
            verify: 2,
            scrub: 1,
        }
    }
}

impl MixWeights {
    /// Parse `put:get:verify:scrub`, e.g. `"4:8:2:1"`.
    pub fn parse(s: &str) -> Option<MixWeights> {
        let parts: Vec<u32> = s.split(':').map(|p| p.trim().parse().ok()).collect::<Option<_>>()?;
        if parts.len() != 4 || parts.iter().all(|&w| w == 0) {
            return None;
        }
        Some(MixWeights {
            put: parts[0],
            get: parts[1],
            verify: parts[2],
            scrub: parts[3],
        })
    }

    fn total(&self) -> u32 {
        self.put + self.get + self.verify + self.scrub
    }

    fn pick(&self, rng: &mut StdRng) -> Op {
        let mut roll = rng.gen_range(0..self.total());
        for (op, weight) in [
            (Op::Put, self.put),
            (Op::Get, self.get),
            (Op::Verify, self.verify),
            (Op::Scrub, self.scrub),
        ] {
            if roll < weight {
                return op;
            }
            roll -= weight;
        }
        Op::Put
    }
}

/// A load campaign's shape.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent simulated analysts.
    pub clients: usize,
    /// Ops each client issues.
    pub ops_per_client: usize,
    /// Tenant namespaces the clients are spread over (round-robin), so
    /// some clients share a namespace and some have it to themselves.
    pub tenants: usize,
    /// Campaign seed; same seed, same op streams.
    pub seed: u64,
    /// Bytes per PUT payload.
    pub payload_bytes: usize,
    /// Every Nth PUT becomes a *streamed* large-object PUT of
    /// [`large_payload_bytes`](LoadgenConfig::large_payload_bytes)
    /// (0 disables the large-object traffic entirely).
    pub large_every: usize,
    /// Bytes per streamed large-object PUT.
    pub large_payload_bytes: usize,
    /// Chunk size the clients stream with.
    pub chunk_bytes: usize,
    /// Op mix weights.
    pub mix: MixWeights,
    /// Per-response client timeout.
    pub op_timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: String::new(),
            clients: 8,
            ops_per_client: 32,
            tenants: 4,
            seed: 2013,
            payload_bytes: 256,
            large_every: 0,
            large_payload_bytes: 256 * 1024,
            chunk_bytes: 64 * 1024,
            mix: MixWeights::default(),
            op_timeout: Duration::from_secs(10),
        }
    }
}

/// Latency summary for one op class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Completed ops of this class.
    pub count: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl OpStats {
    /// Summarize raw per-op latencies.
    pub fn from_latencies(mut ns: Vec<u64>) -> OpStats {
        ns.sort_unstable();
        OpStats {
            count: ns.len() as u64,
            p50_ns: percentile(&ns, 0.50),
            p99_ns: percentile(&ns, 0.99),
        }
    }
}

/// The aggregated outcome of a load campaign.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Clients that ran.
    pub clients: usize,
    /// Ops completed (across all clients, retries not counted).
    pub ops_total: u64,
    /// Wall-clock campaign duration in nanoseconds.
    pub elapsed_ns: u64,
    /// PUT latency summary.
    pub puts: OpStats,
    /// GET latency summary.
    pub gets: OpStats,
    /// VERIFY latency summary.
    pub verifies: OpStats,
    /// SCRUB latency summary.
    pub scrubs: OpStats,
    /// Streamed large-object PUT latency summary (begin→commit, whole
    /// stream).
    pub stream_puts: OpStats,
    /// Streamed large-object GET latency summary (begin→last chunk,
    /// deep-verified).
    pub stream_gets: OpStats,
    /// All ops combined.
    pub mixed: OpStats,
    /// `Overloaded` responses absorbed by retry.
    pub overloaded_retries: u64,
    /// Total failures (verification mismatches, unexpected statuses,
    /// transport errors).
    pub failure_count: u64,
    /// The first few failure descriptions (capped).
    pub failures: Vec<String>,
    /// Aggregate throughput over the campaign wall clock.
    pub throughput_ops_per_sec: f64,
}

/// Cap on retained failure descriptions.
const MAX_FAILURE_SAMPLES: usize = 16;

impl LoadgenReport {
    /// True when every op completed with its expected status and every
    /// GET was byte-identical to the client's own prior PUT.
    pub fn ok(&self) -> bool {
        self.failure_count == 0
    }

    /// Multi-line human-readable summary.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "loadgen: {} clients, {} ops in {:.1} ms ({:.0} ops/s), {} overloaded retries\n",
            self.clients,
            self.ops_total,
            self.elapsed_ns as f64 / 1e6,
            self.throughput_ops_per_sec,
            self.overloaded_retries,
        );
        for (name, st) in [
            ("put", &self.puts),
            ("get", &self.gets),
            ("verify", &self.verifies),
            ("scrub", &self.scrubs),
            ("sput", &self.stream_puts),
            ("sget", &self.stream_gets),
            ("mixed", &self.mixed),
        ] {
            if st.count == 0 && (name == "sput" || name == "sget") {
                continue;
            }
            s.push_str(&format!(
                "  {name:<6} n={:<6} p50={:>9} ns  p99={:>9} ns\n",
                st.count, st.p50_ns, st.p99_ns
            ));
        }
        if self.ok() {
            s.push_str("  verification: all GETs byte-identical, zero failures\n");
        } else {
            s.push_str(&format!("  FAILURES: {}\n", self.failure_count));
            for f in &self.failures {
                s.push_str(&format!("    - {f}\n"));
            }
        }
        s
    }
}

/// Latency bucket an op lands in (streamed transfers get their own
/// buckets, separate from the single-frame ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LatClass {
    Put,
    Get,
    Verify,
    Scrub,
    StreamPut,
    StreamGet,
}

struct ClientOutcome {
    latencies: Vec<(LatClass, u64)>,
    overloaded_retries: u64,
    failures: Vec<String>,
    failure_count: u64,
}

/// Issue one request, absorbing `Overloaded` with linear backoff.
fn with_backpressure(
    client: &mut ServeClient,
    retries: &mut u64,
    f: impl Fn(&mut ServeClient) -> Result<crate::proto::Response, ServeError>,
) -> Result<crate::proto::Response, ServeError> {
    // Generous: a saturated 1-core box under 64 clients can queue for a
    // while, but progress is guaranteed once the gate frees a slot.
    for _ in 0..100_000 {
        let resp = f(client)?;
        if resp.status != Status::Overloaded {
            return Ok(resp);
        }
        *retries += 1;
        std::thread::sleep(Duration::from_micros(200));
    }
    Err(ServeError::Io("overloaded retry budget exhausted".to_string()))
}

fn run_client(cfg: &LoadgenConfig, idx: usize) -> ClientOutcome {
    let mut out = ClientOutcome {
        latencies: Vec::with_capacity(cfg.ops_per_client),
        overloaded_retries: 0,
        failures: Vec::new(),
        failure_count: 0,
    };
    fn fail(out: &mut ClientOutcome, msg: String) {
        out.failure_count += 1;
        if out.failures.len() < MAX_FAILURE_SAMPLES {
            out.failures.push(msg);
        }
    }
    let tenant = format!("tenant-{:02}", idx % cfg.tenants.max(1));
    let mut client = match ServeClient::builder(&tenant)
        .op_timeout(cfg.op_timeout)
        .chunk_bytes(cfg.chunk_bytes.max(1))
        .connect(&cfg.addr)
    {
        Ok(c) => c,
        Err(e) => {
            fail(&mut out, format!("client {idx}: connect: {e}"));
            return out;
        }
    };
    // Each client's stream is a pure function of (campaign seed, client).
    let mut rng = StdRng::seed_from_u64(mix64(cfg.seed ^ mix64(idx as u64)));
    // (key, payload, streamed?) — streamed objects are re-fetched with
    // the chunked GET and deep-verified the same way.
    let mut stored: Vec<(String, Bytes, bool)> = Vec::new();
    let mut puts_issued = 0usize;

    for n in 0..cfg.ops_per_client {
        let mut op = cfg.mix.pick(&mut rng);
        if stored.is_empty() && matches!(op, Op::Get | Op::Verify) {
            op = Op::Put;
        }
        let mut class = match op {
            Op::Get => LatClass::Get,
            Op::Verify => LatClass::Verify,
            Op::Scrub => LatClass::Scrub,
            _ => LatClass::Put,
        };
        let started = Instant::now();
        let result: Result<(), String> = match op {
            Op::Put => {
                puts_issued += 1;
                let large = cfg.large_every > 0 && puts_issued.is_multiple_of(cfg.large_every);
                let key = format!("c{idx:03}-k{n:04}.bin");
                let bytes = if large {
                    cfg.large_payload_bytes
                } else {
                    cfg.payload_bytes
                };
                let mut payload = vec![0u8; bytes];
                rng.fill_bytes(&mut payload);
                let payload = Bytes::from(payload);
                if large {
                    class = LatClass::StreamPut;
                    with_backpressure(&mut client, &mut out.overloaded_retries, |c| {
                        c.put_chunked(&key, ObjectKind::Opaque, &payload)
                    })
                    .and_then(expect_ok)
                    .map(|_| stored.push((key, payload, true)))
                    .map_err(|e| format!("client {idx} op {n} stream-put: {e}"))
                } else {
                    with_backpressure(&mut client, &mut out.overloaded_retries, |c| {
                        c.put(&key, ObjectKind::Opaque, &payload)
                    })
                    .and_then(expect_ok)
                    .map(|_| stored.push((key, payload, false)))
                    .map_err(|e| format!("client {idx} op {n} put: {e}"))
                }
            }
            Op::Get => {
                let (key, expected, streamed) = {
                    let pick = rng.gen_range(0..stored.len());
                    stored[pick].clone()
                };
                if streamed {
                    class = LatClass::StreamGet;
                }
                with_backpressure(&mut client, &mut out.overloaded_retries, |c| {
                    if streamed {
                        c.get_streamed_bytes(&key)
                    } else {
                        c.get(&key)
                    }
                })
                .and_then(expect_ok)
                .and_then(|resp| {
                    // get_streamed_bytes buffers the reassembled object
                    // in the payload, so both paths compare the same way.
                    let got: &[u8] = &resp.payload;
                    if got == expected.as_slice() {
                        Ok(())
                    } else {
                        Err(ServeError::Verification(format!(
                            "GET '{key}' returned {} byte(s) that do not match the \
                             {} byte(s) this client PUT",
                            got.len(),
                            expected.len()
                        )))
                    }
                })
                .map_err(|e| format!("client {idx} op {n} get: {e}"))
            }
            Op::Verify => {
                let key = {
                    let pick = rng.gen_range(0..stored.len());
                    stored[pick].0.clone()
                };
                with_backpressure(&mut client, &mut out.overloaded_retries, |c| {
                    c.verify(&key)
                })
                .and_then(expect_ok)
                .map(|_| ())
                .map_err(|e| format!("client {idx} op {n} verify: {e}"))
            }
            _ => with_backpressure(&mut client, &mut out.overloaded_retries, |c| c.scrub())
                .and_then(expect_ok)
                .map(|_| ())
                .map_err(|e| format!("client {idx} op {n} scrub: {e}")),
        };
        out.latencies
            .push((class, started.elapsed().as_nanos() as u64));
        if let Err(msg) = result {
            fail(&mut out, msg);
        }
    }
    out
}

/// Run a campaign: spawn the clients, drive the mix, aggregate.
pub fn run(cfg: &LoadgenConfig) -> LoadgenReport {
    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|idx| scope.spawn(move || run_client(cfg, idx)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientOutcome {
                    latencies: Vec::new(),
                    overloaded_retries: 0,
                    failures: vec!["client thread panicked".to_string()],
                    failure_count: 1,
                })
            })
            .collect()
    });
    let elapsed_ns = started.elapsed().as_nanos() as u64;

    let mut report = LoadgenReport {
        clients: cfg.clients,
        elapsed_ns,
        ..LoadgenReport::default()
    };
    let mut per_op: [(LatClass, Vec<u64>); 6] = [
        (LatClass::Put, Vec::new()),
        (LatClass::Get, Vec::new()),
        (LatClass::Verify, Vec::new()),
        (LatClass::Scrub, Vec::new()),
        (LatClass::StreamPut, Vec::new()),
        (LatClass::StreamGet, Vec::new()),
    ];
    let mut all = Vec::new();
    for outcome in outcomes {
        report.overloaded_retries += outcome.overloaded_retries;
        report.failure_count += outcome.failure_count;
        for f in outcome.failures {
            if report.failures.len() < MAX_FAILURE_SAMPLES {
                report.failures.push(f);
            }
        }
        for (class, ns) in outcome.latencies {
            all.push(ns);
            if let Some((_, bucket)) = per_op.iter_mut().find(|(c, _)| *c == class) {
                bucket.push(ns);
            }
        }
    }
    report.ops_total = all.len() as u64;
    let [(_, puts), (_, gets), (_, verifies), (_, scrubs), (_, stream_puts), (_, stream_gets)] =
        per_op;
    report.puts = OpStats::from_latencies(puts);
    report.gets = OpStats::from_latencies(gets);
    report.verifies = OpStats::from_latencies(verifies);
    report.scrubs = OpStats::from_latencies(scrubs);
    report.stream_puts = OpStats::from_latencies(stream_puts);
    report.stream_gets = OpStats::from_latencies(stream_gets);
    report.mixed = OpStats::from_latencies(all);
    report.throughput_ops_per_sec = if elapsed_ns == 0 {
        0.0
    } else {
        report.ops_total as f64 * 1e9 / elapsed_ns as f64
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_weights_parse_and_pick() {
        let mix = MixWeights::parse("4:8:2:1").unwrap();
        assert_eq!(mix.put, 4);
        assert_eq!(mix.get, 8);
        assert!(MixWeights::parse("1:2:3").is_none());
        assert!(MixWeights::parse("0:0:0:0").is_none());
        assert!(MixWeights::parse("a:b:c:d").is_none());
        let mut rng = StdRng::seed_from_u64(1);
        let only_puts = MixWeights {
            put: 1,
            get: 0,
            verify: 0,
            scrub: 0,
        };
        for _ in 0..32 {
            assert_eq!(only_puts.pick(&mut rng), Op::Put);
        }
    }

    #[test]
    fn percentiles_are_sane() {
        let st = OpStats::from_latencies((1..=100).collect());
        assert_eq!(st.count, 100);
        assert_eq!(st.p50_ns, 51);
        assert_eq!(st.p99_ns, 99);
        assert_eq!(OpStats::from_latencies(Vec::new()), OpStats::default());
    }
}
