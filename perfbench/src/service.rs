//! `service`: a loopback preservation server under paced load. The
//! server runs in this process with the default `ServeConfig` over the
//! redundancy `serve --store` deploys — three replicas, with the
//! container verifier — pre-populated with a fixed working set. The
//! replicas are memory backends: small-file writes on a shared virtual
//! disk vary too much from minute to minute to compare two commits (see
//! README.md). Two connections (one per tenant) then drive three phases:
//!
//! * open loop: 4 KiB PUT/GET/VERIFY at 6:6:2 at a fixed offered rate,
//!   each op timed from when it was due;
//! * closed loop: the same mix back to back (saturation);
//! * streamed: 1 MiB objects put and got in 64 KiB chunks.
//!
//! Every GET is compared byte for byte with what its client put.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use daspos::obs::Obs;
use daspos::prelude::ContainerVerifier;
use daspos::serve::proto::{self, Op, Request, Response, Status};
use daspos::serve::{ServeClient, ServeConfig, Server, Service};
use daspos::vault::{MemoryBackend, ObjectKind, Redundancy, StorageBackend, Vault};
use daspos_tiers::codec::fnv64;

use crate::timing::{Reading, VaultTallies};
use crate::{ensure, latency_metrics, latency_pair, stats, Mismatch, Outcome, Rng, Run};

/// Offered rate of the open-loop phase, in ops per second over both
/// connections: each tenant sends 200 ops/s, the per-tenant ops/sec
/// quota of the deployment the repository README documents
/// (`serve --default-quota 1073741824:8:200`). The open loop thus offers
/// the most traffic that deployment admits from its tenants.
pub const OFFERED_RATE: f64 = 400.0;
const PAYLOAD_BYTES: usize = 4096;
/// Objects per tenant put during set-up.
const WORKING_SET: usize = 512;
/// Keys each connection's PUTs cycle through in one phase.
pub const KEY_SPACE: usize = 256;
const STREAM_BYTES: usize = 1 << 20;
const CHUNK_BYTES: usize = 64 << 10;
const TENANTS: [&str; 2] = ["atlas-open", "cms-open"];
/// Shares of the run: open loop, closed loop, streamed.
const PHASES: [f64; 3] = [0.5, 0.3, 0.2];
/// How long before an op is due the open-loop generator stops sleeping.
const SPIN_WINDOW: Duration = Duration::from_micros(150);

/// The payload a client puts under `key`: a pure function of the seed,
/// so any later GET can be checked against it.
pub fn payload(seed: u64, tenant: &str, key: &str, len: usize) -> Bytes {
    let mut rng = Rng::new(seed ^ fnv64(format!("{tenant}/{key}").as_bytes()));
    let mut data = vec![0u8; len];
    rng.fill(&mut data);
    Bytes::from(data)
}

/// One op of the 6:6:2 mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixOp {
    Put(String),
    Get(String),
    Verify(String),
}

impl MixOp {
    pub fn name(&self) -> &'static str {
        match self {
            MixOp::Put(_) => "put",
            MixOp::Get(_) => "get",
            MixOp::Verify(_) => "verify",
        }
    }
}

/// The seeded op sequence of one connection: blocks of six PUTs, six
/// GETs and two VERIFYs in shuffled order. PUTs cycle through this
/// connection's own [`KEY_SPACE`] keys (`{prefix}-{n}`), rewriting the
/// same bytes, so the store stays bounded; GET and VERIFY pick a key
/// this connection already put, or one of the working set.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: Rng,
    prefix: String,
    block: Vec<u8>,
    puts: usize,
    put: Vec<String>,
}

impl Mix {
    pub fn new(seed: u64, connection: usize, prefix: &str) -> Mix {
        Mix {
            rng: Rng::new(seed ^ fnv64(format!("{prefix}/{connection}").as_bytes())),
            prefix: prefix.to_string(),
            block: Vec::new(),
            puts: 0,
            put: Vec::new(),
        }
    }

    fn existing(&mut self) -> String {
        let n = (WORKING_SET + self.put.len()) as u64;
        let i = self.rng.below(n) as usize;
        match i.checked_sub(WORKING_SET) {
            Some(j) => self.put[j].clone(),
            None => format!("ws-{i}"),
        }
    }
}

impl Iterator for Mix {
    type Item = MixOp;

    fn next(&mut self) -> Option<MixOp> {
        if self.block.is_empty() {
            self.block = [0u8; 6].into_iter().chain([1; 6]).chain([2; 2]).collect();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        Some(match self.block.pop().expect("refilled above") {
            0 => {
                let key = format!("{}-{}", self.prefix, self.puts % KEY_SPACE);
                if self.put.len() < KEY_SPACE {
                    self.put.push(key.clone());
                }
                self.puts += 1;
                MixOp::Put(key)
            }
            1 => MixOp::Get(self.existing()),
            _ => MixOp::Verify(self.existing()),
        })
    }
}

/// Run `op` on one op of the mix through `client`, checking a GET
/// against the payload. Returns whether the op succeeded; a GET whose
/// bytes differ is a [`Mismatch`].
fn run_op(
    client: &mut ServeClient,
    seed: u64,
    op: &MixOp,
    corrupt: bool,
) -> Result<bool, Mismatch> {
    let tenant = client.tenant().to_string();
    let resp = match op {
        MixOp::Put(key) => client.put(
            key,
            ObjectKind::Opaque,
            &payload(seed, &tenant, key, PAYLOAD_BYTES),
        ),
        MixOp::Get(key) => client.get(key),
        MixOp::Verify(key) => client.verify(key),
    };
    let mut resp = match resp {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} failed: {e}", op.name());
            return Ok(false);
        }
    };
    if corrupt {
        resp.payload = crate::flip(&resp.payload);
    }
    check_response(seed, &tenant, op, &resp)
}

/// Judge one response: `Ok(false)` for a refused or failed op, a
/// [`Mismatch`] for a GET that returns other bytes than were put.
pub fn check_response(
    seed: u64,
    tenant: &str,
    op: &MixOp,
    resp: &Response,
) -> Result<bool, Mismatch> {
    if resp.status != Status::Ok {
        eprintln!(
            "{} answered {}: {}",
            op.name(),
            resp.status.name(),
            resp.detail
        );
        return Ok(false);
    }
    if let MixOp::Get(key) = op {
        ensure(
            resp.payload == payload(seed, tenant, key, PAYLOAD_BYTES),
            || format!("GET {tenant}/{key} is not byte-identical to its PUT"),
        )?;
    }
    Ok(true)
}

/// One timed op of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// From when the op was due to when it completed.
    pub latency_ns: f64,
    /// From when the op was due to when it was sent.
    pub late_ns: f64,
}

/// Run `op(i)` for `i = 0, 1, …` on a fixed schedule — op `i` is due at
/// `start + i·interval` — until the next op would be due after `end`.
/// Each op is timed from its due time, so a stall also delays every op
/// scheduled behind it (no coordinated omission).
pub fn open_loop<E>(
    start: Instant,
    interval: Duration,
    end: Instant,
    mut op: impl FnMut(u64) -> Result<(), E>,
) -> Result<Vec<Timed>, E> {
    let mut out = Vec::new();
    for i in 0u64.. {
        let due = start + interval.mul_f64(i as f64);
        if due > end {
            break;
        }
        // Sleep to just short of the due time, then yield until it:
        // a plain sleep overshoots by tens of microseconds.
        let now = Instant::now();
        if due > now + SPIN_WINDOW {
            std::thread::sleep(due - now - SPIN_WINDOW);
        }
        while Instant::now() < due {
            std::thread::yield_now();
        }
        let sent = Instant::now();
        op(i)?;
        let done = Instant::now();
        out.push(Timed {
            latency_ns: (done - due).as_nanos() as f64,
            late_ns: (sent - due).as_nanos() as f64,
        });
    }
    Ok(out)
}

/// A running server over a fresh three-replica store, stopped on drop.
pub struct Deployment {
    server: Option<Server>,
    pub tallies: Option<Arc<VaultTallies>>,
}

impl Deployment {
    /// Build the store, start the server and put the working set
    /// through a client of each tenant.
    pub fn start(seed: u64, traced: bool) -> Result<Deployment, Box<dyn std::error::Error>> {
        let tallies = traced.then(VaultTallies::new);
        let backends: Vec<Arc<dyn StorageBackend>> = (0..3)
            .map(|_| {
                let b: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
                match &tallies {
                    Some(t) => t.backend(b),
                    None => b,
                }
            })
            .collect();
        let vault = Vault::builder()
            .verifier(Arc::new(ContainerVerifier))
            .backends(backends)
            .redundancy(Redundancy::Replicas(3))
            .build()?;
        let cfg = ServeConfig::default();
        let service = Arc::new(Service::new(vault, &cfg, Obs::disabled()));
        let server = Server::start(service, "127.0.0.1:0", cfg.scrub_interval())?;
        let dep = Deployment {
            server: Some(server),
            tallies,
        };
        for tenant in TENANTS {
            let mut client = dep.client(tenant)?;
            for i in 0..WORKING_SET {
                let key = format!("ws-{i}");
                let data = payload(seed, tenant, &key, PAYLOAD_BYTES);
                let resp = client.put(&key, ObjectKind::Opaque, &data)?;
                if resp.status != Status::Ok {
                    return Err(format!("working-set put answered {}", resp.status.name()).into());
                }
            }
        }
        Ok(dep)
    }

    pub fn service(&self) -> &Arc<Service> {
        self.server.as_ref().expect("running").service()
    }

    pub fn client(&self, tenant: &str) -> Result<ServeClient, Box<dyn std::error::Error>> {
        let addr = self.server.as_ref().expect("running").addr().to_string();
        Ok(ServeClient::builder(tenant)
            .chunk_bytes(CHUNK_BYTES)
            .op_timeout(Duration::from_secs(30))
            .connect(&addr)?)
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// One completed op: its kind and its latency.
#[derive(Debug, Clone, Copy)]
struct Sample {
    op: &'static str,
    latency_ns: f64,
}

/// Per-connection results of one phase.
#[derive(Debug, Default)]
struct ConnResult {
    attempted: u64,
    failed: u64,
    samples: Vec<Sample>,
    late_ns: Vec<f64>,
}

/// Run `body` once per tenant connection on its own thread.
fn per_connection(
    dep: &Deployment,
    body: impl Fn(usize, &mut ServeClient) -> Result<ConnResult, Mismatch> + Sync,
) -> Result<Vec<ConnResult>, Box<dyn std::error::Error>> {
    let mut clients = TENANTS
        .iter()
        .map(|t| dep.client(t))
        .collect::<Result<Vec<_>, _>>()?;
    let results: Vec<Result<ConnResult, Mismatch>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let body = &body;
                s.spawn(move || body(c, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut out = Vec::new();
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// The open-loop phase: one load thread sends on both connections in
/// turn, op `i` on connection `i mod 2`, due every `1 / OFFERED_RATE`;
/// each connection thus offers half the rate. A single thread keeps the
/// generator's own wake-ups from competing with each other for the two
/// cores.
fn open_loop_phase(
    run: &Run,
    dep: &Deployment,
    secs: f64,
    prefix: &str,
) -> Result<Vec<ConnResult>, Box<dyn std::error::Error>> {
    let n = TENANTS.len();
    let mut clients = TENANTS
        .iter()
        .map(|t| dep.client(t))
        .collect::<Result<Vec<_>, _>>()?;
    let mut mixes: Vec<Mix> = (0..n).map(|c| Mix::new(run.seed, c, prefix)).collect();
    let mut results: Vec<ConnResult> = (0..n).map(|_| ConnResult::default()).collect();
    let mut ops = Vec::new();
    let interval = Duration::from_secs_f64(1.0 / OFFERED_RATE);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(secs);
    // The fault hook spoils the first GET at or after its index.
    let mut armed = false;
    let timed = open_loop(start, interval, end, |i| {
        let c = i as usize % n;
        let op = mixes[c].next().expect("endless mix");
        results[c].attempted += 1;
        armed |= run.corrupts(i);
        let corrupt = armed && matches!(op, MixOp::Get(_));
        armed &= !corrupt;
        let ok = run_op(&mut clients[c], run.seed, &op, corrupt)?;
        results[c].failed += u64::from(!ok);
        ops.push(ok.then(|| op.name()));
        Ok::<(), Mismatch>(())
    })?;
    for (i, (op, t)) in ops.into_iter().zip(&timed).enumerate() {
        let r = &mut results[i % n];
        if let Some(op) = op {
            r.samples.push(Sample {
                op,
                latency_ns: t.latency_ns,
            });
        }
        r.late_ns.push(t.late_ns);
    }
    Ok(results)
}

/// The closed-loop phase: each connection sends its next op as soon as
/// the previous one completed.
fn closed_loop_phase(
    run: &Run,
    dep: &Deployment,
    secs: f64,
) -> Result<Vec<ConnResult>, Box<dyn std::error::Error>> {
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(secs);
    per_connection(dep, |c, client| {
        let mut r = ConnResult::default();
        for op in Mix::new(run.seed, c, "cl") {
            let sent = Instant::now();
            if sent >= end {
                break;
            }
            r.attempted += 1;
            if run_op(client, run.seed, &op, false)? {
                r.samples.push(Sample {
                    op: op.name(),
                    latency_ns: sent.elapsed().as_nanos() as f64,
                });
            } else {
                r.failed += 1;
            }
        }
        Ok(r)
    })
}

/// The streamed phase: each connection puts a 1 MiB object in 64 KiB
/// chunks and streams it back, over two keys it keeps overwriting.
fn stream_phase(
    run: &Run,
    dep: &Deployment,
    secs: f64,
) -> Result<Vec<ConnResult>, Box<dyn std::error::Error>> {
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(secs);
    per_connection(dep, |_, client| {
        let mut r = ConnResult::default();
        let tenant = client.tenant().to_string();
        for i in 0u64.. {
            let sent = Instant::now();
            if sent >= end && i > 0 {
                break;
            }
            let key = format!("big-{}", i % 2);
            let data = payload(run.seed, &tenant, &format!("{key}-{i}"), STREAM_BYTES);
            r.attempted += 2;
            let put = client.put_chunked(&key, ObjectKind::Opaque, &data);
            if !matches!(&put, Ok(resp) if resp.status == Status::Ok) {
                eprintln!("streamed put failed: {put:?}");
                r.failed += 2;
                continue;
            }
            match client.get_streamed_bytes(&key) {
                Ok(resp) if resp.status == Status::Ok => {
                    ensure(resp.payload == data, || {
                        format!("streamed GET {tenant}/{key} is not byte-identical to its PUT")
                    })?;
                    r.samples.push(Sample {
                        op: "stream",
                        latency_ns: sent.elapsed().as_nanos() as f64,
                    });
                }
                other => {
                    eprintln!("streamed get failed: {other:?}");
                    r.failed += 1;
                }
            }
        }
        Ok(r)
    })
}

fn tally(out: &mut Outcome, results: &[ConnResult]) {
    for r in results {
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
}

/// Latencies of the ops `pick` selects.
fn latencies_of(results: &[ConnResult], pick: impl Fn(&str) -> bool) -> Vec<f64> {
    results
        .iter()
        .flat_map(|r| r.samples.iter())
        .filter(|s| pick(s.op))
        .map(|s| s.latency_ns)
        .collect()
}

/// Set up `times` times; the median set-up time and the last
/// deployment (earlier ones are torn down).
fn set_up(run: &Run, times: usize) -> Result<(f64, Deployment), Box<dyn std::error::Error>> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        last = Some(Deployment::start(run.seed, false)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((stats::median(&secs), last.expect("times >= 1")))
}

/// The untraced measurement: end-to-end metrics.
pub fn measure(run: &Run) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut out = Outcome::default();
    let (setup_s, dep) = set_up(run, crate::SETUPS)?;
    out.metric("setup_s", setup_s);
    out.note("service.offered_rate_ops_per_s", OFFERED_RATE);

    let open = open_loop_phase(run, &dep, run.seconds * PHASES[0], "ol")?;
    tally(&mut out, &open);
    let all = latencies_of(&open, |_| true);
    latency_metrics(&mut out, "service.open_loop", &all);
    for op in ["put", "get", "verify"] {
        latency_pair(
            &mut out,
            &format!("service.{op}"),
            &latencies_of(&open, |n| n == op),
        );
    }
    let late: Vec<f64> = open
        .iter()
        .flat_map(|r| r.late_ns.iter().copied())
        .collect();
    latency_pair(&mut out, "service.generator_late", &late);

    let secs = run.seconds * PHASES[1];
    let closed = closed_loop_phase(run, &dep, secs)?;
    tally(&mut out, &closed);
    let done: usize = closed.iter().map(|r| r.samples.len()).sum();
    out.metric("throughput_per_s", done as f64 / secs);
    out.note("service.saturated_ops", done);
    latency_pair(
        &mut out,
        "service.closed_loop",
        &latencies_of(&closed, |_| true),
    );

    let streamed = stream_phase(run, &dep, run.seconds * PHASES[2])?;
    tally(&mut out, &streamed);
    // Both connections stream at once: each moves 2 MiB per round trip.
    let trips = latencies_of(&streamed, |_| true);
    let per_trip_s = stats::percentile(&trips, 0.5).unwrap_or(f64::NAN) / 1e9;
    let mb = (2 * STREAM_BYTES) as f64 / 1e6;
    out.metric("mb_per_s", TENANTS.len() as f64 * mb / per_trip_s);
    out.note("service.stream_round_trips", trips.len());
    Ok(out)
}

/// Wall time of each call the in-process replay makes.
#[derive(Debug, Default)]
struct ReplayTimes {
    handle: Vec<(&'static str, f64)>,
    proto_ns: f64,
    ops: u64,
    failed: u64,
}

/// Replay `ops` through `Service::handle_wire` with no socket, timing
/// the handler and, by direct calls on the op's own frames, the four
/// protocol codec functions.
fn replay_in_process(
    run: &Run,
    service: &Service,
    ops: &[(usize, MixOp)],
) -> Result<ReplayTimes, Box<dyn std::error::Error>> {
    let mut t = ReplayTimes::default();
    for (c, op) in ops {
        let tenant = TENANTS[*c];
        let req = match op {
            MixOp::Put(key) => Request {
                op: Op::Put,
                kind: ObjectKind::Opaque,
                tenant: tenant.to_string(),
                key: key.clone(),
                payload: payload(run.seed, tenant, key, PAYLOAD_BYTES),
            },
            MixOp::Get(key) => Request::control(Op::Get, tenant, key),
            MixOp::Verify(key) => Request::control(Op::Verify, tenant, key),
        };
        let p0 = Instant::now();
        let (sealed, _) = proto::split_frame(&proto::encode_request(&req))?;
        let p1 = Instant::now();
        let (frame, _) = service.handle_wire(&sealed);
        let p2 = Instant::now();
        let resp = proto::decode_response(&proto::split_frame(&frame)?.0)?;
        proto::decode_request(&sealed)?;
        let _ = proto::encode_response(&resp);
        let p4 = Instant::now();
        t.proto_ns += ((p1 - p0) + (p4 - p2)).as_nanos() as f64;
        t.handle.push((op.name(), (p2 - p1).as_nanos() as f64));
        t.ops += 1;
        t.failed += u64::from(!check_response(run.seed, tenant, op, &resp)?);
    }
    Ok(t)
}

/// The traced measurement: per-layer metrics of the serve stack for
/// `share` of the run. With `overhead`, closed-loop bursts with backend
/// timing on alternate with bursts with it off, and their time ratio
/// is reported too.
pub fn traced(
    run: &Run,
    share: f64,
    overhead: bool,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut out = Outcome::default();
    let dep = Deployment::start(run.seed, true)?;
    let tallies = dep.tallies.clone().expect("traced deployment");
    let service = dep.service().clone();
    let secs = run.seconds * share * if overhead { 0.6 } else { 0.85 };

    let stats0 = (
        service.stats().ops(),
        service.stats().rejected() + service.stats().quota_rejected(),
        service.stats().scrub_steps(),
    );
    let (put0, get0) = (tallies.put.read(), tallies.get.read());
    let started = Instant::now();
    let open = open_loop_phase(run, &dep, secs, "tl")?;
    let elapsed = started.elapsed().as_secs_f64();
    let (put, get): (Reading, Reading) = (tallies.put.read() - put0, tallies.get.read() - get0);
    let stats = service.stats();
    let admitted = stats.ops() - stats0.0;
    let refused = stats.rejected() + stats.quota_rejected() - stats0.1;
    tally(&mut out, &open);
    out.metric(
        "serve.scrub_steps_per_s",
        (stats.scrub_steps() - stats0.2) as f64 / elapsed,
    );
    out.metric(
        "serve.admitted_ratio",
        admitted as f64 / (admitted + refused) as f64,
    );
    out.metric(
        "vault.backend_put_us",
        put.ns as f64 / put.calls as f64 / 1e3,
    );
    out.metric(
        "vault.backend_get_us",
        get.ns as f64 / get.calls as f64 / 1e3,
    );

    // The same op sequence again, in process.
    let ops: Vec<(usize, MixOp)> = open
        .iter()
        .enumerate()
        .flat_map(|(c, r)| {
            Mix::new(run.seed, c, "tl")
                .take(r.attempted as usize)
                .map(move |op| (c, op))
        })
        .collect();
    let replay = replay_in_process(run, &service, &ops)?;
    out.attempted += replay.ops;
    out.failed += replay.failed;
    let handle_p50 = |pick: &dyn Fn(&str) -> bool| {
        let v: Vec<f64> = replay
            .handle
            .iter()
            .filter(|(n, _)| pick(n))
            .map(|(_, ns)| *ns / 1e3)
            .collect();
        stats::percentile(&v, 0.5).unwrap_or(f64::NAN)
    };
    for op in ["put", "get", "verify"] {
        out.metric(&format!("serve.handle_{op}_us"), handle_p50(&|n| n == op));
    }
    let client = latencies_of(&open, |_| true);
    let client_p50 = stats::percentile(&client, 0.5).unwrap_or(f64::NAN) / 1e3;
    let handle_all = handle_p50(&|_| true);
    out.metric("serve.transport_wait_us", client_p50 - handle_all);
    out.metric("serve.proto_ns_per_op", replay.proto_ns / replay.ops as f64);
    out.note("service.client_p50_us", client_p50);
    out.note("service.handle_p50_us", handle_all);
    out.note("service.replayed_ops", replay.ops);

    if overhead {
        let bursts = (run.seconds * share * 0.3 / 0.05).max(10.0) as usize;
        let mut client = dep.client(TENANTS[0])?;
        let mut mix = Mix::new(run.seed, 0, "ov");
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for b in 0..2 * bursts {
            let recording = b % 2 == 0;
            tallies.set_recording(recording);
            let started = Instant::now();
            for op in mix.by_ref().take(20) {
                out.attempted += 1;
                if !run_op(&mut client, run.seed, &op, false)? {
                    out.failed += 1;
                }
            }
            let ns = started.elapsed().as_nanos() as f64;
            if recording {
                on.push(ns)
            } else {
                off.push(ns)
            }
        }
        tallies.set_recording(true);
        out.metric(
            "obs.trace_overhead_ratio",
            stats::median(&on) / stats::median(&off),
        );
        out.note("obs.trace_overhead_pairs", bursts);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_six_six_two_over_a_bounded_key_space_with_known_targets() {
        let ops: Vec<MixOp> = Mix::new(7, 0, "ol").take(1400).collect();
        let count = |name| ops.iter().filter(|o| o.name() == name).count();
        assert_eq!(
            (count("put"), count("get"), count("verify")),
            (600, 600, 200)
        );
        let mut put = std::collections::BTreeSet::new();
        for op in &ops {
            match op {
                MixOp::Put(k) => {
                    assert!(k.starts_with("ol-"));
                    put.insert(k.clone());
                }
                MixOp::Get(k) | MixOp::Verify(k) => {
                    assert!(put.contains(k) || k.starts_with("ws-"), "{k} never put")
                }
            }
        }
        assert_eq!(put.len(), KEY_SPACE);
        let again: Vec<MixOp> = Mix::new(7, 0, "ol").take(1400).collect();
        assert_eq!(ops, again);
    }

    #[test]
    fn a_stall_raises_the_latency_of_ops_due_behind_it() {
        let interval = Duration::from_millis(2);
        let start = Instant::now();
        let end = start + Duration::from_millis(120);
        let timed = open_loop(start, interval, end, |i| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok::<(), ()>(())
        })
        .expect("no op fails");
        // The op due 2 ms after the stall began waited ~48 ms for it.
        assert!(timed[6].latency_ns > 40e6, "{:?}", timed[6]);
        assert!(timed[6].late_ns > 40e6);
        // Later ops recover as the generator catches up with its schedule.
        assert!(timed[25].latency_ns < timed[6].latency_ns);
        let stalled = timed.iter().filter(|t| t.latency_ns > 10e6).count();
        assert!(stalled >= 15, "only {stalled} ops saw the stall");
        // Timing from send instead would have hidden the stall from all
        // but the stalled op itself.
        let service_ns: Vec<f64> = timed.iter().map(|t| t.latency_ns - t.late_ns).collect();
        assert_eq!(service_ns.iter().filter(|ns| **ns > 10e6).count(), 1);
    }

    #[test]
    fn a_get_with_other_bytes_is_a_mismatch() {
        let op = MixOp::Get("k".to_string());
        let good = Response {
            op: Op::Get,
            status: Status::Ok,
            detail: String::new(),
            payload: payload(3, "t", "k", PAYLOAD_BYTES),
        };
        assert!(matches!(check_response(3, "t", &op, &good), Ok(true)));
        let bad = Response {
            payload: crate::flip(&good.payload),
            ..good.clone()
        };
        assert!(check_response(3, "t", &op, &bad).is_err());
        let refused = Response::status_only(Op::Get, Status::Overloaded, "full");
        assert!(matches!(check_response(3, "t", &op, &refused), Ok(false)));
    }
}
