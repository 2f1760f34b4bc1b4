//! The multi-tenant preservation service: admission-controlled op
//! handling over a shared [`Vault`], plus the TCP front-end.
//!
//! The design splits cleanly in two:
//!
//! - [`Service`] — the transport-free core. It owns the vault, the
//!   admission gates (a bounded global in-flight counter answering
//!   `Overloaded`, plus per-tenant [`Quota`]s — stored bytes, in-flight
//!   ops, an ops/sec token bucket — answering `QuotaExceeded`), the
//!   put-stream table for multi-frame transfers, the shutdown flag, and
//!   the op handlers. [`Service::handle_wire`] takes one sealed frame
//!   body and returns one encoded response frame, which is exactly the
//!   surface the `serve-frame` fault class attacks in-process: any
//!   mutation must come back as a typed error response without
//!   panicking or touching tenant state.
//! - [`Server`] — the TCP front-end. An accept thread gives each
//!   connection its own blocking thread, which reads a frame with
//!   [`wire::read_frame`], answers it through [`Service::handle_wire`]
//!   and writes the answer with [`wire::write_frame`], the client's own
//!   framing. Socket timeouts bound a silent or non-draining peer. An
//!   idle connection costs a blocked thread and nothing else: no busy
//!   connection waits behind it (DESIGN §16). Past a fixed cap of open
//!   connections a new one is answered `Overloaded` and closed. A
//!   background scrubber walks one object per tick, *yielding* whenever
//!   foreground ops are in flight (`serve.scrub.yields`).
//!
//! Streamed transfers (`PutBegin`/`PutChunk`/`PutCommit`, chunked GET)
//! stage chunk records under a per-stream generation and publish with a
//! single manifest write — see [`crate::stream`] for the wire formats
//! and the commit-time digest re-verification that bounds server memory
//! to O(chunk) regardless of object size.
//!
//! Graceful shutdown: the `Shutdown` op (or [`Service::request_shutdown`])
//! flips the flag and connects once to each listener, whose blocked
//! accept then stops taking connections and shuts the read side of every
//! open one, which wakes its thread. Each thread still reads the frames
//! its peer had already sent and answers them — accepted work is never
//! dropped — then reads end-of-stream and exits; [`Server::join`] reaps
//! all of it.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use daspos_obs::{Counter, Obs};
use daspos_tiers::codec::{fnv64, fnv64_resume, FNV64_OFFSET};
use daspos_vault::{ObjectKind, ScrubReport, Vault, VaultError};

use crate::proto::{
    decode_request, encode_response, storage_key, validate_tenant, Op, ProtoError, Request,
    Response, Status, DEFAULT_CHUNK_BYTES,
};
use crate::stream::{
    self, chunk_key, chunk_prefix, decode_manifest, encode_manifest, Manifest, StreamInfo,
};
use crate::wire::{self, WireError};

/// Largest chunked object a plain (single-frame) `Get` will reassemble
/// inline; anything bigger is answered `BadRequest` pointing the caller
/// at the streamed GET ops, so one lazy client cannot balloon server
/// memory.
const GET_INLINE_LIMIT: u64 = 8 * 1024 * 1024;

/// The answer to a frame that fails protocol validation; the sender is
/// hung up on after it.
fn bad_frame(e: &ProtoError) -> Response {
    Response::status_only(
        Op::Stat,
        Status::BadRequest,
        format!("{} [{}]", e, e.category()),
    )
}

/// Deterministic fault hooks for exit-code and failure-path testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chaos {
    /// Flip one payload byte of every successful GET *before* the
    /// response is sealed: the frame arrives intact, so only a client's
    /// deep verification (byte-comparing against what it stored) can
    /// catch it.
    FlipGet,
}

impl Chaos {
    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<Chaos> {
        match s {
            "flip-get" => Some(Chaos::FlipGet),
            _ => None,
        }
    }
}

/// Per-tenant resource limits. A field of `0` means *unlimited* for
/// that axis, so `Quota::default()` constrains nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Quota {
    /// Logical bytes a tenant may hold (stored objects plus staged
    /// stream chunks). Object *payload* bytes are counted; replication
    /// and envelope overhead are the operator's concern, not the
    /// tenant's.
    pub max_bytes: u64,
    /// Concurrent ops the tenant may have in flight.
    pub max_inflight: u32,
    /// Sustained ops/sec via a token bucket whose burst capacity equals
    /// the rate (the bucket starts full).
    pub ops_per_sec: u32,
}

impl Quota {
    /// No limits on any axis.
    pub const UNLIMITED: Quota = Quota {
        max_bytes: 0,
        max_inflight: 0,
        ops_per_sec: 0,
    };

    /// Parse the CLI form `BYTES:INFLIGHT:OPS_PER_SEC` (each `0` =
    /// unlimited), e.g. `1073741824:8:200`.
    pub fn parse(s: &str) -> Option<Quota> {
        let mut parts = s.split(':');
        let max_bytes = parts.next()?.trim().parse().ok()?;
        let max_inflight = parts.next()?.trim().parse().ok()?;
        let ops_per_sec = parts.next()?.trim().parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Quota {
            max_bytes,
            max_inflight,
            ops_per_sec,
        })
    }
}

/// Tuning for a [`Service`] / [`Server`]. Construct via
/// [`ServeConfig::builder`], which validates the combination, or use
/// `Default` for the stock settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    max_inflight: usize,
    max_streams: usize,
    scrub_interval: Duration,
    chaos: Option<Chaos>,
    default_quota: Quota,
    tenant_quotas: BTreeMap<String, Quota>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_inflight: 64,
            max_streams: 32,
            scrub_interval: Duration::from_millis(20),
            chaos: None,
            default_quota: Quota::UNLIMITED,
            tenant_quotas: BTreeMap::new(),
        }
    }
}

impl ServeConfig {
    /// Start building a config from the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }

    /// Maximum ops processed concurrently before the admission gate
    /// answers `Overloaded`.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Concurrent open put-streams before `PutBegin` answers
    /// `Overloaded`.
    pub fn max_streams(&self) -> usize {
        self.max_streams
    }

    /// Background scrub cadence; `Duration::ZERO` disables the scrubber.
    pub fn scrub_interval(&self) -> Duration {
        self.scrub_interval
    }

    /// Optional fault hook.
    pub fn chaos(&self) -> Option<Chaos> {
        self.chaos
    }

    /// The quota applied to tenants without an explicit entry.
    pub fn default_quota(&self) -> Quota {
        self.default_quota
    }

    /// The quota governing `tenant`.
    pub fn quota_for(&self, tenant: &str) -> Quota {
        self.tenant_quotas
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }
}

/// Validating builder for [`ServeConfig`]; every invalid combination is
/// caught at [`build`](ServeConfigBuilder::build) time, not at first
/// request.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Admission-gate bound (must be ≥ 1).
    pub fn max_inflight(mut self, n: usize) -> ServeConfigBuilder {
        self.cfg.max_inflight = n;
        self
    }

    /// Open put-stream bound (must be ≥ 1).
    pub fn max_streams(mut self, n: usize) -> ServeConfigBuilder {
        self.cfg.max_streams = n;
        self
    }

    /// Scrub cadence; `Duration::ZERO` disables the scrubber.
    pub fn scrub_interval(mut self, d: Duration) -> ServeConfigBuilder {
        self.cfg.scrub_interval = d;
        self
    }

    /// Install a deterministic fault hook.
    pub fn chaos(mut self, chaos: Chaos) -> ServeConfigBuilder {
        self.cfg.chaos = Some(chaos);
        self
    }

    /// Quota applied to tenants without an explicit entry.
    pub fn default_quota(mut self, q: Quota) -> ServeConfigBuilder {
        self.cfg.default_quota = q;
        self
    }

    /// Per-tenant quota override (tenant name validated at build time).
    pub fn quota(mut self, tenant: &str, q: Quota) -> ServeConfigBuilder {
        self.cfg.tenant_quotas.insert(tenant.to_string(), q);
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        let cfg = self.cfg;
        if cfg.max_inflight == 0 {
            return Err(ServeError::Config(
                "max-inflight must be at least 1".to_string(),
            ));
        }
        if cfg.max_streams == 0 {
            return Err(ServeError::Config(
                "max open streams must be at least 1".to_string(),
            ));
        }
        for tenant in cfg.tenant_quotas.keys() {
            if let Err(e) = validate_tenant(tenant) {
                return Err(ServeError::Config(format!(
                    "quota tenant {tenant:?} is invalid: {e}"
                )));
            }
        }
        Ok(cfg)
    }
}

/// A serve-layer failure (configuration, transport, backpressure, or a
/// remote error status a caller chose to surface as an error).
#[derive(Debug)]
pub enum ServeError {
    /// An invalid configuration was rejected before anything started.
    Config(String),
    /// The listener could not bind.
    Bind {
        /// The requested address.
        addr: String,
        /// The OS-level reason.
        reason: String,
    },
    /// A socket-level failure.
    Io(String),
    /// The peer sent a frame that failed protocol validation.
    Proto(ProtoError),
    /// The server's admission gate rejected the op.
    Overloaded {
        /// The rejected op.
        op: Op,
        /// Server-provided detail.
        detail: String,
    },
    /// A per-tenant quota rejected the op; retrying will not help until
    /// the tenant frees budget (other tenants are unaffected).
    QuotaExceeded {
        /// The rejected op.
        op: Op,
        /// Server-provided detail naming the exhausted quota.
        detail: String,
    },
    /// The server answered with a non-OK, non-backpressure status.
    Remote {
        /// The op that failed.
        op: Op,
        /// The status the server returned.
        status: Status,
        /// Server-provided detail.
        detail: String,
    },
    /// A response decoded fine but failed deep verification
    /// (byte-identity against what the client stored).
    Verification(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Bind { addr, reason } => write!(f, "cannot bind {addr}: {reason}"),
            ServeError::Io(msg) => write!(f, "serve i/o failure: {msg}"),
            ServeError::Proto(e) => write!(f, "serve protocol failure: {e}"),
            ServeError::Overloaded { op, detail } => {
                write!(f, "server overloaded (op {op}): {detail}")
            }
            ServeError::QuotaExceeded { op, detail } => {
                write!(f, "tenant quota exceeded (op {op}): {detail}")
            }
            ServeError::Remote { op, status, detail } => {
                write!(f, "server rejected {op}: {status}: {detail}")
            }
            ServeError::Verification(msg) => write!(f, "deep verification failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> ServeError {
        match e {
            WireError::Io(e) => ServeError::Io(e.to_string()),
            WireError::Proto(e) => ServeError::Proto(e),
        }
    }
}

impl From<ProtoError> for ServeError {
    fn from(e: ProtoError) -> ServeError {
        ServeError::Proto(e)
    }
}

/// Cumulative op counters, readable without the metrics registry.
#[derive(Debug, Default)]
pub struct ServiceStats {
    ops: AtomicU64,
    rejected: AtomicU64,
    quota_rejected: AtomicU64,
    scrub_steps: AtomicU64,
    scrub_yields: AtomicU64,
    streams_opened: AtomicU64,
    streams_committed: AtomicU64,
    streams_aborted: AtomicU64,
    stream_chunk_high_water: AtomicU64,
}

impl ServiceStats {
    /// Ops admitted and executed.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Ops rejected by the global admission gate.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Ops rejected by a per-tenant quota.
    pub fn quota_rejected(&self) -> u64 {
        self.quota_rejected.load(Ordering::Relaxed)
    }

    /// Objects scrubbed by the background scrubber.
    pub fn scrub_steps(&self) -> u64 {
        self.scrub_steps.load(Ordering::Relaxed)
    }

    /// Scrub ticks that yielded to foreground traffic.
    pub fn scrub_yields(&self) -> u64 {
        self.scrub_yields.load(Ordering::Relaxed)
    }

    /// Put-streams opened.
    pub fn streams_opened(&self) -> u64 {
        self.streams_opened.load(Ordering::Relaxed)
    }

    /// Put-streams committed (object published).
    pub fn streams_committed(&self) -> u64 {
        self.streams_committed.load(Ordering::Relaxed)
    }

    /// Put-streams aborted (by request or by a failed commit).
    pub fn streams_aborted(&self) -> u64 {
        self.streams_aborted.load(Ordering::Relaxed)
    }

    /// Largest single staged chunk, in bytes — the server-side peak
    /// buffering proof: streaming a 64 MiB object must leave this at
    /// the chunk size, not the object size.
    pub fn stream_chunk_high_water(&self) -> u64 {
        self.stream_chunk_high_water.load(Ordering::Relaxed)
    }
}

/// An open multi-frame put: where chunks stage and what the next one
/// must look like.
struct PutStream {
    tenant: String,
    composed: String,
    kind: ObjectKind,
    chunk_size: u32,
    gen: u64,
    next_seq: u32,
    staged_bytes: u64,
    /// A short (final) chunk has been staged; nothing may follow it.
    short_seen: bool,
}

/// Mutable per-tenant quota accounting, all under one lock so stored
/// and staged bytes can never be observed mid-move.
struct TenantState {
    stored: u64,
    staged: u64,
    inflight: u32,
    tokens: f64,
    last_refill: Instant,
}

#[derive(Default)]
struct Ledger {
    tenants: HashMap<String, TenantState>,
    /// Logical size of every object this service wrote, by composed
    /// key — what lets an overwrite charge only the delta.
    sizes: HashMap<String, u64>,
}

impl Ledger {
    fn tenant_mut(&mut self, tenant: &str, quota: &Quota) -> &mut TenantState {
        self.tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState {
                stored: 0,
                staged: 0,
                inflight: 0,
                tokens: f64::from(quota.ops_per_sec),
                last_refill: Instant::now(),
            })
    }
}

/// The transport-free service core: vault + admission gates + stream
/// table + handlers.
pub struct Service {
    vault: Vault,
    obs: Obs,
    config: ServeConfig,
    inflight: AtomicUsize,
    shutdown: AtomicBool,
    /// Woken by [`Service::request_shutdown`] for the scrubber's wait.
    shutdown_signal: (Mutex<()>, Condvar),
    /// Each [`Server`]'s listening address, where its accept is woken.
    listeners: Mutex<Vec<SocketAddr>>,
    scrub_cursor: Mutex<usize>,
    stats: ServiceStats,
    next_stream: AtomicU64,
    streams: Mutex<HashMap<u64, PutStream>>,
    ledger: Mutex<Ledger>,
    /// The `serve.ops.<op>` counters, in [`Op::ALL`] order, each resolved
    /// on its op's first request so that an op never served stays absent
    /// from snapshots.
    op_counters: [OnceLock<Counter>; Op::ALL.len()],
}

/// RAII slot in the global admission gate.
struct Admission<'a>(&'a AtomicUsize);

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// RAII slot in a tenant's in-flight quota.
struct TenantSlot<'a> {
    service: &'a Service,
    tenant: &'a str,
}

impl Drop for TenantSlot<'_> {
    fn drop(&mut self) {
        let mut led = self.service.ledger.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(st) = led.tenants.get_mut(self.tenant) {
            st.inflight = st.inflight.saturating_sub(1);
        }
    }
}

impl Service {
    /// Wrap a vault in a service. The vault's own `Obs` keeps working;
    /// `obs` here carries the serve-layer spans and counters.
    pub fn new(vault: Vault, cfg: &ServeConfig, obs: Obs) -> Service {
        Service {
            vault,
            obs,
            config: cfg.clone(),
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(()), Condvar::new()),
            listeners: Mutex::new(Vec::new()),
            scrub_cursor: Mutex::new(0),
            stats: ServiceStats::default(),
            next_stream: AtomicU64::new(1),
            streams: Mutex::new(HashMap::new()),
            ledger: Mutex::new(Ledger::default()),
            op_counters: Default::default(),
        }
    }

    /// The shared vault (tests seed corruption through replicas, not
    /// through this).
    pub fn vault(&self) -> &Vault {
        &self.vault
    }

    /// The config this service was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Ops currently being processed.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Put-streams currently open.
    pub fn open_streams(&self) -> usize {
        self.streams.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Ask every loop holding this service to drain and exit.
    pub fn request_shutdown(&self) {
        // Stored under the lock, so a scrubber between its check and its
        // wait cannot miss the notification.
        let (lock, signal) = &self.shutdown_signal;
        let _held = lock.lock().unwrap_or_else(|e| e.into_inner());
        self.shutdown.store(true, Ordering::SeqCst);
        signal.notify_all();
        // One connection wakes each blocked accept (a wildcard one locally).
        for addr in self.listeners.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
        }
    }

    /// Wait up to `timeout` for shutdown to be requested; whether it has.
    fn wait_for_shutdown(&self, timeout: Duration) -> bool {
        let (lock, signal) = &self.shutdown_signal;
        let held = lock.lock().unwrap_or_else(|e| e.into_inner());
        let (_held, _) = signal
            .wait_timeout_while(held, timeout, |_| !self.shutdown_requested())
            .unwrap_or_else(|e| e.into_inner());
        self.shutdown_requested()
    }

    fn counter(&self, name: &str, n: u64) {
        if let Some(reg) = self.obs.registry() {
            reg.add(name, n);
        }
    }

    /// Count one event in `stat` and in the registry's `name` counter.
    fn bump(&self, stat: &AtomicU64, name: &str) {
        stat.fetch_add(1, Ordering::Relaxed);
        self.counter(name, 1);
    }

    fn try_admit(&self) -> Option<Admission<'_>> {
        let max = self.config.max_inflight();
        self.inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < max).then_some(n + 1))
            .ok()
            .map(|_| Admission(&self.inflight))
    }

    /// Per-tenant admission: charge the token bucket, then claim an
    /// in-flight slot. Byte quotas are charged where bytes actually
    /// move (put / chunk / commit), not here.
    fn admit_tenant<'a>(&'a self, tenant: &'a str) -> Result<Option<TenantSlot<'a>>, String> {
        let quota = self.config.quota_for(tenant);
        if quota.ops_per_sec == 0 && quota.max_inflight == 0 {
            return Ok(None);
        }
        let mut led = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        let st = led.tenant_mut(tenant, &quota);
        if quota.ops_per_sec > 0 {
            let now = Instant::now();
            let rate = f64::from(quota.ops_per_sec);
            st.tokens = (st.tokens + now.duration_since(st.last_refill).as_secs_f64() * rate)
                .min(rate);
            st.last_refill = now;
            if st.tokens < 1.0 {
                return Err(format!(
                    "tenant {tenant}: ops/sec quota exhausted ({} ops/s)",
                    quota.ops_per_sec
                ));
            }
            st.tokens -= 1.0;
        }
        if quota.max_inflight > 0 {
            if st.inflight >= quota.max_inflight {
                return Err(format!(
                    "tenant {tenant}: in-flight quota exhausted ({} ops)",
                    quota.max_inflight
                ));
            }
            st.inflight += 1;
            return Ok(Some(TenantSlot {
                service: self,
                tenant,
            }));
        }
        Ok(None)
    }

    /// Would storing `new_len` bytes at `composed` push the tenant over
    /// its byte quota? (`None` = fits.)
    fn bytes_check(&self, tenant: &str, composed: Option<&str>, new_len: u64) -> Option<String> {
        let quota = self.config.quota_for(tenant);
        if quota.max_bytes == 0 {
            return None;
        }
        let mut led = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        let old = composed
            .and_then(|c| led.sizes.get(c).copied())
            .unwrap_or(0);
        let st = led.tenant_mut(tenant, &quota);
        let projected = st.stored.saturating_sub(old) + st.staged + new_len;
        if projected > quota.max_bytes {
            return Some(format!(
                "tenant {tenant}: byte quota exhausted ({projected} of {} bytes)",
                quota.max_bytes
            ));
        }
        None
    }

    /// Record a successful whole-object write of `new_len` bytes.
    fn settle_stored(&self, tenant: &str, composed: &str, new_len: u64) {
        let quota = self.config.quota_for(tenant);
        let mut led = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        let old = led.sizes.insert(composed.to_string(), new_len).unwrap_or(0);
        let st = led.tenant_mut(tenant, &quota);
        st.stored = st.stored.saturating_sub(old) + new_len;
    }

    /// Record a successfully staged chunk.
    fn settle_staged(&self, tenant: &str, n: u64) {
        let quota = self.config.quota_for(tenant);
        let mut led = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        let st = led.tenant_mut(tenant, &quota);
        st.staged += n;
    }

    /// Release a stream's staged bytes (commit moves them to stored,
    /// abort just drops them).
    fn release_staged(&self, tenant: &str, n: u64) {
        let quota = self.config.quota_for(tenant);
        let mut led = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        let st = led.tenant_mut(tenant, &quota);
        st.staged = st.staged.saturating_sub(n);
    }

    /// Handle one sealed request frame body end-to-end: decode, admit,
    /// execute, encode. Returns the encoded response *frame* plus
    /// whether the connection should close (protocol errors desync the
    /// stream, so they answer once and hang up). Never panics on
    /// malformed input — that is the `serve-frame` campaign invariant.
    pub fn handle_wire(&self, sealed: &Bytes) -> (Bytes, bool) {
        match decode_request(sealed) {
            Ok(req) => {
                let resp = self.handle(&req);
                (encode_response(&resp), false)
            }
            Err(e) => (encode_response(&bad_frame(&e)), true),
        }
    }

    /// Execute one decoded request under the admission gates.
    pub fn handle(&self, req: &Request) -> Response {
        // Shutdown must stay deliverable even at full load, or a
        // saturated server could never be stopped cleanly.
        let _slot = if req.op == Op::Shutdown {
            None
        } else {
            match self.try_admit() {
                Some(slot) => Some(slot),
                None => {
                    self.bump(&self.stats.rejected, "serve.rejected");
                    return Response::status_only(
                        req.op,
                        Status::Overloaded,
                        format!(
                            "admission gate full ({} in flight)",
                            self.config.max_inflight()
                        ),
                    );
                }
            }
        };
        let _tenant_slot = if req.op == Op::Shutdown {
            None
        } else {
            match self.admit_tenant(&req.tenant) {
                Ok(slot) => slot,
                Err(detail) => {
                    self.bump(&self.stats.quota_rejected, "serve.quota.rejected");
                    return Response::status_only(req.op, Status::QuotaExceeded, detail);
                }
            }
        };
        self.stats.ops.fetch_add(1, Ordering::Relaxed);
        if let Some(reg) = self.obs.registry() {
            // Discriminants run 1..=12 in `Op::ALL` order.
            self.op_counters[usize::from(req.op.as_u8()) - 1]
                .get_or_init(|| reg.counter(&format!("serve.ops.{}", req.op.name())))
                .inc();
        }
        let mut span = self
            .obs
            .tracer
            .span_fmt(format_args!("serve/{}", req.op.name()));
        span.field("tenant", &req.tenant);
        if !req.key.is_empty() {
            span.field("key", &req.key);
        }
        let resp = self.dispatch(req);
        span.field("status", resp.status.name());
        span.finish();
        resp
    }

    fn dispatch(&self, req: &Request) -> Response {
        let answer = match req.op {
            Op::Put => self.op_put(req),
            Op::Get => self.op_get(req),
            Op::Verify => self.op_verify(req),
            Op::Scrub => Ok(self.op_scrub()),
            Op::Stat => self.op_stat(req),
            Op::PutBegin => self.op_put_begin(req),
            Op::PutChunk => self.op_put_chunk(req),
            Op::PutCommit => self.op_put_commit(req),
            Op::PutAbort => self.op_put_abort(req),
            Op::GetBegin => self.op_get_begin(req),
            Op::GetChunk => self.op_get_chunk(req),
            Op::Shutdown => {
                self.request_shutdown();
                Ok(Response::status_only(Op::Shutdown, Status::Ok, "draining"))
            }
        };
        // A handler that stops early hands its answer back as the error.
        answer.unwrap_or_else(|early| early)
    }

    fn vault_failure(op: Op, e: &VaultError) -> Response {
        let status = match e {
            VaultError::NotFound(_) => Status::NotFound,
            VaultError::Damaged { .. } => Status::Damaged,
            _ => Status::ServerError,
        };
        Response::status_only(op, status, e.to_string())
    }

    /// The answer to a vault failure during `op`, as a `map_err` target.
    fn failed(op: Op) -> impl Fn(VaultError) -> Response {
        move |e| Self::vault_failure(op, &e)
    }

    fn bad(op: Op, detail: impl Into<String>) -> Response {
        Response::status_only(op, Status::BadRequest, detail)
    }

    /// The answer to a malformed field of `req`, as a `map_err` target.
    fn rejects(req: &Request) -> impl Fn(ProtoError) -> Response {
        let op = req.op;
        move |e| Self::bad(op, e.to_string())
    }

    /// The answer to a chunk manifest that no longer decodes.
    fn corrupt_manifest(op: Op) -> impl Fn(ProtoError) -> Response {
        move |e| {
            let detail = format!("stored stream manifest corrupt: {e}");
            Response::status_only(op, Status::Damaged, detail)
        }
    }

    fn op_put(&self, req: &Request) -> Result<Response, Response> {
        let skey = storage_key(&req.tenant, &req.key).map_err(Self::rejects(req))?;
        if let Some(detail) = self.bytes_check(&req.tenant, Some(&skey), req.payload.len() as u64)
        {
            self.bump(&self.stats.quota_rejected, "serve.quota.rejected");
            return Err(Response::status_only(Op::Put, Status::QuotaExceeded, detail));
        }
        self.vault
            .put(&skey, req.kind, &req.payload)
            .map_err(Self::failed(Op::Put))?;
        self.settle_stored(&req.tenant, &skey, req.payload.len() as u64);
        Ok(Response::status_only(Op::Put, Status::Ok, req.kind.name()))
    }

    fn op_get(&self, req: &Request) -> Result<Response, Response> {
        let skey = storage_key(&req.tenant, &req.key).map_err(Self::rejects(req))?;
        let (kind, payload) = self.vault.get(&skey).map_err(Self::failed(Op::Get))?;
        if kind == ObjectKind::StreamManifest {
            return self.inline_chunked_get(&skey, &payload);
        }
        let payload = match self.config.chaos() {
            Some(Chaos::FlipGet) if !payload.is_empty() => {
                let mut bad = payload.to_vec();
                bad[0] ^= 0x01;
                Bytes::from(bad)
            }
            _ => payload,
        };
        Ok(Response {
            op: Op::Get,
            status: Status::Ok,
            detail: kind.name().to_string(),
            payload,
        })
    }

    /// A plain GET landed on a chunk manifest: reassemble small objects
    /// transparently, refuse big ones (bounded server memory).
    fn inline_chunked_get(
        &self,
        composed: &str,
        manifest_bytes: &Bytes,
    ) -> Result<Response, Response> {
        let m = decode_manifest(manifest_bytes).map_err(Self::corrupt_manifest(Op::Get))?;
        if m.info.total_len > GET_INLINE_LIMIT {
            return Err(Self::bad(
                Op::Get,
                format!(
                    "object is a {}-byte chunked stream; fetch it with the streamed get ops",
                    m.info.total_len
                ),
            ));
        }
        let mut out = BytesMut::with_capacity(m.info.total_len as usize);
        for seq in 0..m.info.chunks {
            let (_, data) = self
                .vault
                .get(&chunk_key(composed, m.gen, seq))
                .map_err(Self::failed(Op::Get))?;
            out.put_slice(&data);
        }
        if out.len() as u64 != m.info.total_len || fnv64(&out) != m.info.digest {
            return Err(Response::status_only(
                Op::Get,
                Status::Damaged,
                "chunked object failed digest verification during reassembly",
            ));
        }
        Ok(Response {
            op: Op::Get,
            status: Status::Ok,
            detail: m.kind.name().to_string(),
            payload: out.freeze(),
        })
    }

    fn op_put_begin(&self, req: &Request) -> Result<Response, Response> {
        let skey = storage_key(&req.tenant, &req.key).map_err(Self::rejects(req))?;
        let chunk_size = stream::decode_begin(&req.payload).map_err(Self::rejects(req))?;
        stream::validate_chunk_size(chunk_size).map_err(Self::rejects(req))?;
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        {
            let mut streams = self.streams.lock().unwrap_or_else(|e| e.into_inner());
            if streams.len() >= self.config.max_streams() {
                return Err(Response::status_only(
                    Op::PutBegin,
                    Status::Overloaded,
                    format!("stream table full ({} open)", self.config.max_streams()),
                ));
            }
            streams.insert(
                id,
                PutStream {
                    tenant: req.tenant.clone(),
                    composed: skey,
                    kind: req.kind,
                    chunk_size,
                    gen: id,
                    next_seq: 0,
                    staged_bytes: 0,
                    short_seen: false,
                },
            );
        }
        self.bump(&self.stats.streams_opened, "serve.stream.begin");
        Ok(Response::status_only(Op::PutBegin, Status::Ok, id.to_string()))
    }

    /// Claim the stream named by `req.key` out of the table for the
    /// duration of one op (staging writes must not serialize unrelated
    /// streams behind the table lock). Returns the stream or the error
    /// response.
    fn claim_stream(&self, op: Op, req: &Request) -> Result<(u64, PutStream), Response> {
        let id = match req.key.parse::<u64>() {
            Ok(id) => id,
            Err(_) => return Err(Self::bad(op, format!("{:?} is not a stream id", req.key))),
        };
        let mut streams = self.streams.lock().unwrap_or_else(|e| e.into_inner());
        match streams.get(&id) {
            None => Err(Self::bad(op, format!("no open stream {id}"))),
            Some(st) if st.tenant != req.tenant => Err(Self::bad(
                op,
                format!("stream {id} belongs to another tenant"),
            )),
            Some(_) => {
                let st = streams.remove(&id).expect("checked above");
                Ok((id, st))
            }
        }
    }

    fn op_put_chunk(&self, req: &Request) -> Result<Response, Response> {
        let (id, mut st) = self.claim_stream(Op::PutChunk, req)?;
        let answer = self.stage_chunk(&mut st, req);
        // Every outcome leaves the stream open — the client decides
        // whether to abort after an error.
        self.streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, st);
        answer
    }

    fn stage_chunk(&self, st: &mut PutStream, req: &Request) -> Result<Response, Response> {
        let (seq, data) = stream::decode_chunk(&req.payload).map_err(Self::rejects(req))?;
        if seq != st.next_seq {
            return Err(Self::bad(
                Op::PutChunk,
                format!("out-of-order chunk: expected {}, got {seq}", st.next_seq),
            ));
        }
        if st.short_seen {
            return Err(Self::bad(Op::PutChunk, "chunk after a short (final) chunk"));
        }
        if data.is_empty() {
            return Err(Self::bad(Op::PutChunk, "empty chunk"));
        }
        if data.len() > st.chunk_size as usize {
            return Err(Self::bad(
                Op::PutChunk,
                format!(
                    "chunk of {} bytes exceeds the declared chunk size {}",
                    data.len(),
                    st.chunk_size
                ),
            ));
        }
        if let Some(detail) = self.bytes_check(&req.tenant, None, data.len() as u64) {
            self.bump(&self.stats.quota_rejected, "serve.quota.rejected");
            return Err(Response::status_only(Op::PutChunk, Status::QuotaExceeded, detail));
        }
        self.vault
            .put(&chunk_key(&st.composed, st.gen, seq), ObjectKind::Opaque, &data)
            .map_err(Self::failed(Op::PutChunk))?;
        st.next_seq += 1;
        st.staged_bytes += data.len() as u64;
        if (data.len() as u32) < st.chunk_size {
            st.short_seen = true;
        }
        self.settle_staged(&req.tenant, data.len() as u64);
        self.stats
            .stream_chunk_high_water
            .fetch_max(data.len() as u64, Ordering::Relaxed);
        self.counter("serve.stream.chunks", 1);
        Ok(Response::status_only(Op::PutChunk, Status::Ok, format!("chunk {seq} staged")))
    }

    fn op_put_commit(&self, req: &Request) -> Result<Response, Response> {
        let (chunks, total_len, digest) =
            stream::decode_commit(&req.payload).map_err(Self::rejects(req))?;
        let (_id, st) = self.claim_stream(Op::PutCommit, req)?;
        // From here the stream is consumed: a failed commit aborts it
        // and reclaims its staged chunks.
        let answer = self.commit(&st, chunks, total_len, digest);
        if answer.is_err() {
            self.abort_stream(&st);
        }
        answer
    }

    /// Publish a claimed stream whose commit declares `chunks`,
    /// `total_len` and `digest`.
    fn commit(
        &self,
        st: &PutStream,
        chunks: u32,
        total_len: u64,
        digest: u64,
    ) -> Result<Response, Response> {
        if chunks != st.next_seq {
            return Err(Self::bad(
                Op::PutCommit,
                format!(
                    "chunk count mismatch: {} staged, commit declares {chunks}",
                    st.next_seq
                ),
            ));
        }
        if total_len != st.staged_bytes {
            return Err(Self::bad(
                Op::PutCommit,
                format!(
                    "length mismatch: {} bytes staged, commit declares {total_len}",
                    st.staged_bytes
                ),
            ));
        }
        // Re-read the staged chunks in order, folding the whole-object
        // digest — O(chunk) memory no matter how large the object.
        let mut fold = FNV64_OFFSET;
        for seq in 0..chunks {
            let (_, data) = self
                .vault
                .get(&chunk_key(&st.composed, st.gen, seq))
                .map_err(Self::failed(Op::PutCommit))?;
            fold = fnv64_resume(fold, &data);
        }
        if fold != digest {
            return Err(Response::status_only(
                Op::PutCommit,
                Status::Damaged,
                format!(
                    "stream digest mismatch: staged {fold:016x}, client declared {digest:016x}"
                ),
            ));
        }
        let manifest = Manifest {
            kind: st.kind,
            info: StreamInfo {
                total_len,
                chunk_size: st.chunk_size,
                chunks,
                digest,
            },
            gen: st.gen,
        };
        self.vault
            .put(&st.composed, ObjectKind::StreamManifest, &encode_manifest(&manifest))
            .map_err(Self::failed(Op::PutCommit))?;
        // Staged bytes become stored bytes; the manifest flip just
        // orphaned any older generation, so sweep it.
        self.release_staged(&st.tenant, st.staged_bytes);
        self.settle_stored(&st.tenant, &st.composed, total_len);
        self.sweep_other_generations(&st.composed, st.gen);
        self.bump(&self.stats.streams_committed, "serve.stream.commits");
        Ok(Response::status_only(Op::PutCommit, Status::Ok, st.kind.name()))
    }

    fn op_put_abort(&self, req: &Request) -> Result<Response, Response> {
        let (id, st) = self.claim_stream(Op::PutAbort, req)?;
        self.abort_stream(&st);
        Ok(Response::status_only(Op::PutAbort, Status::Ok, format!("stream {id} aborted")))
    }

    /// Reclaim a consumed stream's staged chunks and byte budget.
    fn abort_stream(&self, st: &PutStream) {
        for seq in 0..st.next_seq {
            let _ = self.vault.delete(&chunk_key(&st.composed, st.gen, seq));
        }
        self.release_staged(&st.tenant, st.staged_bytes);
        self.bump(&self.stats.streams_aborted, "serve.stream.aborts");
    }

    /// Delete chunk records of `composed` under any generation other
    /// than `keep` — except generations belonging to still-open streams
    /// racing toward the same key.
    fn sweep_other_generations(&self, composed: &str, keep: u64) {
        let live: Vec<u64> = {
            let streams = self.streams.lock().unwrap_or_else(|e| e.into_inner());
            streams
                .values()
                .filter(|s| s.composed == composed)
                .map(|s| s.gen)
                .collect()
        };
        let prefix = chunk_prefix(composed);
        let keeps: Vec<String> = std::iter::once(keep)
            .chain(live)
            .map(|g| format!("{composed}..g{g:016x}.c"))
            .collect();
        let Ok(keys) = self.vault.keys() else { return };
        for key in keys {
            if key.starts_with(&prefix) && !keeps.iter().any(|k| key.starts_with(k.as_str())) {
                let _ = self.vault.delete(&key);
            }
        }
    }

    fn op_get_begin(&self, req: &Request) -> Result<Response, Response> {
        let skey = storage_key(&req.tenant, &req.key).map_err(Self::rejects(req))?;
        let preferred = stream::decode_begin(&req.payload).map_err(Self::rejects(req))?;
        let (kind, payload) = self.vault.get(&skey).map_err(Self::failed(Op::GetBegin))?;
        let (kind, info) = if kind == ObjectKind::StreamManifest {
            let m = decode_manifest(&payload).map_err(Self::corrupt_manifest(Op::GetBegin))?;
            (m.kind, m.info)
        } else {
            // Plain objects stream too: slice them virtually at the
            // caller's preferred chunk size.
            let chunk_size = if preferred == 0 {
                DEFAULT_CHUNK_BYTES as u32
            } else {
                preferred
            };
            stream::validate_chunk_size(chunk_size).map_err(Self::rejects(req))?;
            let info = StreamInfo {
                total_len: payload.len() as u64,
                chunk_size,
                chunks: stream::chunk_count(payload.len() as u64, chunk_size),
                digest: fnv64(&payload),
            };
            (kind, info)
        };
        Ok(Response {
            op: Op::GetBegin,
            status: Status::Ok,
            detail: kind.name().to_string(),
            payload: stream::encode_info(&info),
        })
    }

    fn op_get_chunk(&self, req: &Request) -> Result<Response, Response> {
        let skey = storage_key(&req.tenant, &req.key).map_err(Self::rejects(req))?;
        let (seq, chunk_size) = stream::decode_get_chunk(&req.payload).map_err(Self::rejects(req))?;
        let (kind, payload) = self.vault.get(&skey).map_err(Self::failed(Op::GetChunk))?;
        let (kind, data) = if kind == ObjectKind::StreamManifest {
            let m = decode_manifest(&payload).map_err(Self::corrupt_manifest(Op::GetChunk))?;
            if chunk_size != m.info.chunk_size {
                return Err(Self::bad(
                    Op::GetChunk,
                    format!(
                        "chunk size {chunk_size} does not match stored geometry {}; \
                         the object changed — restart with get-begin",
                        m.info.chunk_size
                    ),
                ));
            }
            if seq >= m.info.chunks {
                return Err(Self::bad(
                    Op::GetChunk,
                    format!("chunk {seq} out of range ({} chunks)", m.info.chunks),
                ));
            }
            let (_, data) = self
                .vault
                .get(&chunk_key(&skey, m.gen, seq))
                .map_err(Self::failed(Op::GetChunk))?;
            let start = u64::from(seq) * u64::from(m.info.chunk_size);
            let expected = (m.info.total_len - start).min(u64::from(m.info.chunk_size));
            if data.len() as u64 != expected {
                return Err(Response::status_only(
                    Op::GetChunk,
                    Status::Damaged,
                    format!("chunk {seq} is {} bytes, manifest expects {expected}", data.len()),
                ));
            }
            (m.kind, data)
        } else {
            if stream::validate_chunk_size(chunk_size).is_err() {
                return Err(Self::bad(Op::GetChunk, format!("bad chunk size {chunk_size}")));
            }
            let start = u64::from(seq) * u64::from(chunk_size);
            if start >= payload.len() as u64 {
                return Err(Self::bad(
                    Op::GetChunk,
                    format!("chunk {seq} out of range ({} bytes)", payload.len()),
                ));
            }
            let end = (start + u64::from(chunk_size)).min(payload.len() as u64);
            (kind, payload.slice(start as usize..end as usize))
        };
        Ok(Response {
            op: Op::GetChunk,
            status: Status::Ok,
            detail: kind.name().to_string(),
            payload: stream::encode_chunk(seq, &data),
        })
    }

    fn op_verify(&self, req: &Request) -> Result<Response, Response> {
        let result = if req.key.is_empty() {
            self.vault.verify()
        } else {
            let skey = storage_key(&req.tenant, &req.key).map_err(Self::rejects(req))?;
            self.vault.verify_object(&skey)
        };
        // A verify repairs nothing, so any damaged or lost slot fails it.
        Ok(Self::report(Op::Verify, result, |r| {
            r.corrupt + r.missing == 0 && r.lost.is_empty()
        }))
    }

    fn op_scrub(&self) -> Response {
        Self::report(Op::Scrub, self.vault.scrub(), ScrubReport::clean)
    }

    /// Answer `op` with an integrity report: `Ok` if `clean` holds for
    /// it, else `Damaged`.
    fn report(
        op: Op,
        result: Result<ScrubReport, VaultError>,
        clean: fn(&ScrubReport) -> bool,
    ) -> Response {
        match result {
            Ok(report) => {
                let status = if clean(&report) {
                    Status::Ok
                } else {
                    Status::Damaged
                };
                Response::status_only(op, status, report.to_text())
            }
            Err(e) => Self::vault_failure(op, &e),
        }
    }

    fn op_stat(&self, req: &Request) -> Result<Response, Response> {
        let prefix = format!("{}.", req.tenant);
        let keys = self.vault.keys().map_err(Self::failed(Op::Stat))?;
        // Chunk records (the `..` namespace) are bookkeeping, not
        // tenant-visible objects.
        let tenant_objects = keys
            .iter()
            .filter(|k| k.starts_with(&prefix) && !k.contains(".."))
            .count();
        Ok(Response::status_only(
            Op::Stat,
            Status::Ok,
            format!(
                "tenant={} objects={} total_objects={} replicas={} inflight={} ops={} \
                 rejected={} quota_rejected={} open_streams={}",
                req.tenant,
                tenant_objects,
                keys.len(),
                self.vault.replica_count(),
                self.inflight(),
                self.stats.ops(),
                self.stats.rejected(),
                self.stats.quota_rejected(),
                self.open_streams(),
            ),
        ))
    }

    /// One background-scrub step: if any foreground op is in flight,
    /// yield (count it, touch nothing); otherwise scrub the next object
    /// in round-robin order. Returns whether an object was scrubbed.
    ///
    /// The tick re-checks the admission gate *between* replica
    /// classifications, not just at tick start: a foreground op arriving
    /// mid-object makes the scrubber abandon the object (counted as a
    /// yield) instead of stalling that op behind a full
    /// `replicas × deep-verify` pass — the `serve_mixed` p99 tail. An op
    /// that came and went between two checks abandons the object too:
    /// scrub rewrites outvoted slots, and must not vote on a stripe read
    /// half before and half after a PUT.
    pub fn scrub_step(&self) -> Result<bool, VaultError> {
        if self.inflight() > 0 {
            self.bump(&self.stats.scrub_yields, "serve.scrub.yields");
            return Ok(false);
        }
        let keys = self.vault.keys()?;
        if keys.is_empty() {
            return Ok(false);
        }
        let key = {
            let mut cursor = self.scrub_cursor.lock().unwrap_or_else(|e| e.into_inner());
            let key = keys[*cursor % keys.len()].clone();
            *cursor = (*cursor + 1) % keys.len();
            key
        };
        let ops = self.stats.ops();
        match self
            .vault
            .scrub_object_while(&key, &|| self.inflight() == 0 && self.stats.ops() == ops)?
        {
            None => {
                self.bump(&self.stats.scrub_yields, "serve.scrub.yields");
                Ok(false)
            }
            Some(_) => {
                self.bump(&self.stats.scrub_steps, "serve.scrub.objects");
                Ok(true)
            }
        }
    }
}

/// Name of the background scrubber's thread, so storage beneath the
/// vault can tell its reads from foreground ones.
pub(crate) const SCRUB_THREAD: &str = "serve-scrub";

/// Most connections the server holds at once. Each one is a thread, so
/// a connection past the cap is answered `Overloaded` and hung up on.
const MAX_CONNECTIONS: usize = 1024;

/// How long a connection may send nothing, idle between frames or
/// stalled inside one, before the server hangs up and frees its thread.
const READ_TIMEOUT: Duration = Duration::from_secs(300);

/// How long one response may wait on a peer that does not drain it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The TCP front-end over a shared [`Service`]: an accept thread and
/// one blocking thread per connection.
pub struct Server {
    addr: SocketAddr,
    service: Arc<Service>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// accept loop and, if `scrub_interval` is nonzero, the scrubber.
    pub fn start(
        service: Arc<Service>,
        addr: &str,
        scrub_interval: Duration,
    ) -> Result<Server, ServeError> {
        Server::start_capped(service, addr, scrub_interval, MAX_CONNECTIONS)
    }

    /// [`Server::start`] holding at most `cap` connections at once.
    pub(crate) fn start_capped(
        service: Arc<Service>,
        addr: &str,
        scrub_interval: Duration,
        cap: usize,
    ) -> Result<Server, ServeError> {
        let io = |e: std::io::Error| ServeError::Io(e.to_string());
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Bind {
            addr: addr.to_string(),
            reason: e.to_string(),
        })?;
        let local = listener.local_addr().map_err(io)?;
        service.listeners.lock().unwrap_or_else(|e| e.into_inner()).push(local);
        let mut server = Server {
            addr: local,
            service: service.clone(),
            threads: Vec::new(),
        };
        let accept = {
            let service = service.clone();
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(listener, &service, cap))
        };
        server.threads.push(accept.map_err(io)?);
        if !scrub_interval.is_zero() {
            let scrubber = std::thread::Builder::new()
                .name(SCRUB_THREAD.to_string())
                .spawn(move || {
                    while !service.wait_for_shutdown(scrub_interval) {
                        // Scrub failures must not kill the daemon; the next
                        // tick (or a client-requested scrub) retries.
                        let _ = service.scrub_step();
                    }
                });
            match scrubber {
                Ok(thread) => server.threads.push(thread),
                Err(e) => {
                    server.stop();
                    return Err(io(e));
                }
            }
        }
        Ok(server)
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Block until shutdown has been requested and every thread has
    /// drained: the accept thread, every connection (each answers the
    /// frames it has already received) and the scrubber.
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }

    /// Request shutdown and [`join`](Server::join).
    pub fn stop(self) {
        self.service.request_shutdown();
        self.join();
    }
}

/// Accept connections until shutdown, each on its own thread, then
/// drain them all. Beside each thread it keeps the socket, through
/// which shutdown ends the thread's reads.
fn accept_loop(listener: TcpListener, service: &Arc<Service>, cap: usize) {
    let mut open: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for accepted in listener.incoming() {
        // The connection that wakes a shutdown is not served.
        if service.shutdown_requested() {
            break;
        }
        let mut stream = match accepted {
            Ok(stream) => stream,
            // A transient failure, such as running out of descriptors.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        open.retain(|(_, thread)| !thread.is_finished());
        let detail = if open.len() >= cap {
            format!("connection cap reached ({cap} open)")
        } else {
            match spawn_connection(service, &stream) {
                Ok(thread) => {
                    open.push((stream, thread));
                    continue;
                }
                Err(e) => format!("no thread for the connection: {e}"),
            }
        };
        service.bump(&service.stats.rejected, "serve.rejected");
        let resp = Response::status_only(Op::Stat, Status::Overloaded, detail);
        let _ = wire::write_frame(&mut stream, &encode_response(&resp));
        let _ = stream.shutdown(Shutdown::Both);
    }
    drop(listener);
    // Shutting the read side wakes every blocked reader. A reader still
    // gets the bytes already received, so each connection answers the
    // frames its peer sent before it reads end-of-stream and exits.
    for (socket, _) in &open {
        let _ = socket.shutdown(Shutdown::Read);
    }
    for (_, thread) in open {
        let _ = thread.join();
    }
}

/// Start a thread serving a second handle on `stream`.
fn spawn_connection(service: &Arc<Service>, stream: &TcpStream) -> std::io::Result<JoinHandle<()>> {
    let stream = stream.try_clone()?;
    let service = service.clone();
    std::thread::Builder::new()
        .name("serve-conn".to_string())
        .spawn(move || serve_connection(&service, stream))
}

/// One connection's thread: read a frame, answer it, repeat until the
/// peer hangs up, goes silent past [`READ_TIMEOUT`] or sends a frame
/// that desyncs the stream, or until shutdown ends the reads.
fn serve_connection(service: &Service, mut stream: TcpStream) {
    let configured = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
        .and_then(|()| stream.set_write_timeout(Some(WRITE_TIMEOUT)));
    while configured.is_ok() {
        let (frame, close) = match wire::read_frame(&mut stream) {
            Ok(Some(sealed)) => service.handle_wire(&sealed),
            Ok(None) | Err(WireError::Io(_)) => break,
            // A hostile length prefix: the byte stream cannot be
            // resynchronized, so answer once and hang up.
            Err(WireError::Proto(e)) => (encode_response(&bad_frame(&e)), true),
        };
        if wire::write_frame(&mut stream, &frame).is_err() || close {
            break;
        }
    }
    // The accept thread holds a second handle on this socket; shutting
    // it down here sends the peer its end-of-stream now.
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, encode_request, MAX_FRAME_BYTES};
    use daspos_obs::MetricsRegistry;
    use daspos_vault::{MemoryBackend, StorageBackend};
    use std::io::Write;

    fn memory_service() -> Arc<Service> {
        let vault = Vault::builder()
            .backends(vec![Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>])
            .build()
            .unwrap();
        Arc::new(Service::new(vault, &ServeConfig::default(), Obs::disabled()))
    }

    /// A raw socket to `server`, with a read timeout so a missing answer
    /// fails the test instead of hanging it.
    fn raw_connect(server: &Server) -> TcpStream {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
    }

    fn read_response(stream: &mut TcpStream) -> Response {
        let sealed = wire::read_frame(stream).unwrap().expect("the server answered");
        decode_response(&sealed).unwrap()
    }

    #[test]
    fn a_frame_sent_one_byte_at_a_time_is_answered() {
        let server = Server::start(memory_service(), "127.0.0.1:0", Duration::ZERO).unwrap();
        let mut peer = raw_connect(&server);
        let frame = encode_request(&Request::control(Op::Stat, "cms", ""));
        for b in frame.iter() {
            peer.write_all(&[*b]).unwrap();
            peer.flush().unwrap();
            std::thread::sleep(Duration::from_micros(200));
        }
        let resp = read_response(&mut peer);
        assert_eq!((resp.op, resp.status), (Op::Stat, Status::Ok), "{}", resp.detail);
        server.stop();
    }

    #[test]
    fn stop_does_not_wait_out_the_scrub_interval() {
        let service = memory_service();
        let payload = Bytes::from_static(b"scrub me");
        service.vault().put("obj", ObjectKind::Opaque, &payload).unwrap();
        let server =
            Server::start(service.clone(), "127.0.0.1:0", Duration::from_secs(60)).unwrap();
        // Let the scrubber reach its wait before shutdown is requested.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        server.stop();
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
        // Shutdown skips the step the interval would have run.
        assert_eq!(service.stats().scrub_steps() + service.stats().scrub_yields(), 0);
    }

    #[test]
    fn an_oversized_length_prefix_is_answered_bad_request_then_hung_up() {
        let server = Server::start(memory_service(), "127.0.0.1:0", Duration::ZERO).unwrap();
        let mut peer = raw_connect(&server);
        peer.write_all(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes())
            .unwrap();
        let resp = read_response(&mut peer);
        assert_eq!(resp.status, Status::BadRequest, "{}", resp.detail);
        assert!(resp.detail.contains("exceeds frame cap"), "{}", resp.detail);
        assert!(
            matches!(wire::read_frame(&mut peer), Ok(None)),
            "the server must hang up after a hostile length prefix"
        );
        server.stop();
    }

    #[test]
    fn a_connection_past_the_cap_is_answered_overloaded_and_closed() {
        let service = memory_service();
        let server =
            Server::start_capped(service.clone(), "127.0.0.1:0", Duration::ZERO, 2).unwrap();
        let stat = encode_request(&Request::control(Op::Stat, "cms", ""));
        let mut held: Vec<TcpStream> = (0..2).map(|_| raw_connect(&server)).collect();
        for peer in &mut held {
            wire::write_frame(peer, &stat).unwrap();
            assert_eq!(read_response(peer).status, Status::Ok);
        }

        let mut third = raw_connect(&server);
        let resp = read_response(&mut third);
        assert_eq!(resp.status, Status::Overloaded, "{}", resp.detail);
        assert!(resp.detail.contains("connection cap"), "{}", resp.detail);
        assert!(matches!(wire::read_frame(&mut third), Ok(None)));
        assert_eq!(service.stats().rejected(), 1);

        // The cap counts open connections: once one closes, a new one
        // is served again.
        drop(held.pop());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            // A refused peer may see its request reset instead of read.
            let mut peer = raw_connect(&server);
            let answered = wire::write_frame(&mut peer, &stat)
                .and_then(|()| wire::read_frame(&mut peer))
                .ok()
                .flatten()
                .map(|sealed| decode_response(&sealed).unwrap().status);
            match answered {
                Some(Status::Ok) => break,
                Some(Status::Overloaded) | None => {}
                Some(other) => panic!("unexpected {}", other.name()),
            }
            assert!(Instant::now() < deadline, "a freed slot was never reused");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.stop();
    }

    #[test]
    fn op_counters_appear_once_their_op_is_served() {
        // The counter slots are indexed by discriminant − 1.
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(op.as_u8()), i + 1);
        }
        let vault = Vault::builder()
            .backends(vec![
                Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>,
                Arc::new(MemoryBackend::new()),
            ])
            .build()
            .unwrap();
        let reg = Arc::new(MetricsRegistry::new());
        let service = Service::new(
            vault,
            &ServeConfig::default(),
            Obs::metrics_only(Arc::clone(&reg)),
        );
        for op in [Op::Stat, Op::Get, Op::Stat] {
            service.handle(&Request::control(op, "cms", "aod.dpef"));
        }
        let snap = reg.snapshot();
        let ops: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("serve.ops."))
            .map(|(name, &n)| (name.as_str(), n))
            .collect();
        assert_eq!(ops, [("serve.ops.get", 1), ("serve.ops.stat", 2)]);
    }
}
