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
//! - [`Server`] — the TCP loop. A nonblocking accept thread adopts each
//!   connection into a shared ready queue; a fixed pool of
//!   [`pool_size`](ServeConfig::pool_size) workers cycles through the
//!   queue, draining readable bytes, answering complete frames, and
//!   requeueing the connection. Idle connections cost no thread, so N
//!   connections ≫ pool size serve correctly. A background scrubber
//!   walks one object per tick, *yielding* whenever foreground ops are
//!   in flight (`serve.scrub.yields`).
//!
//! Streamed transfers (`PutBegin`/`PutChunk`/`PutCommit`, chunked GET)
//! stage chunk records under a per-stream generation and publish with a
//! single manifest write — see [`crate::stream`] for the wire formats
//! and the commit-time digest re-verification that bounds server memory
//! to O(chunk) regardless of object size.
//!
//! Graceful shutdown: the `Shutdown` op (or [`Service::request_shutdown`])
//! flips the flag; the accept loop stops taking connections, every
//! worker answers the frames already buffered on the connections it
//! drains — accepted work is never dropped — and then exits;
//! [`Server::join`] reaps all of it.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use daspos_obs::Obs;
use daspos_vault::{ObjectKind, Vault, VaultError};

use crate::mux::Conn;
use crate::proto::{
    decode_request, encode_response, storage_key, validate_tenant, Op, ProtoError, Request,
    Response, Status, DEFAULT_CHUNK_BYTES,
};
use crate::stream::{
    self, chunk_key, chunk_prefix, decode_manifest, encode_manifest, fnv64_fold, Manifest,
    StreamInfo, FNV_BASIS,
};
use crate::wire::WireError;

/// Largest chunked object a plain (single-frame) `Get` will reassemble
/// inline; anything bigger is answered `BadRequest` pointing the caller
/// at the streamed GET ops, so one lazy client cannot balloon server
/// memory.
const GET_INLINE_LIMIT: u64 = 8 * 1024 * 1024;

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

    /// Whether every axis is unlimited.
    pub fn is_unlimited(&self) -> bool {
        *self == Quota::UNLIMITED
    }

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
    pool_size: usize,
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
            pool_size: 4,
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

    /// Worker threads multiplexing the connection set.
    pub fn pool_size(&self) -> usize {
        self.pool_size
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

    /// Worker-pool size (must be ≥ 1).
    pub fn pool_size(mut self, n: usize) -> ServeConfigBuilder {
        self.cfg.pool_size = n;
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
        if cfg.pool_size == 0 {
            return Err(ServeError::Config(
                "worker pool size must be at least 1".to_string(),
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
    scrub_cursor: Mutex<usize>,
    stats: ServiceStats,
    next_stream: AtomicU64,
    streams: Mutex<HashMap<u64, PutStream>>,
    ledger: Mutex<Ledger>,
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
            scrub_cursor: Mutex::new(0),
            stats: ServiceStats::default(),
            next_stream: AtomicU64::new(1),
            streams: Mutex::new(HashMap::new()),
            ledger: Mutex::new(Ledger::default()),
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
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn counter(&self, name: &str, n: u64) {
        if let Some(reg) = self.obs.registry() {
            reg.add(name, n);
        }
    }

    fn try_admit(&self) -> Option<Admission<'_>> {
        let admitted = self
            .inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                if n < self.config.max_inflight() {
                    Some(n + 1)
                } else {
                    None
                }
            })
            .is_ok();
        if admitted {
            Some(Admission(&self.inflight))
        } else {
            None
        }
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
            Err(e) => {
                let resp = Response::status_only(
                    Op::Stat,
                    Status::BadRequest,
                    format!("{} [{}]", e, e.category()),
                );
                (encode_response(&resp), true)
            }
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
                    self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    self.counter("serve.rejected", 1);
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
                    self.stats.quota_rejected.fetch_add(1, Ordering::Relaxed);
                    self.counter("serve.quota.rejected", 1);
                    return Response::status_only(req.op, Status::QuotaExceeded, detail);
                }
            }
        };
        self.stats.ops.fetch_add(1, Ordering::Relaxed);
        self.counter(&format!("serve.ops.{}", req.op.name()), 1);
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
        match req.op {
            Op::Put => self.op_put(req),
            Op::Get => self.op_get(req),
            Op::Verify => self.op_verify(req),
            Op::Scrub => self.op_scrub(req),
            Op::Stat => self.op_stat(req),
            Op::PutBegin => self.op_put_begin(req),
            Op::PutChunk => self.op_put_chunk(req),
            Op::PutCommit => self.op_put_commit(req),
            Op::PutAbort => self.op_put_abort(req),
            Op::GetBegin => self.op_get_begin(req),
            Op::GetChunk => self.op_get_chunk(req),
            Op::Shutdown => {
                self.request_shutdown();
                Response::status_only(Op::Shutdown, Status::Ok, "draining")
            }
        }
    }

    fn vault_failure(op: Op, e: &VaultError) -> Response {
        let status = match e {
            VaultError::NotFound(_) => Status::NotFound,
            VaultError::Damaged { .. } => Status::Damaged,
            _ => Status::ServerError,
        };
        Response::status_only(op, status, e.to_string())
    }

    fn bad(op: Op, detail: impl Into<String>) -> Response {
        Response::status_only(op, Status::BadRequest, detail)
    }

    fn op_put(&self, req: &Request) -> Response {
        let skey = match storage_key(&req.tenant, &req.key) {
            Ok(k) => k,
            Err(e) => return Self::bad(Op::Put, e.to_string()),
        };
        if let Some(detail) = self.bytes_check(&req.tenant, Some(&skey), req.payload.len() as u64)
        {
            self.stats.quota_rejected.fetch_add(1, Ordering::Relaxed);
            self.counter("serve.quota.rejected", 1);
            return Response::status_only(Op::Put, Status::QuotaExceeded, detail);
        }
        match self.vault.put(&skey, req.kind, &req.payload) {
            Ok(()) => {
                self.settle_stored(&req.tenant, &skey, req.payload.len() as u64);
                Response::status_only(Op::Put, Status::Ok, req.kind.name())
            }
            Err(e) => Self::vault_failure(Op::Put, &e),
        }
    }

    fn op_get(&self, req: &Request) -> Response {
        let skey = match storage_key(&req.tenant, &req.key) {
            Ok(k) => k,
            Err(e) => return Self::bad(Op::Get, e.to_string()),
        };
        match self.vault.get(&skey) {
            Ok((ObjectKind::StreamManifest, payload)) => self.inline_chunked_get(&skey, &payload),
            Ok((kind, payload)) => {
                let payload = match self.config.chaos() {
                    Some(Chaos::FlipGet) if !payload.is_empty() => {
                        let mut bad = payload.to_vec();
                        bad[0] ^= 0x01;
                        Bytes::from(bad)
                    }
                    _ => payload,
                };
                Response {
                    op: Op::Get,
                    status: Status::Ok,
                    detail: kind.name().to_string(),
                    payload,
                }
            }
            Err(e) => Self::vault_failure(Op::Get, &e),
        }
    }

    /// A plain GET landed on a chunk manifest: reassemble small objects
    /// transparently, refuse big ones (bounded server memory).
    fn inline_chunked_get(&self, composed: &str, manifest_bytes: &Bytes) -> Response {
        let m = match decode_manifest(manifest_bytes) {
            Ok(m) => m,
            Err(e) => {
                return Response::status_only(
                    Op::Get,
                    Status::Damaged,
                    format!("stored stream manifest corrupt: {e}"),
                )
            }
        };
        if m.info.total_len > GET_INLINE_LIMIT {
            return Self::bad(
                Op::Get,
                format!(
                    "object is a {}-byte chunked stream; fetch it with the streamed get ops",
                    m.info.total_len
                ),
            );
        }
        let mut out = BytesMut::with_capacity(m.info.total_len as usize);
        for seq in 0..m.info.chunks {
            match self.vault.get(&chunk_key(composed, m.gen, seq)) {
                Ok((_, data)) => out.put_slice(&data),
                Err(e) => return Self::vault_failure(Op::Get, &e),
            }
        }
        if out.len() as u64 != m.info.total_len || fnv64_fold(FNV_BASIS, &out) != m.info.digest {
            return Response::status_only(
                Op::Get,
                Status::Damaged,
                "chunked object failed digest verification during reassembly",
            );
        }
        Response {
            op: Op::Get,
            status: Status::Ok,
            detail: m.kind.name().to_string(),
            payload: out.freeze(),
        }
    }

    fn op_put_begin(&self, req: &Request) -> Response {
        let skey = match storage_key(&req.tenant, &req.key) {
            Ok(k) => k,
            Err(e) => return Self::bad(Op::PutBegin, e.to_string()),
        };
        let chunk_size = match stream::decode_begin(&req.payload) {
            Ok(cs) => cs,
            Err(e) => return Self::bad(Op::PutBegin, e.to_string()),
        };
        if let Err(e) = stream::validate_chunk_size(chunk_size) {
            return Self::bad(Op::PutBegin, e.to_string());
        }
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        {
            let mut streams = self.streams.lock().unwrap_or_else(|e| e.into_inner());
            if streams.len() >= self.config.max_streams() {
                return Response::status_only(
                    Op::PutBegin,
                    Status::Overloaded,
                    format!("stream table full ({} open)", self.config.max_streams()),
                );
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
        self.stats.streams_opened.fetch_add(1, Ordering::Relaxed);
        self.counter("serve.stream.begin", 1);
        Response::status_only(Op::PutBegin, Status::Ok, id.to_string())
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

    fn op_put_chunk(&self, req: &Request) -> Response {
        let (id, mut st) = match self.claim_stream(Op::PutChunk, req) {
            Ok(claimed) => claimed,
            Err(resp) => return resp,
        };
        let resp = self.stage_chunk(&mut st, req);
        // Every outcome leaves the stream open — the client decides
        // whether to abort after an error.
        self.streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, st);
        resp
    }

    fn stage_chunk(&self, st: &mut PutStream, req: &Request) -> Response {
        let (seq, data) = match stream::decode_chunk(&req.payload) {
            Ok(parts) => parts,
            Err(e) => return Self::bad(Op::PutChunk, e.to_string()),
        };
        if seq != st.next_seq {
            return Self::bad(
                Op::PutChunk,
                format!("out-of-order chunk: expected {}, got {seq}", st.next_seq),
            );
        }
        if st.short_seen {
            return Self::bad(Op::PutChunk, "chunk after a short (final) chunk");
        }
        if data.is_empty() {
            return Self::bad(Op::PutChunk, "empty chunk");
        }
        if data.len() > st.chunk_size as usize {
            return Self::bad(
                Op::PutChunk,
                format!(
                    "chunk of {} bytes exceeds the declared chunk size {}",
                    data.len(),
                    st.chunk_size
                ),
            );
        }
        if let Some(detail) = self.bytes_check(&req.tenant, None, data.len() as u64) {
            self.stats.quota_rejected.fetch_add(1, Ordering::Relaxed);
            self.counter("serve.quota.rejected", 1);
            return Response::status_only(Op::PutChunk, Status::QuotaExceeded, detail);
        }
        match self
            .vault
            .put(&chunk_key(&st.composed, st.gen, seq), ObjectKind::Opaque, &data)
        {
            Ok(()) => {
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
                Response::status_only(Op::PutChunk, Status::Ok, format!("chunk {seq} staged"))
            }
            Err(e) => Self::vault_failure(Op::PutChunk, &e),
        }
    }

    fn op_put_commit(&self, req: &Request) -> Response {
        let (chunks, total_len, digest) = match stream::decode_commit(&req.payload) {
            Ok(parts) => parts,
            Err(e) => return Self::bad(Op::PutCommit, e.to_string()),
        };
        let (_id, st) = match self.claim_stream(Op::PutCommit, req) {
            Ok(claimed) => claimed,
            Err(resp) => return resp,
        };
        // From here the stream is consumed: a failed commit aborts it
        // and reclaims its staged chunks.
        if chunks != st.next_seq {
            let detail = format!(
                "chunk count mismatch: {} staged, commit declares {chunks}",
                st.next_seq
            );
            self.abort_stream(&st);
            return Self::bad(Op::PutCommit, detail);
        }
        if total_len != st.staged_bytes {
            let detail = format!(
                "length mismatch: {} bytes staged, commit declares {total_len}",
                st.staged_bytes
            );
            self.abort_stream(&st);
            return Self::bad(Op::PutCommit, detail);
        }
        // Re-read the staged chunks in order, folding the whole-object
        // digest — O(chunk) memory no matter how large the object.
        let mut fold = FNV_BASIS;
        for seq in 0..chunks {
            match self.vault.get(&chunk_key(&st.composed, st.gen, seq)) {
                Ok((_, data)) => fold = fnv64_fold(fold, &data),
                Err(e) => {
                    self.abort_stream(&st);
                    return Self::vault_failure(Op::PutCommit, &e);
                }
            }
        }
        if fold != digest {
            self.abort_stream(&st);
            return Response::status_only(
                Op::PutCommit,
                Status::Damaged,
                format!(
                    "stream digest mismatch: staged {fold:016x}, client declared {digest:016x}"
                ),
            );
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
        if let Err(e) = self.vault.put(
            &st.composed,
            ObjectKind::StreamManifest,
            &encode_manifest(&manifest),
        ) {
            self.abort_stream(&st);
            return Self::vault_failure(Op::PutCommit, &e);
        }
        // Staged bytes become stored bytes; the manifest flip just
        // orphaned any older generation, so sweep it.
        self.release_staged(&st.tenant, st.staged_bytes);
        self.settle_stored(&st.tenant, &st.composed, total_len);
        self.sweep_other_generations(&st.composed, st.gen);
        self.stats.streams_committed.fetch_add(1, Ordering::Relaxed);
        self.counter("serve.stream.commits", 1);
        Response::status_only(Op::PutCommit, Status::Ok, st.kind.name())
    }

    fn op_put_abort(&self, req: &Request) -> Response {
        let (id, st) = match self.claim_stream(Op::PutAbort, req) {
            Ok(claimed) => claimed,
            Err(resp) => return resp,
        };
        self.abort_stream(&st);
        Response::status_only(Op::PutAbort, Status::Ok, format!("stream {id} aborted"))
    }

    /// Reclaim a consumed stream's staged chunks and byte budget.
    fn abort_stream(&self, st: &PutStream) {
        for seq in 0..st.next_seq {
            let _ = self.vault.delete(&chunk_key(&st.composed, st.gen, seq));
        }
        self.release_staged(&st.tenant, st.staged_bytes);
        self.stats.streams_aborted.fetch_add(1, Ordering::Relaxed);
        self.counter("serve.stream.aborts", 1);
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

    fn op_get_begin(&self, req: &Request) -> Response {
        let skey = match storage_key(&req.tenant, &req.key) {
            Ok(k) => k,
            Err(e) => return Self::bad(Op::GetBegin, e.to_string()),
        };
        let preferred = match stream::decode_begin(&req.payload) {
            Ok(p) => p,
            Err(e) => return Self::bad(Op::GetBegin, e.to_string()),
        };
        match self.vault.get(&skey) {
            Ok((ObjectKind::StreamManifest, payload)) => match decode_manifest(&payload) {
                Ok(m) => Response {
                    op: Op::GetBegin,
                    status: Status::Ok,
                    detail: m.kind.name().to_string(),
                    payload: stream::encode_info(&m.info),
                },
                Err(e) => Response::status_only(
                    Op::GetBegin,
                    Status::Damaged,
                    format!("stored stream manifest corrupt: {e}"),
                ),
            },
            Ok((kind, payload)) => {
                // Plain objects stream too: slice them virtually at the
                // caller's preferred chunk size.
                let chunk_size = if preferred == 0 {
                    DEFAULT_CHUNK_BYTES as u32
                } else {
                    preferred
                };
                if let Err(e) = stream::validate_chunk_size(chunk_size) {
                    return Self::bad(Op::GetBegin, e.to_string());
                }
                let info = StreamInfo {
                    total_len: payload.len() as u64,
                    chunk_size,
                    chunks: stream::chunk_count(payload.len() as u64, chunk_size),
                    digest: fnv64_fold(FNV_BASIS, &payload),
                };
                Response {
                    op: Op::GetBegin,
                    status: Status::Ok,
                    detail: kind.name().to_string(),
                    payload: stream::encode_info(&info),
                }
            }
            Err(e) => Self::vault_failure(Op::GetBegin, &e),
        }
    }

    fn op_get_chunk(&self, req: &Request) -> Response {
        let skey = match storage_key(&req.tenant, &req.key) {
            Ok(k) => k,
            Err(e) => return Self::bad(Op::GetChunk, e.to_string()),
        };
        let (seq, chunk_size) = match stream::decode_get_chunk(&req.payload) {
            Ok(parts) => parts,
            Err(e) => return Self::bad(Op::GetChunk, e.to_string()),
        };
        match self.vault.get(&skey) {
            Ok((ObjectKind::StreamManifest, payload)) => {
                let m = match decode_manifest(&payload) {
                    Ok(m) => m,
                    Err(e) => {
                        return Response::status_only(
                            Op::GetChunk,
                            Status::Damaged,
                            format!("stored stream manifest corrupt: {e}"),
                        )
                    }
                };
                if chunk_size != m.info.chunk_size {
                    return Self::bad(
                        Op::GetChunk,
                        format!(
                            "chunk size {chunk_size} does not match stored geometry {}; \
                             the object changed — restart with get-begin",
                            m.info.chunk_size
                        ),
                    );
                }
                if seq >= m.info.chunks {
                    return Self::bad(
                        Op::GetChunk,
                        format!("chunk {seq} out of range ({} chunks)", m.info.chunks),
                    );
                }
                match self.vault.get(&chunk_key(&skey, m.gen, seq)) {
                    Ok((_, data)) => {
                        let start = u64::from(seq) * u64::from(m.info.chunk_size);
                        let expected =
                            (m.info.total_len - start).min(u64::from(m.info.chunk_size));
                        if data.len() as u64 != expected {
                            return Response::status_only(
                                Op::GetChunk,
                                Status::Damaged,
                                format!(
                                    "chunk {seq} is {} bytes, manifest expects {expected}",
                                    data.len()
                                ),
                            );
                        }
                        Response {
                            op: Op::GetChunk,
                            status: Status::Ok,
                            detail: m.kind.name().to_string(),
                            payload: stream::encode_chunk(seq, &data),
                        }
                    }
                    Err(e) => Self::vault_failure(Op::GetChunk, &e),
                }
            }
            Ok((kind, payload)) => {
                if stream::validate_chunk_size(chunk_size).is_err() {
                    return Self::bad(Op::GetChunk, format!("bad chunk size {chunk_size}"));
                }
                let start = u64::from(seq) * u64::from(chunk_size);
                if start >= payload.len() as u64 {
                    return Self::bad(
                        Op::GetChunk,
                        format!("chunk {seq} out of range ({} bytes)", payload.len()),
                    );
                }
                let end = (start + u64::from(chunk_size)).min(payload.len() as u64);
                Response {
                    op: Op::GetChunk,
                    status: Status::Ok,
                    detail: kind.name().to_string(),
                    payload: stream::encode_chunk(
                        seq,
                        &payload[start as usize..end as usize],
                    ),
                }
            }
            Err(e) => Self::vault_failure(Op::GetChunk, &e),
        }
    }

    fn op_verify(&self, req: &Request) -> Response {
        if req.key.is_empty() {
            return match self.vault.verify() {
                Ok(report) => {
                    let status = if report.corrupt + report.missing == 0 && report.lost.is_empty() {
                        Status::Ok
                    } else {
                        Status::Damaged
                    };
                    Response::status_only(Op::Verify, status, report.to_text())
                }
                Err(e) => Self::vault_failure(Op::Verify, &e),
            };
        }
        let skey = match storage_key(&req.tenant, &req.key) {
            Ok(k) => k,
            Err(e) => return Self::bad(Op::Verify, e.to_string()),
        };
        match self.vault.verify_object(&skey) {
            Ok(report) => {
                let status = if report.corrupt + report.missing == 0 && report.lost.is_empty() {
                    Status::Ok
                } else {
                    Status::Damaged
                };
                Response::status_only(Op::Verify, status, report.to_text())
            }
            Err(e) => Self::vault_failure(Op::Verify, &e),
        }
    }

    fn op_scrub(&self, _req: &Request) -> Response {
        match self.vault.scrub() {
            Ok(report) => {
                let status = if report.clean() {
                    Status::Ok
                } else {
                    Status::Damaged
                };
                Response::status_only(Op::Scrub, status, report.to_text())
            }
            Err(e) => Self::vault_failure(Op::Scrub, &e),
        }
    }

    fn op_stat(&self, req: &Request) -> Response {
        let prefix = format!("{}.", req.tenant);
        // Chunk records (the `..` namespace) are bookkeeping, not
        // tenant-visible objects.
        let (tenant_objects, total) = match self.vault.keys() {
            Ok(keys) => (
                keys.iter()
                    .filter(|k| k.starts_with(&prefix) && !k.contains(".."))
                    .count(),
                keys.len(),
            ),
            Err(e) => return Self::vault_failure(Op::Stat, &e),
        };
        Response::status_only(
            Op::Stat,
            Status::Ok,
            format!(
                "tenant={} objects={} total_objects={} replicas={} inflight={} ops={} \
                 rejected={} quota_rejected={} open_streams={}",
                req.tenant,
                tenant_objects,
                total,
                self.vault.replica_count(),
                self.inflight(),
                self.stats.ops(),
                self.stats.rejected(),
                self.stats.quota_rejected(),
                self.open_streams(),
            ),
        )
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
            self.stats.scrub_yields.fetch_add(1, Ordering::Relaxed);
            self.counter("serve.scrub.yields", 1);
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
                self.stats.scrub_yields.fetch_add(1, Ordering::Relaxed);
                self.counter("serve.scrub.yields", 1);
                Ok(false)
            }
            Some(_) => {
                self.stats.scrub_steps.fetch_add(1, Ordering::Relaxed);
                self.counter("serve.scrub.objects", 1);
                Ok(true)
            }
        }
    }
}

/// Unproductive passes a worker spends merely yielding before it starts
/// sleeping. While frames are actively being traded the gaps between
/// requests are microseconds; yielding through them keeps pickup latency
/// near the blocking-read baseline instead of paying a timer sleep per
/// round trip.
const IDLE_SPIN_PASSES: u32 = 64;

/// Fastest nap a worker takes once the spin phase is exhausted.
const IDLE_NAP_MIN: Duration = Duration::from_micros(50);

/// Longest idle nap (the wake-up latency floor for the first request
/// after a quiet period).
const IDLE_NAP_MAX: Duration = Duration::from_millis(2);

/// Back off `passes` consecutive unproductive passes: yield through the
/// hot window, then sleep on an exponential ladder up to
/// [`IDLE_NAP_MAX`] so a fully idle pool costs ~nothing.
fn idle_wait(passes: u32) {
    if passes <= IDLE_SPIN_PASSES {
        std::thread::yield_now();
    } else {
        let exp = (passes - IDLE_SPIN_PASSES).min(6);
        let nap = IDLE_NAP_MIN.saturating_mul(1u32 << (exp - 1));
        std::thread::sleep(nap.min(IDLE_NAP_MAX));
    }
}

/// The TCP front-end over a shared [`Service`]: a fixed worker pool
/// multiplexing every accepted connection through one ready queue.
pub struct Server {
    addr: SocketAddr,
    service: Arc<Service>,
    accept: Option<JoinHandle<()>>,
    scrubber: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// accept loop, the worker pool, and, if `scrub_interval` is
    /// nonzero, the scrubber.
    pub fn start(
        service: Arc<Service>,
        addr: &str,
        scrub_interval: Duration,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Bind {
            addr: addr.to_string(),
            reason: e.to_string(),
        })?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(e.to_string()))?;

        let queue: Arc<Mutex<VecDeque<Conn>>> = Arc::new(Mutex::new(VecDeque::new()));
        // Bumped whenever any worker makes progress anywhere; lets idle
        // workers back off exponentially without missing a busy period.
        let epoch = Arc::new(AtomicU64::new(0));

        let accept = {
            let service = service.clone();
            let queue = queue.clone();
            let epoch = epoch.clone();
            std::thread::spawn(move || accept_loop(listener, service, queue, epoch))
        };
        let workers = (0..service.config().pool_size())
            .map(|_| {
                let service = service.clone();
                let queue = queue.clone();
                let epoch = epoch.clone();
                std::thread::spawn(move || worker_loop(service, queue, epoch))
            })
            .collect();
        let scrubber = if scrub_interval.is_zero() {
            None
        } else {
            let service = service.clone();
            Some(std::thread::spawn(move || {
                while !service.shutdown_requested() {
                    std::thread::sleep(scrub_interval);
                    // Scrub failures must not kill the daemon; the next
                    // tick (or a client-requested scrub) retries.
                    let _ = service.scrub_step();
                }
            }))
        };
        Ok(Server {
            addr: local,
            service,
            accept: Some(accept),
            scrubber,
            workers,
        })
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Block until shutdown has been requested and every loop has
    /// drained: the accept thread, the worker pool (each worker answers
    /// the frames already buffered on the connections it drains), and
    /// the scrubber.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.scrubber.take() {
            let _ = h.join();
        }
    }

    /// Request shutdown and [`join`](Server::join).
    pub fn stop(self) {
        self.service.request_shutdown();
        self.join();
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<Service>,
    queue: Arc<Mutex<VecDeque<Conn>>>,
    epoch: Arc<AtomicU64>,
) {
    while !service.shutdown_requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Ok(conn) = Conn::new(stream) {
                    queue
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push_back(conn);
                    epoch.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// One pool worker: pop a connection, service whatever is ready on it,
/// put it back. A connection mid-op pins this worker only for that op;
/// idle connections just cycle through, so the pool holds arbitrarily
/// many of them.
fn worker_loop(service: Arc<Service>, queue: Arc<Mutex<VecDeque<Conn>>>, epoch: Arc<AtomicU64>) {
    let mut scratch = vec![0u8; 64 * 1024];
    let mut idle_passes = 0u32;
    let mut seen_epoch = u64::MAX;
    loop {
        let popped = queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front();
        let Some(mut conn) = popped else {
            if service.shutdown_requested() {
                break;
            }
            idle_passes = idle_passes.saturating_add(1);
            idle_wait(idle_passes);
            continue;
        };
        let (progress, mut closed) = conn.fill(&mut scratch);
        let mut worked = progress;
        if !closed {
            loop {
                match conn.next_frame() {
                    Ok(None) => break,
                    Ok(Some(sealed)) => {
                        worked = true;
                        let (frame, close) = service.handle_wire(&sealed);
                        if conn.write_frame(&frame).is_err() || close {
                            closed = true;
                            break;
                        }
                    }
                    Err(e) => {
                        // The length prefix itself was hostile; answer
                        // once and hang up — the byte stream cannot be
                        // resynchronized.
                        let resp = Response::status_only(
                            Op::Stat,
                            Status::BadRequest,
                            format!("{} [{}]", e, e.category()),
                        );
                        let _ = conn.write_frame(&encode_response(&resp));
                        closed = true;
                        break;
                    }
                }
            }
        }
        if closed || service.shutdown_requested() {
            // Buffered frames were just answered; accepted work is
            // never dropped on shutdown.
            drop(conn);
        } else {
            queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(conn);
        }
        if worked {
            epoch.fetch_add(1, Ordering::Relaxed);
            idle_passes = 0;
        } else {
            // Nothing ready on that connection. Only back off if nobody
            // else made progress either — otherwise keep spinning fast,
            // there is load in the system.
            let now = epoch.load(Ordering::Relaxed);
            if now != seen_epoch {
                seen_epoch = now;
                idle_passes = 0;
                // Someone is making progress; stay hot but hand the
                // core over — on a small machine a non-yielding sweep
                // starves the very clients it is polling for.
                std::thread::yield_now();
            } else {
                idle_passes = idle_passes.saturating_add(1);
                idle_wait(idle_passes);
            }
        }
    }
}
