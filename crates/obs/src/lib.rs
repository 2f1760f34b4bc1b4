//! Structured observability for the DASPOS preservation chain.
//!
//! The preservation argument of the DASPOS report is that a re-executed
//! workflow must be *auditable*: every stage of the RAW → reconstruction →
//! AOD → skim → ntuple chain, and every validation re-run, needs a
//! provenance-grade account of what executed, how long it took and what it
//! produced. This crate is that runtime-metadata layer:
//!
//! - [`Span`] — a named unit of work with a structural **path** (e.g.
//!   `execute/produce/chunk-00003`), a start offset, a duration and ordered
//!   `key=value` fields. Spans are emitted through a pluggable
//!   [`Collector`] ([`NullCollector`], [`MemoryCollector`],
//!   [`JsonlCollector`]).
//! - [`MetricsRegistry`] — named monotonic [`Counter`]s and free-running
//!   [`Gauge`]s backed by atomics, cheap enough for per-event hot paths.
//! - [`Obs`] — the bundle (tracer + registry) threaded through
//!   `ExecOptions` in the core crate.
//!
//! # Determinism contract
//!
//! Trace output must diff cleanly across preservation re-runs, so the
//! layer distinguishes two kinds of data:
//!
//! - **Stable**: span paths, span fields, and *counter* values. For a
//!   fixed seed these are byte-identical regardless of thread count or
//!   scheduling. Span paths are structural (derived from the stage and
//!   chunk index, never from an allocation order), and the canonical
//!   renderer sorts spans by path so completion order cannot leak in.
//! - **Volatile**: timestamps (`start_ns`/`dur_ns`) and *gauge* values
//!   (engine-dependent measurements such as codec byte counts or the IOV
//!   cursor hit rate). [`render_trace`] with `stable = true` strips both.
//!
//! A disabled [`Tracer`] (the default) records nothing and allocates
//! nothing: every span operation is a branch on an `Option` that the
//! branch predictor learns immediately, so observability-off runs stay at
//! bench parity.

use std::fmt;
use std::io::Write as IoWrite;
use std::sync::{Arc, Mutex};
use std::time::Instant;

mod json;
mod metrics;
mod summary;

pub use json::{parse_jsonl, render_trace};
pub use metrics::{Counter, Gauge, MetricsRegistry, MetricsSnapshot, SectionClock};
pub use summary::{SummaryRow, TraceSummary};

/// The stages of the preservation chain, shared between span taxonomy and
/// [`daspos::Error`](https://docs.rs/daspos) context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Truth-event generation.
    Generate,
    /// Detector simulation (truth → RAW).
    Simulate,
    /// Reconstruction (RAW → RECO/AOD).
    Reconstruct,
    /// Tier encoding / sealing / catalog registration.
    Encode,
    /// AOD skim + slim.
    Skim,
    /// Ntuple fill.
    Ntuple,
    /// Preserved-analysis execution.
    Analysis,
    /// Provenance capture.
    Provenance,
    /// Archive packaging / parsing.
    Archive,
    /// Validation (integrity / platform / re-execution).
    Validate,
    /// Fault-injection campaign.
    Campaign,
    /// Preservation-vault storage, scrub and repair.
    Vault,
    /// Multi-tenant preservation service (protocol handling, admission
    /// control, background scrubbing).
    Serve,
}

impl Stage {
    /// The stable lower-case name used in span paths and error prefixes.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Generate => "generate",
            Stage::Simulate => "simulate",
            Stage::Reconstruct => "reconstruct",
            Stage::Encode => "encode",
            Stage::Skim => "skim",
            Stage::Ntuple => "ntuple",
            Stage::Analysis => "analysis",
            Stage::Provenance => "provenance",
            Stage::Archive => "archive",
            Stage::Validate => "validate",
            Stage::Campaign => "campaign",
            Stage::Vault => "vault",
            Stage::Serve => "serve",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finished span, as delivered to a [`Collector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Structural path: `/`-joined span names from the root, e.g.
    /// `execute/produce/chunk-00003`. Deterministic for a fixed seed.
    pub path: String,
    /// Nanoseconds since the tracer was created (volatile).
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (volatile).
    pub duration_ns: u64,
    /// Ordered `key=value` fields (stable).
    pub fields: Vec<(String, String)>,
}

impl SpanRecord {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `/`-separated depth of the path (`execute` → 1,
    /// `execute/produce` → 2, …).
    pub fn depth(&self) -> usize {
        self.path.split('/').count()
    }
}

/// A sink for finished spans. Implementations must be callable from
/// worker threads (chunk spans finish on the thread that ran the chunk).
pub trait Collector: Send + Sync {
    /// Deliver one finished span.
    fn record(&self, record: SpanRecord);
}

/// Discards every span. A [`Tracer`] over a `NullCollector` still pays
/// the path/field bookkeeping, unlike a disabled tracer — useful for
/// measuring the instrumentation overhead itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCollector;

impl Collector for NullCollector {
    fn record(&self, _record: SpanRecord) {}
}

/// Buffers spans in memory, in completion order.
#[derive(Debug, Default)]
pub struct MemoryCollector {
    records: Mutex<Vec<SpanRecord>>,
}

impl MemoryCollector {
    /// An empty collector.
    pub fn new() -> MemoryCollector {
        MemoryCollector::default()
    }

    /// Spans in completion order (scheduling-dependent under threads).
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().expect("collector poisoned").clone()
    }

    /// Spans stable-sorted by path — the canonical, scheduling-independent
    /// order used by golden traces and determinism tests.
    pub fn sorted_records(&self) -> Vec<SpanRecord> {
        let mut out = self.records();
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.records.lock().expect("collector poisoned").len()
    }

    /// True when no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Collector for MemoryCollector {
    fn record(&self, record: SpanRecord) {
        self.records.lock().expect("collector poisoned").push(record);
    }
}

/// Streams each span as one JSON line to a writer, in completion order
/// and with timestamps — a live feed, not the canonical stable render
/// (use [`render_trace`] over a [`MemoryCollector`] for that).
pub struct JsonlCollector {
    sink: Mutex<Box<dyn IoWrite + Send>>,
}

impl JsonlCollector {
    /// Wrap any writer (file, stderr, `Vec<u8>` behind a cursor, …).
    pub fn new(sink: Box<dyn IoWrite + Send>) -> JsonlCollector {
        JsonlCollector {
            sink: Mutex::new(sink),
        }
    }
}

impl Collector for JsonlCollector {
    fn record(&self, record: SpanRecord) {
        let line = json::span_line(&record, false);
        let mut sink = self.sink.lock().expect("collector poisoned");
        // Tracing must never fail the traced workload; drop on I/O error.
        let _ = writeln!(sink, "{line}");
    }
}

struct TracerInner {
    collector: Arc<dyn Collector>,
    epoch: Instant,
}

/// A handle that opens [`Span`]s into a [`Collector`]. Cloning is cheap
/// (an `Option<Arc>`); the default tracer is disabled and free.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing and costs nothing.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer emitting into `collector`, with its epoch set to now.
    pub fn new(collector: Arc<dyn Collector>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                collector,
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether spans from this tracer are recorded anywhere.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a root span. The name becomes the span's full path.
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            None => Span::noop(),
            Some(inner) => Span::live(self.clone(), name.to_string(), inner.epoch),
        }
    }

    /// [`Tracer::span`] with a formatted name; the formatting work only
    /// happens when the tracer is enabled.
    pub fn span_fmt(&self, name: fmt::Arguments<'_>) -> Span {
        match &self.inner {
            None => Span::noop(),
            Some(inner) => Span::live(self.clone(), name.to_string(), inner.epoch),
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// An open unit of work. Records itself into the collector when finished
/// (explicitly via [`Span::finish`] or implicitly on drop). A span from a
/// disabled tracer is a no-op shell: no allocation, no syscalls.
pub struct Span {
    tracer: Tracer,
    path: String,
    start_ns: u64,
    begun: Instant,
    fields: Vec<(String, String)>,
    done: bool,
}

impl Span {
    fn noop() -> Span {
        Span {
            tracer: Tracer::disabled(),
            path: String::new(),
            start_ns: 0,
            begun: Instant::now(),
            fields: Vec::new(),
            done: true,
        }
    }

    fn live(tracer: Tracer, path: String, epoch: Instant) -> Span {
        let begun = Instant::now();
        Span {
            tracer,
            path,
            start_ns: begun.duration_since(epoch).as_nanos() as u64,
            begun,
            fields: Vec::new(),
            done: false,
        }
    }

    /// Whether this span will be recorded.
    pub fn enabled(&self) -> bool {
        !self.done && self.tracer.enabled()
    }

    /// The structural path (empty for a disabled span).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Open a child span `self.path + "/" + name`.
    pub fn child(&self, name: &str) -> Span {
        match &self.tracer.inner {
            None => Span::noop(),
            Some(inner) => Span::live(
                self.tracer.clone(),
                format!("{}/{name}", self.path),
                inner.epoch,
            ),
        }
    }

    /// Open an indexed child span `…/name-00042` (zero-padded to five
    /// digits so lexicographic path order equals numeric order). The
    /// formatting cost is only paid when the tracer is enabled.
    pub fn child_indexed(&self, name: &str, index: u64) -> Span {
        match &self.tracer.inner {
            None => Span::noop(),
            Some(inner) => Span::live(
                self.tracer.clone(),
                format!("{}/{name}-{index:05}", self.path),
                inner.epoch,
            ),
        }
    }

    /// Like [`Span::child`], but the name is formatted lazily — pass
    /// `format_args!(…)` and pay nothing when the tracer is disabled.
    pub fn child_fmt(&self, name: fmt::Arguments<'_>) -> Span {
        match &self.tracer.inner {
            None => Span::noop(),
            Some(inner) => Span::live(
                self.tracer.clone(),
                format!("{}/{name}", self.path),
                inner.epoch,
            ),
        }
    }

    /// Attach a `key=value` field. Fields keep insertion order; values
    /// are only formatted when the span is live.
    pub fn field(&mut self, key: &str, value: impl fmt::Display) {
        if !self.done && self.tracer.enabled() {
            self.fields.push((key.to_string(), value.to_string()));
        }
    }

    /// Finish the span now and deliver it to the collector.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        if let Some(inner) = &self.tracer.inner {
            inner.collector.record(SpanRecord {
                path: std::mem::take(&mut self.path),
                start_ns: self.start_ns,
                duration_ns: self.begun.elapsed().as_nanos() as u64,
                fields: std::mem::take(&mut self.fields),
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("path", &self.path)
            .field("done", &self.done)
            .finish()
    }
}

/// The observability bundle threaded through `ExecOptions`: a [`Tracer`]
/// for spans and an optional shared [`MetricsRegistry`]. The default is
/// fully disabled.
#[derive(Clone, Default, Debug)]
pub struct Obs {
    /// Span emitter (disabled by default).
    pub tracer: Tracer,
    /// Shared counter/gauge registry, if metrics are being collected.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Obs {
    /// Everything off: no spans, no metrics, no overhead.
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// Spans into `collector`, metrics into `registry`.
    pub fn collecting(collector: Arc<dyn Collector>, registry: Arc<MetricsRegistry>) -> Obs {
        Obs {
            tracer: Tracer::new(collector),
            metrics: Some(registry),
        }
    }

    /// Metrics only (no spans) — used per-mutant inside fault campaigns
    /// where a span per mutation would drown the trace.
    pub fn metrics_only(registry: Arc<MetricsRegistry>) -> Obs {
        Obs {
            tracer: Tracer::disabled(),
            metrics: Some(registry),
        }
    }

    /// The registry, if one is attached.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let mut span = tracer.span("execute");
        span.field("events", 10);
        let child = span.child_indexed("chunk", 3);
        assert!(!child.enabled());
        assert_eq!(child.path(), "");
        child.finish();
        span.finish();
    }

    #[test]
    fn memory_collector_captures_paths_and_fields() {
        let collector = Arc::new(MemoryCollector::new());
        let tracer = Tracer::new(collector.clone());
        let mut root = tracer.span("execute");
        root.field("events", 128u64);
        {
            let produce = root.child("produce");
            let c1 = produce.child_indexed("chunk", 1);
            let c0 = produce.child_indexed("chunk", 0);
            c1.finish();
            c0.finish();
            produce.finish();
        }
        root.finish();

        let records = collector.sorted_records();
        let paths: Vec<&str> = records.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "execute",
                "execute/produce",
                "execute/produce/chunk-00000",
                "execute/produce/chunk-00001",
            ]
        );
        assert_eq!(records[0].field("events"), Some("128"));
        assert_eq!(records[0].depth(), 1);
        assert_eq!(records[3].depth(), 3);
    }

    #[test]
    fn span_records_on_drop() {
        let collector = Arc::new(MemoryCollector::new());
        let tracer = Tracer::new(collector.clone());
        {
            let _span = tracer.span("dropped");
        }
        assert_eq!(collector.len(), 1);
        assert_eq!(collector.records()[0].path, "dropped");
    }

    #[test]
    fn jsonl_collector_streams_lines() {
        use std::sync::mpsc;
        struct Pipe(mpsc::Sender<Vec<u8>>);
        impl IoWrite for Pipe {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let _ = self.0.send(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (tx, rx) = mpsc::channel();
        let tracer = Tracer::new(Arc::new(JsonlCollector::new(Box::new(Pipe(tx)))));
        tracer.span("solo").finish();
        let bytes: Vec<u8> = rx.try_iter().flatten().collect();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("\"path\":\"solo\""), "got: {text}");
        assert!(text.ends_with('\n'));
    }
}
