//! The parallel production engine.
//!
//! The preserved chain is deterministic *per event*: generation,
//! simulation and reconstruction are pure functions of the workflow
//! configuration and the event index (every random stream is re-derived
//! from the master seed and the index). That makes production
//! embarrassingly parallel **without sacrificing bit-reproducibility**:
//! shard the event range into chunks over [`daspos_hep::par`], the
//! toolkit's one fan-out engine, let every worker own its own
//! generator/simulation/reconstruction built from the same
//! configuration, and merge the per-chunk results back in index order.
//! The merged vectors — and therefore every tier file encoded from them —
//! are byte-identical to a sequential run.
//!
//! Execution is configured by [`ExecOptions`]: thread count plus the
//! observability bundle (trace collector + metrics registry).

use std::sync::Arc;

use daspos_hep::par;
use daspos_obs::{Collector, MetricsRegistry, Obs, Span, Tracer};
use daspos_tiers::TierFormat;

/// How a workflow executes: thread count plus observability. Built
/// fluently and passed to `Workflow::execute(ctx, &opts)`:
///
/// ```
/// use daspos::runner::ExecOptions;
/// let opts = ExecOptions::sequential();
/// let opts4 = ExecOptions::new().threads(4);
/// # let _ = (opts, opts4);
/// ```
#[derive(Debug, Clone)]
pub struct ExecOptions {
    threads: usize,
    /// Span tracer + metrics registry (disabled by default — zero cost).
    pub obs: Obs,
    /// Physical layout of the AOD and skim tier files
    /// ([`TierFormat::Row`] by default — the archival baseline every
    /// existing artifact and the golden corpus are encoded in).
    pub tier_format: TierFormat,
}

impl Default for ExecOptions {
    /// Same as [`ExecOptions::new`]: one worker per hardware thread,
    /// observability off.
    fn default() -> ExecOptions {
        ExecOptions::new()
    }
}

impl ExecOptions {
    /// One worker per available hardware thread, observability off.
    pub fn new() -> ExecOptions {
        ExecOptions {
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            obs: Obs::disabled(),
            tier_format: TierFormat::Row,
        }
    }

    /// The sequential engine (one thread, no pool), observability off.
    pub fn sequential() -> ExecOptions {
        ExecOptions {
            threads: 1,
            obs: Obs::disabled(),
            tier_format: TierFormat::Row,
        }
    }

    /// Use exactly `threads` workers (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> ExecOptions {
        self.threads = threads.max(1);
        self
    }

    /// Emit spans into `collector`.
    pub fn collector(mut self, collector: Arc<dyn Collector>) -> ExecOptions {
        self.obs.tracer = Tracer::new(collector);
        self
    }

    /// Record counters/gauges into `registry`.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> ExecOptions {
        self.obs.metrics = Some(registry);
        self
    }

    /// Replace the whole observability bundle.
    pub fn with_obs(mut self, obs: Obs) -> ExecOptions {
        self.obs = obs;
        self
    }

    /// Choose the physical tier layout (row DPEF or columnar DPCF).
    pub fn tier_format(mut self, format: TierFormat) -> ExecOptions {
        self.tier_format = format;
        self
    }

    /// The configured worker count (always ≥ 1).
    pub fn thread_count(&self) -> usize {
        self.threads.max(1)
    }
}

/// Events per work unit: small enough to balance load across workers,
/// large enough that claiming a chunk is negligible next to the physics.
pub(crate) const CHUNK_EVENTS: usize = 64;

/// Run `worker(i)` for every `i in 0..n_items` and return the results in
/// index order.
///
/// `make_worker` is called once per worker to build that worker's
/// private processing state (generator, simulation, reconstruction);
/// the returned closure is then fed event indices. The indices are cut
/// into [`CHUNK_EVENTS`]-event chunks and fanned over `opts`' workers by
/// the toolkit's one fan-out engine ([`daspos_hep::par`]), which returns
/// them in order — so the output is independent of scheduling, and on
/// error the lowest-indexed failing event's error is returned. With one
/// thread everything runs on the calling thread.
///
/// Every chunk opens a `chunk-NNNNN` child span under `parent`. The
/// chunk layout depends only on `n_items`, so every thread count emits
/// the same span paths and fields, and a trace's stable render is
/// identical at any thread count (only timestamps and completion order
/// differ).
pub fn run_ordered<T, E, W, F>(
    n_items: u64,
    opts: &ExecOptions,
    parent: &Span,
    make_worker: W,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    W: Fn() -> F + Sync,
    F: FnMut(u64) -> Result<T, E>,
{
    let chunks = par::try_map_chunks(
        n_items as usize,
        CHUNK_EVENTS,
        opts.thread_count(),
        make_worker,
        |worker, idx, range| {
            let mut span = parent.child_indexed("chunk", idx as u64);
            span.field("events", range.len());
            let mut chunk = Vec::with_capacity(range.len());
            for i in range {
                chunk.push(worker(i as u64)?);
            }
            Ok(chunk)
        },
    )?;
    // Grow the first chunk into the output: a run of one chunk moves no
    // event twice.
    let mut chunks = chunks.into_iter();
    let mut out = chunks.next().unwrap_or_default();
    out.reserve_exact(n_items as usize - out.len());
    for chunk in chunks {
        out.extend(chunk);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos_obs::MemoryCollector;

    #[test]
    fn options_builders() {
        assert_eq!(ExecOptions::sequential().thread_count(), 1);
        assert_eq!(ExecOptions::sequential().threads(0).thread_count(), 1);
        assert_eq!(ExecOptions::new().threads(6).thread_count(), 6);
        assert!(ExecOptions::new().thread_count() >= 1);
        assert!(!ExecOptions::new().obs.tracer.enabled());
        assert_eq!(ExecOptions::default().tier_format, TierFormat::Row);
        assert_eq!(
            ExecOptions::new().tier_format(TierFormat::Columnar).tier_format,
            TierFormat::Columnar
        );
    }

    #[test]
    fn chunk_spans_identical_across_engines() {
        // 300 items = 5 chunks of ≤ 64. Sequential and pooled runs must
        // emit the same chunk span paths and fields (timestamps aside).
        let mut renders = Vec::new();
        for threads in [1usize, 4] {
            let collector = Arc::new(MemoryCollector::new());
            let opts = ExecOptions::sequential()
                .threads(threads)
                .collector(collector.clone());
            let parent = opts.obs.tracer.span("produce");
            let got = run_ordered(300, &opts, &parent, || |i: u64| Ok::<_, String>(i)).unwrap();
            assert_eq!(got, (0..300).collect::<Vec<u64>>());
            parent.finish();
            let records = collector.sorted_records();
            assert_eq!(records.len(), 6, "5 chunks + parent");
            renders.push(daspos_obs::render_trace(&records, None, true));
        }
        assert_eq!(renders[0], renders[1]);
        assert!(renders[0].contains("produce/chunk-00004"));
        assert!(renders[0].contains("\"events\":\"44\""), "last chunk has 300-256 events");
    }
}
