//! The parallel production engine.
//!
//! The preserved chain is deterministic *per event*: generation,
//! simulation and reconstruction are pure functions of the workflow
//! configuration and the event index (every random stream is re-derived
//! from the master seed and the index). That makes production
//! embarrassingly parallel **without sacrificing bit-reproducibility**:
//! shard the event range across a fixed worker pool, let every worker own
//! its own generator/simulation/reconstruction built from the same
//! configuration, and merge the per-chunk results back in index order.
//! The merged vectors — and therefore every tier file encoded from them —
//! are byte-identical to a sequential run.
//!
//! Execution is configured by [`ExecOptions`]: thread count plus the
//! observability bundle (trace collector + metrics registry).

use std::sync::Arc;

use crossbeam::channel;
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
/// large enough that channel traffic is negligible next to the physics.
pub(crate) const CHUNK_EVENTS: u64 = 64;

/// Run `worker(i)` for every `i in 0..n_items` and return the results in
/// index order.
///
/// `make_worker` is called once per pool thread to build that thread's
/// private processing state (generator, simulation, reconstruction);
/// the returned closure is then fed event indices. With `threads <= 1`
/// everything runs on the calling thread with a single worker — the
/// sequential path, no pool, no channels.
///
/// Work is distributed as contiguous index chunks over a crossbeam
/// channel; each finished chunk is sent back tagged with its position and
/// the caller reassembles them in order, so the output is independent of
/// scheduling. On error the lowest-indexed failing chunk's error is
/// returned.
///
/// Every chunk opens a `chunk-NNNNN` child span under `parent`. The
/// chunk layout depends only on `n_items` — both engines emit the same
/// span paths and fields, so a trace's stable render is identical at any
/// thread count (only timestamps and completion order differ).
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
    let n_chunks = n_items.div_ceil(CHUNK_EVENTS) as usize;
    let threads = opts.thread_count().min(n_chunks.max(1));
    if threads == 1 {
        let mut worker = make_worker();
        let mut out = Vec::with_capacity(n_items as usize);
        for idx in 0..n_chunks as u64 {
            let start = idx * CHUNK_EVENTS;
            let end = (start + CHUNK_EVENTS).min(n_items);
            let mut span = parent.child_indexed("chunk", idx);
            span.field("events", end - start);
            for i in start..end {
                out.push(worker(i)?);
            }
        }
        return Ok(out);
    }

    let (job_tx, job_rx) = channel::unbounded::<(usize, u64, u64)>();
    for idx in 0..n_chunks {
        let start = idx as u64 * CHUNK_EVENTS;
        let end = (start + CHUNK_EVENTS).min(n_items);
        job_tx.send((idx, start, end)).expect("receivers alive");
    }
    drop(job_tx); // workers drain the queue then see disconnect

    type ChunkResult<T, E> = (usize, Result<Vec<T>, E>);
    let (res_tx, res_rx) = channel::unbounded::<ChunkResult<T, E>>();

    let mut slots: Vec<Option<Vec<T>>> = Vec::new();
    slots.resize_with(n_chunks, || None);
    let mut first_err: Option<(usize, E)> = None;

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            let make_worker = &make_worker;
            scope.spawn(move || {
                let mut worker = make_worker();
                while let Ok((idx, start, end)) = job_rx.recv() {
                    let mut span = parent.child_indexed("chunk", idx as u64);
                    span.field("events", end - start);
                    let mut chunk = Vec::with_capacity((end - start) as usize);
                    let mut failure = None;
                    for i in start..end {
                        match worker(i) {
                            Ok(v) => chunk.push(v),
                            Err(e) => {
                                failure = Some(e);
                                break;
                            }
                        }
                    }
                    span.finish();
                    match failure {
                        None => {
                            let _ = res_tx.send((idx, Ok(chunk)));
                        }
                        Some(e) => {
                            let _ = res_tx.send((idx, Err(e)));
                            break; // stop pulling work after a failure
                        }
                    }
                }
            });
        }
        drop(res_tx);

        let mut received = 0;
        while received < n_chunks {
            match res_rx.recv() {
                Ok((idx, Ok(chunk))) => {
                    slots[idx] = Some(chunk);
                    received += 1;
                }
                Ok((idx, Err(e))) => {
                    if first_err.as_ref().is_none_or(|(i, _)| idx < *i) {
                        first_err = Some((idx, e));
                    }
                    received += 1;
                }
                // All workers exited (every one hit an error): whatever
                // chunks are missing will never arrive.
                Err(_) => break,
            }
        }
    });

    if let Some((_, e)) = first_err {
        return Err(e);
    }
    let mut out = Vec::with_capacity(n_items as usize);
    for slot in slots {
        out.extend(slot.expect("all chunks received"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos_obs::MemoryCollector;

    fn noop_span() -> Span {
        Tracer::disabled().span("test")
    }

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let compute =
            |i: u64| -> Result<u64, String> { Ok(i.wrapping_mul(0x9E37_79B9).rotate_left(13)) };
        let reference: Vec<u64> = (0..1000).map(|i| compute(i).unwrap()).collect();
        for threads in [1, 2, 3, 4, 8] {
            let opts = ExecOptions::sequential().threads(threads);
            let got = run_ordered(1000, &opts, &noop_span(), || compute).expect("runs");
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_tiny_ranges() {
        let opts = ExecOptions::sequential().threads(4);
        let empty: Vec<u64> = run_ordered(0, &opts, &noop_span(), || |i: u64| Ok::<_, String>(i))
            .unwrap();
        assert!(empty.is_empty());
        let one = run_ordered(1, &opts, &noop_span(), || |i: u64| Ok::<_, String>(i * 2)).unwrap();
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn errors_propagate() {
        let opts = ExecOptions::sequential().threads(4);
        let err = run_ordered(500, &opts, &noop_span(), || {
            |i: u64| {
                if i == 137 {
                    Err(format!("boom at {i}"))
                } else {
                    Ok(i)
                }
            }
        })
        .unwrap_err();
        assert!(err.contains("boom"), "{err}");
    }

    #[test]
    fn per_thread_state_is_isolated() {
        // Each pool thread gets its own accumulator from make_worker;
        // results must still be a pure function of the index.
        let opts = ExecOptions::sequential().threads(3);
        let got = run_ordered(300, &opts, &noop_span(), || {
            let mut calls = 0u64;
            move |i: u64| {
                calls += 1;
                let _ = calls; // thread-private state must not leak into results
                Ok::<_, String>(i + 7)
            }
        })
        .unwrap();
        assert_eq!(got, (0..300).map(|i| i + 7).collect::<Vec<u64>>());
    }

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
            let _ = run_ordered(300, &opts, &parent, || |i: u64| Ok::<_, String>(i)).unwrap();
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
