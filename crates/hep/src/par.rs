//! The one ordered fan-out engine.
//!
//! Every parallel path in the toolkit — event production, tier
//! encoding, skims, columnar encoding and vault scans — splits an index
//! range into fixed-size chunks and needs the per-chunk results back in
//! chunk order, so that whatever it merges them into does not depend on
//! scheduling or on the worker count. [`try_map_chunks`] is that engine:
//!
//! * scoped threads claim chunks from one atomic counter, so a slow
//!   chunk never leaves the other workers idle;
//! * each worker owns private state, built once per worker by a factory;
//! * results return in chunk order;
//! * the lowest-indexed failing chunk's error wins — chunks are claimed
//!   in increasing order, so every chunk below a failing one has been
//!   claimed and runs to completion, and the winner is the error a
//!   sequential run would return;
//! * one worker runs inline on the caller: with one worker nothing is
//!   spawned, and the sequential and threaded paths share one body.
//!
//! A panicking worker's panic propagates to the caller with its original
//! payload.

use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `work(state, chunk, range)` over `0..n_items` cut into
/// `chunk_len`-item chunks (the last may be short) on up to `threads`
/// workers, and return one result per chunk in chunk order.
///
/// `make_state` runs once per worker, on that worker's thread. After a
/// chunk fails, no worker claims another chunk, and the error of the
/// lowest-indexed failing chunk is returned.
pub fn try_map_chunks<S, T, E>(
    n_items: usize,
    chunk_len: usize,
    threads: usize,
    make_state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, Range<usize>) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = n_items.div_ceil(chunk_len);
    let threads = threads.clamp(1, n_chunks.max(1));
    // The next unclaimed chunk. It publishes no data — results travel
    // back through the joins — so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = make_state();
        let mut done = Vec::new();
        loop {
            let chunk = next.fetch_add(1, Ordering::Relaxed);
            if chunk >= n_chunks {
                break;
            }
            let start = chunk * chunk_len;
            let result = work(&mut state, chunk, start..(start + chunk_len).min(n_items));
            let failed = result.is_err();
            done.push((chunk, result));
            if failed {
                next.store(n_chunks, Ordering::Relaxed);
                break;
            }
        }
        done
    };

    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n_chunks, || None);
    let mut first_err: Option<(usize, E)> = None;
    let mut place = |done: Vec<(usize, Result<T, E>)>| {
        for (chunk, result) in done {
            match result {
                Ok(value) => slots[chunk] = Some(value),
                Err(e) if first_err.as_ref().is_none_or(|(i, _)| chunk < *i) => {
                    first_err = Some((chunk, e));
                }
                Err(_) => {}
            }
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        place(worker());
        for helper in helpers {
            match helper.join() {
                Ok(done) => place(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    if let Some((_, e)) = first_err {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every chunk ran"))
        .collect())
}

/// [`try_map_chunks`] for infallible, stateless work: `work(chunk,
/// range)` per chunk, results in chunk order.
pub fn map_chunks<T: Send>(
    n_items: usize,
    chunk_len: usize,
    threads: usize,
    work: impl Fn(usize, Range<usize>) -> T + Sync,
) -> Vec<T> {
    let mapped = try_map_chunks(
        n_items,
        chunk_len,
        threads,
        || (),
        |_, chunk, range| Ok::<T, Infallible>(work(chunk, range)),
    );
    match mapped {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flatten(n: usize, chunk_len: usize, threads: usize) -> Vec<usize> {
        map_chunks(n, chunk_len, threads, |_, range| range.collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect()
    }

    #[test]
    fn ordered_coverage_at_any_worker_count() {
        let reference: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 4, 7] {
            // Fixed-size chunks (the runner's layout) and one chunk per
            // worker (the tier callers' layout).
            assert_eq!(flatten(1000, 64, threads), reference, "threads={threads}");
            assert_eq!(
                flatten(1000, 1000usize.div_ceil(threads), threads),
                reference,
                "threads={threads}"
            );
            let chunks = map_chunks(1000, 64, threads, |chunk, range| (chunk, range));
            assert_eq!(chunks.len(), 16);
            for (i, (chunk, range)) in chunks.into_iter().enumerate() {
                assert_eq!(chunk, i);
                assert_eq!(range, i * 64..((i + 1) * 64).min(1000));
            }
        }
    }

    #[test]
    fn empty_and_one_item_inputs() {
        for threads in [1, 4] {
            assert!(map_chunks(0, 64, threads, |_, r| r).is_empty());
            assert_eq!(map_chunks(1, 64, threads, |c, r| (c, r)), vec![(0, 0..1)]);
            // A zero chunk length is clamped to one item per chunk.
            assert_eq!(flatten(3, 0, threads), vec![0, 1, 2]);
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        // Chunks 13, 40 and 77 fail. Chunk 13 holds its error back until
        // chunk 40 has failed on another worker (or 50 ms pass, with one
        // worker), so the lowest failing chunk fails last; repeated,
        // because which worker runs chunk 13 is up to the schedule.
        for threads in [1, 2, 3, 4, 7] {
            for _ in 0..5 {
                let forty_failed = AtomicUsize::new(0);
                let err = try_map_chunks(
                    1000,
                    10,
                    threads,
                    || (),
                    |_, chunk, range| match chunk {
                        13 => {
                            let waited = std::time::Instant::now();
                            while forty_failed.load(Ordering::SeqCst) == 0
                                && waited.elapsed() < std::time::Duration::from_millis(50)
                            {
                                std::thread::yield_now();
                            }
                            Err(format!("chunk 13 at item {}", range.start))
                        }
                        40 | 77 => {
                            forty_failed.store(1, Ordering::SeqCst);
                            Err(format!("chunk {chunk} at item {}", range.start))
                        }
                        _ => Ok(chunk),
                    },
                )
                .unwrap_err();
                assert_eq!(err, "chunk 13 at item 130", "threads={threads}");
            }
        }
    }

    #[test]
    fn per_worker_state_is_isolated() {
        // Each worker counts the chunks it ran in its own state; the
        // counts are private, so they sum to the chunk total and every
        // result is still a pure function of its chunk.
        for threads in [1, 2, 3, 4, 7] {
            let built = AtomicUsize::new(0);
            let seen = try_map_chunks(
                300,
                7,
                threads,
                || {
                    built.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |ran, chunk, range| {
                    *ran += 1;
                    Ok::<_, String>((chunk, range.len(), *ran))
                },
            )
            .unwrap();
            assert_eq!(seen.len(), 43);
            for (i, (chunk, len, ran)) in seen.iter().enumerate() {
                assert_eq!((*chunk, *len), (i, if i == 42 { 6 } else { 7 }));
                assert!(*ran >= 1 && *ran <= 43);
            }
            // One state per worker, and one first chunk per worker that
            // claimed any.
            assert_eq!(built.load(Ordering::Relaxed), threads, "threads={threads}");
            let firsts = seen.iter().filter(|(_, _, ran)| *ran == 1).count();
            assert!(firsts >= 1 && firsts <= threads, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "worker blew up on chunk 5")]
    fn worker_panic_propagates() {
        map_chunks(100, 10, 3, |chunk, _| {
            if chunk == 5 {
                panic!("worker blew up on chunk {chunk}");
            }
            chunk
        });
    }
}
