//! Deterministic scoped-thread fan-out for the workspace's hot loops.
//!
//! This is the software stand-in for the accelerator's parallel PE banks:
//! independent work items (output-block rows, batch samples, simulation
//! tiles) are distributed over a fixed pool of `std::thread::scope` workers.
//! No work stealing, no shared mutable state — each worker owns a contiguous
//! range of items, so the outputs (and therefore any floating-point results)
//! are **identical for every worker count**, including the serial fallback.
//!
//! The worker count comes from `std::thread::available_parallelism()`, and
//! can be overridden with the `RPBCM_THREADS` environment variable (read
//! once per process). All helpers fall back to a plain serial loop when the
//! item count or worker count is 1, so callers can use them unconditionally.
//!
//! The FFT plan cache (`fft::plan`) is thread-local; each worker builds its
//! own plans on first use and reuses them for the rest of the scope. See
//! `fft::plan` for the cache-bound discussion.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Fan-outs that actually spawned scoped workers.
static JOBS: telemetry::Counter = telemetry::Counter::new("tensor.parallel.jobs");
/// Fan-outs that took the serial fallback (one item or one worker).
static SERIAL_JOBS: telemetry::Counter = telemetry::Counter::new("tensor.parallel.serial_jobs");
/// Work items (rows, chunks, tiles) distributed across workers.
static ITEMS: telemetry::Counter = telemetry::Counter::new("tensor.parallel.items");
/// Scoped worker threads spawned.
static WORKERS_SPAWNED: telemetry::Counter =
    telemetry::Counter::new("tensor.parallel.workers_spawned");
/// Per-worker busy-time distribution (nanoseconds): `sum / count` is mean
/// busy time per worker, the p50–p99 spread shows straggler workers, and
/// comparing the sum against `scope_wall` gives pool utilization.
static WORKER_BUSY: telemetry::Histogram = telemetry::Histogram::new("tensor.parallel.worker_busy");
/// Wall-time distribution of each parallel scope, spawn to join
/// (nanoseconds).
static SCOPE_WALL: telemetry::Histogram = telemetry::Histogram::new("tensor.parallel.scope_wall");
/// Worst observed partition imbalance: largest worker range divided by the
/// mean range. Contiguous splitting bounds this near 1 unless `n` is tiny
/// relative to the worker count.
static MAX_IMBALANCE: telemetry::Gauge =
    telemetry::Gauge::new("tensor.parallel.max_partition_imbalance");

/// Records one parallel fan-out of `n` items over `workers` ranges.
fn record_fanout(n: usize, workers: usize) {
    JOBS.inc();
    ITEMS.add(n as u64);
    WORKERS_SPAWNED.add(workers as u64);
    if telemetry::enabled() && n > 0 && workers > 0 {
        let largest = (0..workers)
            .map(|w| {
                let (lo, hi) = bounds(n, workers, w);
                hi - lo
            })
            .max()
            .unwrap_or(0);
        MAX_IMBALANCE.set_max(largest as f64 * workers as f64 / n as f64);
    }
}

/// The process-wide worker count: `RPBCM_THREADS` if set to a positive
/// integer, otherwise `std::thread::available_parallelism()` (1 if
/// unknown). Malformed values (`RPBCM_THREADS=abc`, `=0`) fall back to the
/// auto-detected count with a one-line warning (see `telemetry::env`).
pub fn max_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        telemetry::env::positive_usize_or("RPBCM_THREADS", || {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    })
}

thread_local! {
    /// `true` while the current thread is inside a parallel worker (or an
    /// explicit [`serial_scope`]): nested default-count fan-outs then run
    /// serially instead of oversubscribing the machine with
    /// workers × workers threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker count the *default* helpers ([`par_map`], [`par_chunk_map`])
/// use from the current thread: [`max_workers`] at top level, `1` inside a
/// parallel worker or a [`serial_scope`]. The explicit-count `*_with`
/// variants are unaffected.
pub fn current_workers() -> usize {
    if IN_WORKER.with(Cell::get) {
        1
    } else {
        max_workers()
    }
}

/// Runs `f` with default-count fan-outs forced serial on this thread (the
/// state nests and is restored on return). Used by callers that already
/// parallelize at a coarser grain — e.g. the data-parallel trainer runs
/// each minibatch shard under a `serial_scope` so per-layer tensor ops
/// don't spawn a second level of workers.
pub fn serial_scope<R>(f: impl FnOnce() -> R) -> R {
    IN_WORKER.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

/// Contiguous partition of `n` items over `workers` ranges: range `w` is
/// `bounds(n, workers, w).0 .. bounds(n, workers, w).1`.
fn bounds(n: usize, workers: usize, w: usize) -> (usize, usize) {
    (w * n / workers, (w + 1) * n / workers)
}

/// Maps `f` over `items` with an explicit worker count, preserving order.
///
/// `f` receives `(index, &item)`. Results are identical to the serial
/// `items.iter().enumerate().map(f)` for every `workers` value.
pub fn par_map_with<I, O, F>(workers: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        SERIAL_JOBS.inc();
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    record_fanout(n, workers);
    let mut out: Vec<Option<O>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        let _scope_span = SCOPE_WALL.span();
        let _scope_trace = telemetry::trace_span("par_map", "tensor.parallel");
        let mut rest: &mut [Option<O>] = &mut out;
        let mut consumed = 0usize;
        std::thread::scope(|s| {
            for w in 0..workers {
                let (lo, hi) = bounds(n, workers, w);
                let (slot, tail) = rest.split_at_mut(hi - consumed);
                rest = tail;
                consumed = hi;
                let f = &f;
                s.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    let _busy_span = WORKER_BUSY.span();
                    let _busy_trace = telemetry::trace_span("worker", "tensor.parallel");
                    for (k, slot) in slot.iter_mut().enumerate() {
                        let i = lo + k;
                        *slot = Some(f(i, &items[i]));
                    }
                });
            }
        });
    }
    out.into_iter()
        .map(|o| o.expect("worker filled slot"))
        .collect()
}

/// [`par_map_with`] using the thread's [`current_workers`] count
/// ([`max_workers`] at top level, serial inside a worker).
pub fn par_map<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    par_map_with(current_workers(), items, f)
}

/// Applies `f` to each `chunk`-sized piece of `data` (last piece may be
/// short) with an explicit worker count, returning the per-chunk outputs in
/// chunk order. `f` receives `(chunk_index, chunk)`.
///
/// Chunks are disjoint, so this is deterministic for every `workers` value.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn par_chunk_map_with<T, O, F>(workers: usize, data: &mut [T], chunk: usize, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(usize, &mut [T]) -> O + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let n = data.len().div_ceil(chunk);
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        SERIAL_JOBS.inc();
        return data
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
    }
    record_fanout(n, workers);
    let mut chunks: Vec<&mut [T]> = data.chunks_mut(chunk).collect();
    let mut out: Vec<Option<O>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        let _scope_span = SCOPE_WALL.span();
        let _scope_trace = telemetry::trace_span("par_chunk_map", "tensor.parallel");
        let mut chunk_rest: &mut [&mut [T]] = &mut chunks;
        let mut out_rest: &mut [Option<O>] = &mut out;
        let mut consumed = 0usize;
        std::thread::scope(|s| {
            for w in 0..workers {
                let (lo, hi) = bounds(n, workers, w);
                let (my_chunks, ctail) = chunk_rest.split_at_mut(hi - consumed);
                let (my_out, otail) = out_rest.split_at_mut(hi - consumed);
                chunk_rest = ctail;
                out_rest = otail;
                consumed = hi;
                let f = &f;
                s.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    let _busy_span = WORKER_BUSY.span();
                    let _busy_trace = telemetry::trace_span("worker", "tensor.parallel");
                    for (k, (c, slot)) in my_chunks.iter_mut().zip(my_out.iter_mut()).enumerate() {
                        *slot = Some(f(lo + k, c));
                    }
                });
            }
        });
    }
    out.into_iter()
        .map(|o| o.expect("worker filled slot"))
        .collect()
}

/// [`par_chunk_map_with`] using the thread's [`current_workers`] count
/// ([`max_workers`] at top level, serial inside a worker).
pub fn par_chunk_map<T, O, F>(data: &mut [T], chunk: usize, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(usize, &mut [T]) -> O + Sync,
{
    par_chunk_map_with(current_workers(), data, chunk, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_workers_is_positive() {
        assert!(max_workers() >= 1);
    }

    #[test]
    fn partition_covers_everything_once() {
        for n in [0usize, 1, 2, 7, 8, 100] {
            for workers in 1..=9usize {
                let mut covered = 0;
                for w in 0..workers {
                    let (lo, hi) = bounds(n, workers, w);
                    assert!(lo <= hi && hi <= n);
                    covered += hi - lo;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn par_map_matches_serial_for_every_worker_count() {
        let items: Vec<i64> = (0..103).collect();
        let want: Vec<i64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * 3 + i as i64)
            .collect();
        for workers in [1, 2, 3, 8, 200] {
            let got = par_map_with(workers, &items, |i, v| v * 3 + i as i64);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn par_chunk_map_sees_disjoint_ordered_chunks() {
        let mut data: Vec<u32> = (0..25).collect();
        let want_sums: Vec<u32> = data.chunks(4).map(|c| c.iter().sum()).collect();
        for workers in [1, 2, 5, 64] {
            let mut d = data.clone();
            let sums = par_chunk_map_with(workers, &mut d, 4, |i, c| {
                for v in c.iter_mut() {
                    *v += 100 * i as u32;
                }
                c.iter().map(|v| v % 100).sum::<u32>()
            });
            assert_eq!(sums, want_sums);
            for (i, c) in d.chunks(4).enumerate() {
                assert!(c.iter().all(|v| v / 100 == i as u32));
            }
        }
        // Serial path leaves data untouched semantics identical.
        let sums = par_chunk_map_with(1, &mut data, 4, |_, c| c.iter().sum::<u32>());
        assert_eq!(sums, want_sums);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_rejected() {
        par_chunk_map(&mut [0u8; 4], 0, |_, _| {});
    }

    #[test]
    fn serial_scope_forces_default_helpers_serial() {
        assert_eq!(current_workers(), max_workers());
        let (inner, restored) = serial_scope(|| {
            assert_eq!(current_workers(), 1);
            // Nesting keeps the state and restores the outer scope's.
            let nested = serial_scope(current_workers);
            (nested, current_workers())
        });
        assert_eq!(inner, 1);
        assert_eq!(restored, 1);
        assert_eq!(current_workers(), max_workers());
    }

    #[test]
    fn workers_run_nested_default_fanouts_serially() {
        // From inside a spawned worker, the default helpers must not spawn
        // a second level of workers.
        let items = [0usize; 4];
        let nested_counts = par_map_with(4, &items, |_, _| current_workers());
        assert!(nested_counts.iter().all(|&w| w == 1), "{nested_counts:?}");
        // Results are still correct when a nested helper actually runs.
        let got = par_map_with(2, &[1i64, 2, 3, 4], |_, &v| {
            par_map(&[v, v + 10], |_, &u| u * 2).iter().sum::<i64>()
        });
        assert_eq!(got, vec![24, 28, 32, 36]);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let out: Vec<i32> = par_map_with(4, &[] as &[i32], |_, v| *v);
        assert!(out.is_empty());
        let got = par_chunk_map_with(4, &mut [] as &mut [i32], 3, |_, c| c.len());
        assert!(got.is_empty());
    }
}
