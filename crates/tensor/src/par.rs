//! Persistent worker pool and row-partition primitive for the compute
//! kernels.
//!
//! The pool is a process-wide singleton: workers are spawned lazily the
//! first time a parallel kernel actually needs them and then reused for
//! every subsequent call — there are no per-call thread spawns. Jobs
//! travel over an MPMC [`crossbeam::channel`], so any worker (or the
//! submitting caller itself) can pick them up.
//!
//! # Thread-count resolution
//!
//! [`threads`] resolves, in order:
//!
//! 1. a process-local override installed with [`set_threads`] (this is
//!    how `ServerConfig::compute_threads` and
//!    `TrainConfig::compute_threads` plumb through),
//! 2. the `FADEML_THREADS` environment variable (parsed once and
//!    cached; unparsable or zero values fall through),
//! 3. [`std::thread::available_parallelism`].
//!
//! # Determinism contract
//!
//! [`parallel_rows`] only *partitions* an index space into contiguous
//! chunks; it never reorders or combines floating-point work itself.
//! Every kernel built on it assigns each output element to exactly one
//! chunk and keeps the per-element accumulation order identical to the
//! serial kernel, so results are bit-exact regardless of thread count.
//! The chunk boundaries depend on [`threads`], but because no float
//! crosses a chunk boundary this cannot change any value.
//!
//! # Deadlock freedom
//!
//! The submitting caller executes the first chunk inline and, while
//! waiting for the remaining chunks, *helps*: it drains queued jobs
//! from the shared channel and runs them on its own stack. Even with
//! zero live workers (or workers all blocked inside nested parallel
//! sections) every submitted job is eventually executed by somebody,
//! so nested `parallel_rows` calls cannot deadlock the pool.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};

/// A unit of work shipped to the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Below this many flops a parallel dispatch costs more than it saves.
const MIN_PARALLEL_WORK: usize = 32 * 1024;

/// Process-wide thread-count override (0 = unset). Installed by
/// [`set_threads`]; read before the environment.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `FADEML_THREADS` / `available_parallelism` resolution.
static AUTO: OnceLock<usize> = OnceLock::new();

/// The singleton pool.
static POOL: OnceLock<Pool> = OnceLock::new();

struct Pool {
    tx: Sender<Job>,
    rx: Receiver<Job>,
    /// How many workers have been spawned so far (monotone).
    spawned: parking_lot::Mutex<usize>,
}

impl Pool {
    fn get() -> &'static Pool {
        POOL.get_or_init(|| {
            let (tx, rx) = channel::unbounded();
            Pool {
                tx,
                rx,
                spawned: parking_lot::Mutex::new(0),
            }
        })
    }

    /// Makes sure at least `target` workers exist (capped at 255 as a
    /// runaway guard). Workers block on the shared channel and live for
    /// the rest of the process; the pool is reused across calls.
    fn ensure_workers(&'static self, target: usize) {
        let target = target.min(255);
        let mut spawned = self.spawned.lock();
        while *spawned < target {
            let rx = self.rx.clone();
            let name = format!("fademl-par-{}", *spawned);
            #[expect(
                clippy::disallowed_methods,
                reason = "the compute pool's own workers: every other compute thread is one of these"
            )]
            let spawn = std::thread::Builder::new().name(name).spawn(move || {
                while let Ok(job) = rx.recv() {
                    job()
                }
            });
            if spawn.is_err() {
                // Thread exhaustion: the caller-helps protocol still
                // executes every job, just with less parallelism.
                break;
            }
            *spawned += 1;
        }
    }
}

/// Installs a process-wide thread-count override. `0` clears the
/// override, falling back to `FADEML_THREADS` / auto-detection.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::SeqCst);
}

/// The number of compute threads parallel kernels will partition over.
/// Always at least 1. See the module docs for the resolution order.
pub fn threads() -> usize {
    let forced = OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    *AUTO.get_or_init(|| {
        std::env::var("FADEML_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// `true` when a kernel over `rows` independent rows totalling roughly
/// `work` flops is worth dispatching to the pool.
pub fn should_parallelize(rows: usize, work: usize) -> bool {
    rows >= 2 && work >= MIN_PARALLEL_WORK && threads() > 1
}

/// Splits `0..rows` into `chunks` contiguous ranges whose lengths
/// differ by at most one (earlier chunks get the remainder).
fn partition(rows: usize, chunks: usize) -> Vec<Range<usize>> {
    let base = rows / chunks;
    let extra = rows % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Runs `job` over `0..rows` split into at most [`threads`] contiguous
/// chunks, returning each chunk's result in chunk order (so results can
/// be concatenated to reproduce the serial output ordering).
///
/// The caller executes the first chunk inline; the rest go to the
/// persistent pool. While waiting, the caller drains and executes
/// queued jobs itself, which makes nested calls deadlock-free and keeps
/// the primitive correct even if no worker thread could be spawned.
///
/// Panics inside `job` are caught per-chunk, and the first one is
/// re-raised on the calling thread after all chunks settle.
pub fn parallel_rows<T, F>(rows: usize, job: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Range<usize>) -> T + Send + Sync + 'static,
{
    let t = threads();
    if t <= 1 || rows <= 1 {
        return vec![job(0..rows)];
    }
    let chunks = t.min(rows);
    let ranges = partition(rows, chunks);
    let job = Arc::new(job);
    let pool = Pool::get();
    pool.ensure_workers(chunks - 1);

    type ChunkResult<T> = std::thread::Result<T>;
    let (done_tx, done_rx) = channel::bounded::<(usize, ChunkResult<T>)>(chunks);
    let mut slots: Vec<Option<ChunkResult<T>>> = Vec::default();
    slots.resize_with(chunks, || None);
    let mut settled = 0;

    for (index, range) in ranges.iter().cloned().enumerate().skip(1) {
        let job = Arc::clone(&job);
        let done = done_tx.clone();
        let boxed: Job = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| job(range)));
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort: the collector hanging up means the caller bailed"
            )]
            let _ = done.send((index, result));
        });
        if let Err(rejected) = pool.tx.send(boxed) {
            // The pool channel can only close at process teardown;
            // degrade by running the chunk on this thread.
            (rejected.0)();
        }
    }

    // Chunk 0 runs on the calling thread — with one resolved thread the
    // whole call never touches the pool at all (see the early return).
    if let (Some(range), Some(slot)) = (ranges.first().cloned(), slots.get_mut(0)) {
        *slot = Some(catch_unwind(AssertUnwindSafe(|| job(range))));
        settled += 1;
    }

    while settled < chunks {
        if let Ok((index, result)) = done_rx.try_recv() {
            if let Some(slot) = slots.get_mut(index) {
                *slot = Some(result);
                settled += 1;
            }
            continue;
        }
        // Nothing finished: help by executing a queued job (possibly
        // one of ours, possibly a nested call's) on this stack.
        if let Ok(queued) = pool.rx.try_recv() {
            queued();
            continue;
        }
        // Queue empty and nothing done — a worker is mid-chunk. Block
        // briefly so we neither spin nor miss a late helper job.
        if let Ok((index, result)) = done_rx.recv_timeout(Duration::from_micros(200)) {
            if let Some(slot) = slots.get_mut(index) {
                *slot = Some(result);
                settled += 1;
            }
        }
    }

    let mut out = Vec::with_capacity(chunks);
    let mut panic_payload = None;
    for slot in slots {
        match slot {
            Some(Ok(value)) => out.push(value),
            Some(Err(payload)) => panic_payload = Some(payload),
            // Unreachable: the loop above settles every slot exactly once.
            None => {}
        }
    }
    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// `set_threads` is process-global; tests that touch it run under
    /// this lock so they cannot race each other's overrides.
    static THREADS_GUARD: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = THREADS_GUARD.lock();
        set_threads(n);
        let out = f();
        set_threads(0);
        out
    }

    #[test]
    fn partition_is_contiguous_and_balanced() {
        for rows in [1usize, 2, 5, 7, 16, 100] {
            for chunks in 1..=rows.min(9) {
                let ranges = partition(rows, chunks);
                assert_eq!(ranges.len(), chunks);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                    let len = r.end - r.start;
                    assert!(len == rows / chunks || len == rows / chunks + 1);
                }
                assert_eq!(expect, rows);
            }
        }
    }

    #[test]
    fn covers_every_row_exactly_once() {
        for t in [1usize, 2, 4, 7] {
            with_threads(t, || {
                for rows in [0usize, 1, 2, 3, 13, 64] {
                    let chunks = parallel_rows(rows, |r| r.collect::<Vec<_>>());
                    let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                    assert_eq!(flat, (0..rows).collect::<Vec<_>>(), "t={t} rows={rows}");
                }
            });
        }
    }

    #[test]
    fn results_arrive_in_chunk_order() {
        with_threads(4, || {
            let chunks = parallel_rows(17, |r| r.start);
            let mut sorted = chunks.clone();
            sorted.sort_unstable();
            assert_eq!(chunks, sorted);
        });
    }

    #[test]
    fn single_thread_never_uses_pool() {
        with_threads(1, || {
            let chunks = parallel_rows(8, |r| {
                (std::thread::current().name().map(String::from), r.len())
            });
            assert_eq!(chunks.len(), 1);
            assert_eq!(chunks[0].1, 8);
        });
    }

    #[test]
    fn nested_calls_complete() {
        with_threads(4, || {
            let totals = parallel_rows(4, |outer| {
                let inner = parallel_rows(8, |r| r.sum::<usize>());
                outer.sum::<usize>() + inner.iter().sum::<usize>()
            });
            let inner_total: usize = (0..8).sum();
            let outer_total: usize = (0..4).sum();
            let grand: usize = totals.iter().sum();
            assert_eq!(grand, outer_total + 4 * inner_total);
        });
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let caught = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                parallel_rows(8, |r| {
                    assert!(!r.contains(&5), "chunk containing row 5 panics");
                    r.len()
                })
            }))
        });
        assert!(caught.is_err());
    }

    #[test]
    fn override_beats_auto() {
        let _guard = THREADS_GUARD.lock();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }

    #[test]
    fn should_parallelize_gates_small_work() {
        with_threads(4, || {
            assert!(!should_parallelize(1, usize::MAX));
            assert!(!should_parallelize(64, 100));
            assert!(should_parallelize(64, 1 << 20));
        });
        with_threads(1, || {
            assert!(!should_parallelize(64, 1 << 20));
        });
    }
}
