//! Thread count and the one fork-join primitive of the compute kernels.
//!
//! A parallel kernel hands [`split_rows`] its output buffer and a job
//! that fills a range of output rows. The rows are cut into contiguous
//! chunks, the caller runs the first and [`std::thread::scope`] runs
//! the rest, so each job borrows its inputs and writes its own disjoint
//! block of the output: no operand is copied for another thread, and no
//! result is concatenated. A call with one chunk is a plain call of the
//! job on the calling thread.
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
//! [`split_rows`] only *partitions* the output rows into contiguous
//! chunks; it never reorders or combines floating-point work itself.
//! Every kernel built on it assigns each output element to exactly one
//! chunk and keeps the per-element accumulation order identical to the
//! one-chunk call, so results are bit-exact regardless of thread count.
//! The chunk boundaries depend on [`threads`], but because no float
//! crosses a chunk boundary this cannot change any value.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Below this many multiply-adds a split costs more than it saves: a
/// scoped spawn and join costs about 35 µs, and a helper's arena is
/// cold on every call (DESIGN.md §13.1). The victim's largest stages at
/// a served batch of 16 (2 and 3, 4.7 M each) stay below it; its
/// stages 1–4 at the training batch of 32 (7.1 M and 9.4 M) split.
const MIN_PARALLEL_WORK: usize = 6 << 20;

/// Process-wide thread-count override (0 = unset). Installed by
/// [`set_threads`]; read before the environment.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached `FADEML_THREADS` / `available_parallelism` resolution.
static AUTO: OnceLock<usize> = OnceLock::new();

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
/// `work` multiply-adds is worth splitting across threads.
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

/// Runs `job(range, block)` over the rows of `out`, `per_row` elements
/// each, where `block` is the rows `range` of `out`.
///
/// When `parallel` is set (a blueprint's `should_parallelize` bit), the
/// rows are cut into at most [`threads`] contiguous chunks: the caller
/// runs the first, a scoped thread each of the others, and the call
/// returns once all are done. Otherwise — or when there is only one
/// chunk — `job` runs once over every row on the calling thread, with
/// no scope, no allocation and no thread.
///
/// A chunk's panic reaches the caller with its own payload after every
/// chunk has finished; when several panic, the first in chunk order
/// wins.
pub fn split_rows<T, F>(out: &mut [T], per_row: usize, parallel: bool, job: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    let rows = out.len().checked_div(per_row).unwrap_or(0);
    let chunks = if parallel { threads().min(rows) } else { 1 };
    if chunks <= 1 {
        return job(0..rows, out);
    }
    let mut blocks = Vec::with_capacity(chunks);
    let mut rest = out;
    for range in partition(rows, chunks) {
        let (block, tail) = rest.split_at_mut(range.len() * per_row);
        blocks.push((range, block));
        rest = tail;
    }
    let job = &job;
    std::thread::scope(|scope| {
        let mut blocks = blocks.into_iter();
        let first = blocks.next();
        let helpers: Vec<_> = blocks
            .map(|(range, block)| scope.spawn(move || job(range, block)))
            .collect();
        if let Some((range, block)) = first {
            job(range, block);
        }
        let mut panic = None;
        for helper in helpers {
            if let Err(payload) = helper.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
                    let mut out = vec![usize::MAX; rows * 3];
                    split_rows(&mut out, 3, true, |range, block| {
                        assert_eq!(block.len(), range.len() * 3);
                        for (row, slot) in range.zip(block.chunks_exact_mut(3)) {
                            for v in slot.iter_mut() {
                                assert_eq!(*v, usize::MAX, "row {row} written twice");
                                *v = row;
                            }
                        }
                    });
                    let want: Vec<usize> = (0..rows).flat_map(|r| [r; 3]).collect();
                    assert_eq!(out, want, "t={t} rows={rows}");
                }
            });
        }
    }

    #[test]
    fn results_arrive_in_chunk_order() {
        // Each chunk stamps its block with its first row: the blocks
        // follow the partition, chunk by chunk.
        let mut out = vec![usize::MAX; 17];
        with_threads(4, || {
            split_rows(&mut out, 1, true, |range, block| block.fill(range.start));
        });
        let want: Vec<usize> = partition(17, 4)
            .into_iter()
            .flat_map(|r| std::iter::repeat_n(r.start, r.len()))
            .collect();
        assert_eq!(out, want);
    }

    /// Runs one `split_rows` over `rows` one-byte rows and records which
    /// thread ran each chunk, and on which range.
    fn chunks_seen(
        threads: usize,
        parallel: bool,
        rows: usize,
    ) -> Vec<(std::thread::ThreadId, std::ops::Range<usize>)> {
        with_threads(threads, || {
            let seen = Mutex::new(Vec::new());
            split_rows(&mut vec![0u8; rows], 1, parallel, |range, _| {
                seen.lock().push((std::thread::current().id(), range));
            });
            seen.into_inner()
        })
    }

    #[test]
    fn single_thread_never_uses_pool() {
        // One compute thread: a single chunk over every row, run on the
        // caller, never on a helper thread.
        let caller = std::thread::current().id();
        assert_eq!(chunks_seen(1, true, 8), [(caller, 0..8)]);
    }

    #[test]
    fn one_chunk_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        assert_eq!(chunks_seen(4, false, 8), [(caller, 0..8)]);
        assert_eq!(chunks_seen(4, true, 1), [(caller, 0..1)]);
        let split = chunks_seen(4, true, 8);
        assert_eq!(split.len(), 4);
        assert!(split.contains(&(caller, 0..2)), "chunk 0 is the caller's");
    }

    #[test]
    fn nested_calls_complete() {
        let mut totals = vec![0usize; 4];
        with_threads(4, || {
            split_rows(&mut totals, 1, true, |outer, block| {
                let mut inner = vec![0usize; 8];
                split_rows(&mut inner, 1, true, |r, b| b.fill(r.sum::<usize>()));
                block.fill(outer.sum::<usize>() + inner.iter().sum::<usize>());
            });
        });
        // Each inner chunk stamps every row with its range's sum.
        let inner: usize = partition(8, 4)
            .into_iter()
            .map(|r| r.len() * r.sum::<usize>())
            .sum();
        assert_eq!(totals, [inner, 1 + inner, 2 + inner, 3 + inner]);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        // Later chunks panic sooner, so the payload is chosen by chunk
        // order, not by arrival: the first helper's, with its own text.
        let caught = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                split_rows(&mut [0u8; 8], 1, true, |range, _| {
                    if range.start > 0 {
                        let wait = 5 * (8 - range.start as u64);
                        std::thread::sleep(std::time::Duration::from_millis(wait));
                        panic!("chunk at row {}", range.start);
                    }
                });
            }))
        });
        let payload = caught.expect_err("a helper panicked");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("chunk at row 2")
        );
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
            assert!(!should_parallelize(64, MIN_PARALLEL_WORK - 1));
            assert!(should_parallelize(64, MIN_PARALLEL_WORK));
        });
        with_threads(1, || {
            assert!(!should_parallelize(64, MIN_PARALLEL_WORK));
        });
    }
}
