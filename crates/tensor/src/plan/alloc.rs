//! Thread-local scratch arena + the workspace's allocation chokepoints.
//!
//! Every kernel scratch buffer (GEMM packing panels, im2col columns,
//! median gather windows) is acquired through [`scratch_f32`], which
//! hands out buffers from a per-thread free pool with high-water-mark
//! capacity reuse: after the first call on a given shape key the pool
//! holds a buffer big enough, and steady-state serving performs zero
//! kernel-scratch heap allocations. The arena handle *is* the thread —
//! each `fademl-par-N` pool worker and the caller thread owns its own
//! pool, so no locking is needed and a buffer released on a worker
//! stays with that worker.
//!
//! Output buffers (tensor data that outlives the call) and buffers that
//! cross threads (parallel-dispatch operand copies, per-chunk result
//! blocks) must NOT come from the arena: a buffer dropped on a
//! different thread would migrate into that thread's pool and slowly
//! drain the owner's. Those go through [`fresh_vec`] / [`fresh_with`] /
//! [`fresh_from`] instead — per-call by design, and the only places in
//! the compute crates where the `hot-path-alloc` lint budget lives.
//!
//! Counters are always-on relaxed atomics (a handful of uncontended
//! `fetch_add`s per kernel call) so both the test suite and the
//! release-mode bench smoke can assert the arena path is actually
//! engaged.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-thread free-pool size cap; excess released buffers are dropped
/// (counted as evictions) so a burst of odd shapes can't pin memory.
const MAX_POOLED: usize = 24;

thread_local! {
    /// This thread's free pool. Buffers keep their high-water capacity.
    static POOL: RefCell<Vec<Vec<f32>>> = RefCell::new(Vec::default());
}

static ACQUIRES: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static GROWS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide arena counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total [`scratch_f32`] calls.
    pub acquires: u64,
    /// Acquires served by a pooled buffer without growing its backing
    /// allocation — the steady-state path.
    pub hits: u64,
    /// Acquires that had to allocate or grow (cold path / warm-up).
    pub grows: u64,
    /// Buffers dropped on release because the pool was full.
    pub evictions: u64,
}

/// Reads the process-wide arena counters (relaxed; exact once quiescent).
pub fn stats() -> ArenaStats {
    ArenaStats {
        acquires: ACQUIRES.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        grows: GROWS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
    }
}

/// A zeroed scratch buffer leased from the current thread's arena.
/// Dereferences to `[f32]`; returns its backing storage to the pool on
/// drop (on whichever thread drops it — see the module docs for why
/// scratch must stay on its acquiring thread).
pub struct Scratch {
    buf: Vec<f32>,
}

impl Scratch {
    /// The leased buffer as a shared slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.buf
    }

    /// The leased buffer as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Deref for Scratch {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 {
            return;
        }
        // try_with: never panic if the thread-local was already torn
        // down (a Scratch held across thread exit just frees its buffer).
        let pooled = POOL
            .try_with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < MAX_POOLED {
                    pool.push(buf);
                    true
                } else {
                    false
                }
            })
            .unwrap_or(false);
        if !pooled {
            EVICTIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Takes the best buffer for `len` out of `pool`: the smallest pooled
/// capacity that already fits, else the largest available (it will be
/// grown once and then retained at its new high-water capacity).
fn take_best(pool: &mut Vec<Vec<f32>>, len: usize) -> Vec<f32> {
    let mut best: Option<(usize, usize, bool)> = None; // (idx, cap, fits)
    for (i, buf) in pool.iter().enumerate() {
        let cap = buf.capacity();
        let fits = cap >= len;
        let better = match best {
            None => true,
            Some((_, best_cap, best_fits)) => match (fits, best_fits) {
                (true, true) => cap < best_cap,
                (true, false) => true,
                (false, true) => false,
                (false, false) => cap > best_cap,
            },
        };
        if better {
            best = Some((i, cap, fits));
        }
    }
    match best {
        Some((i, _, _)) => pool.swap_remove(i),
        None => Vec::default(),
    }
}

/// Takes this thread's best pooled buffer for `len` and counts the
/// acquisition; the buffer still holds its previous lease's contents.
fn lease(len: usize) -> Vec<f32> {
    ACQUIRES.fetch_add(1, Ordering::Relaxed);
    let buf = POOL
        .try_with(|p| take_best(&mut p.borrow_mut(), len))
        .unwrap_or_default();
    if buf.capacity() < len {
        GROWS.fetch_add(1, Ordering::Relaxed);
    } else {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    buf
}

/// Acquires a zeroed scratch buffer of exactly `len` elements from the
/// current thread's arena. After warm-up on a shape key this never
/// touches the heap: the pooled buffer is cleared and re-zeroed in
/// place (`resize` on retained capacity is a pure memset).
pub fn scratch_f32(len: usize) -> Scratch {
    let mut buf = lease(len);
    buf.clear();
    buf.resize(len, 0.0);
    Scratch { buf }
}

/// Like [`scratch_f32`] but with unspecified contents (whatever earlier
/// leases left behind, zeros where the buffer had to grow): for a
/// kernel that overwrites every element before reading any — the
/// batch-fused im2col unfold — so a warm lease costs no memset.
pub fn scratch_stale(len: usize) -> Scratch {
    let mut buf = lease(len);
    buf.resize(len, 0.0);
    Scratch { buf }
}

// ---------------------------------------------------------------------
// Fresh-allocation chokepoints. These are the budgeted hot-path-alloc
// sites for the whole compute path: every output buffer and every
// cross-thread buffer in the tensor/filters crates is built through one
// of these three functions, so the lint budget measures real debt in
// one place instead of ~200 scattered call sites.

/// A fresh `len`-element vector filled with `value`. Output buffers
/// only — scratch goes through [`scratch_f32`].
pub fn fresh_filled<T: Clone>(len: usize, value: T) -> Vec<T> {
    vec![value; len]
}

/// A fresh zeroed `f32` output buffer.
pub fn fresh_vec(len: usize) -> Vec<f32> {
    fresh_filled(len, 0.0)
}

/// A fresh empty vector with `cap` reserved — for outputs assembled by
/// `push`/`extend_from_slice`.
pub fn fresh_with<T>(cap: usize) -> Vec<T> {
    Vec::with_capacity(cap)
}

/// A fresh owned copy of `src` — for operand copies that must cross
/// threads (`Arc`-shared parallel dispatch) or outlive the call.
pub fn fresh_from<T: Clone>(src: &[T]) -> Vec<T> {
    src.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_zeroed_and_sized() {
        let s = scratch_f32(17);
        assert_eq!(s.len(), 17);
        assert!(s.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn same_size_reuses_backing_allocation() {
        // Warm up, then measure: repeat acquisitions at the same size
        // must not grow.
        drop(scratch_f32(1024));
        let before = stats();
        for _ in 0..10 {
            let mut s = scratch_f32(1024);
            s.as_mut_slice().fill(3.5);
        }
        let after = stats();
        assert_eq!(after.grows, before.grows, "warm same-size acquires grew");
        assert_eq!(after.hits - before.hits, 10);
    }

    #[test]
    fn smaller_request_reuses_larger_buffer() {
        drop(scratch_f32(4096));
        let before = stats();
        let s = scratch_f32(100);
        assert_eq!(s.len(), 100);
        let after = stats();
        assert_eq!(after.grows, before.grows);
    }

    #[test]
    fn reused_buffer_is_rezeroed() {
        {
            let mut s = scratch_f32(64);
            s.as_mut_slice().fill(9.0);
        }
        let s = scratch_f32(64);
        assert!(s.iter().all(|&v| v == 0.0), "stale scratch data leaked");
    }

    #[test]
    fn nested_leases_are_independent() {
        let mut a = scratch_f32(32);
        let mut b = scratch_f32(32);
        a.as_mut_slice().fill(1.0);
        b.as_mut_slice().fill(2.0);
        assert!(a.iter().all(|&v| v == 1.0));
        assert!(b.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn fresh_helpers_shape() {
        assert_eq!(fresh_vec(3), [0.0, 0.0, 0.0]);
        assert_eq!(fresh_filled(2, 7usize), [7, 7]);
        let v: Vec<u8> = fresh_with(9);
        assert_eq!(v.capacity(), 9);
        assert_eq!(fresh_from(&[1.0f32, 2.0]), [1.0, 2.0]);
    }
}
