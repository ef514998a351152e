//! The blueprint selector: classifies shapes, chooses blocking and
//! dispatch once per [`ShapeKey`], and caches the result so every call
//! on a warm key pays one read-locked hash lookup instead of
//! re-deriving sizes and `should_parallelize` thresholds.
//!
//! Planning is fully deterministic: the same shape key yields the same
//! blueprint in every process, which keeps `fit_durable`'s byte-exact
//! crash/resume and the seed-sensitive figure sweeps stable across
//! runs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::RwLock;

use super::blueprint::{blocking_for, checked_product, classify_gemm, Blueprint, OpKind, ShapeKey};
use crate::error::TensorError;
use crate::par;

/// Cache size cap. Beyond it, plans are still computed but not stored,
/// so a shape-spraying client cannot grow the map without bound.
const CACHE_CAP: usize = 1024;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn cache() -> &'static RwLock<HashMap<ShapeKey, Blueprint>> {
    static CACHE: OnceLock<RwLock<HashMap<ShapeKey, Blueprint>>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Snapshot of the selector cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectorStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a blueprint.
    pub misses: u64,
    /// Blueprints currently cached.
    pub entries: u64,
}

/// Reads the selector counters (relaxed; exact once quiescent).
pub fn stats() -> SelectorStats {
    SelectorStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: u64::try_from(cache().read().len()).unwrap_or(u64::MAX),
    }
}

/// Cache lookup; counts a hit when found.
pub fn lookup(key: &ShapeKey) -> Option<Blueprint> {
    let found = cache().read().get(key).copied();
    if found.is_some() {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    found
}

fn remember(bp: Blueprint) {
    let mut map = cache().write();
    if map.len() < CACHE_CAP || map.contains_key(&bp.key) {
        map.insert(bp.key, bp);
    }
}

/// Memoized planning: returns the cached blueprint for `key` or builds,
/// caches, and returns a new one. `build` runs at most once per key per
/// process (modulo the cache cap), so kernels route every sizing and
/// dispatch decision through here.
pub fn plan_with(
    key: ShapeKey,
    build: impl FnOnce() -> Result<Blueprint, TensorError>,
) -> Result<Blueprint, TensorError> {
    if let Some(bp) = lookup(&key) {
        return Ok(bp);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let bp = build()?;
    debug_assert_eq!(bp.key, key, "blueprint built for a different key");
    remember(bp);
    Ok(bp)
}

/// Plans one of the three GEMM variants. `m`/`n` are the *output*
/// dimensions (already transposed for Tn/Nt), `k` the shared depth.
pub fn plan_gemm(op: OpKind, m: usize, k: usize, n: usize) -> Result<Blueprint, TensorError> {
    let key = ShapeKey::new(op, &[m, k, n]);
    plan_with(key, || {
        // `work` only feeds the dispatch threshold, so saturation is
        // fine; allocation sizes below are strictly cap-checked.
        let work = m.saturating_mul(k).saturating_mul(n);
        let out_len = checked_product("matmul output", &[m, n])?;
        let scratch = match op {
            // A·Bᵀ reads B directly, no packed panel.
            OpKind::MatMulNt => 0,
            _ => checked_product("matmul packing", &[k, n])?,
        };
        let scratch2 = match op {
            OpKind::MatMulTn => checked_product("matmul_tn transpose", &[k, m])?,
            _ => 0,
        };
        let class = classify_gemm(m, n, work);
        Ok(Blueprint {
            key,
            class,
            blocking: blocking_for(class),
            parallel: par::should_parallelize(m, work),
            rows: m,
            scratch,
            scratch2,
            out_len,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_yields_same_blueprint() {
        let first = plan_gemm(OpKind::MatMul, 33, 47, 59).expect("plan");
        let second = plan_gemm(OpKind::MatMul, 33, 47, 59).expect("plan");
        assert_eq!(first, second);
    }

    #[test]
    fn second_plan_is_a_cache_hit() {
        let before = stats();
        let _ = plan_gemm(OpKind::MatMulTn, 21, 22, 23).expect("plan");
        let _ = plan_gemm(OpKind::MatMulTn, 21, 22, 23).expect("plan");
        let after = stats();
        assert!(after.hits > before.hits, "second plan did not hit cache");
    }

    #[test]
    fn nt_variant_needs_no_packing_scratch() {
        let bp = plan_gemm(OpKind::MatMulNt, 8, 9, 10).expect("plan");
        assert_eq!(bp.scratch, 0);
        assert_eq!(bp.out_len, 80);
    }

    #[test]
    fn oversized_gemm_is_a_typed_overflow() {
        let huge = usize::MAX / 2;
        assert!(matches!(
            plan_gemm(OpKind::MatMul, huge, 3, huge),
            Err(TensorError::Overflow { .. })
        ));
    }

    #[test]
    fn parallel_and_blocking_come_from_one_plan() {
        // The hoisted decision: a shape just past the work threshold
        // gets both its dispatch bit and its blocking from the same
        // cached blueprint.
        let bp = plan_gemm(OpKind::MatMul, 64, 64, 64).expect("plan");
        assert_eq!(bp.parallel, par::should_parallelize(64, 64 * 64 * 64));
        assert_eq!(bp.blocking, blocking_for(bp.class));
    }
}
