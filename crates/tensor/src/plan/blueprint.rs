//! Kernel blueprints: how one (op, shape, thread-count) combination
//! should execute — blocking parameters, parallel/serial dispatch, and
//! cap-checked scratch/output sizes.
//!
//! A [`Blueprint`] is a pure function of the shape and of
//! `par::threads()`, rebuilt on every call (a handful of checked
//! multiplies and one threshold compare — cheaper than any lookup that
//! could remember it, DESIGN.md §18.2). The blocking choice and the
//! parallel/serial choice come out of that one function, so they can
//! never disagree.
//!
//! **Bit-exactness:** every field here is a *free* performance knob.
//! The GEMM accumulates each output element in a single `f32`
//! accumulator in increasing-`p` order regardless of `(mc, kc, nc)` —
//! panel loops visit `p` ascending within and across panels — and
//! parallel partitioning only splits independent output rows. So any
//! blueprint produces byte-identical output.

use crate::error::TensorError;
use crate::par;

/// Which GEMM variant a blueprint drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `C = A · B`.
    MatMul,
    /// `C = Aᵀ · B`.
    MatMulTn,
    /// `C = A · Bᵀ`.
    MatMulNt,
}

/// Shape classification driving the blocking heuristics. Mirrors the
/// vecmat / square / tall-skinny split of cubek-matmul.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShapeClass {
    /// Work below the parallel threshold; defaults are fine, overhead
    /// dominates everything else.
    SmallSerial,
    /// Degenerate row/column count (vector × matrix).
    VecMat,
    /// Many more rows than columns.
    TallSkinny,
    /// Many more columns than rows.
    WideFlat,
    /// Roughly balanced dimensions.
    Square,
}

/// Cache-blocking parameters for the packed GEMM: row block, depth
/// panel, and column panel extents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Blocking {
    /// Rows of A per L2-resident block.
    pub mc: usize,
    /// Depth (k) extent of each packed panel.
    pub kc: usize,
    /// Columns of B per packed panel.
    pub nc: usize,
}

/// The PR-5 defaults; [`ShapeClass::Square`] keeps them so existing
/// balanced shapes execute exactly as before.
pub const DEFAULT_BLOCKING: Blocking = Blocking {
    mc: 64,
    kc: 256,
    nc: 512,
};

/// One execution plan: everything the kernel drivers need to run
/// without re-deriving sizes or dispatch decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blueprint {
    /// GEMM blocking.
    pub blocking: Blocking,
    /// The `should_parallelize` decision — the single source of truth
    /// for serial-vs-pool dispatch for this shape at the current
    /// `par::threads()`.
    pub parallel: bool,
    /// Primary scratch length (packing panel / im2col columns),
    /// cap-checked.
    pub scratch: usize,
    /// Secondary scratch length (transpose buffer), cap-checked; zero
    /// when unused.
    pub scratch2: usize,
    /// Tertiary scratch length (`conv2d_backward`'s transposed
    /// output-gradient plane), cap-checked; zero when unused.
    pub scratch3: usize,
    /// Output buffer length, cap-checked.
    pub out_len: usize,
}

/// Work (in multiply-accumulates) below which a shape is
/// [`ShapeClass::SmallSerial`]; matches `par::should_parallelize`'s
/// threshold so classification and dispatch agree.
pub const SMALL_WORK: usize = 32 * 1024;

/// Classifies a GEMM by its output dimensions and total work.
pub fn classify_gemm(m: usize, n: usize, work: usize) -> ShapeClass {
    if work < SMALL_WORK {
        ShapeClass::SmallSerial
    } else if m <= 2 || n <= 2 {
        ShapeClass::VecMat
    } else if m >= 4 * n {
        ShapeClass::TallSkinny
    } else if n >= 4 * m {
        ShapeClass::WideFlat
    } else {
        ShapeClass::Square
    }
}

/// Deterministic blocking per shape class. Any choice is bit-safe (see
/// module docs); these are tuned for the class's reuse pattern —
/// tall-skinny favours bigger row blocks, wide-flat favours wider
/// column panels.
pub fn blocking_for(class: ShapeClass) -> Blocking {
    match class {
        ShapeClass::SmallSerial | ShapeClass::Square => DEFAULT_BLOCKING,
        ShapeClass::VecMat => Blocking {
            mc: 64,
            kc: 512,
            nc: 256,
        },
        ShapeClass::TallSkinny => Blocking {
            mc: 128,
            kc: 256,
            nc: 256,
        },
        ShapeClass::WideFlat => Blocking {
            mc: 32,
            kc: 256,
            nc: 1024,
        },
    }
}

/// Cap-checked product of `dims`, the sizing discipline for every
/// scratch/output allocation: overflow surfaces as a typed
/// [`TensorError::Overflow`] instead of wrapping and under-allocating.
pub fn checked_product(op: &'static str, dims: &[usize]) -> Result<usize, TensorError> {
    let mut acc = 1usize;
    for &d in dims {
        acc = acc
            .checked_mul(d)
            .ok_or_else(|| TensorError::overflow(op, dims))?;
    }
    Ok(acc)
}

/// Cap-checked `a + b` under the same overflow discipline.
pub fn checked_add(op: &'static str, a: usize, b: usize) -> Result<usize, TensorError> {
    a.checked_add(b)
        .ok_or_else(|| TensorError::overflow(op, &[a, b]))
}

/// Plans one of the three GEMM variants. `m`/`n` are the *output*
/// dimensions (already transposed for Tn/Nt), `k` the shared depth.
pub fn plan_gemm(op: OpKind, m: usize, k: usize, n: usize) -> Result<Blueprint, TensorError> {
    // `work` only feeds the dispatch threshold, so saturation is fine;
    // allocation sizes below are strictly cap-checked.
    let work = m.saturating_mul(k).saturating_mul(n);
    let out_len = checked_product("matmul output", &[m, n])?;
    let scratch = checked_product("matmul packing", &[k, n])?;
    // The transposed operand: `A` for Aᵀ·B, `B` for A·Bᵀ.
    let scratch2 = match op {
        OpKind::MatMul => 0,
        OpKind::MatMulTn => checked_product("matmul_tn transpose", &[k, m])?,
        OpKind::MatMulNt => checked_product("matmul_nt transpose", &[k, n])?,
    };
    Ok(Blueprint {
        blocking: blocking_for(classify_gemm(m, n, work)),
        parallel: par::should_parallelize(m, work),
        scratch,
        scratch2,
        scratch3: 0,
        out_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_product_computes() {
        assert_eq!(checked_product("t", &[3, 4, 5]), Ok(60));
        assert_eq!(checked_product("t", &[]), Ok(1));
    }

    #[test]
    fn checked_product_overflows_to_typed_error() {
        let huge = usize::MAX / 2;
        match checked_product("im2col", &[huge, 3]) {
            Err(TensorError::Overflow { op, dims }) => {
                assert_eq!(op, "im2col");
                assert_eq!(dims, vec![huge, 3]);
            }
            other => panic!("expected Overflow, got {other:?}"),
        }
    }

    #[test]
    fn checked_add_overflows_to_typed_error() {
        assert!(matches!(
            checked_add("pad", usize::MAX, 1),
            Err(TensorError::Overflow { .. })
        ));
        assert_eq!(checked_add("pad", 2, 3), Ok(5));
    }

    #[test]
    fn classification_matches_shape_families() {
        assert_eq!(classify_gemm(8, 8, 100), ShapeClass::SmallSerial);
        assert_eq!(classify_gemm(1, 1024, 1 << 20), ShapeClass::VecMat);
        assert_eq!(classify_gemm(1024, 8, 1 << 20), ShapeClass::TallSkinny);
        assert_eq!(classify_gemm(8, 1024, 1 << 20), ShapeClass::WideFlat);
        assert_eq!(classify_gemm(256, 256, 1 << 20), ShapeClass::Square);
    }

    #[test]
    fn square_keeps_pr5_blocking() {
        assert_eq!(blocking_for(ShapeClass::Square), DEFAULT_BLOCKING);
        assert_eq!(blocking_for(ShapeClass::SmallSerial), DEFAULT_BLOCKING);
    }

    #[test]
    fn planning_twice_is_equal() {
        let first = plan_gemm(OpKind::MatMul, 33, 47, 59).expect("plan");
        let second = plan_gemm(OpKind::MatMul, 33, 47, 59).expect("plan");
        assert_eq!(first, second);
    }

    #[test]
    fn nt_variant_plans_transpose_and_packing() {
        let bp = plan_gemm(OpKind::MatMulNt, 8, 9, 10).expect("plan");
        assert_eq!(bp.scratch, 90);
        assert_eq!(bp.scratch2, 90);
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
        // A shape just past the work threshold gets both its dispatch
        // bit and its blocking from the same call.
        let work = 64 * 64 * 64;
        let bp = plan_gemm(OpKind::MatMul, 64, 64, 64).expect("plan");
        assert_eq!(bp.parallel, par::should_parallelize(64, work));
        assert_eq!(bp.blocking, blocking_for(classify_gemm(64, 64, work)));
    }
}
