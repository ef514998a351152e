//! Dense matrix multiplication: cache-blocked kernels with row-range
//! parallelism, planned through `crate::plan`.
//!
//! All three entry points (`matmul`, `matmul_tn`, `matmul_nt`) compute
//! one [`Blueprint`] per call — carrying the cap-checked scratch/output
//! sizes, the blocking parameters, and the parallel/serial decision —
//! then share one packed, register-tiled block kernel (`matmul_tn` and
//! `matmul_nt` first transpose the operand that is not in the kernel's
//! layout: a copy, no arithmetic) and partition *rows of the output*
//! across the [`crate::par`] pool. Each output element is owned by exactly one
//! chunk and its `k`-accumulation runs in increasing-`p` order in a
//! single `f32` accumulator — the same order as the reference
//! three-loop kernel — so results are **bit-exact regardless of thread
//! count, blocking choice, register tile or instruction set**. That
//! invariant is what keeps checkpoints byte-reproducible and the
//! seed-sensitive statistical tests stable; see the proptests here and
//! in `tests/par_invariance.rs`.
//!
//! The `(mc, kc, nc)` loops choose which cache block is resident; the
//! arithmetic inside a block is the register-tiled micro-kernel of
//! [`crate::simd`]. `B` is repacked once per call into `kc × nc` panels
//! so a block's rows are `nc`, not `n`, floats apart. Packing copies
//! values without arithmetic, so it cannot perturb the accumulation
//! order. On the serial path the packing panel comes from the
//! thread-local scratch arena, so steady-state serving re-uses one
//! high-water buffer instead of allocating per call.

use std::ops::Range;
use std::sync::Arc;

use crate::plan::alloc;
use crate::plan::blueprint::{plan_gemm, Blocking, Blueprint, OpKind};
use crate::simd::{self, Block, Dest};
use crate::{par, Result, Shape, Tensor, TensorError};

/// Packs `b` (`[k, n]`, row-major) into `kc × nc` panels laid out so
/// panel `(jc, pc)` starts at `jc * k + pc * ncb` and stores its `kcb`
/// rows contiguously (`ncb` floats each). Pure data movement. `packed`
/// must hold exactly `k * n` elements; every slot is overwritten.
#[expect(
    clippy::indexing_slicing,
    reason = "blocked GEMM panels, bounds fixed by the (k, n) checks at entry"
)]
pub(crate) fn pack_b_into(b: &[f32], k: usize, n: usize, bl: Blocking, packed: &mut [f32]) {
    for jc in (0..n).step_by(bl.nc) {
        let ncb = bl.nc.min(n - jc);
        for pc in (0..k).step_by(bl.kc) {
            let kcb = bl.kc.min(k - pc);
            let dst_base = jc * k + pc * ncb;
            for pp in 0..kcb {
                let src = &b[(pc + pp) * n + jc..][..ncb];
                let dst = &mut packed[dst_base + pp * ncb..][..ncb];
                dst.copy_from_slice(src);
            }
        }
    }
}

/// Serial blocked GEMM: multiplies `rows` rows of `A` (`a_block`,
/// `[rows, k]` row-major) by a [`pack_b_into`]-packed `B` (`[k, n]`,
/// packed with the same `bl`) into `out` (`[rows, n]` row-major, every
/// element overwritten).
pub(crate) fn gemm_rows_into(
    a_block: &[f32],
    rows: usize,
    k: usize,
    packed_b: &[f32],
    n: usize,
    bl: Blocking,
    out: &mut [f32],
) {
    gemm_rows_to(
        a_block,
        rows,
        k,
        packed_b,
        (n, n),
        bl,
        &mut Dest::row_major(out, n),
    );
}

/// [`gemm_rows_into`] with the store spelled out by `dest` (layout and
/// fused bias/ReLU). The `(mc, kc, nc)` loops here only choose which
/// cache block is resident; the arithmetic is the register-tiled
/// micro-kernel behind [`simd::gemm_block`]. Per output element the `k`
/// terms are added in increasing-`p` order into a single accumulator
/// chain starting at `0.0` — identical to the naive i-k-j loop, so any
/// blocking changes nothing numerically.
///
/// `(n, ld)` are the columns of `B` and its leading dimension. A
/// row-major `[k, ld]` matrix *is* the packed layout whenever
/// `bl.nc ≥ n` (one column panel, whose `k` panels are consecutive
/// row ranges) — the batch-fused convolution relies on that to skip
/// the packing copy, and on `ld > n` to keep its rows off a multiple of
/// 4 KiB. With several column panels `B` must be [`pack_b_into`]'s
/// layout, `ld = n`. Columns `n..ld` reach only lanes that are dropped.
#[expect(
    clippy::indexing_slicing,
    reason = "blocked GEMM panels, bounds fixed by the (m, k, n) checks at entry"
)]
pub(crate) fn gemm_rows_to(
    a_block: &[f32],
    rows: usize,
    k: usize,
    packed_b: &[f32],
    (n, ld): (usize, usize),
    bl: Blocking,
    dest: &mut Dest,
) {
    debug_assert!(ld == n || bl.nc >= n, "a padded B must be one panel");
    for jc in (0..n).step_by(bl.nc) {
        let ncb = bl.nc.min(n - jc);
        let ldb = if ncb == n { ld } else { ncb };
        for pc in (0..k).step_by(bl.kc) {
            let kcb = bl.kc.min(k - pc);
            let panel = &packed_b[jc * k + pc * ldb..][..(kcb - 1) * ldb + ncb];
            for ic in (0..rows).step_by(bl.mc) {
                let mcb = bl.mc.min(rows - ic);
                let blk = Block {
                    a: &a_block[ic * k + pc..][..(mcb - 1) * k + kcb],
                    lda: k,
                    rows: mcb,
                    b: panel,
                    ldb,
                    kc: kcb,
                    cols: ncb,
                    first: pc == 0,
                    last: pc + kcb == k,
                    row0: ic,
                    col0: jc,
                };
                simd::gemm_block(&blk, dest);
            }
        }
    }
}

/// The scalar `A × Bᵀ` loop `matmul_nt` and `conv2d_backward`'s ∂weight
/// ran on before they moved to the register tile, kept verbatim as the
/// reference their bit-equality tests compare against: `a_block` is
/// `[rows, k]`, `b` is `[n, k]`, and the result is stored, or added
/// onto `out` when `accumulate` is set (∂weight's `grad += gw`).
#[cfg(test)]
pub(crate) fn gemm_nt_block(
    a_block: &[f32],
    rows: usize,
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    for i in 0..rows {
        let a_row = &a_block[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in o_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            if accumulate {
                *o += acc;
            } else {
                *o = acc;
            }
        }
    }
}

/// Transposes `src` (`[rows, cols]` row-major) into `dst`
/// (`[cols, rows]`, at least `rows * cols` elements; a shorter buffer
/// panics here instead of taking part of the transpose).
///
/// Four destination rows are written side by side, each front to back:
/// one pass over the source rows takes four adjacent values from each
/// (a strided read inside one cache line) and appends one to each of
/// the four rows. A copy, so the order moves no bit — it moves the
/// stride from the stores, where every element of a wide weight matrix
/// opened its own cache line, to the loads.
#[expect(
    clippy::indexing_slicing,
    reason = "the up-front rows·cols slices (a short buffer must panic) and column offsets below cols"
)]
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    let (src, dst) = (&src[..rows * cols], &mut dst[..rows * cols]);
    if dst.is_empty() {
        return;
    }
    let mut quads = dst.chunks_exact_mut(4 * rows);
    let mut col = 0;
    for quad in &mut quads {
        let (d0, rest) = quad.split_at_mut(rows);
        let (d1, rest) = rest.split_at_mut(rows);
        let (d2, d3) = rest.split_at_mut(rows);
        let lanes = d0.iter_mut().zip(d1).zip(d2).zip(d3);
        for ((((a, b), c), d), src_row) in lanes.zip(src.chunks_exact(cols)) {
            for (slot, &v) in [a, b, c, d].into_iter().zip(&src_row[col..col + 4]) {
                *slot = v;
            }
        }
        col += 4;
    }
    // The last `cols % 4` destination rows, one at a time.
    for (dst_row, col) in quads.into_remainder().chunks_exact_mut(rows).zip(col..) {
        for (slot, &v) in dst_row.iter_mut().zip(src[col..].iter().step_by(cols)) {
            *slot = v;
        }
    }
}

/// Serial driver: packs `B` into an arena panel and runs the blocked
/// kernel for all `m` rows. Zero heap allocation once the arena
/// is warm (the output buffer is the caller's, freshly allocated by
/// design — it outlives the call as tensor data).
fn gemm_serial(bp: &Blueprint, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut packed = alloc::scratch_f32(bp.scratch);
    pack_b_into(b, k, n, bp.blocking, &mut packed);
    let mut out = alloc::fresh_vec(bp.out_len);
    gemm_rows_into(a, m, k, &packed, n, bp.blocking, &mut out);
    out
}

/// Parallel driver: the pool requires `'static` jobs (no unsafe
/// lifetime erasure in this workspace), so `A` and the packed `B` are
/// shared via `Arc` — one O(m·k + k·n) copy against O(m·k·n) compute.
/// Those cross-thread buffers deliberately bypass the arena: a buffer
/// dropped on another thread would migrate into that thread's pool.
#[expect(
    clippy::indexing_slicing,
    reason = "each worker's row range lies inside the m rows checked at entry"
)]
fn gemm_parallel(
    bp: &Blueprint,
    a: Arc<Vec<f32>>,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut packed_buf = alloc::fresh_vec(bp.scratch);
    pack_b_into(b, k, n, bp.blocking, &mut packed_buf);
    let packed = Arc::new(packed_buf);
    let blocking = bp.blocking;
    let blocks = par::parallel_rows(m, move |rows: Range<usize>| {
        let len = rows.end - rows.start;
        let mut block = alloc::fresh_vec(len * n);
        gemm_rows_into(
            &a[rows.start * k..rows.end * k],
            len,
            k,
            &packed,
            n,
            blocking,
            &mut block,
        );
        block
    });
    let mut out = alloc::fresh_with(bp.out_len);
    for block in blocks {
        out.extend_from_slice(&block);
    }
    out
}

/// The `(rows, cols)` of a rank-2 operand.
fn dims2(op: &'static str, t: &Tensor) -> Result<(usize, usize)> {
    match *t.dims() {
        [rows, cols] => Ok((rows, cols)),
        _ => Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        }),
    }
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Cache-blocked over a packed `B` with blocking chosen per shape
    /// class, partitioned by output rows across the
    /// [`crate::par`] pool, and bit-exact across thread counts and
    /// blocking choices (see the module docs). Non-finite values
    /// propagate: a `NaN`/`Inf` anywhere in either operand reaches
    /// every output it mathematically touches (there is deliberately no
    /// zero-skip — `0 × NaN` must stay `NaN`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not
    /// rank 2, [`TensorError::ShapeMismatch`] if the inner dimensions
    /// disagree, or [`TensorError::Overflow`] if the output size would
    /// overflow `usize`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let ((m, k), (k2, n)) = (dims2("matmul", self)?, dims2("matmul", other)?);
        if k != k2 {
            return Err(TensorError::shape_mismatch(
                "matmul",
                self.dims(),
                other.dims(),
            ));
        }
        let bp = plan_gemm(OpKind::MatMul, m, k, n)?;
        let out = if bp.parallel {
            let a = Arc::new(alloc::fresh_from(self.as_slice()));
            gemm_parallel(&bp, a, other.as_slice(), m, k, n)
        } else {
            gemm_serial(&bp, self.as_slice(), other.as_slice(), m, k, n)
        };
        Tensor::from_vec(out, Shape::of(&[m, n]))
    }

    /// `selfᵀ × other` without materializing the transpose for the
    /// caller: `self` is `[k, m]`, `other` is `[k, n]`, result `[m, n]`.
    /// This shows up in the backward pass of dense layers
    /// (`∂W = xᵀ · ∂y`).
    ///
    /// Internally `self` *is* transposed into a scratch buffer (an
    /// O(k·m) copy, arena-backed on the serial path) so the same
    /// blocked row-parallel kernel — and the same increasing-`p`
    /// accumulation order — serves all layouts.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        let ((k, m), (k2, n)) = (dims2("matmul_tn", self)?, dims2("matmul_tn", other)?);
        if k != k2 {
            return Err(TensorError::shape_mismatch(
                "matmul_tn",
                self.dims(),
                other.dims(),
            ));
        }
        let bp = plan_gemm(OpKind::MatMulTn, m, k, n)?;
        let out = if bp.parallel {
            let mut at = alloc::fresh_vec(bp.scratch2);
            transpose_into(self.as_slice(), k, m, &mut at);
            gemm_parallel(&bp, Arc::new(at), other.as_slice(), m, k, n)
        } else {
            let mut at = alloc::scratch_f32(bp.scratch2);
            transpose_into(self.as_slice(), k, m, &mut at);
            gemm_serial(&bp, &at, other.as_slice(), m, k, n)
        };
        Tensor::from_vec(out, Shape::of(&[m, n]))
    }

    /// `self × otherᵀ` without materializing the transpose for the
    /// caller: `self` is `[m, k]`, `other` is `[n, k]`, result `[m, n]`.
    /// This shows up in the backward pass of dense layers
    /// (`∂x = ∂y · Wᵀ` for a `[out, in]` weight laid out as `[n, k]`)
    /// and as the classifier head's forward product.
    ///
    /// The mirror image of [`Tensor::matmul_tn`]: `other` is transposed
    /// into arena scratch (an O(k·n) copy) and the same packed,
    /// register-tiled, row-parallel kernel runs — one accumulator per
    /// element from `0.0`, `p` ascending.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::matmul`].
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        let ((m, k), (n, k2)) = (dims2("matmul_nt", self)?, dims2("matmul_nt", other)?);
        if k != k2 {
            return Err(TensorError::shape_mismatch(
                "matmul_nt",
                self.dims(),
                other.dims(),
            ));
        }
        let bp = plan_gemm(OpKind::MatMulNt, m, k, n)?;
        // Packed (copied again) before any worker sees it, so the
        // transpose can stay in this thread's arena on both paths.
        let mut bt = alloc::scratch_stale(bp.scratch2);
        transpose_into(other.as_slice(), n, k, &mut bt);
        let out = if bp.parallel {
            let a = Arc::new(alloc::fresh_from(self.as_slice()));
            gemm_parallel(&bp, a, &bt, m, k, n)
        } else {
            gemm_serial(&bp, self.as_slice(), &bt, m, k, n)
        };
        Tensor::from_vec(out, Shape::of(&[m, n]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::blueprint::DEFAULT_BLOCKING;
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), Shape::new(vec![rows, cols])).unwrap()
    }

    #[test]
    fn transpose_into_equals_the_double_loop() {
        for (rows, cols) in [
            (1, 9),
            (9, 1),
            (7, 13),
            (64, 432),
            (432, 64),
            (0, 5),
            (5, 0),
        ] {
            let src: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            // Two spare elements: a longer buffer keeps its tail.
            let mut want = vec![-1.0f32; rows * cols + 2];
            for r in 0..rows {
                for c in 0..cols {
                    want[c * rows + r] = src[r * cols + c];
                }
            }
            let mut got = vec![-1.0f32; rows * cols + 2];
            transpose_into(&src, rows, cols, &mut got);
            assert_eq!(got, want, "{rows}x{cols}");
        }
    }

    #[test]
    #[should_panic]
    fn transpose_into_a_short_buffer_is_loud() {
        transpose_into(&[0.0; 6], 2, 3, &mut [0.0; 5]);
    }

    #[test]
    fn small_product() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = mat(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = mat(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = mat(2, 3, &[0.0; 6]);
        let b = mat(2, 3, &[0.0; 6]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(Tensor::zeros(&[2]).matmul(&a).is_err());
    }

    #[test]
    fn blocked_kernel_matches_naive_beyond_block_bounds() {
        // Dimensions straddling the default mc/kc/nc boundaries so
        // several panels and partial edge blocks are exercised.
        let (mc, kc, nc) = (
            DEFAULT_BLOCKING.mc,
            DEFAULT_BLOCKING.kc,
            DEFAULT_BLOCKING.nc,
        );
        let (m, k, n) = (mc + 3, kc + 5, nc + 7);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37) % 101) as f32 * 0.25 - 12.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53) % 89) as f32 * 0.125 - 5.0)
            .collect();
        let fast = mat(m, k, &a).matmul(&mat(k, n, &b)).unwrap();
        // Naive reference in the same per-element accumulation order.
        for &(i, j) in &[(0usize, 0usize), (m - 1, n - 1), (mc, nc), (7, kc)] {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            assert_eq!(fast.as_slice()[i * n + j].to_bits(), acc.to_bits());
        }
    }

    #[test]
    fn every_blocking_candidate_is_bit_identical() {
        // The blocking's bit-safety argument, checked directly: run the
        // raw kernel under several (mc, kc, nc) choices and demand
        // byte-identical output.
        let (m, k, n) = (37, 65, 41);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 31) % 97) as f32 * 0.5 - 20.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 17) % 83) as f32 * 0.25 - 9.0)
            .collect();
        let run = |bl: Blocking| {
            let mut packed = vec![0.0f32; k * n];
            pack_b_into(&b, k, n, bl, &mut packed);
            let mut out = vec![0.0f32; m * n];
            gemm_rows_into(&a, m, k, &packed, n, bl, &mut out);
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let reference = run(DEFAULT_BLOCKING);
        for bl in [
            Blocking {
                mc: 1,
                kc: 1,
                nc: 1,
            },
            Blocking {
                mc: 8,
                kc: 16,
                nc: 8,
            },
            Blocking {
                mc: 128,
                kc: 512,
                nc: 1024,
            },
            Blocking {
                mc: 3,
                kc: 7,
                nc: 11,
            },
        ] {
            assert_eq!(run(bl), reference, "blocking {bl:?} changed bits");
        }
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = mat(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 4, &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        let fused = a.matmul_tn(&b).unwrap();
        let explicit = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(4, 3, &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        let fused = a.matmul_nt(&b).unwrap();
        let explicit = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_nt_matches_scalar_reference_bit_for_bit() {
        // The victim head, every register-tile edge, `k` past one and
        // two `kc` panels (256; 512 for the vector-matrix class), and a
        // product big enough for the pool.
        for (m, k, n) in [
            (16, 64, 43),
            (1, 1030, 1),
            (2, 700, 5),
            (5, 257, 3),
            (9, 300, 21),
            (40, 513, 70),
            (64, 96, 64),
        ] {
            let mut rng = crate::TensorRng::seed_from_u64((m * k * n) as u64);
            let a = rng.uniform(&[m, k], -2.0, 2.0);
            let b = rng.uniform(&[n, k], -2.0, 2.0);
            let mut want = vec![f32::NAN; m * n];
            gemm_nt_block(a.as_slice(), m, b.as_slice(), k, n, &mut want, false);
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            crate::simd::with_each_isa(|isa| {
                for threads in [1, 2] {
                    par::set_threads(threads);
                    let got = a.matmul_nt(&b).unwrap();
                    assert_eq!(got.dims(), &[m, n]);
                    let got: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{m}x{k}x{n} on {isa:?} at {threads} threads");
                }
                par::set_threads(0);
            });
        }
    }

    #[test]
    fn nan_in_left_operand_reaches_output() {
        // Regression for the removed `a_ip == 0.0` sparse-skip: a NaN
        // multiplied by anything — and anything multiplied by 0 × NaN —
        // must stay NaN instead of being laundered into a clean logit.
        let mut av = vec![1.0f32; 6];
        av[4] = f32::NAN; // a[1][1]
        let a = mat(2, 3, &av);
        let b = mat(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let c = a.matmul(&b).unwrap();
        // Row 0 untouched, row 1 fully poisoned.
        assert!(c.as_slice()[..2].iter().all(|v| v.is_finite()));
        assert!(c.as_slice()[2..].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn nan_in_right_operand_reaches_output_even_against_zero() {
        // 0.0 × NaN must be NaN: the old kernel skipped zero entries of
        // A and produced a finite 0.0 here.
        let a = mat(1, 2, &[0.0, 0.0]);
        let mut bv = vec![1.0f32; 4];
        bv[2] = f32::NAN; // b[1][0]
        let b = mat(2, 2, &bv);
        let c = a.matmul(&b).unwrap();
        assert!(
            c.as_slice()[0].is_nan(),
            "0·NaN was laundered to {}",
            c.as_slice()[0]
        );
        assert!(c.as_slice()[1].is_finite());
    }

    #[test]
    fn nan_propagates_through_tn_and_nt() {
        let mut av = vec![0.0f32; 6];
        av[0] = f32::NAN;
        let a_tn = mat(3, 2, &av); // NaN at [0][0] → poisons output row 0
        let b = mat(3, 2, &[1.0; 6]);
        let c = a_tn.matmul_tn(&b).unwrap();
        assert!(c.as_slice()[..2].iter().all(|v| v.is_nan()));
        assert!(c.as_slice()[2..].iter().all(|v| v.is_finite()));

        let a = mat(2, 3, &[0.0; 6]);
        let mut bv = vec![1.0f32; 6];
        bv[0] = f32::NAN; // b row 0 → output column 0
        let b_nt = mat(2, 3, &bv);
        let c = a.matmul_nt(&b_nt).unwrap();
        assert!(c.as_slice()[0].is_nan());
        assert!(c.as_slice()[2].is_nan());
        assert!(c.as_slice()[1].is_finite());
        assert!(c.as_slice()[3].is_finite());
    }

    #[test]
    fn infinity_propagates() {
        let a = mat(1, 2, &[0.0, 1.0]);
        let b = mat(2, 1, &[f32::INFINITY, 1.0]);
        // 0·∞ = NaN, NaN + 1 = NaN.
        assert!(a.matmul(&b).unwrap().as_slice()[0].is_nan());
    }

    /// The numerics contract, spelled as code: one `f32` accumulator per
    /// element from `0.0`, `k` ascending, multiply then add.
    fn three_loop_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every instantiation of the micro-kernel reproduces the
        /// three-loop reference bit for bit. The ranges cover every
        /// full/edge register tile (4×16 and 8×4, bottom and right
        /// edges, 1–3 padded lanes) and the `kc` panel boundary; the
        /// tight blocking adds `mc`/`nc` block edges. A NaN or ∞ in
        /// either operand must stay non-finite wherever the reference
        /// says so (NaN payloads are not compared: which operand's
        /// payload survives `NaN + NaN` is the compiler's choice).
        /// The convolution's store rides along: `B` with its rows
        /// `ldb > cols` apart and NaN in the padding columns, a bias per
        /// row, and with and without the fused `max(0.0)`.
        #[test]
        fn micro_kernel_matches_three_loop_reference(
            seed in 0u64..1_000_000,
            m in 1usize..40,
            k in 1usize..300,
            n in 1usize..70,
            poison in 0usize..4,
        ) {
            let mut rng = crate::TensorRng::seed_from_u64(seed);
            let mut a = rng.uniform(&[m, k], -2.0, 2.0).into_vec();
            let mut b = rng.uniform(&[k, n], -2.0, 2.0).into_vec();
            if poison & 1 == 1 {
                a[(seed as usize) % (m * k)] = f32::NAN;
            }
            if poison & 2 == 2 {
                b[(seed as usize / 7) % (k * n)] = f32::INFINITY;
            }
            let want = three_loop_reference(&a, &b, m, k, n);
            let bias: Vec<f32> = (0..m).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
            let biased: Vec<f32> = want.iter().enumerate().map(|(i, w)| w + bias[i / n]).collect();
            let clamped: Vec<f32> = biased.iter().map(|x| x.max(0.0)).collect();
            let ld = n + 1 + (seed as usize) % 17;
            let mut b_padded = vec![f32::NAN; k * ld];
            for (dst, src) in b_padded.chunks_exact_mut(ld).zip(b.chunks_exact(n)) {
                dst[..n].copy_from_slice(src);
            }
            let mut runs = Vec::new();
            crate::simd::with_each_isa(|isa| {
                for bl in [DEFAULT_BLOCKING, Blocking { mc: 8, kc: 32, nc: 24 }] {
                    let mut packed = vec![0.0f32; k * n];
                    pack_b_into(&b, k, n, bl, &mut packed);
                    // Dirty on purpose: the kernel must overwrite, not add.
                    let mut got = vec![f32::NAN; m * n];
                    gemm_rows_into(&a, m, k, &packed, n, bl, &mut got);
                    runs.push((isa, bl, "plain", got, &want));
                    let one_panel = Blocking { nc: bl.nc.max(n), ..bl };
                    for (relu, what, reference) in [(false, "bias", &biased), (true, "relu", &clamped)] {
                        let mut got = vec![f32::NAN; m * n];
                        let mut dest = Dest::nchw(&mut got, m, n, &bias, relu);
                        gemm_rows_to(&a, m, k, &b_padded, (n, ld), one_panel, &mut dest);
                        runs.push((isa, bl, what, got, reference));
                    }
                }
            });
            for (isa, bl, what, got, want) in runs {
                for (g, w) in got.iter().zip(want) {
                    if w.is_nan() {
                        prop_assert!(g.is_nan(), "NaN laundered to {g} ({what}, {isa:?}, {bl:?})");
                    } else {
                        prop_assert_eq!(g.to_bits(), w.to_bits(), "{} on {:?}, {:?}", what, isa, bl);
                    }
                }
            }
        }

        /// (A·B)·C == A·(B·C) within tolerance.
        #[test]
        fn associativity(
            a in proptest::collection::vec(-2.0f32..2.0, 6),
            b in proptest::collection::vec(-2.0f32..2.0, 6),
            c in proptest::collection::vec(-2.0f32..2.0, 6),
        ) {
            let ta = mat(2, 3, &a);
            let tb = mat(3, 2, &b);
            let tc = mat(2, 3, &c);
            let left = ta.matmul(&tb).unwrap().matmul(&tc).unwrap();
            let right = ta.matmul(&tb.matmul(&tc).unwrap()).unwrap();
            for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// (A·B)ᵀ == Bᵀ·Aᵀ.
        #[test]
        fn transpose_of_product(
            a in proptest::collection::vec(-2.0f32..2.0, 6),
            b in proptest::collection::vec(-2.0f32..2.0, 6),
        ) {
            let ta = mat(2, 3, &a);
            let tb = mat(3, 2, &b);
            let lhs = ta.matmul(&tb).unwrap().transpose().unwrap();
            let rhs = tb.transpose().unwrap().matmul(&ta.transpose().unwrap()).unwrap();
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
