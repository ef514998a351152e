//! Shared machinery for linear neighbourhood filters.
//!
//! A [`Kernel`] is a set of `(dy, dx, weight)` taps. At image borders
//! the out-of-bounds taps are dropped and the remaining weights are
//! renormalized, so the filter stays an average (constant images map to
//! themselves everywhere). The backward pass scatters with the *same*
//! per-output renormalization, making it the exact adjoint of the
//! forward operator.
//!
//! The whole operator is one loop, [`accumulate`]: for each tap, a
//! shifted-row `dst += weight · src` over the rectangle the tap can
//! reach. Forward accumulates the image and divides by the
//! renormalization plane; the plane is the same accumulation over a
//! plane of ones, recomputed on every call, so a kernel holds no state
//! and shares none; backward accumulates the divided gradient through
//! the mirrored tap list. Independent channel planes are partitioned
//! across the `fademl_tensor::par` pool — per plane the arithmetic
//! order is identical to the serial loop, so results are bit-exact
//! regardless of thread count (DESIGN.md §13.4 says what the order is
//! and what would break it).

use std::ops::Range;
use std::sync::Arc;

use fademl_tensor::plan::alloc;
use fademl_tensor::plan::blueprint::checked_product;
use fademl_tensor::{par, Tensor};

use crate::filter::check_image_rank;
use crate::{FilterError, Result};

/// A linear neighbourhood-averaging kernel: two immutable tap lists
/// behind `Arc`s, so clones and the parallel plane workers share them
/// without copying.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    /// Normalized taps in construction order — the order in which the
    /// forward pass accumulates into each output pixel.
    taps: Arc<Vec<(i32, i32, f32)>>,
    /// The same taps with both offsets negated, ascending by offset:
    /// gathering through them reaches the sources of each gradient
    /// element in raster order, exactly as a pixel-by-pixel scatter of
    /// `taps` would.
    adjoint: Arc<Vec<(i32, i32, f32)>>,
}

impl Kernel {
    /// Creates a kernel from taps. Weights are normalized to sum to 1.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::InvalidParameter`] for an empty tap list,
    /// non-positive weights, or duplicate offsets.
    pub fn new(taps: Vec<(i32, i32, f32)>) -> Result<Self> {
        if taps.is_empty() {
            return Err(FilterError::InvalidParameter {
                reason: "kernel needs at least one tap".into(),
            });
        }
        let mut seen = std::collections::HashSet::new();
        let mut sum = 0.0f32;
        for &(dy, dx, w) in &taps {
            if w <= 0.0 {
                return Err(FilterError::InvalidParameter {
                    reason: format!("non-positive tap weight {w} at ({dy}, {dx})"),
                });
            }
            if !seen.insert((dy, dx)) {
                return Err(FilterError::InvalidParameter {
                    reason: format!("duplicate tap offset ({dy}, {dx})"),
                });
            }
            sum += w;
        }
        let mut normalized = alloc::fresh_with(taps.len());
        let mut adjoint = alloc::fresh_with(taps.len());
        for (dy, dx, w) in taps {
            let w = w / sum;
            normalized.push((dy, dx, w));
            adjoint.push((dy.saturating_neg(), dx.saturating_neg(), w));
        }
        adjoint.sort_by_key(|&(dy, dx, _)| (dy, dx));
        Ok(Kernel {
            taps: Arc::new(normalized),
            adjoint: Arc::new(adjoint),
        })
    }

    /// A uniform kernel over the given offsets.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Kernel::new`].
    pub fn uniform(offsets: Vec<(i32, i32)>) -> Result<Self> {
        let mut taps = alloc::fresh_with(offsets.len());
        for (dy, dx) in offsets {
            taps.push((dy, dx, 1.0));
        }
        Kernel::new(taps)
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` if the kernel has no taps (never constructible).
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// The taps (normalized weights).
    pub fn taps(&self) -> &[(i32, i32, f32)] {
        &self.taps
    }

    /// `true` if the tap set is symmetric under negation of offsets with
    /// equal weights (then the unrenormalized operator is self-adjoint).
    pub fn is_symmetric(&self) -> bool {
        self.taps.iter().all(|&(dy, dx, w)| {
            self.taps
                .iter()
                .any(|&(ey, ex, v)| ey == -dy && ex == -dx && (v - w).abs() < 1e-6)
        })
    }

    /// Applies the kernel to every channel plane of a `[C, H, W]` or
    /// `[N, C, H, W]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::UnsupportedRank`] for other ranks, or
    /// [`FilterError::DegenerateGeometry`] when the kernel cannot reach
    /// any in-bounds pixel somewhere on a plane this small.
    pub fn apply(&self, image: &Tensor) -> Result<Tensor> {
        self.run_planes(image, false)
    }

    /// Exact adjoint of [`Kernel::apply`]: carries each output gradient
    /// back through the same renormalized taps.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::UnsupportedRank`] for bad ranks or
    /// [`FilterError::DegenerateGeometry`] exactly as in the forward
    /// direction.
    pub fn backward(&self, grad_out: &Tensor) -> Result<Tensor> {
        self.run_planes(grad_out, true)
    }

    /// Per-pixel in-bounds weight sums of an `h × w` plane — the taps
    /// accumulated over a plane of ones (`wt · 1.0 == wt`), i.e. each
    /// pixel's reachable weights summed in tap order.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::DegenerateGeometry`] when some pixel has
    /// every tap out of bounds (renormalizing there would divide by
    /// zero and emit `inf`/`NaN`).
    fn sums_plane(&self, h: usize, w: usize) -> Result<alloc::Scratch> {
        let mut ones = alloc::scratch_stale(h * w);
        ones.fill(1.0);
        let mut sums = alloc::scratch_f32(h * w);
        accumulate(&self.taps, &ones, &mut sums, h, w);
        if let Some(at) = sums.iter().position(|&s| s == 0.0) {
            return Err(FilterError::DegenerateGeometry {
                reason: format!(
                    "every tap of this {}-tap kernel falls outside a {h}x{w} plane at pixel ({}, {})",
                    self.taps.len(),
                    at / w,
                    at % w
                ),
            });
        }
        Ok(sums)
    }

    /// Runs the forward (`adjoint == false`) or backward operator over
    /// all planes of `image`, serial or on the pool as
    /// `should_parallelize` decides — identically for both directions.
    fn run_planes(&self, image: &Tensor, adjoint: bool) -> Result<Tensor> {
        check_image_rank(image)?;
        let src = image.as_slice();
        let len = src.len();
        if len == 0 {
            return Ok(image.duplicate());
        }
        let dims = image.dims();
        let (h, w) = (dims[dims.len() - 2], dims[dims.len() - 1]);
        let area = checked_product("filter plane", &[h, w])?;
        let planes = len / area;
        let sums = self.sums_plane(h, w)?;
        let taps = if adjoint { &self.adjoint } else { &self.taps };
        let work = len.saturating_mul(taps.len());
        let out = if par::should_parallelize(planes, work) {
            // Cross-thread buffers deliberately bypass the arena: a buffer
            // dropped on another thread would migrate into its pool.
            let src: Arc<Vec<f32>> = Arc::new(alloc::fresh_from(src));
            let sums: Arc<Vec<f32>> = Arc::new(alloc::fresh_from(&sums));
            let taps = Arc::clone(taps);
            let blocks = par::parallel_rows(planes, move |range: Range<usize>| {
                let mut block = alloc::fresh_vec(range.len() * area);
                let src = &src[range.start * area..range.end * area];
                run_block(&taps, src, &mut block, h, w, &sums, adjoint);
                block
            });
            let mut out = alloc::fresh_with(len);
            for block in blocks {
                out.extend_from_slice(&block);
            }
            out
        } else {
            let mut out = alloc::fresh_vec(len);
            run_block(taps, src, &mut out, h, w, &sums, adjoint);
            out
        };
        Ok(Tensor::from_vec(out, image.shape().duplicate())?)
    }

    /// The `count` offsets nearest the origin (excluding it), ordered by
    /// Euclidean distance with deterministic tie-breaking, plus the
    /// origin itself. This is the LAP neighbourhood construction.
    pub fn nearest_neighbourhood(count: usize) -> Vec<(i32, i32)> {
        let mut candidates: Vec<(i32, i32)> = Vec::default();
        // A window comfortably larger than any np we use (np=64 fits in
        // a 9×9 ring set minus centre = 80 candidates; use radius 8).
        let r = 8i32;
        for dy in -r..=r {
            for dx in -r..=r {
                if dy != 0 || dx != 0 {
                    candidates.push((dy, dx));
                }
            }
        }
        candidates.sort_by(|a, b| {
            let da = a.0 * a.0 + a.1 * a.1;
            let db = b.0 * b.0 + b.1 * b.1;
            da.cmp(&db).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1))
        });
        let mut offsets = alloc::fresh_with(count + 1);
        offsets.push((0, 0));
        offsets.extend(candidates.into_iter().take(count));
        offsets
    }

    /// All offsets within Euclidean distance `radius` of the origin
    /// (inclusive), the LAR disc construction.
    pub fn disc(radius: usize) -> Vec<(i32, i32)> {
        let r = radius as i32;
        let r2 = r * r;
        let mut offsets = Vec::default();
        for dy in -r..=r {
            for dx in -r..=r {
                if dy * dy + dx * dx <= r2 {
                    offsets.push((dy, dx));
                }
            }
        }
        offsets
    }
}

/// Every `h × w` plane of `src` through `taps` into the matching plane
/// of the zeroed `dst`. Forward accumulates, then divides each output
/// pixel by its weight sum; the adjoint divides each incoming gradient
/// by the same sum first, then accumulates.
fn run_block(
    taps: &[(i32, i32, f32)],
    src: &[f32],
    dst: &mut [f32],
    h: usize,
    w: usize,
    sums: &[f32],
    adjoint: bool,
) {
    let planes = src
        .chunks_exact(sums.len())
        .zip(dst.chunks_exact_mut(sums.len()));
    if adjoint {
        let mut scaled = alloc::scratch_stale(sums.len());
        for (grad, out) in planes {
            for ((q, &g), &s) in scaled.iter_mut().zip(grad).zip(sums) {
                *q = g / s;
            }
            accumulate(taps, &scaled, out, h, w);
        }
    } else {
        for (image, out) in planes {
            accumulate(taps, image, out, h, w);
            for (v, &s) in out.iter_mut().zip(sums) {
                *v /= s;
            }
        }
    }
}

/// The one filter loop: for each tap in list order,
/// `dst[y][x] += wt · src[y + dy][x + dx]` over every `(y, x)` whose
/// source pixel is on the plane. Each `dst` element is a single `f32`
/// accumulator that meets its taps in list order through a separate
/// multiply and add — the order every bit-exactness pin rests on.
fn accumulate(taps: &[(i32, i32, f32)], src: &[f32], dst: &mut [f32], h: usize, w: usize) {
    for &(dy, dx, wt) in taps {
        let (rows, src_row) = clip(dy, h);
        let (cols, src_col) = clip(dx, w);
        if cols.is_empty() {
            continue;
        }
        for (y, sy) in rows.zip(src_row..) {
            let d = &mut dst[y * w + cols.start..y * w + cols.end];
            let s = &src[sy * w + src_col..][..d.len()];
            for (d, &s) in d.iter_mut().zip(s) {
                *d += wt * s;
            }
        }
    }
}

/// The positions `i` on an axis of length `n` for which `i + d` is on
/// the axis too, with the source position `i + d` of the first.
fn clip(d: i32, n: usize) -> (Range<usize>, usize) {
    let shift = d.unsigned_abs() as usize;
    if d < 0 {
        (shift.min(n)..n, 0)
    } else {
        (0..n.saturating_sub(shift), shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_tensor::TensorRng;
    use proptest::prelude::*;

    fn box3() -> Kernel {
        Kernel::uniform(Kernel::disc(1)).unwrap()
    }

    #[test]
    fn validation() {
        assert!(Kernel::new(vec![]).is_err());
        assert!(Kernel::new(vec![(0, 0, -1.0)]).is_err());
        assert!(Kernel::new(vec![(0, 0, 1.0), (0, 0, 1.0)]).is_err());
        assert!(Kernel::new(vec![(0, 0, 2.0)]).is_ok());
    }

    #[test]
    fn weights_normalized() {
        let k = Kernel::new(vec![(0, 0, 2.0), (0, 1, 2.0)]).unwrap();
        let total: f32 = k.taps().iter().map(|t| t.2).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn constant_image_is_fixed_point() {
        // Renormalization at borders makes averaging exact everywhere.
        let k = box3();
        let img = Tensor::full(&[3, 5, 7], 0.42);
        let out = k.apply(&img).unwrap();
        for &v in out.as_slice() {
            assert!((v - 0.42).abs() < 1e-6);
        }
    }

    #[test]
    fn smoothing_reduces_variance() {
        let mut rng = TensorRng::seed_from_u64(1);
        let img = rng.uniform(&[1, 16, 16], 0.0, 1.0);
        let out = box3().apply(&img).unwrap();
        let var = |t: &Tensor| {
            let m = t.mean();
            t.map(|x| (x - m) * (x - m)).mean()
        };
        assert!(var(&out) < var(&img));
    }

    #[test]
    fn preserves_mean_approximately() {
        let mut rng = TensorRng::seed_from_u64(2);
        let img = rng.uniform(&[1, 12, 12], 0.0, 1.0);
        let out = box3().apply(&img).unwrap();
        assert!((out.mean() - img.mean()).abs() < 0.02);
    }

    #[test]
    fn backward_is_exact_adjoint() {
        // <K x, y> == <x, Kᵀ y> for random x, y — also on planes
        // narrower than the kernel's reach.
        let lap = |np| Kernel::uniform(Kernel::nearest_neighbourhood(np)).unwrap();
        let kernels = [lap(16), lap(32), Kernel::uniform(Kernel::disc(3)).unwrap()];
        let shapes: [&[usize]; 3] = [&[2, 7, 6], &[1, 13, 1], &[1, 9, 2]];
        let mut rng = TensorRng::seed_from_u64(3);
        for k in &kernels {
            for dims in shapes {
                let x = rng.uniform(dims, -1.0, 1.0);
                let y = rng.uniform(dims, -1.0, 1.0);
                let lhs = k.apply(&x).unwrap().dot(&y).unwrap();
                let rhs = x.dot(&k.backward(&y).unwrap()).unwrap();
                assert!(
                    (lhs - rhs).abs() < 1e-4,
                    "{} taps on {dims:?}: {lhs} vs {rhs}",
                    k.len()
                );
            }
        }
    }

    #[test]
    fn plane_narrower_than_the_reach_is_ok() {
        // The tap at dx = -3 reaches past a 1-wide plane from every
        // pixel; an empty plane has no pixel to reach from.
        let k = Kernel::new(vec![(0, -3, 1.0), (0, 0, 1.0)]).unwrap();
        for dims in [[1, 4, 1], [1, 0, 4]] {
            let x = Tensor::ones(&dims);
            assert_eq!(k.apply(&x).unwrap(), x, "{dims:?}");
            assert_eq!(k.backward(&x).unwrap(), x, "{dims:?}");
        }
    }

    #[test]
    fn batch_equals_per_image() {
        let k = box3();
        let mut rng = TensorRng::seed_from_u64(4);
        let a = rng.uniform(&[3, 8, 8], 0.0, 1.0);
        let b = rng.uniform(&[3, 8, 8], 0.0, 1.0);
        let batch = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        let batched = k.apply(&batch).unwrap();
        assert_eq!(batched.index_batch(0).unwrap(), k.apply(&a).unwrap());
        assert_eq!(batched.index_batch(1).unwrap(), k.apply(&b).unwrap());
    }

    #[test]
    fn nearest_neighbourhood_structure() {
        let n4 = Kernel::nearest_neighbourhood(4);
        assert_eq!(n4.len(), 5); // centre + 4
        assert!(n4.contains(&(0, 0)));
        assert!(n4.contains(&(0, 1)) && n4.contains(&(1, 0)));
        assert!(!n4.contains(&(1, 1))); // diagonal is farther
        let n8 = Kernel::nearest_neighbourhood(8);
        assert!(n8.contains(&(1, 1))); // Moore neighbourhood
                                       // Monotone growth and determinism.
        assert_eq!(Kernel::nearest_neighbourhood(64).len(), 65);
        assert_eq!(n8, Kernel::nearest_neighbourhood(8));
    }

    #[test]
    fn disc_sizes() {
        assert_eq!(Kernel::disc(0).len(), 1);
        assert_eq!(Kernel::disc(1).len(), 5); // centre + von Neumann
        assert_eq!(Kernel::disc(2).len(), 13);
        // Discs grow with radius.
        for r in 1..5 {
            assert!(Kernel::disc(r + 1).len() > Kernel::disc(r).len());
        }
    }

    #[test]
    fn disc_kernels_are_symmetric() {
        for r in 1..=5 {
            let k = Kernel::uniform(Kernel::disc(r)).unwrap();
            assert!(k.is_symmetric(), "disc({r}) not symmetric");
        }
    }

    #[test]
    fn rejects_bad_rank() {
        let k = box3();
        assert!(k.apply(&Tensor::ones(&[4, 4])).is_err());
        assert!(k.backward(&Tensor::ones(&[4])).is_err());
    }

    #[test]
    fn degenerate_geometry_is_typed_error_not_nan() {
        // Both taps sit 3 rows away, so on a 2×2 plane no pixel can
        // reach either — the old code divided by zero there.
        let k = Kernel::uniform(vec![(3, 0), (-3, 0)]).unwrap();
        let img = Tensor::ones(&[1, 2, 2]);
        for result in [k.apply(&img), k.backward(&img)] {
            match result {
                Err(FilterError::DegenerateGeometry { reason }) => {
                    assert!(reason.contains("2x2"), "unhelpful reason: {reason}");
                }
                other => panic!("expected DegenerateGeometry, got {other:?}"),
            }
        }
        // A big enough plane keeps the same kernel valid.
        assert!(k.apply(&Tensor::ones(&[1, 8, 8])).is_ok());
    }

    /// Per-pixel in-bounds weight sum, taps in list order.
    fn reference_sum(taps: &[(i32, i32, f32)], h: i32, w: i32, y: i32, x: i32) -> f32 {
        let mut sum = 0.0f32;
        for &(dy, dx, wt) in taps {
            if (0..h).contains(&(y + dy)) && (0..w).contains(&(x + dx)) {
                sum += wt;
            }
        }
        sum
    }

    /// Forward reference: each output pixel gathers its taps in list
    /// order, every tap bounds-checked.
    fn reference_apply(taps: &[(i32, i32, f32)], src: &[f32], h: i32, w: i32) -> Vec<f32> {
        let mut out = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0f32;
                for &(dy, dx, wt) in taps {
                    let (sy, sx) = (y + dy, x + dx);
                    if (0..h).contains(&sy) && (0..w).contains(&sx) {
                        acc += wt * src[(sy * w + sx) as usize];
                    }
                }
                out.push(acc / reference_sum(taps, h, w, y, x));
            }
        }
        out
    }

    /// Adjoint reference: source pixels scatter in raster order, taps in
    /// list order, every tap bounds-checked.
    fn reference_backward(taps: &[(i32, i32, f32)], grad: &[f32], h: i32, w: i32) -> Vec<f32> {
        let mut out = vec![0.0f32; grad.len()];
        for y in 0..h {
            for x in 0..w {
                let scaled = grad[(y * w + x) as usize] / reference_sum(taps, h, w, y, x);
                for &(dy, dx, wt) in taps {
                    let (sy, sx) = (y + dy, x + dx);
                    if (0..h).contains(&sy) && (0..w).contains(&sx) {
                        out[(sy * w + sx) as usize] += wt * scaled;
                    }
                }
            }
        }
        out
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random asymmetric kernels on planes narrower, shorter and
        /// smaller than their reach: both directions equal the checked
        /// per-pixel references bit for bit — the accumulation orders
        /// every downstream golden value rests on — and a plane with an
        /// unreachable pixel is the typed error in both.
        #[test]
        fn both_directions_match_checked_references_bitwise(
            seed in 0u64..1_000_000,
            dys in proptest::collection::vec(-4i32..5, 1..13),
            dxs in proptest::collection::vec(-4i32..5, 12),
            weights in proptest::collection::vec(0.1f32..3.0, 12),
            h in 1usize..12,
            w in 1usize..12,
        ) {
            let mut taps: Vec<(i32, i32, f32)> = Vec::new();
            for ((&dy, &dx), &wt) in dys.iter().zip(&dxs).zip(&weights) {
                if !taps.iter().any(|&(ey, ex, _)| (ey, ex) == (dy, dx)) {
                    taps.push((dy, dx, wt));
                }
            }
            let mut rng = TensorRng::seed_from_u64(seed);
            let x = rng.uniform(&[2, h, w], -1.0, 1.0);
            let (hi, wi) = (h as i32, w as i32);
            let mut k = Kernel::new(taps.clone()).unwrap();
            if (0..hi * wi).any(|i| reference_sum(k.taps(), hi, wi, i / wi, i % wi) == 0.0) {
                for result in [k.apply(&x), k.backward(&x)] {
                    prop_assert!(matches!(result, Err(FilterError::DegenerateGeometry { .. })));
                }
                // The centre tap reaches every pixel; go on with it.
                taps.push((0, 0, 1.0));
                k = Kernel::new(taps).unwrap();
            }
            let (fwd, bwd) = (k.apply(&x).unwrap(), k.backward(&x).unwrap());
            let planes = x.as_slice().chunks_exact(h * w);
            let outs = fwd.as_slice().chunks_exact(h * w).zip(bwd.as_slice().chunks_exact(h * w));
            for (plane, (f, b)) in planes.zip(outs) {
                let what = format!("{h}x{w} plane, taps {:?}", k.taps());
                prop_assert_eq!(bits(f), bits(&reference_apply(k.taps(), plane, hi, wi)), "apply: {}", what);
                prop_assert_eq!(bits(b), bits(&reference_backward(k.taps(), plane, hi, wi)), "backward: {}", what);
            }
        }
    }

    proptest! {
        /// Output of an averaging kernel stays within the input range.
        #[test]
        fn output_within_input_range(seed in 0u64..500) {
            let k = box3();
            let mut rng = TensorRng::seed_from_u64(seed);
            let img = rng.uniform(&[1, 6, 6], -2.0, 3.0);
            let out = k.apply(&img).unwrap();
            prop_assert!(out.max().unwrap() <= img.max().unwrap() + 1e-5);
            prop_assert!(out.min().unwrap() >= img.min().unwrap() - 1e-5);
        }

        /// Linearity: K(a·x + b·y) == a·Kx + b·Ky.
        #[test]
        fn kernel_is_linear(seed in 0u64..500, a in -2.0f32..2.0, b in -2.0f32..2.0) {
            let k = box3();
            let mut rng = TensorRng::seed_from_u64(seed);
            let x = rng.uniform(&[1, 5, 5], -1.0, 1.0);
            let y = rng.uniform(&[1, 5, 5], -1.0, 1.0);
            let lhs = k.apply(&x.scale(a).add(&y.scale(b)).unwrap()).unwrap();
            let rhs = k.apply(&x).unwrap().scale(a).add(&k.apply(&y).unwrap().scale(b)).unwrap();
            for (p, q) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((p - q).abs() < 1e-4);
            }
        }
    }
}
