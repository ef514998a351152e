//! Shared machinery for linear neighbourhood filters.
//!
//! A [`Kernel`] is a set of `(dy, dx, weight)` taps. At image borders
//! the out-of-bounds taps are dropped and the remaining weights are
//! renormalized, so the filter stays an average (constant images map to
//! themselves everywhere). The backward pass scatters with the *same*
//! per-output renormalization, making it the exact adjoint of the
//! forward operator.
//!
//! The renormalization plane depends only on the kernel geometry and
//! the image size, so it is computed once per `(h, w)` and cached
//! inside the kernel. Application is split into a bounds-check-free
//! interior fast path (where every tap is in bounds and the divisor is
//! the full weight sum) and a clamped border path, and partitioned over
//! independent channel planes across the `fademl_tensor::par` pool —
//! per plane the arithmetic order is identical to the serial loop, so
//! results are bit-exact regardless of thread count.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use fademl_tensor::plan::alloc;
use fademl_tensor::plan::blueprint::checked_product;
use fademl_tensor::{par, Tensor};

use crate::filter::check_image_rank;
use crate::{FilterError, Result};

/// Cached per-image-size renormalization data.
struct SumsPlane {
    /// Per-pixel in-bounds weight sums (`h × w`).
    sums: Vec<f32>,
    /// Full tap weight sum, accumulated in tap order — bitwise equal to
    /// `sums` at interior pixels, used by the fast path.
    full: f32,
    /// First pixel whose taps all fall out of bounds, if any. Such a
    /// geometry would divide by zero during renormalization.
    degenerate_at: Option<(usize, usize)>,
}

/// A linear neighbourhood-averaging kernel.
///
/// The tap list and the renormalization cache both live behind `Arc`s:
/// clones share them (the cache is geometry-only and immutable per
/// entry), and the parallel plane workers borrow the taps without
/// copying the list per call.
#[derive(Clone)]
pub struct Kernel {
    taps: Arc<Vec<(i32, i32, f32)>>,
    /// `(h, w) → SumsPlane` cache; geometry-only, so shared freely.
    sums_cache: SumsCache,
}

/// Shared `(h, w) → SumsPlane` renormalization cache.
type SumsCache = Arc<parking_lot::Mutex<HashMap<(usize, usize), Arc<SumsPlane>>>>;

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel").field("taps", &self.taps).finish()
    }
}

impl PartialEq for Kernel {
    fn eq(&self, other: &Self) -> bool {
        self.taps == other.taps
    }
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
        for (dy, dx, w) in taps {
            normalized.push((dy, dx, w / sum));
        }
        Ok(Kernel {
            taps: Arc::new(normalized),
            sums_cache: Arc::new(parking_lot::Mutex::new(HashMap::new())),
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

    /// The cached renormalization plane for an `h × w` image, computing
    /// and inserting it on first use. Geometry-only: every subsequent
    /// `apply`/`backward` on the same image size reuses the plane
    /// instead of recomputing and reallocating it.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::DegenerateGeometry`] when some pixel has
    /// every tap out of bounds (renormalizing there would divide by
    /// zero and emit `inf`/`NaN`).
    fn sums_for(&self, h: usize, w: usize) -> Result<Arc<SumsPlane>> {
        let plane = {
            let mut cache = self.sums_cache.lock();
            Arc::clone(cache.entry((h, w)).or_insert_with(|| {
                let mut sums = alloc::fresh_vec(h * w);
                let mut degenerate_at = None;
                for y in 0..h as i32 {
                    for x in 0..w as i32 {
                        let mut s = 0.0;
                        for &(dy, dx, wt) in self.taps.iter() {
                            let (sy, sx) = (y + dy, x + dx);
                            if sy >= 0 && sy < h as i32 && sx >= 0 && sx < w as i32 {
                                s += wt;
                            }
                        }
                        if s == 0.0 && degenerate_at.is_none() {
                            degenerate_at = Some((y as usize, x as usize));
                        }
                        if let Some(slot) = sums.get_mut((y as usize) * w + x as usize) {
                            *slot = s;
                        }
                    }
                }
                let mut full = 0.0f32;
                for &(_, _, wt) in self.taps.iter() {
                    full += wt;
                }
                Arc::new(SumsPlane {
                    sums,
                    full,
                    degenerate_at,
                })
            }))
        };
        if let Some((y, x)) = plane.degenerate_at {
            return Err(FilterError::DegenerateGeometry {
                reason: format!(
                    "every tap of this {}-tap kernel falls outside a {h}x{w} plane at pixel ({y}, {x})",
                    self.taps.len()
                ),
            });
        }
        Ok(plane)
    }

    /// Interior rows/columns where *every* tap is in bounds (may be
    /// empty for kernels wider than the image).
    fn interior(&self, h: usize, w: usize) -> (Range<i32>, Range<i32>) {
        let mut min_dy = 0i32;
        let mut max_dy = 0i32;
        let mut min_dx = 0i32;
        let mut max_dx = 0i32;
        for &(dy, dx, _) in self.taps.iter() {
            min_dy = min_dy.min(dy);
            max_dy = max_dy.max(dy);
            min_dx = min_dx.min(dx);
            max_dx = max_dx.max(dx);
        }
        let y_lo = (-min_dy).max(0);
        let y_hi = (h as i32 - max_dy.max(0)).max(y_lo);
        let x_lo = (-min_dx).max(0);
        let x_hi = (w as i32 - max_dx.max(0)).max(x_lo);
        (y_lo..y_hi, x_lo..x_hi)
    }

    fn plane_geometry(image: &Tensor) -> (usize, usize, usize) {
        let dims = image.dims();
        let (h, w) = (dims[dims.len() - 2], dims[dims.len() - 1]);
        let planes = image.numel() / (h * w);
        (planes, h, w)
    }

    /// Applies the kernel to every channel plane of a `[C, H, W]` or
    /// `[N, C, H, W]` tensor.
    ///
    /// Planes are independent, so they are partitioned across the
    /// compute pool; within a plane the interior runs bounds-check-free
    /// and borders take the clamped path, in the same arithmetic order
    /// as the serial loop (bit-exact across thread counts).
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::UnsupportedRank`] for other ranks, or
    /// [`FilterError::DegenerateGeometry`] when the kernel cannot reach
    /// any in-bounds pixel somewhere on a plane this small.
    pub fn apply(&self, image: &Tensor) -> Result<Tensor> {
        check_image_rank(image)?;
        let (planes, h, w) = Self::plane_geometry(image);
        let sums = self.sums_for(h, w)?;
        let (yr, xr) = self.interior(h, w);
        let src = image.as_slice();
        let out = self.run_planes(src, planes, h, w, sums, yr, xr, false)?;
        Ok(Tensor::from_vec(out, image.shape().duplicate())?)
    }

    /// Exact adjoint of [`Kernel::apply`]: scatters each output gradient
    /// through the same renormalized taps. Parallel/caching structure
    /// mirrors [`Kernel::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::UnsupportedRank`] for bad ranks or
    /// [`FilterError::DegenerateGeometry`] exactly as in the forward
    /// direction.
    pub fn backward(&self, grad_out: &Tensor) -> Result<Tensor> {
        check_image_rank(grad_out)?;
        let (planes, h, w) = Self::plane_geometry(grad_out);
        let sums = self.sums_for(h, w)?;
        let (yr, xr) = self.interior(h, w);
        let g = grad_out.as_slice();
        let out = self.run_planes(g, planes, h, w, sums, yr, xr, true)?;
        Ok(Tensor::from_vec(out, grad_out.shape().duplicate())?)
    }

    /// Runs the forward (`adjoint == false`) or backward plane kernel
    /// over all planes, serial or on the pool as `should_parallelize`
    /// decides — identically for both directions.
    #[allow(clippy::too_many_arguments)]
    fn run_planes(
        &self,
        src: &[f32],
        planes: usize,
        h: usize,
        w: usize,
        sums: Arc<SumsPlane>,
        yr: Range<i32>,
        xr: Range<i32>,
        adjoint: bool,
    ) -> Result<Vec<f32>> {
        let out_len = checked_product("filter planes", &[planes, h, w])?;
        let work = out_len.saturating_mul(self.taps.len());
        if !par::should_parallelize(planes, work) {
            let mut out = alloc::fresh_vec(out_len);
            for p in 0..planes {
                let plane_src = &src[p * h * w..(p + 1) * h * w];
                let plane_dst = &mut out[p * h * w..(p + 1) * h * w];
                run_plane(
                    &self.taps, plane_src, plane_dst, h, w, &sums, &yr, &xr, adjoint,
                );
            }
            return Ok(out);
        }
        // Cross-thread buffers deliberately bypass the arena: a buffer
        // dropped on another thread would migrate into its pool.
        let src: Arc<Vec<f32>> = Arc::new(alloc::fresh_from(src));
        let taps = Arc::clone(&self.taps);
        let blocks = par::parallel_rows(planes, move |range: Range<usize>| {
            let mut block = alloc::fresh_vec((range.end - range.start) * h * w);
            for (slot, p) in range.enumerate() {
                let plane_src = &src[p * h * w..(p + 1) * h * w];
                let plane_dst = &mut block[slot * h * w..(slot + 1) * h * w];
                run_plane(&taps, plane_src, plane_dst, h, w, &sums, &yr, &xr, adjoint);
            }
            block
        });
        let mut out = alloc::fresh_with(out_len);
        for block in blocks {
            out.extend_from_slice(&block);
        }
        Ok(out)
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

    /// Number of cached renormalization planes (test/introspection aid).
    pub fn cached_geometries(&self) -> usize {
        self.sums_cache.lock().len()
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

/// Gather (forward) for one border pixel: taps falling outside the
/// plane are skipped and the accumulator is divided by that pixel's
/// in-bounds weight sum.
#[inline]
fn border_gather(
    taps: &[(i32, i32, f32)],
    src: &[f32],
    h: i32,
    w_i: i32,
    w: usize,
    y: i32,
    x: i32,
) -> f32 {
    let mut acc = 0.0f32;
    for &(dy, dx, wt) in taps {
        let (sy, sx) = (y + dy, x + dx);
        if sy >= 0 && sy < h && sx >= 0 && sx < w_i {
            acc += wt * src[(sy as usize) * w + sx as usize];
        }
    }
    acc
}

/// One plane of the forward or adjoint operator. The interior (`yr` ×
/// `xr`) runs without per-tap bounds checks and divides by the full
/// weight sum (bitwise equal to the cached per-pixel sum there); the
/// border runs the clamped path against `sums`. Tap iteration order —
/// and therefore every accumulation order — matches the reference
/// serial loop exactly.
#[allow(clippy::too_many_arguments)]
fn run_plane(
    taps: &[(i32, i32, f32)],
    src: &[f32],
    dst: &mut [f32],
    h: usize,
    w: usize,
    sums: &SumsPlane,
    yr: &Range<i32>,
    xr: &Range<i32>,
    adjoint: bool,
) {
    let (h_i, w_i) = (h as i32, w as i32);
    for y in 0..h_i {
        let fast_row = yr.contains(&y);
        let row_base = (y as usize) * w;
        let (x_lo, x_hi) = if fast_row {
            (xr.start, xr.end)
        } else {
            (0, 0) // whole row takes the border path
        };
        for x in 0..x_lo {
            run_border_pixel(taps, src, dst, h_i, w_i, w, y, x, sums, adjoint);
        }
        if !adjoint {
            for x in x_lo..x_hi {
                let mut acc = 0.0f32;
                for &(dy, dx, wt) in taps {
                    acc += wt * src[((y + dy) as usize) * w + (x + dx) as usize];
                }
                dst[row_base + x as usize] = acc / sums.full;
            }
        } else {
            for x in x_lo..x_hi {
                let scaled = src[row_base + x as usize] / sums.full;
                for &(dy, dx, wt) in taps {
                    dst[((y + dy) as usize) * w + (x + dx) as usize] += wt * scaled;
                }
            }
        }
        for x in x_hi.max(0)..w_i {
            run_border_pixel(taps, src, dst, h_i, w_i, w, y, x, sums, adjoint);
        }
    }
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn run_border_pixel(
    taps: &[(i32, i32, f32)],
    src: &[f32],
    dst: &mut [f32],
    h_i: i32,
    w_i: i32,
    w: usize,
    y: i32,
    x: i32,
    sums: &SumsPlane,
    adjoint: bool,
) {
    let idx = (y as usize) * w + x as usize;
    if !adjoint {
        let acc = border_gather(taps, src, h_i, w_i, w, y, x);
        dst[idx] = acc / sums.sums[idx];
    } else {
        let scaled = src[idx] / sums.sums[idx];
        for &(dy, dx, wt) in taps {
            let (sy, sx) = (y + dy, x + dx);
            if sy >= 0 && sy < h_i && sx >= 0 && sx < w_i {
                dst[(sy as usize) * w + sx as usize] += wt * scaled;
            }
        }
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
        // <K x, y> == <x, Kᵀ y> for random x, y.
        let k = Kernel::uniform(Kernel::nearest_neighbourhood(16)).unwrap();
        let mut rng = TensorRng::seed_from_u64(3);
        let x = rng.uniform(&[2, 7, 6], -1.0, 1.0);
        let y = rng.uniform(&[2, 7, 6], -1.0, 1.0);
        let lhs = k.apply(&x).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&k.backward(&y).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
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
    fn renorm_plane_is_cached_per_geometry() {
        let k = box3();
        assert_eq!(k.cached_geometries(), 0);
        let img = Tensor::ones(&[1, 6, 6]);
        k.apply(&img).unwrap();
        assert_eq!(k.cached_geometries(), 1);
        // Same geometry → no new plane; both directions share it.
        k.apply(&img).unwrap();
        k.backward(&img).unwrap();
        assert_eq!(k.cached_geometries(), 1);
        k.apply(&Tensor::ones(&[1, 7, 7])).unwrap();
        assert_eq!(k.cached_geometries(), 2);
        // Clones share the already-computed planes.
        assert_eq!(k.clone().cached_geometries(), 2);
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

    #[test]
    fn interior_fast_path_matches_checked_reference() {
        // Asymmetric kernel so interior bounds differ per side; compare
        // against an all-checked reference computed tap-by-tap.
        let k = Kernel::new(vec![(-2, 0, 1.0), (0, 1, 2.0), (1, -1, 0.5), (0, 0, 1.0)]).unwrap();
        let mut rng = TensorRng::seed_from_u64(11);
        let img = rng.uniform(&[2, 9, 8], -1.0, 1.0);
        let out = k.apply(&img).unwrap();
        let (h, w) = (9i32, 8i32);
        let src = img.as_slice();
        for p in 0..2usize {
            let base = p * 72;
            for y in 0..h {
                for x in 0..w {
                    let mut acc = 0.0f32;
                    let mut sum = 0.0f32;
                    for &(dy, dx, wt) in k.taps() {
                        let (sy, sx) = (y + dy, x + dx);
                        if sy >= 0 && sy < h && sx >= 0 && sx < w {
                            acc += wt * src[base + (sy * w + sx) as usize];
                            sum += wt;
                        }
                    }
                    let idx = base + (y * w + x) as usize;
                    let expect = acc / sum;
                    assert_eq!(
                        out.as_slice()[idx].to_bits(),
                        expect.to_bits(),
                        "mismatch at plane {p} ({y}, {x})"
                    );
                }
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
