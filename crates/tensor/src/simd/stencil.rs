//! Register stencils — safe Rust, no indexing — instantiated per
//! instruction set by `super` like the GEMM micro-kernel.
//!
//! [`stencil_body`] is the neighbourhood filter's one loop (LAP and LAR,
//! forward and adjoint): every output element is a weighted sum of
//! source elements at fixed offsets. The caller hands it the tap list
//! already reduced to the taps that land on the plane, as `(offset,
//! weight)` pairs, so the per-tap, per-chunk loop holds no reach or
//! border test. A register tile is two output rows (one under the
//! baseline, whose sixteen 128-bit registers a pair would overflow) ×
//! one [`CHUNK`]-column chunk; its accumulators stay in registers
//! across the whole tap list, each tap's weight is broadcast once for
//! both rows, and an odd last row is a tile of its own.
//!
//! [`tap_rows_body`] is the other direct stencil: `TAPS` rows of a
//! convolution's unfolded input gradient at once, each a sum over the
//! filters, added onto a fold plane (stage 1's ∂input, `conv.rs`).
//!
//! # Why no tile shape, lane width or ISA can change a bit
//!
//! Every output element owns one `f32` accumulator from `+0.0`. It
//! takes its terms in list order, each as a separate multiply and a
//! separate add — Rust never contracts `a += w * s` into a fused
//! multiply-add, and nothing here calls `mul_add` — and is then stored,
//! divided, or added onto its destination once. Lanes never interact
//! (no horizontal operation), rows of a tile never interact, and lanes
//! past the output's end are computed and dropped. So the result is the
//! per-element loop's, element for element, under every instantiation.
//! What would break it: `mul_add`, a second accumulator per element
//! (splitting the tap list), or a reduction across lanes.

/// Output columns of one accumulator chunk: two 512-bit registers.
pub const CHUNK: usize = 32;

/// A filter's source and taps (see [`super::stencil`]).
pub struct Stencil<'a> {
    /// The source plane: rows `pitch` apart, each padded so that a full
    /// chunk read from any tap of any output column stays in the row's
    /// padding (at least `⌈w / CHUNK⌉·CHUNK` plus the taps' reach).
    pub src: &'a [f32],
    /// Floats per source row.
    pub pitch: usize,
    /// The taps, in accumulation order: output `(y, x)` adds
    /// `weight · src[y·pitch + x + offset]` for each `(offset, weight)`.
    pub taps: &'a [(usize, f32)],
    /// Output columns per row.
    pub w: usize,
}

/// Zeros for a chunk read that would leave its source.
static ZEROS: [f32; CHUNK] = [0.0; CHUNK];

/// The `CHUNK` floats of `src` from `at`, or zeros where they would
/// leave it: a select between two addresses, no branch, so the
/// accumulators' update is unconditional and they stay in registers.
#[inline(always)]
fn chunk(src: &[f32], at: usize) -> &[f32; CHUNK] {
    src.get(at..)
        .and_then(<[f32]>::first_chunk::<CHUNK>)
        .unwrap_or(&ZEROS)
}

/// The first `len < CHUNK` floats of `src` from `at`, zero-padded —
/// the lanes past `len` are computed and never stored.
#[inline(always)]
fn partial(src: &[f32], at: usize, len: usize) -> [f32; CHUNK] {
    let mut padded = [0.0f32; CHUNK];
    let row = src.get(at..at + len).unwrap_or_default();
    for (slot, &v) in padded.iter_mut().zip(row) {
        *slot = v;
    }
    padded
}

/// Stores one accumulator chunk onto `out` (an output row from the
/// chunk's first column), divided elementwise by `divisors` (the same
/// columns of the divisor row) when given. A full chunk goes through
/// fixed-size arrays, so the divide is whole vectors; a partial last
/// chunk keeps its leading lanes.
#[inline(always)]
fn store(acc: [f32; CHUNK], out: &mut [f32], divisors: Option<&[f32]>) {
    let Some(divisors) = divisors else {
        match out.first_chunk_mut::<CHUNK>() {
            Some(out) => *out = acc,
            None => {
                for (o, a) in out.iter_mut().zip(acc) {
                    *o = a;
                }
            }
        }
        return;
    };
    if let (Some(out), Some(d)) = (
        out.first_chunk_mut::<CHUNK>(),
        divisors.first_chunk::<CHUNK>(),
    ) {
        for ((o, a), &d) in out.iter_mut().zip(acc).zip(d) {
            *o = a / d;
        }
        return;
    }
    for ((o, a), &d) in out.iter_mut().zip(acc).zip(divisors) {
        *o = a / d;
    }
}

/// `acc += wt · src`, lane by lane: one multiply and one add per lane.
#[inline(always)]
fn mul_add(acc: &mut [f32; CHUNK], wt: f32, src: &[f32; CHUNK]) {
    for (a, &v) in acc.iter_mut().zip(src) {
        *a += wt * v;
    }
}

/// Stores the accumulator chunk of output row `y` from column `x0`
/// (`row` is that output row).
#[inline(always)]
fn store_row(
    acc: [f32; CHUNK],
    row: &mut [f32],
    (y, x0): (usize, usize),
    s: &Stencil,
    divide: Option<&[f32]>,
) {
    let w = s.w;
    let divisors = divide.and_then(|d| d.get(y * w + x0..(y + 1) * w));
    store(acc, row.get_mut(x0..).unwrap_or_default(), divisors);
}

/// Output row `y` (`out`), one chunk at a time: an accumulator array
/// from `+0.0` meets every tap in list order, then is stored.
#[inline(always)]
fn row_tile(s: &Stencil, y: usize, out: &mut [f32], divide: Option<&[f32]>) {
    for x0 in (0..s.w).step_by(CHUNK) {
        let mut acc = [0.0f32; CHUNK];
        let base = y * s.pitch + x0;
        for &(offset, wt) in s.taps {
            mul_add(&mut acc, wt, chunk(s.src, base + offset));
        }
        store_row(acc, out, (y, x0), s, divide);
    }
}

/// Output rows `y` and `y + 1` (`top` and `bottom`) together: per
/// chunk, one accumulator array per row, both meeting every tap in list
/// order, so each tap's weight is loaded once for two rows.
#[inline(always)]
fn pair_tile(
    s: &Stencil,
    y: usize,
    (top, bottom): (&mut [f32], &mut [f32]),
    divide: Option<&[f32]>,
) {
    for x0 in (0..s.w).step_by(CHUNK) {
        let (mut acc0, mut acc1) = ([0.0f32; CHUNK], [0.0f32; CHUNK]);
        let base = y * s.pitch + x0;
        for &(offset, wt) in s.taps {
            mul_add(&mut acc0, wt, chunk(s.src, base + offset));
            mul_add(&mut acc1, wt, chunk(s.src, base + s.pitch + offset));
        }
        store_row(acc0, top, (y, x0), s, divide);
        store_row(acc1, bottom, (y + 1, x0), s, divide);
    }
}

/// The filter loop over a whole `h × w` output plane `dst` (row-major,
/// `h = dst.len() / w`), divided by `divide` (same layout) when given:
/// with `PAIRS`, two rows per register tile and the odd last row alone;
/// otherwise one row per tile.
#[inline(always)]
pub(super) fn stencil_body<const PAIRS: bool>(
    s: &Stencil,
    dst: &mut [f32],
    divide: Option<&[f32]>,
) {
    let w = s.w.max(1);
    let mut y = 0;
    if PAIRS {
        let mut pairs = dst.chunks_exact_mut(2 * w);
        for pair in pairs.by_ref() {
            pair_tile(s, y, pair.split_at_mut(w), divide);
            y += 2;
        }
        if let Some(last) = pairs.into_remainder().get_mut(..w) {
            row_tile(s, y, last, divide);
        }
        return;
    }
    for row in dst.chunks_exact_mut(w) {
        row_tile(s, y, row, divide);
        y += 1;
    }
}

/// A convolution's output gradient and the weights of a run of taps
/// (see [`super::conv_tap_rows`]).
pub(crate) struct TapRows<'a> {
    /// One sample's output gradient, `[F, OH, OW]`.
    pub g: &'a [f32],
    pub filters: usize,
    pub oh: usize,
    pub ow: usize,
    /// Filter `f`'s weights for the run start at `weight[f · weight_step]`,
    /// one per tap.
    pub weight: &'a [f32],
    pub weight_step: usize,
}

/// One tile of [`tap_rows_body`]: the `TAPS` rows of output row `oy`
/// from column `x0`, `len` columns wide, summed over the filters in
/// registers and added onto `plane`, taps in order. `PARTIAL` (a last
/// chunk narrower than `CHUNK`) reads the gradient zero-padded; a full
/// chunk reads it as fixed-size arrays.
#[inline(always)]
fn tap_tile<const TAPS: usize, const PARTIAL: bool>(
    rows: &TapRows,
    (oy, x0, len): (usize, usize, usize),
    plane: &mut [f32],
    pitch: usize,
    row0: usize,
) {
    let mut acc = [[0.0f32; CHUNK]; TAPS];
    let row = oy * rows.ow + x0;
    let g_rows = rows.g.chunks_exact((rows.oh * rows.ow).max(1));
    let w_rows = rows.weight.chunks(rows.weight_step.max(1));
    for (g, w) in g_rows.zip(w_rows).take(rows.filters) {
        let wt = w.first_chunk::<TAPS>().unwrap_or(&[0.0; TAPS]);
        let gv = if PARTIAL {
            partial(g, row, len)
        } else {
            *chunk(g, row)
        };
        for (acc, &wt) in acc.iter_mut().zip(wt) {
            for (a, &v) in acc.iter_mut().zip(&gv) {
                *a += wt * v;
            }
        }
    }
    for (t, acc) in acc.iter().enumerate() {
        let at = (oy + row0) * pitch + t + x0;
        let dst = plane.get_mut(at..at + len).unwrap_or_default();
        if let (false, Some(dst)) = (PARTIAL, dst.first_chunk_mut::<CHUNK>()) {
            // A fixed-size add: whole vectors.
            for (d, &a) in dst.iter_mut().zip(acc) {
                *d += a;
            }
            continue;
        }
        for (d, &a) in dst.iter_mut().zip(acc) {
            *d += a;
        }
    }
}

/// For every output row `oy` and tap `t < TAPS`, the unfolded gradient
/// row `Σ_f weight[f·weight_step + t] · g[f, oy, ·]` — ascending `f`, from `+0.0`
/// — added onto `plane` at `plane[(oy + row0)·pitch + t ..]`, one
/// [`tap_tile`] per output row and chunk of columns.
///
/// A plane pixel `x0 + j` of an output row meets tap `t` from column
/// `x0 + j − t`: from its own chunk for `t ≤ j`, from the chunk to the
/// left for the rest. The chunks are walked right to left, so every
/// pixel meets its taps in ascending order, as `col2im` adds them.
#[inline(always)]
pub(super) fn tap_rows_body<const TAPS: usize>(
    rows: &TapRows,
    plane: &mut [f32],
    pitch: usize,
    row0: usize,
) {
    let ow = rows.ow;
    for oy in 0..rows.oh {
        for x0 in (0..ow).step_by(CHUNK).rev() {
            let len = (ow - x0).min(CHUNK);
            if len == CHUNK {
                tap_tile::<TAPS, false>(rows, (oy, x0, len), plane, pitch, row0);
            } else {
                tap_tile::<TAPS, true>(rows, (oy, x0, len), plane, pitch, row0);
            }
        }
    }
}
