//! The register-tiled GEMM micro-kernel body — safe Rust, no indexing.
//!
//! [`block_body`] multiplies one cache block: `rows × kc` of `A` by
//! `kc × cols` of `B`, walking the block in register tiles whose
//! accumulators stay live across the whole `kc` panel (the old kernel
//! loaded and stored the output row once per `k`). `B` is a row-major
//! matrix, or a stride-1 convolution's taps read where they lie in its
//! zero-bordered planes ([`Planes`]): the same values, loaded from
//! another place, so no bit depends on which. [`sample_sum_body`]
//! walks the same tiles over a sum of per-sample products, keeping the
//! running sums in registers across the samples. Each body is written
//! once and instantiated per instruction set by `super`; the compiler
//! vectorizes the fixed-size accumulator arrays with whatever lanes the
//! instantiation may use.
//!
//! # Why no tile shape, lane width or ISA can change a bit
//!
//! Every output element owns exactly one `f32` accumulator. It starts
//! at `0.0` on the first `k` panel (later panels reload the stored
//! partial sum — an exact round trip), takes `a·b` terms in ascending
//! `k` as a separate multiply and a separate add, and receives the bias
//! once, after the last term (then, for a fused ReLU, `max(0.0)`).
//! That is the three-loop reference, element for element. Vector lanes
//! never interact (there is no horizontal operation) and padded edge
//! lanes are computed and dropped. The AVX-512F instantiation does
//! enable LLVM's `fma` feature (`avx512f` implies it), but Rust never
//! contracts `c += a * b` into a fused multiply-add — only an explicit
//! `mul_add` would, and the body has none — so every term is still one
//! rounded multiply and one rounded add. What would break it:
//! `mul_add`, a second accumulator per element (splitting `k`), or a
//! reduction across lanes.

/// Register tile for wide column strips under the baseline and AVX2
/// instantiations: `MR_WIDE × NR_WIDE` accumulators, eight of AVX2's
/// sixteen 256-bit registers or all sixteen of SSE2's 128-bit ones. It
/// also takes the sixteen to thirty-one columns the AVX-512F tile
/// leaves over.
pub(super) const MR_WIDE: usize = 4;
pub(super) const NR_WIDE: usize = 16;
/// Register tile for wide column strips under AVX-512F: sixteen of its
/// thirty-two 512-bit registers hold accumulators, two the `B` row and
/// one the broadcast `A` value, so each `A` value meets twice the
/// columns and each `B` row twice the rows per load.
pub(super) const MR_WIDE_512: usize = 8;
pub(crate) const NR_WIDE_512: usize = 32;
/// Register tile for eight or more columns left after the wide strips
/// — and for products that are eight to fifteen columns wide to begin
/// with (∂weight of a layer with eight filters).
const MR_MID: usize = 8;
const NR_MID: usize = 8;
/// Register tile for the columns left after that — and for products
/// that are narrow to begin with (a batch-1 `2 × 2` output plane is a
/// 4-column product), so they are not a scalar loop.
const MR_NARROW: usize = 8;
const NR_NARROW: usize = 4;

/// Where a product is stored, and whether a bias and a ReLU are fused
/// into the store.
///
/// Columns are grouped into segments of `seg` columns; element
/// `(row, col)` lives at
/// `(col / seg) · seg_stride + row · row_stride + col % seg`.
/// A row-major `[rows, n]` matrix is one segment of `n` columns; the
/// NCHW output of a batch-fused convolution is one segment per sample
/// (`seg = OH·OW`, `row_stride = OH·OW`, `seg_stride = F·OH·OW`).
pub(crate) struct Dest<'a> {
    out: &'a mut [f32],
    seg: usize,
    row_stride: usize,
    seg_stride: usize,
    bias: Option<&'a [f32]>,
    /// `x.max(0.0)` after the bias, as `Tensor::relu` (a sum from `+0.0`
    /// is never `-0.0`, so `max`'s freedom on signed zeros cannot show).
    relu: bool,
}

impl<'a> Dest<'a> {
    /// A plain row-major `[rows, n]` destination whose rows are `ld ≥ n`
    /// floats apart, no bias.
    pub(crate) fn row_major(out: &'a mut [f32], n: usize, ld: usize) -> Self {
        Dest {
            out,
            seg: n.max(1),
            row_stride: ld,
            seg_stride: 0,
            bias: None,
            relu: false,
        }
    }

    /// `out` holds whole samples `[samples, F, plane]`; column
    /// `s · plane + p` of row `f` is sample `s`, pixel `p` of filter
    /// `f`, stored with `bias[f]` added and, when `relu` is set,
    /// clamped at zero.
    pub(crate) fn nchw(
        out: &'a mut [f32],
        filters: usize,
        plane: usize,
        bias: &'a [f32],
        relu: bool,
    ) -> Self {
        Dest {
            out,
            seg: plane.max(1),
            row_stride: plane,
            seg_stride: filters * plane,
            bias: Some(bias),
            relu,
        }
    }

    /// Splits a column into `(segment, offset within it)`.
    #[inline(always)]
    fn locate(&self, col: usize) -> (usize, usize) {
        (col / self.seg, col % self.seg)
    }

    /// The stored run of `row` from `offset` in `segment`: at most
    /// `want` long, cut at the end of the segment.
    #[inline(always)]
    fn run(&mut self, row: usize, segment: usize, offset: usize, want: usize) -> &mut [f32] {
        let len = want.min(self.seg - offset);
        let start = segment * self.seg_stride + row * self.row_stride + offset;
        self.out.get_mut(start..start + len).unwrap_or_default()
    }
}

/// The `B` operand of a stride-1 convolution's forward product, read
/// where it lies instead of unfolded into a column matrix. Row `p` is
/// the tap `p = (c, kh, kw)` and column `col` is output pixel `col` of
/// the samples laid side by side, so element `(p, col)` is
/// `data[base(col) + offset(p)]`, where
/// - `base(col) = s·sample + oy·pw + ox` for sample `s = col / ohw`
///   and its output pixel `(oy, ox)`, and
/// - `offset(p) = c·plane + kh·pw + kw` —
///
/// the unfolded matrix's element, value for value.
///
/// A strip reads each tap as `piece`-float runs (8, 16 or 32), one run
/// per `piece` columns, and a run may not cross an output row: either
/// `ow` is a multiple of `piece`, or every block lies in one output row
/// and `piece` is 32. `data` runs on for at least [`NR_WIDE_512`]
/// floats past the last sample's planes, which reach only lanes past a
/// block's last column (computed and dropped).
pub(crate) struct Planes<'a> {
    /// Each sample's zero-bordered planes, back to back.
    pub data: &'a [f32],
    /// Floats per sample (`C` planes).
    pub sample: usize,
    /// Floats per plane.
    pub plane: usize,
    /// Floats per plane row.
    pub pw: usize,
    /// Output row width and output pixels per sample.
    pub ow: usize,
    pub ohw: usize,
    /// `(KH, KW)`.
    pub kernel: (usize, usize),
    pub piece: usize,
}

/// Where a block's `B` rows come from.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// A row-major matrix from `(first k, first column)` of the block;
    /// rows `ld` apart.
    Matrix { b: &'a [f32], ld: usize },
    /// Convolution taps from tap `k0` on ([`Planes`]); block column
    /// `j` is product column `col0 + j`.
    Planes { planes: &'a Planes<'a>, k0: usize },
}

/// One cache block of a blocked GEMM, positioned in its destination.
pub(crate) struct Block<'a> {
    /// `A` from `(first row, first k)` of the block; rows `lda` apart.
    pub a: &'a [f32],
    pub lda: usize,
    pub rows: usize,
    /// `B` from the block's first `k` and column.
    pub b: Rows<'a>,
    /// Depth of this `k` panel.
    pub kc: usize,
    pub cols: usize,
    /// First `k` panel: accumulators start at `0.0`. Otherwise they
    /// resume from the partial sums already in the destination.
    pub first: bool,
    /// Last `k` panel: the destination's bias is added before the store.
    pub last: bool,
    /// Position of the block's first element in the destination.
    pub row0: usize,
    pub col0: usize,
}

/// `NR` values of one `B` row; short rows (the right edge of the
/// matrix) are zero-padded — those lanes are computed and never stored.
#[inline(always)]
fn load<const NR: usize>(row: &[f32]) -> [f32; NR] {
    match row.first_chunk::<NR>() {
        Some(full) => *full,
        None => {
            let mut padded = [0.0f32; NR];
            for (slot, &v) in padded.iter_mut().zip(row) {
                *slot = v;
            }
            padded
        }
    }
}

/// The FMA step of the micro-kernel: `acc[i][j] += a[i][p] · b[j]`
/// for the next `p` of each row of `a`, one multiply and one add per
/// term; each row of `a` is advanced past its `p`. `false` once `a` is
/// used up.
///
/// The rows are the tile's own `[&[f32]; MR]`, not an array of slice
/// iterators built with `[T; N]::map`: `map` is a library function that
/// LLVM may leave out of line depending on how the crate is cut into
/// codegen units, and then every tile called it and kept its cursors on
/// the stack (the plane-reading forward ran 15 % slower in such a
/// build).
#[inline(always)]
fn step<const MR: usize, const NR: usize>(
    a_rows: &mut [&[f32]; MR],
    b_vals: &[f32; NR],
    acc: &mut [[f32; NR]; MR],
) -> bool {
    for (acc_row, a_row) in acc.iter_mut().zip(a_rows.iter_mut()) {
        let Some((&a_val, rest)) = a_row.split_first() else {
            return false;
        };
        *a_row = rest;
        for (c, &b_val) in acc_row.iter_mut().zip(b_vals) {
            *c += a_val * b_val;
        }
    }
    true
}

/// One strip's `B` operand, which a row tile multiplies in: the
/// micro-kernel `acc[i][j] += Σₚ a[i][p] · b[p][j]`, `p` ascending
/// ([`step`] per `p`). The accumulators go in and come back by value:
/// a local array whose address never escapes stays in registers across
/// the panel, where one the caller slices would be stored every `p`.
trait StripB<const NR: usize> {
    fn tile<const MR: usize>(&self, a: [&[f32]; MR], acc: [[f32; NR]; MR]) -> [[f32; NR]; MR];
}

/// A row-major `B` from the strip's first column; rows `ld` apart.
struct MatrixB<'a> {
    b: &'a [f32],
    ld: usize,
}

impl<const NR: usize> StripB<NR> for MatrixB<'_> {
    #[inline(always)]
    fn tile<const MR: usize>(&self, a: [&[f32]; MR], acc: [[f32; NR]; MR]) -> [[f32; NR]; MR] {
        let (mut a, mut acc) = (a, acc);
        for b_row in self.b.chunks(self.ld) {
            if !step(&mut a, &load::<NR>(b_row), &mut acc) {
                break;
            }
        }
        acc
    }
}

/// Most runs one strip reads per tap: the widest strip in the
/// narrowest pieces.
const MAX_RUNS: usize = NR_WIDE_512 / 8;

/// One strip's `B` out of [`Planes`]: per tap, `NR / P` runs of `P`
/// floats, run `g` from the base of the strip's column `g·P`.
struct PlanesB<'a, const P: usize> {
    runs: [&'a [f32]; MAX_RUNS],
    taps: TapWalk,
}

impl<'a, const P: usize> PlanesB<'a, P> {
    /// Taps `k0 .. k0 + kc` for the `NR`-column strip from product
    /// column `col`.
    #[inline(always)]
    fn new<const NR: usize>(planes: &'a Planes, k0: usize, kc: usize, col: usize) -> Self {
        let mut runs: [&[f32]; MAX_RUNS] = [&[]; MAX_RUNS];
        for (g, run) in runs.iter_mut().enumerate().take(NR / P) {
            let col = col + g * P;
            let (s, pixel) = (col / planes.ohw, col % planes.ohw);
            let base = s * planes.sample + pixel / planes.ow * planes.pw + pixel % planes.ow;
            *run = planes.data.get(base..).unwrap_or_default();
        }
        PlanesB {
            runs,
            taps: TapWalk::new(planes, k0, kc),
        }
    }
}

impl<const NR: usize, const P: usize> StripB<NR> for PlanesB<'_, P> {
    /// Per tap row, each run's window is cut once; the row's taps are
    /// then `P`-float loads at `kw` inside it, with no test of their own.
    #[inline(always)]
    fn tile<const MR: usize>(&self, a: [&[f32]; MR], acc: [[f32; NR]; MR]) -> [[f32; NR]; MR] {
        let (mut a, mut acc) = (a, acc);
        for (offset, width) in self.taps {
            let mut windows: [&[f32]; MAX_RUNS] = [&[]; MAX_RUNS];
            for (window, run) in windows.iter_mut().zip(&self.runs).take(NR / P) {
                let Some(cut) = run.get(offset..offset + width + P - 1) else {
                    return acc;
                };
                *window = cut;
            }
            for kw in 0..width {
                let mut b_vals = [0.0f32; NR];
                for (lanes, window) in b_vals.chunks_exact_mut(P).zip(&windows) {
                    let taps = window.get(kw..).and_then(<[f32]>::first_chunk::<P>);
                    if let (Ok(lanes), Some(taps)) = (<&mut [f32; P]>::try_from(lanes), taps) {
                        *lanes = *taps;
                    }
                }
                if !step(&mut a, &b_vals, &mut acc) {
                    return acc;
                }
            }
        }
        acc
    }
}

/// The tap rows of a panel's taps `k0 .. k0 + kc`, in order: for each
/// `(c, kh)` it touches, the offset `c·plane + kh·pw + kw` of its first
/// tap in the panel and how many of its taps follow in the panel.
#[derive(Clone, Copy)]
struct TapWalk {
    left: usize,
    offset: usize,
    kh: usize,
    kw: usize,
    kernel: (usize, usize),
    /// Offset steps from a row's end to the next row's first tap, and
    /// from a channel's last row to the next channel's first.
    next_row: usize,
    next_channel: usize,
}

impl TapWalk {
    #[inline(always)]
    fn new(planes: &Planes, k0: usize, kc: usize) -> Self {
        let (kernel_h, kernel_w) = planes.kernel;
        let (c, tap) = (k0 / (kernel_h * kernel_w), k0 % (kernel_h * kernel_w));
        let (kh, kw) = (tap / kernel_w, tap % kernel_w);
        TapWalk {
            left: kc,
            offset: c * planes.plane + kh * planes.pw + kw,
            kh,
            kw,
            kernel: planes.kernel,
            next_row: planes.pw - kernel_w,
            next_channel: planes.plane - kernel_h * planes.pw,
        }
    }
}

impl Iterator for TapWalk {
    type Item = (usize, usize);

    #[inline(always)]
    fn next(&mut self) -> Option<(usize, usize)> {
        let (kernel_h, kernel_w) = self.kernel;
        let width = (kernel_w - self.kw).min(self.left);
        if width == 0 {
            return None;
        }
        let row = (self.offset, width);
        self.left -= width;
        self.offset += width;
        self.kw += width;
        if self.kw == kernel_w {
            self.kw = 0;
            self.kh += 1;
            self.offset += self.next_row;
            if self.kh == kernel_h {
                self.kh = 0;
                self.offset += self.next_channel;
            }
        }
        Some(row)
    }
}

/// Calls `each(stored, lanes)` for every stored run covering the first
/// `nr` lanes of `acc_row` (one run per destination segment touched),
/// starting at `at = (segment, offset)`.
#[inline(always)]
fn for_each_run<const NR: usize>(
    dest: &mut Dest,
    row: usize,
    at: (usize, usize),
    acc_row: &mut [f32; NR],
    nr: usize,
    mut each: impl FnMut(&mut [f32], &mut [f32]),
) {
    let (mut segment, mut offset) = at;
    let mut lanes = acc_row.get_mut(..nr).unwrap_or_default();
    while !lanes.is_empty() {
        let stored = dest.run(row, segment, offset, lanes.len());
        if stored.is_empty() {
            return;
        }
        let (head, tail) = lanes.split_at_mut(stored.len());
        each(stored, head);
        // A run stops short of `lanes` only at the end of its segment.
        (segment, offset) = (segment + 1, 0);
        lanes = tail;
    }
}

/// One column strip (`nr ≤ NR` columns from block column `j`) against
/// every row tile of the block, its `B` rows read from wherever the
/// block's come from — out of [`Planes`] in the widest runs its piece
/// allows.
#[inline(always)]
fn strip<const MR: usize, const NR: usize>(blk: &Block, j: usize, nr: usize, dest: &mut Dest) {
    match blk.b {
        Rows::Matrix { b, ld } => {
            let b = MatrixB {
                b: b.get(j..).unwrap_or_default(),
                ld,
            };
            strip_with::<MR, NR>(blk, j, nr, dest, &b);
        }
        Rows::Planes { planes, k0 } => {
            let col = blk.col0 + j;
            match planes.piece {
                piece if piece >= NR => {
                    let b = PlanesB::<NR>::new::<NR>(planes, k0, blk.kc, col);
                    strip_with::<MR, NR>(blk, j, nr, dest, &b);
                }
                16 => {
                    let b = PlanesB::<16>::new::<NR>(planes, k0, blk.kc, col);
                    strip_with::<MR, NR>(blk, j, nr, dest, &b);
                }
                _ => {
                    let b = PlanesB::<8>::new::<NR>(planes, k0, blk.kc, col);
                    strip_with::<MR, NR>(blk, j, nr, dest, &b);
                }
            }
        }
    }
}

/// [`strip`] with its `B` operand `b`.
#[inline(always)]
fn strip_with<const MR: usize, const NR: usize>(
    blk: &Block,
    j: usize,
    nr: usize,
    dest: &mut Dest,
    b: &impl StripB<NR>,
) {
    let Some(first_row) = blk.a.get(..blk.kc) else {
        return;
    };
    let at = dest.locate(blk.col0 + j);
    let mut row = blk.row0;
    let mut rows_left = blk.rows;
    for a_tile in blk.a.chunks(MR * blk.lda) {
        let mr = MR.min(rows_left);
        // Rows past the bottom edge alias the block's first row: their
        // accumulators are computed and never stored.
        let mut a_rows = [first_row; MR];
        for (slot, a_row) in a_rows.iter_mut().zip(a_tile.chunks(blk.lda)) {
            if let Some(panel) = a_row.get(..blk.kc) {
                *slot = panel;
            }
        }
        let mut acc = [[0.0f32; NR]; MR];
        if !blk.first {
            for (acc_row, r) in acc.iter_mut().take(mr).zip(row..) {
                for_each_run(dest, r, at, acc_row, nr, |stored, lanes| {
                    lanes.copy_from_slice(stored);
                });
            }
        }
        acc = b.tile(a_rows, acc);
        for (acc_row, r) in acc.iter_mut().take(mr).zip(row..) {
            if blk.last {
                if let Some(&bias) = dest.bias.and_then(|b| b.get(r)) {
                    for c in acc_row.iter_mut() {
                        *c += bias;
                    }
                }
                if dest.relu {
                    for c in acc_row.iter_mut() {
                        *c = c.max(0.0);
                    }
                }
            }
            for_each_run(dest, r, at, acc_row, nr, |stored, lanes| {
                stored.copy_from_slice(lanes);
            });
        }
        row += mr;
        rows_left -= mr;
    }
}

/// Multiplies one block: `MR × NR` strips while `NR` columns remain —
/// `MR_WIDE × NR` ones for a block of at most `MR_WIDE` rows, so a
/// 4-row product (a swapped batch-1 stage 5, a batch-1 head) does not
/// run half of AVX-512F's 8-row tile on dropped rows —
/// then at most one `MR_WIDE × NR_WIDE` strip (when `NR` is wider),
/// then narrower strips (the last one zero-padded) for the rest. Each
/// instantiation picks its own wide tile; which elements advance
/// together cannot change a bit (module docs).
#[inline(always)]
pub(super) fn block_body<const MR: usize, const NR: usize>(blk: &Block, dest: &mut Dest) {
    let mut j = 0usize;
    while blk.cols - j >= NR {
        if blk.rows <= MR_WIDE {
            strip::<MR_WIDE, NR>(blk, j, NR, dest);
        } else {
            strip::<MR, NR>(blk, j, NR, dest);
        }
        j += NR;
    }
    if blk.cols - j >= NR_WIDE {
        strip::<MR_WIDE, NR_WIDE>(blk, j, NR_WIDE, dest);
        j += NR_WIDE;
    }
    if blk.cols - j >= NR_MID {
        strip::<MR_MID, NR_MID>(blk, j, NR_MID, dest);
        j += NR_MID;
    }
    while j < blk.cols {
        let nr = NR_NARROW.min(blk.cols - j);
        strip::<MR_NARROW, NR_NARROW>(blk, j, nr, dest);
        j += nr;
    }
}

/// A sum of per-sample products `Σₛ Aₛ · Bₛ`, added onto a running
/// row-major `[rows, cols]` sum. Sample `s`'s `Aₛ` (`rows × k`, rows
/// `lda` apart) starts at `a[s · a_step]` and its `Bₛ` (`k × cols`,
/// rows `ldb` apart) at `b[s · b_step]`.
pub(crate) struct Samples<'a> {
    pub a: &'a [f32],
    pub a_step: usize,
    pub lda: usize,
    pub rows: usize,
    pub b: &'a [f32],
    pub b_step: usize,
    pub ldb: usize,
    pub k: usize,
    pub cols: usize,
    pub count: usize,
}

/// [`Samples`] onto `sum`, one register tile at a time: the tile's
/// running sums are loaded once, and each sample's product is one fresh
/// accumulator per element — from `0.0`, `p` ascending, a separate
/// multiply and add per term, over the whole `k` (no panel split) —
/// added onto them in sample order, `((sum + acc₀) + acc₁) + …`. That is
/// term for term a product per sample into a scratch matrix and then
/// `sum += product`, without the scratch matrix's store and reload.
/// The strips are [`block_body`]'s. (No closure here or there: a
/// closure's body is its own function, compiled without the caller's
/// target features.)
#[inline(always)]
pub(super) fn sample_sum_body(s: &Samples, sum: &mut [f32]) {
    let mut j = 0usize;
    while s.cols - j >= NR_WIDE {
        sample_strip::<MR_WIDE, NR_WIDE>(s, j, NR_WIDE, sum);
        j += NR_WIDE;
    }
    if s.cols - j >= NR_MID {
        sample_strip::<MR_MID, NR_MID>(s, j, NR_MID, sum);
        j += NR_MID;
    }
    while j < s.cols {
        let nr = NR_NARROW.min(s.cols - j);
        sample_strip::<MR_NARROW, NR_NARROW>(s, j, nr, sum);
        j += nr;
    }
}

/// One column strip of [`sample_sum_body`] against every row tile.
#[inline(always)]
fn sample_strip<const MR: usize, const NR: usize>(
    s: &Samples,
    j: usize,
    nr: usize,
    sum: &mut [f32],
) {
    let mut row = 0usize;
    while row < s.rows {
        let mr = MR.min(s.rows - row);
        let mut total = [[0.0f32; NR]; MR];
        let sum_rows = sum.chunks_mut(s.cols.max(1)).skip(row);
        for (lanes, stored) in total.iter_mut().zip(sum_rows).take(mr) {
            for (t, &v) in lanes
                .iter_mut()
                .zip(stored.get(j..j + nr).unwrap_or_default())
            {
                *t = v;
            }
        }
        for sample in 0..s.count {
            let a = s.a.get(sample * s.a_step..).unwrap_or_default();
            let Some(first_row) = a.get(row * s.lda..).and_then(|r| r.get(..s.k)) else {
                return;
            };
            // Rows past the bottom edge alias the tile's first row: their
            // sums are computed and never stored.
            let mut a_rows = [first_row; MR];
            for (i, slot) in a_rows.iter_mut().enumerate().take(mr) {
                if let Some(a_row) = a.get((row + i) * s.lda..).and_then(|r| r.get(..s.k)) {
                    *slot = a_row;
                }
            }
            let b = MatrixB {
                b: s.b.get(sample * s.b_step + j..).unwrap_or_default(),
                ld: s.ldb,
            };
            let acc = b.tile(a_rows, [[0.0f32; NR]; MR]);
            for (t_row, acc_row) in total.iter_mut().zip(&acc) {
                for (t, &a) in t_row.iter_mut().zip(acc_row) {
                    *t += a;
                }
            }
        }
        let sum_rows = sum.chunks_mut(s.cols.max(1)).skip(row);
        for (lanes, stored) in total.iter().zip(sum_rows).take(mr) {
            let stored = stored.get_mut(j..j + nr).unwrap_or_default();
            stored.copy_from_slice(lanes.get(..stored.len()).unwrap_or_default());
        }
        row += mr;
    }
}
