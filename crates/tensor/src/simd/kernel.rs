//! The register-tiled GEMM micro-kernel body — safe Rust, no indexing.
//!
//! [`block_body`] multiplies one cache block: `rows × kc` of `A` by
//! `kc × cols` of `B`, walking the block in register tiles whose
//! accumulators stay live across the whole `kc` panel (the old kernel
//! loaded and stored the output row once per `k`). The body is written
//! once and instantiated per instruction set by `super::gemm_block`;
//! the compiler vectorizes the fixed-size accumulator arrays with
//! whatever lanes the instantiation may use.
//!
//! # Why no tile shape, lane width or ISA can change a bit
//!
//! Every output element owns exactly one `f32` accumulator. It starts
//! at `0.0` on the first `k` panel (later panels reload the stored
//! partial sum — an exact round trip), takes `a·b` terms in ascending
//! `k` as a separate multiply and a separate add, and receives the bias
//! once, after the last term. That is the three-loop reference,
//! element for element. Vector lanes never interact (there is no
//! horizontal operation), padded edge lanes are computed and dropped,
//! and neither instantiation enables `fma`, so nothing can be
//! contracted or re-associated. What would break it: `mul_add`, a
//! second accumulator per element (splitting `k`), or a reduction
//! across lanes.

/// Register tile for wide column strips: `MR_WIDE × NR_WIDE`
/// accumulators (eight 256-bit or sixteen 128-bit registers).
const MR_WIDE: usize = 4;
const NR_WIDE: usize = 16;
/// Register tile for the columns left after the wide strips — and for
/// products that are narrow to begin with (a batch-1 `2 × 2` output
/// plane is a 4-column product), so they are not a scalar loop.
const MR_NARROW: usize = 8;
const NR_NARROW: usize = 4;

/// Where a product is stored, and whether a bias is fused into the
/// store.
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
}

impl<'a> Dest<'a> {
    /// A plain row-major `[rows, n]` destination, no bias.
    pub(crate) fn row_major(out: &'a mut [f32], n: usize) -> Self {
        Dest {
            out,
            seg: n.max(1),
            row_stride: n,
            seg_stride: 0,
            bias: None,
        }
    }

    /// `out` holds whole samples `[samples, F, plane]`; column
    /// `s · plane + p` of row `f` is sample `s`, pixel `p` of filter
    /// `f`, stored with `bias[f]` added.
    pub(crate) fn nchw(out: &'a mut [f32], filters: usize, plane: usize, bias: &'a [f32]) -> Self {
        Dest {
            out,
            seg: plane.max(1),
            row_stride: plane,
            seg_stride: filters * plane,
            bias: Some(bias),
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

/// One cache block of a blocked GEMM, positioned in its destination.
pub(crate) struct Block<'a> {
    /// `A` from `(first row, first k)` of the block; rows `lda` apart.
    pub a: &'a [f32],
    pub lda: usize,
    pub rows: usize,
    /// `B` from `(first k, first column)` of the block; rows `ldb` apart.
    pub b: &'a [f32],
    pub ldb: usize,
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

/// The micro-kernel: `acc[i][j] += Σₚ a[i][p] · b[p][j]`, `p`
/// ascending, one multiply and one add per term. `b` starts at the
/// tile's first column; its rows are `ldb` apart.
#[inline(always)]
fn tile<const MR: usize, const NR: usize>(
    a: [&[f32]; MR],
    b: &[f32],
    ldb: usize,
    acc: &mut [[f32; NR]; MR],
) {
    let mut a_rows = a.map(|row| row.iter());
    for b_row in b.chunks(ldb) {
        let b_vals = load::<NR>(b_row);
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows.iter_mut()) {
            let Some(&a_val) = a_row.next() else { return };
            for (c, &b_val) in acc_row.iter_mut().zip(&b_vals) {
                *c += a_val * b_val;
            }
        }
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
/// every row tile of the block.
#[inline(always)]
fn strip<const MR: usize, const NR: usize>(blk: &Block, j: usize, nr: usize, dest: &mut Dest) {
    let b_strip = blk.b.get(j..).unwrap_or_default();
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
        tile(a_rows, b_strip, blk.ldb, &mut acc);
        for (acc_row, r) in acc.iter_mut().take(mr).zip(row..) {
            if blk.last {
                if let Some(&bias) = dest.bias.and_then(|b| b.get(r)) {
                    for c in acc_row.iter_mut() {
                        *c += bias;
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

/// Multiplies one block: wide strips while `NR_WIDE` columns remain,
/// narrow strips (the last one zero-padded) for the rest.
#[inline(always)]
pub(super) fn block_body(blk: &Block, dest: &mut Dest) {
    let mut j = 0usize;
    while blk.cols - j >= NR_WIDE {
        strip::<MR_WIDE, NR_WIDE>(blk, j, NR_WIDE, dest);
        j += NR_WIDE;
    }
    while j < blk.cols {
        let nr = NR_NARROW.min(blk.cols - j);
        strip::<MR_NARROW, NR_NARROW>(blk, j, nr, dest);
        j += nr;
    }
}
