//! The 2×2 / stride-2 max-pool's row, with its argmax or values only —
//! safe Rust, no indexing, instantiated per instruction set by `super`
//! like the GEMM micro-kernel. The window scan is selects on the value
//! and (with the argmax) on a
//! 32-bit offset, so every instantiation vectorizes it across the
//! windows of a row (eight or sixteen at a time under AVX2 and
//! AVX-512F instead of two); a compare and a select cannot round, so
//! all of them agree bit for bit.

/// The maximum of one 2×2 window and its offset from the window's
/// first element in a `w`-wide plane, scanning `(0,0), (0,1), (1,0),
/// (1,1)` with a strict `>`: the first maximum wins and a leading NaN
/// is never displaced (not `f32::max`). Selects, no branch.
#[inline(always)]
fn window_max([a0, a1]: [f32; 2], [b0, b1]: [f32; 2], w: u32) -> (f32, u32) {
    let (mut best, mut offset) = (a0, 0);
    for (candidate, at) in [(a1, 1), (b0, w), (b1, w + 1)] {
        let take = candidate > best;
        best = if take { candidate } else { best };
        offset = if take { at } else { offset };
    }
    (best, offset)
}

/// One output row of values only: `top` and `bottom` are the two input
/// rows, window `ox` stores its maximum to `out[ox]` — [`window_max`]'s
/// value, whose offset selects the compiler drops as dead.
#[inline(always)]
pub(super) fn values_row_body((top, bottom): (&[f32], &[f32]), out: &mut [f32]) {
    let windows = top.as_chunks::<2>().0.iter().zip(bottom.as_chunks::<2>().0);
    for (o, (&a, &b)) in out.iter_mut().zip(windows) {
        *o = window_max(a, b, 0).0;
    }
}

/// One output row: `top` and `bottom` are the two input rows of a
/// `w`-wide plane (`w < u32::MAX`), `first` the flat index of `top`'s
/// first element. Window `ox` stores its maximum to `out[ox]` and the
/// winner's flat index to `argmax[ox]`.
#[inline(always)]
pub(super) fn argmax_row_body(
    (top, bottom): (&[f32], &[f32]),
    out: &mut [f32],
    argmax: &mut [usize],
    first: usize,
    w: u32,
) {
    let windows = top.as_chunks::<2>().0.iter().zip(bottom.as_chunks::<2>().0);
    let cells = out.iter_mut().zip(argmax).zip(windows);
    for (ox, ((o, slot), (&a, &b))) in cells.enumerate() {
        let (best, offset) = window_max(a, b, w);
        *o = best;
        *slot = first + 2 * ox + offset as usize;
    }
}
