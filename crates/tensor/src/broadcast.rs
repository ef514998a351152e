//! NumPy-style broadcasting for binary elementwise operations.
//!
//! Two shapes are compatible when, aligned from the trailing dimension,
//! every pair of extents is equal or one of them is 1. The broadcast
//! result takes the larger extent in each position.

use crate::plan::alloc;
use crate::{Result, Shape, Tensor, TensorError};

/// Computes the broadcast shape of two operand shapes.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the shapes are not
/// broadcast-compatible.
#[expect(
    clippy::indexing_slicing,
    reason = "i runs below the longer operand's rank, and the shorter one is read past its padding"
)]
pub(crate) fn broadcast_shape(op: &'static str, lhs: &Shape, rhs: &Shape) -> Result<Shape> {
    let a = lhs.dims();
    let b = rhs.dims();
    let rank = a.len().max(b.len());
    let mut out = alloc::fresh_filled(rank, 0usize);
    for i in 0..rank {
        let da = if i < rank - a.len() {
            1
        } else {
            a[i - (rank - a.len())]
        };
        let db = if i < rank - b.len() {
            1
        } else {
            b[i - (rank - b.len())]
        };
        out[i] = if da == db || db == 1 {
            da
        } else if da == 1 {
            db
        } else {
            return Err(TensorError::shape_mismatch(op, a, b));
        };
    }
    Ok(Shape::new(out))
}

/// Applies `f` elementwise over the broadcast of `lhs` and `rhs`.
#[expect(
    clippy::indexing_slicing,
    reason = "stride-mapped elementwise loop, in bounds by shape compatibility"
)]
pub(crate) fn broadcast_zip(
    op: &'static str,
    lhs: &Tensor,
    rhs: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor> {
    // Fast path: identical shapes need no index arithmetic.
    if lhs.shape() == rhs.shape() {
        return lhs.zip_map(rhs, f);
    }
    let out_shape = broadcast_shape(op, lhs.shape(), rhs.shape())?;
    let rank = out_shape.rank();
    let out_dims = out_shape.dims();
    let lhs_strides = padded_broadcast_strides(lhs.shape(), rank);
    let rhs_strides = padded_broadcast_strides(rhs.shape(), rank);

    let numel = out_shape.numel();
    let mut data = alloc::fresh_with(numel);
    let mut index = alloc::fresh_filled(rank, 0usize);
    let la = lhs.as_slice();
    let lb = rhs.as_slice();
    for _ in 0..numel {
        let mut oa = 0usize;
        let mut ob = 0usize;
        for d in 0..rank {
            oa += index[d] * lhs_strides[d];
            ob += index[d] * rhs_strides[d];
        }
        data.push(f(la[oa], lb[ob]));
        // Increment the multi-dimensional counter (row-major order).
        for d in (0..rank).rev() {
            index[d] += 1;
            if index[d] < out_dims[d] {
                break;
            }
            index[d] = 0;
        }
    }
    Tensor::from_vec(data, out_shape)
}

/// Strides of `shape` padded with leading broadcast axes to `rank`
/// dimensions; broadcast axes (extent 1) get stride 0 so the same
/// element is reused along them.
#[expect(
    clippy::indexing_slicing,
    reason = "rank is the broadcast rank, at least the shape's own"
)]
fn padded_broadcast_strides(shape: &Shape, rank: usize) -> Vec<usize> {
    let dims = shape.dims();
    let strides = shape.strides();
    let pad = rank - dims.len();
    let mut out = alloc::fresh_filled(rank, 0usize);
    for i in 0..dims.len() {
        out[pad + i] = if dims[i] == 1 { 0 } else { strides[i] };
    }
    out
}

/// Reduces a broadcast gradient back to the original operand shape by
/// summing over the axes that were expanded.
///
/// This is the adjoint of broadcasting: if `y = broadcast(x)` then
/// `∂L/∂x = reduce_to_shape(∂L/∂y, shape(x))`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `grad`'s shape could not
/// have arisen from broadcasting `target`.
#[expect(
    clippy::indexing_slicing,
    reason = "stride-mapped reduction, in bounds by the shape compatibility checked at entry"
)]
pub fn reduce_to_shape(grad: &Tensor, target: &Shape) -> Result<Tensor> {
    if grad.shape() == target {
        return Ok(grad.duplicate());
    }
    // Validate compatibility.
    let combined = broadcast_shape("reduce_to_shape", grad.shape(), target)?;
    if &combined != grad.shape() {
        return Err(TensorError::shape_mismatch(
            "reduce_to_shape",
            grad.dims(),
            target.dims(),
        ));
    }
    let rank = grad.rank();
    let pad = rank - target.rank();
    let grad_dims = grad.dims();
    let target_strides = {
        let strides = target.strides();
        let mut out = alloc::fresh_filled(rank, 0usize);
        for i in 0..target.rank() {
            out[pad + i] = if target.dims()[i] == 1 { 0 } else { strides[i] };
        }
        out
    };
    let mut out = alloc::fresh_vec(target.numel());
    let mut index = alloc::fresh_filled(rank, 0usize);
    for &g in grad.as_slice() {
        let mut off = 0usize;
        for d in 0..rank {
            off += index[d] * target_strides[d];
        }
        out[off] += g;
        for d in (0..rank).rev() {
            index[d] += 1;
            if index[d] < grad_dims[d] {
                break;
            }
            index[d] = 0;
        }
    }
    Tensor::from_vec(out, target.duplicate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn broadcast_shapes() {
        let s = |v: &[usize]| Shape::new(v.to_vec());
        assert_eq!(
            broadcast_shape("t", &s(&[2, 3]), &s(&[3])).unwrap(),
            s(&[2, 3])
        );
        assert_eq!(
            broadcast_shape("t", &s(&[2, 1]), &s(&[1, 4])).unwrap(),
            s(&[2, 4])
        );
        assert_eq!(broadcast_shape("t", &s(&[]), &s(&[5])).unwrap(), s(&[5]));
        assert!(broadcast_shape("t", &s(&[2, 3]), &s(&[4])).is_err());
    }

    #[test]
    fn row_vector_broadcast() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3].into()).unwrap();
        let v = Tensor::from_vec(vec![10.0, 20.0, 30.0], [3].into()).unwrap();
        let out = broadcast_zip("add", &m, &v, |a, b| a + b).unwrap();
        assert_eq!(out.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn column_vector_broadcast() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2].into()).unwrap();
        let v = Tensor::from_vec(vec![10.0, 100.0], [2, 1].into()).unwrap();
        let out = broadcast_zip("mul", &m, &v, |a, b| a * b).unwrap();
        assert_eq!(out.as_slice(), &[10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    fn scalar_broadcast() {
        let m = Tensor::from_vec(vec![1.0, 2.0], [2].into()).unwrap();
        let s = Tensor::scalar(5.0);
        let out = broadcast_zip("add", &m, &s, |a, b| a + b).unwrap();
        assert_eq!(out.as_slice(), &[6.0, 7.0]);
    }

    #[test]
    fn reduce_to_shape_sums_expanded_axes() {
        let g = Tensor::ones(&[2, 3]);
        let reduced = reduce_to_shape(&g, &Shape::new(vec![3])).unwrap();
        assert_eq!(reduced.as_slice(), &[2.0, 2.0, 2.0]);
        let reduced = reduce_to_shape(&g, &Shape::new(vec![2, 1])).unwrap();
        assert_eq!(reduced.as_slice(), &[3.0, 3.0]);
        let reduced = reduce_to_shape(&g, &Shape::scalar()).unwrap();
        assert_eq!(reduced.as_slice(), &[6.0]);
    }

    #[test]
    fn reduce_to_shape_rejects_incompatible() {
        let g = Tensor::ones(&[2, 3]);
        assert!(reduce_to_shape(&g, &Shape::new(vec![4])).is_err());
    }

    proptest! {
        /// Broadcasting against a same-shape tensor equals plain zip_map.
        #[test]
        fn same_shape_matches_zip(
            a in proptest::collection::vec(-5.0f32..5.0, 6),
            b in proptest::collection::vec(-5.0f32..5.0, 6),
        ) {
            let ta = Tensor::from_vec(a, [2, 3].into()).unwrap();
            let tb = Tensor::from_vec(b, [2, 3].into()).unwrap();
            let via_broadcast = broadcast_zip("add", &ta, &tb, |x, y| x + y).unwrap();
            let via_zip = ta.zip_map(&tb, |x, y| x + y).unwrap();
            prop_assert_eq!(via_broadcast, via_zip);
        }

        /// Sum is preserved by reduce_to_shape (it only reorganizes mass).
        #[test]
        fn reduce_preserves_sum(
            g in proptest::collection::vec(-5.0f32..5.0, 12),
        ) {
            let grad = Tensor::from_vec(g.clone(), [3, 4].into()).unwrap();
            let total: f32 = g.iter().sum();
            for target in [Shape::new(vec![4]), Shape::new(vec![3, 1]), Shape::scalar()] {
                let reduced = reduce_to_shape(&grad, &target).unwrap();
                let rsum: f32 = reduced.as_slice().iter().sum();
                prop_assert!((rsum - total).abs() < 1e-3);
            }
        }
    }
}
