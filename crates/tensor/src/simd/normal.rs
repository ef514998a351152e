//! Box–Muller on lanes — safe Rust, no indexing.
//!
//! [`box_muller_body`] turns a chunk of uniform pairs `(u1, u2)` into
//! standard normals, `sqrt(-2·ln u1) · cos(2π·u2)` rounded to `f32`,
//! eight `f64` lanes at a time. `ln` and `cos` are fdlibm's algorithms
//! (`e_log.c`; FreeBSD's `k_cos.c` and `k_sin.c` behind a two-part
//! π/2 reduction), written branch-free: every lane evaluates every
//! case and keeps its own by a select, ranges are reduced with bit
//! operations, and the arithmetic is `+ − × ÷ sqrt` only, never a
//! fused multiply-add — so the body is bit-identical under every
//! instantiation `super` compiles it for.
//!
//! # Why the result is libm's, bit for bit
//!
//! The reference is `TensorRng::normal_scalar`: the same expression
//! through the platform's `f64::ln` and `f64::cos`. A lane's fast value
//! `v′` differs from the reference's `f64` value `v` by at most
//! `E = (|v′| + s′)·2⁻⁴⁹`, where `s′ = sqrt(-2·ln′ u1)`:
//!
//! - fdlibm's `log` is within 1 ulp of `ln u1`, and the libm's `ln` is
//!   documented within 1 ulp too, so the two `ln`s are within
//!   `2⁻⁵¹·|ln u1|` of each other. `-2·` is exact; the square root
//!   halves that relative gap and adds two roundings: `s′` and `s` are
//!   within `2⁻⁵⁰·⁹·s`.
//! - `2π·u2` is one rounded product, the same in both. The reduction
//!   splits π/2 as a 33-bit head (its multiples and the first
//!   subtraction are exact) and a tail; what is left of π/2, the
//!   rounding of the tail's product and the head/tail split of the
//!   result stay under `2⁻⁸²` absolute over the four quadrants `2π·u2`
//!   spans. The kernels are within 1 ulp of `cos` of the reduced
//!   argument, and the libm's `cos` within 1 ulp of `cos`: the two
//!   cosines are within `2⁻⁵¹·|c| + 2⁻⁸²`.
//! - The product rounds once in each: `|v′ − v| ≤ 1.3·2⁻⁵⁰·|v| +
//!   2⁻⁸²·s`, which `E` covers three times over in its relative part
//!   (since `s ≥ |v|`) and by 2³³ in its absolute one.
//!
//! A lane keeps `v′` only when `v′ − E` and `v′ + E` round to the same
//! `f32`. Rounding is monotone, so `v` — inside that interval — rounds
//! to it as well. Any other lane (an `f32` rounding boundary within
//! `E`, or `cos` within about `2⁻²⁵` of a zero) is reported, and the
//! caller recomputes it through the libm expression. The argument
//! rests on two documented bounds, fdlibm's and the libm's, not on a
//! proof carried here; the tests measure both gaps against this
//! platform's libm, and compare every lane with the reference.

/// Pairs per call: the caller's stack arrays.
pub(crate) const CHUNK: usize = 256;

/// Lanes evaluated together: one 512-bit register of `f64`.
const LANES: usize = 8;

/// Relative and absolute scale of the guard band, `2⁻⁴⁹`.
const GUARD: f64 = 1.0 / (1u64 << 49) as f64;

// fdlibm `e_log.c`: ln 2 in two parts, and the coefficients of
// `R(z) ≈ (ln((1+s)/(1-s)) - 2s)/s` in `z = s²`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

// FreeBSD `k_cos.c` and `k_sin.c`: minimax coefficients on [-π/4, π/4].
const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);

// fdlibm `e_rem_pio2.c`: 2/π, and π/2 as a 33-bit head and its tail.
const INVPIO2: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
const PIO2_1T: f64 = f64::from_bits(0x3dd0_b461_1a62_6331);

/// `2⁵² + 2⁵¹`: adding it to a value below 2⁵¹ in magnitude rounds the
/// value to an integer and leaves that integer in the low mantissa
/// bits; subtracting it again gives the integer as an `f64`.
const TOINT: f64 = f64::from_bits(0x4338_0000_0000_0000);

/// `2⁵²`, whose low mantissa bits hold a small non-negative integer
/// exactly: `from_bits(TWO52.to_bits() | k) - TWO52 == k as f64`.
const TWO52: f64 = f64::from_bits(0x4330_0000_0000_0000);

/// Eight `f64` lanes. Every operation is a loop over the array, which
/// the compiler turns into the instantiation's vector instructions.
#[derive(Clone, Copy)]
struct Lanes([f64; LANES]);

/// Eight `u64` lanes: the bit patterns of [`Lanes`], and lane masks
/// (all ones or all zeros).
#[derive(Clone, Copy)]
struct Bits([u64; LANES]);

/// `Lanes ∘ Lanes`, `Lanes ∘ f64` and `f64 ∘ Lanes` for each operator,
/// lane by lane (likewise for `Bits` and `u64`).
macro_rules! lanewise {
    ($ty:ident, $elem:ty, $($op:ident :: $method:ident),*) => {$(
        impl std::ops::$op for $ty {
            type Output = $ty;
            #[inline(always)]
            fn $method(self, rhs: $ty) -> $ty {
                let mut out = self.0;
                for (o, r) in out.iter_mut().zip(rhs.0) {
                    *o = std::ops::$op::$method(*o, r);
                }
                $ty(out)
            }
        }
        impl std::ops::$op<$elem> for $ty {
            type Output = $ty;
            #[inline(always)]
            fn $method(self, rhs: $elem) -> $ty {
                std::ops::$op::$method(self, $ty([rhs; LANES]))
            }
        }
        impl std::ops::$op<$ty> for $elem {
            type Output = $ty;
            #[inline(always)]
            fn $method(self, rhs: $ty) -> $ty {
                std::ops::$op::$method($ty([self; LANES]), rhs)
            }
        }
    )*};
}

lanewise!(Lanes, f64, Add::add, Sub::sub, Mul::mul, Div::div);
lanewise!(
    Bits,
    u64,
    Add::add,
    BitAnd::bitand,
    BitOr::bitor,
    BitXor::bitxor
);

impl Lanes {
    #[inline(always)]
    fn to_bits(self) -> Bits {
        let mut out = [0u64; LANES];
        for (o, x) in out.iter_mut().zip(self.0) {
            *o = x.to_bits();
        }
        Bits(out)
    }

    #[inline(always)]
    fn sqrt(self) -> Lanes {
        let mut out = self.0;
        for o in &mut out {
            *o = o.sqrt();
        }
        Lanes(out)
    }

    #[inline(always)]
    fn abs(self) -> Lanes {
        let mut out = self.0;
        for o in &mut out {
            *o = o.abs();
        }
        Lanes(out)
    }

    /// Each lane rounded to the nearest `f32`.
    #[inline(always)]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the normal rounds to the f32 tensors hold, as the scalar reference does"
    )]
    fn to_f32(self) -> [f32; LANES] {
        let mut out = [0.0f32; LANES];
        for (o, x) in out.iter_mut().zip(self.0) {
            *o = x as f32;
        }
        out
    }
}

impl Bits {
    #[inline(always)]
    fn to_lanes(self) -> Lanes {
        let mut out = [0.0f64; LANES];
        for (o, b) in out.iter_mut().zip(self.0) {
            *o = f64::from_bits(b);
        }
        Lanes(out)
    }

    #[inline(always)]
    fn shr(self, by: u32) -> Bits {
        let mut out = self.0;
        for o in &mut out {
            *o >>= by;
        }
        Bits(out)
    }

    #[inline(always)]
    fn shl(self, by: u32) -> Bits {
        let mut out = self.0;
        for o in &mut out {
            *o <<= by;
        }
        Bits(out)
    }

    /// The mask of lanes in `lo..=hi`.
    #[inline(always)]
    fn within(self, lo: u64, hi: u64) -> Bits {
        let mut out = self.0;
        for o in &mut out {
            *o = 0u64.wrapping_sub(u64::from(lo <= *o && *o <= hi));
        }
        Bits(out)
    }

    /// `a` where the mask is all ones, `b` where it is zero.
    #[inline(always)]
    fn select(self, a: Lanes, b: Lanes) -> Lanes {
        ((a.to_bits() & self) | (b.to_bits() & (self ^ u64::MAX))).to_lanes()
    }
}

/// fdlibm's `__ieee754_log` for normal positive `x` (no zero,
/// subnormal, infinity or NaN path: `u1 ≥ f64::MIN_POSITIVE`). Each of
/// fdlibm's branches is computed and the lane's own selected; its
/// `k == 0` forms are the general ones at `k = 0`, value for value.
#[inline(always)]
fn ln(x: Lanes) -> Lanes {
    let bits = x.to_bits();
    let hx = bits.shr(32) & 0x000f_ffff;
    // Normalize the mantissa into [√2/2, √2): `i` is 2²⁰ where it was
    // at least √2, which moves one into the exponent.
    let i = (hx + 0x95f64) & 0x0010_0000;
    let m = ((hx | (i ^ 0x3ff0_0000)).shl(32) | (bits & 0xffff_ffff)).to_lanes();
    let f = m - 1.0;
    // `k + 1023`, at most 2047: exact in the low bits of 2⁵².
    let k_biased = bits.shr(52) + i.shr(20);
    let dk = ((k_biased | TWO52.to_bits()).to_lanes() - TWO52) - 1023.0;

    // |f| < 2⁻²⁰.
    let r_small = f * f * (0.5 - (1.0 / 3.0) * f);
    let small = dk * LN2_HI - ((r_small - dk * LN2_LO) - f);

    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let near = dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f);
    let far = dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f);

    let is_small = ((hx + 2) & 0x000f_ffff).within(0, 2);
    let is_near = hx.within(0x6147a, 0x6b851);
    is_small.select(small, is_near.select(near, far))
}

/// FreeBSD's `__kernel_cos(x, y)`: `cos(x + y)` for `|x + y| ≲ π/4`,
/// `y` the tail of the reduced argument.
#[inline(always)]
fn kernel_cos(x: Lanes, y: Lanes) -> Lanes {
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// FreeBSD's `__kernel_sin(x, y, 1)`: `sin(x + y)` for `|x + y| ≲ π/4`.
#[inline(always)]
fn kernel_sin(x: Lanes, y: Lanes) -> Lanes {
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

/// `cos(t)` for `0 ≤ t < 2π`: the nearest multiple `n` of π/2 comes
/// out of the mantissa bits, `t − n·π/2` is carried as a head and a
/// tail, and the quadrant `n mod 4` picks `cos` or `sin` of it and its
/// sign.
#[inline(always)]
fn cos(t: Lanes) -> Lanes {
    let rounded = t * INVPIO2 + TOINT;
    let n = rounded - TOINT;
    let quadrant = rounded.to_bits() & 3;
    let r = t - n * PIO2_1;
    let w = n * PIO2_1T;
    let y0 = r - w;
    let y1 = (r - y0) - w;
    let c = kernel_cos(y0, y1);
    let s = kernel_sin(y0, y1);
    // Quadrants 1 and 3 take `sin`; quadrants 1 and 2 flip the sign.
    let odd = (quadrant & 1).within(1, 1);
    let flip = ((quadrant + 1).shr(1) & 1).shl(63);
    (odd.select(s, c).to_bits() ^ flip).to_lanes()
}

/// The Box–Muller normals of `CHUNK` pairs into `out`, eight lanes at
/// a time; `exact[i]` says whether `out[i]` is certain to be the libm
/// expression's value (see the module docs).
#[inline(always)]
pub(super) fn box_muller_body(
    u1: &[f64; CHUNK],
    u2: &[f64; CHUNK],
    out: &mut [f32; CHUNK],
    exact: &mut [bool; CHUNK],
) {
    let groups = u1
        .as_chunks::<LANES>()
        .0
        .iter()
        .zip(u2.as_chunks::<LANES>().0)
        .zip(out.as_chunks_mut::<LANES>().0.iter_mut())
        .zip(exact.as_chunks_mut::<LANES>().0.iter_mut());
    for (((&u1, &u2), out), exact) in groups {
        let s = (-2.0 * ln(Lanes(u1))).sqrt();
        let v = s * cos(2.0 * std::f64::consts::PI * Lanes(u2));
        let e = (v.abs() + s) * GUARD;
        let lo = (v - e).to_f32();
        let hi = (v + e).to_f32();
        for (((o, x), lo), hi) in out.iter_mut().zip(exact.iter_mut()).zip(lo).zip(hi) {
            *o = lo;
            *x = lo.to_bits() == hi.to_bits() && !lo.is_nan();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// `f` of `x` in every lane, read from the first.
    fn lane(f: fn(Lanes) -> Lanes, x: f64) -> f64 {
        f(Lanes([x; LANES])).0[0]
    }

    /// `|a − b|` in units of `2⁻⁵²·|b|`.
    fn rel_gap(a: f64, b: f64) -> f64 {
        (a - b).abs() / (b.abs() * f64::EPSILON)
    }

    #[test]
    fn ln_and_cos_stay_inside_the_guards_budget() {
        // The guard assumes each of our `ln` and `cos` is within 2 ulps
        // of the libm's (1 each way from the true value), plus 2⁻⁸²
        // absolute for `cos`'s reduction.
        let mut rng = StdRng::seed_from_u64(0x42);
        let (mut worst_ln, mut worst_cos) = (0.0f64, 0.0f64);
        for _ in 0..1_000_000 {
            let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            worst_ln = worst_ln.max(rel_gap(lane(ln, u1), u1.ln()));
            let t = 2.0 * std::f64::consts::PI * u2;
            let c = t.cos();
            let gap = ((lane(cos, t) - c).abs() - 2f64.powi(-82)).max(0.0);
            worst_cos = worst_cos.max(gap / (c.abs() * f64::EPSILON));
        }
        for x in [
            f64::MIN_POSITIVE,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            0.75,
            2f64.powi(-53),
        ] {
            worst_ln = worst_ln.max(rel_gap(lane(ln, x), x.ln()));
        }
        assert!(worst_ln <= 2.0, "ln is {worst_ln} ulps from libm");
        assert!(worst_cos <= 2.0, "cos is {worst_cos} ulps from libm");
    }
}
