//! Instruction-set instantiations of the GEMM micro-kernel, the
//! max-pool rows, the register stencils and the lane-wise Box–Muller
//! transform, chosen by runtime detection — the one module where the
//! `unsafe-confinement` lint admits `unsafe`.
//!
//! `normal` holds the Box–Muller body: fdlibm's `ln` and `cos` on eight
//! `f64` lanes, with a guard that hands any lane it cannot prove equal
//! to the libm expression back to the caller. It is instantiated like
//! the kernel below, and like it uses no fused multiply-add.
//!
//! `pool` holds the 2×2 max-pool's row, with its argmax or values
//! only, whose selects vectorize across windows; it is instantiated the
//! same way.
//!
//! `stencil` holds the neighbourhood filter's loop (LAP and LAR,
//! forward and adjoint, for `fademl-filters`, which has no `unsafe`
//! and calls [`stencil()`]) and stage 1's direct ∂input rows; they are
//! instantiated the same way, and the `instantiated!` macro below
//! writes every dispatcher.
//!
//! `kernel` holds the kernel body as safe Rust. It is compiled three
//! times: once for the target's baseline features and, on x86-64, once
//! under `#[target_feature(enable = "avx2")]` and once under
//! `#[target_feature(enable = "avx512f")]`, where the same loops get
//! 256- and 512-bit lanes — and, under AVX-512F, a wide register tile
//! of 8×32 instead of 4×16, since it has twice the registers. Nothing
//! is fused or re-associated in any of them (see the `kernel` docs), so
//! all three are bit-identical lane for lane and no
//! `-C target-cpu`/`target-feature` flag is needed anywhere. Targets
//! other than x86-64 compile and run the baseline instantiation.
//! [`peak_gflops`] measures what each instantiation's lanes could do,
//! for benches to divide by.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

mod kernel;
mod normal;
mod pool;
mod stencil;

pub(crate) use kernel::{Block, Dest, Planes, Rows, Samples, NR_WIDE_512 as WIDEST_TILE_COLS};
pub(crate) use normal::CHUNK as NORMAL_CHUNK;
pub(crate) use stencil::TapRows;
pub use stencil::{Stencil, CHUNK as STENCIL_CHUNK};

/// An instruction set the micro-kernel is instantiated for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The compilation target's baseline features (SSE2 on x86-64).
    Baseline,
    /// x86-64 with AVX2, detected at run time.
    Avx2,
    /// x86-64 with AVX-512F, detected at run time.
    Avx512,
}

impl Isa {
    /// Every instantiation, narrowest first.
    pub(crate) const ALL: [Isa; 3] = [Isa::Baseline, Isa::Avx2, Isa::Avx512];

    /// Lower-case name for bench artifacts and logs.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Whether this host can run the instantiation.
    pub(crate) fn supported(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Every instantiation this host can run, narrowest first.
pub fn available() -> Vec<Isa> {
    Isa::ALL.into_iter().filter(|isa| isa.supported()).collect()
}

/// The widest instantiation this host can run (detected once, cached).
pub fn detected() -> Isa {
    static WIDEST: OnceLock<Isa> = OnceLock::new();
    *WIDEST.get_or_init(|| available().pop().unwrap_or(Isa::Baseline))
}

/// `0` follows detection; `1 + i` pins `Isa::ALL[i]`.
static PINNED: AtomicUsize = AtomicUsize::new(0);

/// Test and bench hook: pins every later kernel call in the process to
/// `isa` (`Some`) or returns to detection (`None`), so the
/// instantiations can be compared bit for bit on one host. One the host
/// cannot run is refused (`false`). Not a tuning knob — production code
/// never calls it.
#[doc(hidden)]
pub fn pin(isa: Option<Isa>) -> bool {
    let code = match isa {
        None => 0,
        Some(isa) if isa.supported() => {
            Isa::ALL.iter().position(|&i| i == isa).map_or(0, |i| i + 1)
        }
        Some(_) => return false,
    };
    PINNED.store(code, Ordering::Relaxed);
    true
}

/// Runs `body` once pinned to each instantiation the host can run,
/// holding a lock so that tests sweeping the process-wide pin do not
/// interleave. Tests that do not care which instantiation they get need
/// no lock: all of them are bit-identical.
#[cfg(test)]
pub(crate) fn with_each_isa(mut body: impl FnMut(Isa)) {
    static SWEEP: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    let _guard = SWEEP.lock();
    for isa in available() {
        pin(Some(isa));
        body(active());
    }
    pin(None);
}

/// The instantiation the next kernel call will run.
pub fn active() -> Isa {
    PINNED
        .load(Ordering::Relaxed)
        .checked_sub(1)
        .and_then(|i| Isa::ALL.get(i).copied())
        .unwrap_or_else(detected)
}

/// Defines a dispatcher that runs one body per instruction set: the
/// `baseline` expression as it stands, and on x86-64 the `avx2` and
/// `avx512` expressions each inside a function compiled under that
/// `#[target_feature]`, chosen by [`active`] — or one `body` under all
/// three. The bodies they call must be `#[inline(always)]` (a function
/// that is not inlined into the feature-enabled one is compiled
/// without its features).
macro_rules! instantiated {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) { body => $body:expr $(,)? }
    ) => {
        instantiated! {
            $(#[$meta])*
            $vis fn $name($($arg: $ty),*) { baseline => $body, avx2 => $body, avx512 => $body }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) {
            baseline => $baseline:expr,
            avx2 => $avx2:expr,
            avx512 => $avx512:expr $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) {
                    $avx2
                }
                #[target_feature(enable = "avx512f")]
                fn avx512($($arg: $ty),*) {
                    $avx512
                }
                match active() {
                    // SAFETY: `avx512` is safe code that only requires
                    // AVX-512F, and `active()` is `Avx512` only once
                    // `supported()` saw it through
                    // `is_x86_feature_detected!`.
                    Isa::Avx512 => return unsafe { avx512($($arg),*) },
                    // SAFETY: as above, for `avx2` and AVX2.
                    Isa::Avx2 => return unsafe { avx2($($arg),*) },
                    Isa::Baseline => {}
                }
            }
            $baseline
        }
    };
}

instantiated! {
    /// Multiplies one cache block into `dest` with the active
    /// instantiation.
    pub(crate) fn gemm_block(blk: &Block, dest: &mut Dest) {
        baseline => kernel::block_body::<{ kernel::MR_WIDE }, { kernel::NR_WIDE }>(blk, dest),
        avx2 => kernel::block_body::<{ kernel::MR_WIDE }, { kernel::NR_WIDE }>(blk, dest),
        avx512 => kernel::block_body::<{ kernel::MR_WIDE_512 }, { kernel::NR_WIDE_512 }>(blk, dest),
    }
}

instantiated! {
    /// Adds a sum of per-sample products onto `sum` (see [`Samples`])
    /// with the active instantiation.
    pub(crate) fn sample_sum(samples: &Samples, sum: &mut [f32]) {
        body => kernel::sample_sum_body(samples, sum),
    }
}

instantiated! {
    /// One output row of the 2×2 / stride-2 max-pool with its argmax
    /// (see the `pool` module), with the active instantiation: `rows`
    /// are the two input rows of a `w`-wide plane, `first` the flat
    /// index of the top row's first element.
    pub(crate) fn max_pool_argmax_row(
        rows: (&[f32], &[f32]),
        out: &mut [f32],
        argmax: &mut [usize],
        first: usize,
        w: u32,
    ) {
        body => pool::argmax_row_body(rows, out, argmax, first, w),
    }
}

instantiated! {
    /// One output row of the 2×2 / stride-2 max-pool, values only —
    /// bit for bit [`max_pool_argmax_row`]'s — with the active
    /// instantiation: `rows` are the two input rows.
    pub(crate) fn max_pool_values_row(rows: (&[f32], &[f32]), out: &mut [f32]) {
        body => pool::values_row_body(rows, out),
    }
}

instantiated! {
    /// The Box–Muller normals of a chunk of uniform pairs with the
    /// active instantiation: `out[i]` is `sqrt(-2·ln u1[i])·cos(2π·u2[i])`
    /// as `f32`, certain to equal the libm expression's wherever
    /// `exact[i]` (see the `normal` module).
    pub(crate) fn box_muller(
        u1: &[f64; NORMAL_CHUNK],
        u2: &[f64; NORMAL_CHUNK],
        out: &mut [f32; NORMAL_CHUNK],
        exact: &mut [bool; NORMAL_CHUNK],
    ) {
        body => normal::box_muller_body(u1, u2, out, exact),
    }
}

instantiated! {
    /// A neighbourhood filter over one `h × w` output plane with the
    /// active instantiation: `dst[y·w + x]` is one accumulator from
    /// `+0.0` that adds `weight · src[y·pitch + x + offset]` for every
    /// tap of `stencil.taps` in list order, then is stored — divided by
    /// `divide[y·w + x]` when given (see [`Stencil`] and the `stencil`
    /// module). Two output rows share a register tile under AVX2 and
    /// AVX-512F, one under the baseline; the bits are the same.
    pub fn stencil(stencil: &Stencil, dst: &mut [f32], divide: Option<&[f32]>) {
        baseline => stencil::stencil_body::<false>(stencil, dst, divide),
        avx2 => stencil::stencil_body::<true>(stencil, dst, divide),
        avx512 => stencil::stencil_body::<true>(stencil, dst, divide),
    }
}

instantiated! {
    /// Three consecutive taps' rows of a convolution's unfolded input
    /// gradient, each added onto the fold plane `plane` (rows `pitch`
    /// apart) from plane row `row0` and column `t`, with the active
    /// instantiation (see [`TapRows`] and the `stencil` module).
    pub(crate) fn conv_tap_rows(rows: &TapRows, plane: &mut [f32], pitch: usize, row0: usize) {
        body => stencil::tap_rows_body::<3>(rows, plane, pitch, row0),
    }
}

/// Independent chains in the ceiling probe: twelve vector registers in
/// flight keep both of a core's vector ports busy through a 4-cycle
/// multiply plus a 4-cycle add, and with the two broadcast operands
/// they fit in sixteen registers.
#[cfg(target_arch = "x86_64")]
const PEAK_CHAINS: usize = 12;

/// One ceiling-probe instantiation: [`PEAK_CHAINS`] independent vector
/// registers, each stepping `x ← x·m + a` `rounds` times as a separate
/// multiply and add — what the micro-kernel does per term, never
/// contracted. Written in intrinsics because the probe measures the
/// hardware, not the compiler: the same loop in plain arrays came out
/// scalar under some instantiations.
macro_rules! mul_add_probe {
    ($name:ident, $feature:literal, $set1:ident, $mul:ident, $add:ident) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        fn $name(rounds: usize, m: f32, a: f32) {
            use std::arch::x86_64::{$add, $mul, $set1};
            let (mv, av) = ($set1(m), $set1(a));
            let mut start = 0.0f32;
            let mut chains = [$set1(0.0); PEAK_CHAINS];
            for chain in &mut chains {
                start += 1.0;
                *chain = $set1(start);
            }
            for _ in 0..rounds {
                for chain in &mut chains {
                    *chain = $add($mul(*chain, mv), av);
                }
            }
            std::hint::black_box(chains);
        }
    };
}

mul_add_probe!(mul_add_sse2, "sse2", _mm_set1_ps, _mm_mul_ps, _mm_add_ps);
mul_add_probe!(
    mul_add_avx2,
    "avx2",
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps
);
mul_add_probe!(
    mul_add_avx512,
    "avx512f",
    _mm512_set1_ps,
    _mm512_mul_ps,
    _mm512_add_ps
);

/// The honest ceiling of one core under `isa`, in GFLOP/s: the best of
/// a few timed runs of the mul+add probe (no fused multiply-add, which
/// the micro-kernel never uses either) at the instantiation's lane
/// width. `None` when the host cannot run `isa`, and on targets other
/// than x86-64, which have no probe. Takes a few tens of milliseconds;
/// a bench measures it once at start-up and divides its GFLOP/s by it.
pub fn peak_gflops(isa: Isa) -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::hint::black_box;
        use std::time::Instant;
        const ROUNDS: usize = 2_000_000;
        if !isa.supported() {
            return None;
        }
        let (m, a) = (black_box(0.5f32), black_box(1.0f32));
        let mut best = 0.0f64;
        for _ in 0..8 {
            let start = Instant::now();
            let lanes = match isa {
                Isa::Avx512 => {
                    // SAFETY: each probe is safe code that only requires
                    // its target feature: AVX-512F and AVX2 were seen by
                    // `supported()` through `is_x86_feature_detected!`,
                    // and SSE2 is part of the x86-64 baseline.
                    unsafe { mul_add_avx512(ROUNDS, m, a) };
                    16
                }
                Isa::Avx2 => {
                    // SAFETY: as above.
                    unsafe { mul_add_avx2(ROUNDS, m, a) };
                    8
                }
                Isa::Baseline => {
                    // SAFETY: as above.
                    unsafe { mul_add_sse2(ROUNDS, m, a) };
                    4
                }
            };
            let ns = start.elapsed().as_nanos().max(1);
            let flops = (ROUNDS * PEAK_CHAINS * lanes * 2) as f64;
            best = best.max(flops / ns as f64);
        }
        Some(best)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        None
    }
}
