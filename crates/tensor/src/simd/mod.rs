//! Instruction-set instantiations of the GEMM micro-kernel, chosen by
//! runtime detection — the one module where the `unsafe-confinement`
//! lint admits `unsafe`.
//!
//! `kernel` holds the kernel body as safe Rust. It is compiled three
//! times: once for the target's baseline features and, on x86-64, once
//! under `#[target_feature(enable = "avx2")]` and once under
//! `#[target_feature(enable = "avx512f")]`, where the same loops get
//! 256- and 512-bit lanes. Nothing is fused or re-associated in any of
//! them (see the `kernel` docs), so all three are bit-identical lane for
//! lane and no `-C target-cpu`/`target-feature` flag is needed anywhere.
//! Targets other than x86-64 compile and run the baseline instantiation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

mod kernel;

pub(crate) use kernel::{Block, Dest, Samples};

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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_avx2(blk: &Block, dest: &mut Dest) {
    kernel::block_body(blk, dest);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn block_avx512(blk: &Block, dest: &mut Dest) {
    kernel::block_body(blk, dest);
}

/// Multiplies one cache block into `dest` with the active instantiation.
pub(crate) fn gemm_block(blk: &Block, dest: &mut Dest) {
    #[cfg(target_arch = "x86_64")]
    match active() {
        // SAFETY: `block_avx512` is safe code that only requires
        // AVX-512F, and `active()` is `Avx512` only once `supported()`
        // saw it through `is_x86_feature_detected!`.
        Isa::Avx512 => return unsafe { block_avx512(blk, dest) },
        // SAFETY: as above, for `block_avx2` and AVX2.
        Isa::Avx2 => return unsafe { block_avx2(blk, dest) },
        Isa::Baseline => {}
    }
    kernel::block_body(blk, dest);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sample_sum_avx2(samples: &Samples, sum: &mut [f32]) {
    kernel::sample_sum_body(samples, sum);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sample_sum_avx512(samples: &Samples, sum: &mut [f32]) {
    kernel::sample_sum_body(samples, sum);
}

/// Adds a sum of per-sample products onto `sum` (see [`Samples`]) with
/// the active instantiation.
pub(crate) fn sample_sum(samples: &Samples, sum: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    match active() {
        // SAFETY: `sample_sum_avx512` is safe code that only requires
        // AVX-512F, and `active()` is `Avx512` only once `supported()`
        // saw it through `is_x86_feature_detected!`.
        Isa::Avx512 => return unsafe { sample_sum_avx512(samples, sum) },
        // SAFETY: as above, for `sample_sum_avx2` and AVX2.
        Isa::Avx2 => return unsafe { sample_sum_avx2(samples, sum) },
        Isa::Baseline => {}
    }
    kernel::sample_sum_body(samples, sum);
}
