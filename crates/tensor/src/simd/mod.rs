//! Instruction-set instantiations of the GEMM micro-kernel, chosen by
//! runtime detection — the one module where the `unsafe-confinement`
//! lint admits `unsafe`.
//!
//! [`kernel`] holds the kernel body as safe Rust. It is compiled twice:
//! once for the target's baseline features and, on x86-64, once under
//! `#[target_feature(enable = "avx2")]`, where the same loops get
//! 256-bit lanes. Nothing is fused or re-associated in either (see the
//! `kernel` docs), so the two are bit-identical lane for lane and no
//! `-C target-cpu`/`target-feature` flag is needed anywhere. Targets
//! other than x86-64 compile and run the baseline instantiation.

use std::sync::atomic::{AtomicBool, Ordering};

mod kernel;

pub(crate) use kernel::{Block, Dest};

/// An instruction set the micro-kernel is instantiated for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The compilation target's baseline features (SSE2 on x86-64).
    Baseline,
    /// x86-64 with AVX2, detected at run time.
    Avx2,
}

impl Isa {
    /// Lower-case name for bench artifacts and logs.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
        }
    }
}

/// The best instantiation this host can run (detected once, cached).
pub fn detected() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        if *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2")) {
            return Isa::Avx2;
        }
    }
    Isa::Baseline
}

static BASELINE_ONLY: AtomicBool = AtomicBool::new(false);

/// Test and bench hook: pins every later kernel call in the process to
/// the baseline instantiation (`true`) or returns to detection
/// (`false`), so the two instantiations can be compared bit for bit on
/// one host. Not a tuning knob — production code never calls it.
#[doc(hidden)]
pub fn set_baseline_only(on: bool) {
    BASELINE_ONLY.store(on, Ordering::Relaxed);
}

/// Runs `body` once pinned to the baseline instantiation and once on
/// the detected one, holding a lock so that tests sweeping the
/// process-wide switch do not interleave. Tests that do not care which
/// instantiation they get need no lock: the two are bit-identical.
#[cfg(test)]
pub(crate) fn with_each_isa(mut body: impl FnMut(Isa)) {
    static SWEEP: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = SWEEP.lock().unwrap_or_else(|e| e.into_inner());
    for baseline_only in [true, false] {
        set_baseline_only(baseline_only);
        body(active());
    }
}

/// The instantiation the next kernel call will run.
pub fn active() -> Isa {
    if BASELINE_ONLY.load(Ordering::Relaxed) {
        Isa::Baseline
    } else {
        detected()
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_avx2(blk: &Block, dest: &mut Dest) {
    kernel::block_body(blk, dest);
}

/// Multiplies one cache block into `dest` with the active instantiation.
#[allow(unsafe_code)]
pub(crate) fn gemm_block(blk: &Block, dest: &mut Dest) {
    #[cfg(target_arch = "x86_64")]
    if active() == Isa::Avx2 {
        // SAFETY: `block_avx2` is safe code that only requires AVX2, and
        // `active()` is `Avx2` only once `is_x86_feature_detected!` saw it.
        unsafe { block_avx2(blk, dest) };
        return;
    }
    kernel::block_body(blk, dest);
}
