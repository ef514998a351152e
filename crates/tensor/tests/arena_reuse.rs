//! Scratch-arena reuse: after warm-up on a shape key, kernels must
//! perform **zero** scratch heap allocations (the arena's `grows`
//! counter stays flat), the arena must never change results (a fresh
//! thread with an empty pool produces bit-identical output), and
//! interleaving shape keys must not leak stale data between buffers.
//!
//! The arena counters and `par::set_threads` are process-wide, so every
//! test serialises on one mutex and pins the pool to serial mode — the
//! counters then reflect exactly the acquisitions made by the kernel
//! under measurement.

use parking_lot::Mutex;

use fademl_tensor::plan::alloc;
use fademl_tensor::{conv2d, par, ConvSpec, Tensor, TensorRng};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

static ARENA_GUARD: Mutex<()> = Mutex::new(());

fn filled(rng: &mut TensorRng, dims: &[usize]) -> Tensor {
    rng.uniform(dims, -2.0, 2.0)
}

/// Runs `op` twice to warm the arena, then runs it `measured` more
/// times and returns (grows delta, hits delta, last output). Holds the
/// guard for the whole measurement.
fn measure_warm(op: impl Fn() -> Vec<f32>, measured: usize) -> (u64, u64, Vec<f32>) {
    let _guard = ARENA_GUARD.lock();
    par::set_threads(1);
    let _ = op();
    let mut out = op();
    let before = alloc::stats();
    for _ in 0..measured {
        out = op();
    }
    let after = alloc::stats();
    (after.grows - before.grows, after.hits - before.hits, out)
}

#[test]
fn warm_matmul_makes_zero_scratch_allocations() {
    let mut rng = TensorRng::seed_from_u64(41);
    let a = filled(&mut rng, &[48, 96]);
    let b = filled(&mut rng, &[96, 64]);
    let (grows, hits, _) = measure_warm(|| a.matmul(&b).expect("matmul").into_vec(), 10);
    assert_eq!(grows, 0, "warm matmul grew a scratch buffer");
    assert!(hits >= 10, "warm matmul did not lease from the arena");
}

#[test]
fn warm_conv2d_makes_zero_scratch_allocations() {
    let mut rng = TensorRng::seed_from_u64(43);
    let spec = ConvSpec::new(3, 8, 3, 1, 1);
    // 16×16 planes fuse four samples per tile, so a batch of six runs a
    // full tile and a partial one out of the same lease.
    let input = filled(&mut rng, &[6, 3, 16, 16]);
    let weight = filled(&mut rng, &[8, 3, 3, 3]);
    let bias = filled(&mut rng, &[8]);
    let (grows, hits, _) = measure_warm(
        || {
            conv2d(&input, &weight, &bias, &spec)
                .expect("conv2d")
                .into_vec()
        },
        10,
    );
    assert_eq!(grows, 0, "warm conv2d grew a scratch buffer");
    // Forward conv leases one fused tile matrix per call.
    assert!(hits >= 10, "warm conv2d did not lease from the arena");
}

/// The fused tile matrix is leased *uncleared*: whatever an earlier
/// call (here: a different geometry, then the same one) left in the
/// buffer must never reach an output.
#[test]
fn dirty_fused_scratch_matches_fresh_thread_bit_for_bit() {
    let mut rng = TensorRng::seed_from_u64(45);
    let spec = ConvSpec::new(2, 5, 3, 1, 1);
    let input = filled(&mut rng, &[3, 2, 9, 7]);
    let weight = filled(&mut rng, &[5, 2, 3, 3]);
    let bias = filled(&mut rng, &[5]);
    let other_spec = ConvSpec::new(4, 3, 3, 2, 0);
    let other = filled(&mut rng, &[2, 4, 11, 11]);
    let other_w = filled(&mut rng, &[3, 4, 3, 3]);
    let other_b = filled(&mut rng, &[3]);
    let run = || {
        conv2d(&input, &weight, &bias, &spec)
            .expect("conv2d")
            .into_vec()
    };
    let _guard = ARENA_GUARD.lock();
    par::set_threads(1);
    let _ = conv2d(&other, &other_w, &other_b, &other_spec).expect("conv2d");
    let _ = run();
    let warm: Vec<u32> = run().iter().map(|v| v.to_bits()).collect();
    let fresh: Vec<u32> = std::thread::scope(|s| s.spawn(run).join().expect("fresh-arena thread"))
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(warm, fresh, "stale scratch contents leaked into conv2d");
}

#[test]
fn warm_arena_output_matches_fresh_thread_bit_for_bit() {
    let mut rng = TensorRng::seed_from_u64(47);
    let a = filled(&mut rng, &[33, 129]);
    let b = filled(&mut rng, &[129, 65]);
    // Warm path: pooled buffers carry stale bytes from prior leases.
    let (_, _, warm) = measure_warm(|| a.matmul(&b).expect("matmul").into_vec(), 4);
    // Fresh path: a brand-new thread starts with an empty pool, so every
    // buffer is newly zero-allocated.
    let _guard = ARENA_GUARD.lock();
    par::set_threads(1);
    let fresh = std::thread::scope(|s| {
        s.spawn(|| a.matmul(&b).expect("matmul").into_vec())
            .join()
            .expect("fresh-arena thread")
    });
    let warm_bits: Vec<u32> = warm.iter().map(|v| v.to_bits()).collect();
    let fresh_bits: Vec<u32> = fresh.iter().map(|v| v.to_bits()).collect();
    assert_eq!(warm_bits, fresh_bits, "arena reuse changed kernel output");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random shapes: once warm, repeat calls never grow the arena and
    /// always reproduce the warm-up output exactly.
    #[test]
    fn warm_random_matmul_is_allocation_free_and_stable(
        seed in 0u64..1_000_000,
        m in 1usize..20,
        k in 1usize..96,
        n in 1usize..96,
    ) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let a = filled(&mut rng, &[m, k]);
        let b = filled(&mut rng, &[k, n]);
        // Under the guard like every other kernel call here: a cold lease
        // on this thread would show up in a concurrent test's `grows`.
        let reference: Vec<u32> = {
            let _guard = ARENA_GUARD.lock();
            a.matmul(&b).expect("matmul").into_vec()
                .iter().map(|v| v.to_bits()).collect()
        };
        let (grows, _, out) = measure_warm(|| a.matmul(&b).expect("matmul").into_vec(), 3);
        prop_assert_eq!(grows, 0, "warm random-shape matmul grew scratch");
        let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bits, reference);
    }

    /// Interleaving two shape keys: the pool is shared per thread, so a
    /// buffer warmed on one key serves the other — but results must stay
    /// bit-identical per key and the warm pair must stop allocating.
    #[test]
    fn interleaved_shape_keys_share_the_pool_without_leaking(
        seed in 0u64..1_000_000,
        ma in 1usize..16, ka in 1usize..48, na in 1usize..48,
        mb in 1usize..16, kb in 1usize..48, nb in 1usize..48,
    ) {
        let mut rng = TensorRng::seed_from_u64(seed);
        let a1 = filled(&mut rng, &[ma, ka]);
        let b1 = filled(&mut rng, &[ka, na]);
        let a2 = filled(&mut rng, &[mb, kb]);
        let b2 = filled(&mut rng, &[kb, nb]);
        let bits = |t: &Tensor| -> Vec<u32> {
            t.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        let _guard = ARENA_GUARD.lock();
        par::set_threads(1);
        let ref_a = bits(&a1.matmul(&b1).expect("matmul A"));
        let ref_b = bits(&a2.matmul(&b2).expect("matmul B"));
        // One more alternation finishes warming both keys' leases.
        let _ = a1.matmul(&b1).expect("matmul A");
        let _ = a2.matmul(&b2).expect("matmul B");
        let before = alloc::stats();
        for _ in 0..3 {
            let out_a = a1.matmul(&b1).expect("matmul A");
            let out_b = a2.matmul(&b2).expect("matmul B");
            prop_assert_eq!(bits(&out_a), ref_a.clone(), "key A output drifted");
            prop_assert_eq!(bits(&out_b), ref_b.clone(), "key B output drifted");
        }
        let after = alloc::stats();
        prop_assert_eq!(after.grows - before.grows, 0, "warm interleave kept allocating");
        prop_assert!(after.hits > before.hits);
    }
}
