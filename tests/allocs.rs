//! Exact heap-allocation counts of the served frame: the smoothing
//! filter and VGG forward that `InferencePipeline::classify_batch` runs
//! for every batch the serve worker dispatches, and the per-image
//! `classify` of the breaker's `PerImage` mode and the hardened path.
//! Beside them, the two calls the victim is built and attacked with:
//! one b32 training step, and one b1 attack query with and without the
//! smoothing filter.
//!
//! A counting `#[global_allocator]` tallies `alloc`, `alloc_zeroed` and
//! `realloc` per thread. With the kernels on the calling thread
//! (`par::set_threads(1)`, the serving configuration fabench measures),
//! that tally is every allocation the call makes, and it does not
//! jitter: a new allocation on the hot path fails the shape it lands
//! in, and a removed one makes a count fall, to be pinned lower in the
//! same change.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fademl::{InferencePipeline, ThreatModel};
use fademl_attacks::{AttackGoal, AttackSurface};
use fademl_data::CLASS_COUNT;
use fademl_filters::FilterSpec;
use fademl_nn::vgg::{VggConfig, VggProfile};
use fademl_nn::{Adam, CrossEntropyLoss, Loss, Optimizer, Sequential};
use fademl_tensor::{par, simd, TensorRng};

/// Pinned `classify_batch` counts per call, by batch size, for TM-I,
/// TM-II and TM-III. TM-II adds per-image sensor re-acquisition.
const BATCH: [(usize, [u64; 3]); 2] = [(1, [25, 31, 25]), (16, [85, 151, 85])];

/// Pinned per-image `classify` counts for TM-I, TM-II and TM-III.
const PER_IMAGE: [u64; 3] = [26, 28, 26];

/// Pinned count of one b32 training step: `zero_grad`, `forward_train`,
/// cross-entropy, `backward`, Adam.
const TRAIN_STEP: u64 = 143;

/// Pinned counts of one b1 `AttackSurface::loss_and_input_grad`, bare
/// and through LAP(32).
const INPUT_GRAD: [(&str, u64); 2] = [("bare", 79), ("lap32", 83)];

/// `TrainConfig::default().batch_size`.
const TRAIN_BATCH: usize = 32;

const THREATS: [ThreatModel; 3] = [ThreatModel::I, ThreatModel::II, ThreatModel::III];

/// Held by each test: the ISA pin and the compute-thread count are
/// process-wide, and a sweep running beside a counted call moves its
/// count.
static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

thread_local! {
    /// Allocations made by this thread. `const`-initialised and without
    /// a destructor, so the allocator can touch it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

fn bump() {
    // Fails only while the thread tears down, when nothing is measured.
    ALLOCS.try_with(|n| n.set(n.get() + 1)).unwrap_or_default();
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only touches a
// `const` thread-local `Cell`, which never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `alloc` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `alloc_zeroed` contract is passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller's `realloc` contract is passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller's `dealloc` contract is passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `call` makes on this thread (its result is dropped after
/// the count is read).
fn allocs<T>(call: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let out = call();
    let made = ALLOCS.with(Cell::get) - before;
    drop(out);
    made
}

/// One warm-up call, then two counted ones that must agree.
fn steady_allocs<T>(mut call: impl FnMut() -> T) -> u64 {
    drop(call());
    let first = allocs(&mut call);
    let second = allocs(&mut call);
    assert_eq!(first, second, "two consecutive calls disagree");
    first
}

#[test]
fn served_frame_allocations_are_pinned() {
    let _serial = SERIAL.lock();
    par::set_threads(1);
    let mut rng = TensorRng::seed_from_u64(0xA110C);
    let model = compact_victim(&mut rng);
    let pipeline =
        InferencePipeline::new(model, FilterSpec::Lap { np: 32 }).expect("pipeline builds");
    let image = rng.uniform(&[3, 32, 32], 0.0, 1.0);
    let mut moved = Vec::new();
    let mut check = |call: String, got: u64, want: u64| {
        if got != want {
            moved.push(format!("{call}: {got} allocations, pinned {want}"));
        }
    };
    for isa in simd::available() {
        assert!(simd::pin(Some(isa)), "{isa:?} is available but refused");
        for (b, pinned) in BATCH {
            let images = rng.uniform(&[b, 3, 32, 32], 0.0, 1.0);
            for (threat, want) in THREATS.into_iter().zip(pinned) {
                let got = steady_allocs(|| pipeline.classify_batch(&images, threat));
                check(format!("{isa:?} classify_batch b{b} {threat:?}"), got, want);
            }
        }
        for (threat, want) in THREATS.into_iter().zip(PER_IMAGE) {
            let got = steady_allocs(|| pipeline.classify(&image, threat));
            check(format!("{isa:?} classify {threat:?}"), got, want);
        }
    }
    simd::pin(None);
    assert!(
        moved.is_empty(),
        "allocation counts moved:\n{}",
        moved.join("\n")
    );
}

fn compact_victim(rng: &mut TensorRng) -> Sequential {
    VggConfig::new(VggProfile::Compact, 3, 32, CLASS_COUNT)
        .build(rng)
        .expect("compact victim builds")
}

#[test]
fn training_step_and_attack_query_allocations_are_pinned() {
    let _serial = SERIAL.lock();
    par::set_threads(1);
    let mut rng = TensorRng::seed_from_u64(0x57E9);
    let mut model = compact_victim(&mut rng);
    let batch = rng.uniform(&[TRAIN_BATCH, 3, 32, 32], 0.0, 1.0);
    let labels: Vec<usize> = (0..TRAIN_BATCH).map(|i| i % CLASS_COUNT).collect();
    let image = rng.uniform(&[3, 32, 32], 0.0, 1.0);
    let goal = AttackGoal::Targeted { class: 3 };
    let lap32 = FilterSpec::Lap { np: 32 }.build().expect("LAP(32) builds");
    let mut surfaces = [
        AttackSurface::new(model.clone()),
        AttackSurface::with_filter(model.clone(), lap32),
    ];
    let loss = CrossEntropyLoss::new();
    let mut optimizer = Adam::new(1e-3);
    let mut moved = Vec::new();
    for isa in simd::available() {
        assert!(simd::pin(Some(isa)), "{isa:?} is available but refused");
        let got = steady_allocs(|| {
            model.zero_grad();
            let logits = model.forward_train(&batch).expect("forward_train");
            let lv = loss.compute(&logits, &labels).expect("cross-entropy");
            model.backward(&lv.grad).expect("backward");
            optimizer.step(&mut model.params_mut()).expect("Adam step");
        });
        if got != TRAIN_STEP {
            moved.push(format!(
                "{isa:?} training step b{TRAIN_BATCH}: {got} allocations, pinned {TRAIN_STEP}"
            ));
        }
        for ((name, want), surface) in INPUT_GRAD.into_iter().zip(&mut surfaces) {
            let got = steady_allocs(|| surface.loss_and_input_grad(&image, goal));
            if got != want {
                moved.push(format!(
                    "{isa:?} loss_and_input_grad b1 {name}: {got} allocations, pinned {want}"
                ));
            }
        }
    }
    simd::pin(None);
    assert!(
        moved.is_empty(),
        "allocation counts moved:\n{}",
        moved.join("\n")
    );
}
