//! Exact heap-allocation counts of the served frame: the smoothing
//! filter and VGG forward that `InferencePipeline::classify_batch` runs
//! for every batch the serve worker dispatches, and `classify`, which
//! the breaker's `PerImage` mode and the hardened path run: a batch of
//! one, pinned as the b1 batch plus the copy that adds its batch axis.
//! Beside them, the two calls the victim is built and attacked with:
//! one b32 training step, and one b1 attack query with and without the
//! smoothing filter; and TM-II's sensor noise on one frame, which
//! allocates nothing.
//!
//! A counting `#[global_allocator]` tallies `alloc`, `alloc_zeroed` and
//! `realloc` per thread. With the kernels on the calling thread
//! (`par::set_threads(1)`, the serving configuration fabench measures),
//! that tally is every allocation the call makes, and it does not
//! jitter: a new allocation on the hot path fails the shape it lands
//! in, and a removed one makes a count fall, to be pinned lower in the
//! same change.
//!
//! The allocator also records each thread's largest single allocation,
//! which bounds what hostile bytes can make a decoder reserve: every
//! artifact format, with any 1-, 4- or 8-byte window of its body
//! overwritten, decodes to a value or a typed error within
//! [`DECODE_ALLOC_FACTOR`] bytes per input byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::ops::Range;
use std::path::PathBuf;

use fademl::experiments::StageLedger;
use fademl::{InferencePipeline, ThreatModel};
use fademl_attacks::{AttackGoal, AttackSurface};
use fademl_data::{load_dataset, save_dataset, NoiseModel, SignDataset, CLASS_COUNT};
use fademl_detect::features::feature_dim;
use fademl_detect::{Detector, DetectorConfig};
use fademl_filters::FilterSpec;
use fademl_net::wire::{decode_frame, encode_frame};
use fademl_net::{Frame, WireRequest};
use fademl_nn::serialize::{decode_weights, encode_weights};
use fademl_nn::vgg::{VggConfig, VggProfile};
use fademl_nn::{
    Adam, CrossEntropyLoss, Dense, EpochStats, Optimizer, OptimizerState, Sequential, TrainHistory,
    TrainState,
};
use fademl_tensor::io::{atomic_write, crc32, CrcScope};
use fademl_tensor::{par, simd, Tensor, TensorRng};

/// Pinned `classify_batch` counts per call, by batch size, for TM-I,
/// TM-II and TM-III. TM-II adds one copy of the batch to re-acquire.
const BATCH: [(usize, [u64; 3]); 2] = [(1, [22, 26, 24]), (16, [82, 86, 84])];

/// What `classify` allocates beyond `classify_batch` of one image: the
/// copy that adds the batch axis, its data and its dims.
const BATCH_AXIS_COPY: u64 = 2;

/// Pinned count of one b32 training step: `zero_grad`, `forward_train`,
/// cross-entropy, `backward`, Adam.
const TRAIN_STEP: u64 = 125;

/// Pinned counts of one b1 `AttackSurface::loss_and_input_grad`, bare
/// and through LAP(32).
const INPUT_GRAD: [(&str, u64); 2] = [("bare", 73), ("lap32", 77)];

/// `TrainConfig::default().batch_size`.
const TRAIN_BATCH: usize = 32;

const THREATS: [ThreatModel; 3] = [ThreatModel::I, ThreatModel::II, ThreatModel::III];

/// Held by each test: the ISA pin and the compute-thread count are
/// process-wide, and a sweep running beside a counted call moves its
/// count.
static SERIAL: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Bytes a decoder may reserve per byte of input. The densest honest
/// decode is a checkpoint's tensor list: its smallest record (rank 0,
/// one `f32`) is 5 bytes and becomes one `Tensor` in the list.
const DECODE_ALLOC_FACTOR: usize = 10;
const _: () = assert!(size_of::<Tensor>() <= DECODE_ALLOC_FACTOR * 5);

/// Fixed reservations a decode may make whatever its input: error
/// messages, a tensor's dims, a top-k of at most 64.
const DECODE_ALLOC_SLACK: usize = 4096;

thread_local! {
    /// Allocations made by this thread. `const`-initialised and without
    /// a destructor, so the allocator can touch it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes of the largest single allocation this thread has made
    /// since it was last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

fn bump(size: usize) {
    // Fails only while the thread tears down, when nothing is measured.
    ALLOCS.try_with(|n| n.set(n.get() + 1)).unwrap_or_default();
    LARGEST
        .try_with(|m| m.set(m.get().max(size)))
        .unwrap_or_default();
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only touches a
// `const` thread-local `Cell`, which never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's `alloc` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract is passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
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

/// Bytes of the largest single allocation `call` makes on this thread.
fn largest_alloc<T>(call: impl FnOnce() -> T) -> usize {
    LARGEST.with(|m| m.set(0));
    drop(call());
    LARGEST.with(Cell::get)
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
        let batch_of_one = image.unsqueeze_batch();
        for threat in THREATS {
            let batched = steady_allocs(|| pipeline.classify_batch(&batch_of_one, threat));
            let got = steady_allocs(|| pipeline.classify(&image, threat));
            check(
                format!("{isa:?} classify {threat:?}, classify_batch b1 + {BATCH_AXIS_COPY}"),
                got,
                batched + BATCH_AXIS_COPY,
            );
        }
    }
    simd::pin(None);
    assert!(
        moved.is_empty(),
        "allocation counts moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn sensor_noise_allocates_nothing() {
    // TM-II re-acquisition noises each frame in place: its normals come
    // a stack run at a time.
    let _serial = SERIAL.lock();
    let mut rng = TensorRng::seed_from_u64(0x5E45);
    let mut frame = rng.uniform(&[3, 32, 32], 0.0, 1.0).into_vec();
    let sensor = NoiseModel::sensor();
    for isa in simd::available() {
        assert!(simd::pin(Some(isa)), "{isa:?} is available but refused");
        let got = steady_allocs(|| sensor.apply_in_place(&mut frame, &mut rng));
        assert_eq!(
            got, 0,
            "{isa:?} apply_in_place on a 3x32x32 frame allocated"
        );
    }
    simd::pin(None);
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

/// One valid encoded instance of an artifact format, and how to decode
/// it.
struct Format {
    name: &'static str,
    bytes: Vec<u8>,
    /// What the CRC trailer covers; `None` for the stage ledger, whose
    /// records carry their own CRCs.
    crc: Option<CrcScope>,
    /// Decodes: `true` for a value, `false` for a typed error.
    decode: fn(&[u8]) -> bool,
}

impl Format {
    /// The bytes a mutation may overwrite: all but the magic and the
    /// CRC trailer.
    fn body(&self) -> Range<usize> {
        let trailer = if self.crc.is_some() { 4 } else { 0 };
        8..self.bytes.len() - trailer
    }

    /// Recomputes the CRCs of mutated bytes, so the mutation reaches the
    /// parser instead of the CRC check.
    fn reseal(&self, bytes: &mut [u8]) {
        let Some(scope) = self.crc else {
            return reseal_ledger(bytes);
        };
        let from = if scope == CrcScope::FromStart { 0 } else { 8 };
        let end = bytes.len() - 4;
        let crc = crc32(&bytes[from..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// The model a `FADEMLW2` instance is decoded into.
fn dense_model() -> Sequential {
    Sequential::new().push(Dense::new(4, 3, &mut TensorRng::seed_from_u64(4)))
}

fn ledger_path() -> PathBuf {
    std::env::temp_dir().join(format!("fademl_allocs_{}.ledger", std::process::id()))
}

/// Every record of a stage ledger that still fits gets the CRC of its
/// payload, as its declared length frames it.
fn reseal_ledger(bytes: &mut [u8]) {
    let mut at = 8;
    while let Some(len) = bytes.get(at..at + 4) {
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        let (payload, trailer) = (at + 4..at + 4 + len, at + 4 + len..at + 8 + len);
        if trailer.end > bytes.len() {
            return;
        }
        let crc = crc32(&bytes[payload]);
        bytes[trailer].copy_from_slice(&crc.to_le_bytes());
        at += 8 + len;
    }
}

/// One small instance of each of the six formats: the `FADEMLN` wire
/// frame, `FADEMLW2` weights, `FADEMLC1` checkpoints, `FADEMLS1`
/// datasets, the `FADEMLD1` detector and the `FADEMLL1` stage ledger.
fn formats(rng: &mut TensorRng) -> Vec<Format> {
    let request = encode_frame(&Frame::Request(WireRequest {
        id: 7,
        threat: ThreatModel::II,
        deadline_us: 5_000,
        tenant: "tenant-a".into(),
        image: rng.uniform(&[3, 2, 2], 0.0, 1.0),
    }))
    .expect("request encodes");

    let weights = encode_weights(&dense_model());

    let tensors = |rng: &mut TensorRng| -> Vec<Tensor> {
        [&[][..], &[2, 3]]
            .iter()
            .map(|dims| rng.uniform(dims, -1.0, 1.0))
            .collect()
    };
    let checkpoint = TrainState {
        epochs_done: 2,
        rng_state: rng.state(),
        learning_rate: 0.01,
        params: tensors(rng),
        optimizer: OptimizerState::Adam {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 2,
            m: tensors(rng),
            v: tensors(rng),
        },
        history: TrainHistory {
            epochs: vec![
                EpochStats {
                    loss: 2.0,
                    train_accuracy: 0.5,
                };
                2
            ],
        },
    }
    .encode();

    let dataset = SignDataset::from_parts(rng.uniform(&[2, 3, 2, 2], 0.0, 1.0), vec![1, 4])
        .expect("uniform dataset");
    let mut dataset_bytes = Vec::new();
    save_dataset(&dataset, &mut dataset_bytes).expect("dataset encodes");

    let config = DetectorConfig {
        trees: 2,
        subsample: 4,
        scales: 1,
        seed: 3,
    };
    let rows: Vec<Vec<f32>> = (0..8)
        .map(|_| rng.uniform(&[feature_dim(1)], 0.0, 1.0).into_vec())
        .collect();
    let detector = Detector::fit(&rows, &config)
        .expect("uniform forest")
        .to_bytes();

    let path = ledger_path();
    std::fs::remove_file(&path).ok();
    StageLedger::open(&path, 0xFADE)
        .expect("ledger opens")
        .record("fig7/s1", &[1, 2, 3, 4])
        .expect("ledger records");
    let ledger = std::fs::read(&path).expect("ledger reads back");

    vec![
        Format {
            name: "FADEMLN request frame",
            bytes: request,
            crc: Some(CrcScope::AfterMagic),
            decode: |b| decode_frame(b).is_ok(),
        },
        Format {
            name: "FADEMLW2 weights",
            bytes: weights,
            crc: Some(CrcScope::AfterMagic),
            decode: |b| decode_weights(b, &mut dense_model()).is_ok(),
        },
        Format {
            name: "FADEMLC1 checkpoint",
            bytes: checkpoint,
            crc: Some(CrcScope::AfterMagic),
            decode: |b| TrainState::decode(b).is_ok(),
        },
        Format {
            name: "FADEMLS1 dataset",
            bytes: dataset_bytes,
            crc: Some(CrcScope::FromStart),
            decode: |b| load_dataset(b).is_ok(),
        },
        Format {
            name: "FADEMLD1 detector",
            bytes: detector,
            crc: Some(CrcScope::FromStart),
            decode: |b| Detector::from_bytes(b).is_ok(),
        },
        Format {
            name: "FADEMLL1 stage ledger",
            bytes: ledger,
            crc: None,
            // The ledger is read from its file; writing it allocates
            // only path names.
            decode: |b| {
                atomic_write(&ledger_path(), b).expect("ledger writes");
                StageLedger::open(ledger_path(), 0xFADE).is_ok()
            },
        },
    ]
}

/// Hostile little-endian values for 1-, 4- and 8-byte windows: zero,
/// one, every cap the codecs declare and the type's extremes.
fn hostile_windows() -> Vec<Vec<u8>> {
    let bytes = [0u8, 1, 0x7F, 0x80, 0xFF].map(|v| vec![v]);
    let words = [
        0u32,
        1,
        0xFF,
        1 << 10,
        1 << 16,
        1 << 20,
        1 << 21,
        1 << 24,
        0x7FFF_FFFF,
        0x8000_0000,
        u32::MAX,
    ]
    .map(|v| v.to_le_bytes().to_vec());
    let longs = [
        0u64,
        1,
        1 << 20,
        1 << 21,
        1 << 32,
        1 << 40,
        1 << 62,
        i64::MAX as u64,
        u64::MAX,
    ]
    .map(|v| v.to_le_bytes().to_vec());
    bytes.into_iter().chain(words).chain(longs).collect()
}

#[test]
fn hostile_artifacts_allocate_from_the_bytes_they_hold() {
    let mut rng = TensorRng::seed_from_u64(0xB0D);
    let windows = hostile_windows();
    let mut over = Vec::new();
    for format in formats(&mut rng) {
        assert!(
            (format.decode)(&format.bytes),
            "{}: the instance decodes",
            format.name
        );
        let bound = DECODE_ALLOC_FACTOR * format.bytes.len() + DECODE_ALLOC_SLACK;
        let body = format.body();
        let (mut values, mut refusals) = (0, 0);
        for window in &windows {
            for at in body.start..=body.end - window.len() {
                let mut bytes = format.bytes.clone();
                bytes[at..at + window.len()].copy_from_slice(window);
                format.reseal(&mut bytes);
                let mut decoded = false;
                let largest = largest_alloc(|| decoded = (format.decode)(&bytes));
                if decoded {
                    values += 1;
                } else {
                    refusals += 1;
                }
                if largest > bound {
                    over.push(format!(
                        "{}: {window:02x?} at byte {at} reserved {largest} bytes from {} \
                         (bound {bound})",
                        format.name,
                        bytes.len()
                    ));
                }
            }
        }
        // A mutation the CRC refused never reached the parser: some
        // must decode, or the re-seal is broken.
        assert!(values > 0, "{}: every mutation refused", format.name);
        println!("{}: {values} values, {refusals} typed errors", format.name);
    }
    std::fs::remove_file(ledger_path()).ok();
    assert!(
        over.is_empty(),
        "decoders over-reserved:\n{}",
        over.join("\n")
    );
}
