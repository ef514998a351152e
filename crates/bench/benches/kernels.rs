//! Compute-kernel throughput: the cache-blocked GEMM, conv, and filter
//! kernels run at 1/2/4/8 compute threads (`fademl_tensor::par`, whose
//! `split_rows` cuts a large enough output into one row range per
//! thread) — every count is bit-checked, but only counts the
//! host has cores for are timed and recorded (more threads than cores
//! measures the scheduler, not the kernel). Shapes mirror the paper's
//! victims (VGG-ish CIFAR layer, GTSRB-ish mid layer), the five
//! convolution stages of the served Compact victim at batch 1 and 16
//! (forward, and stage 5 at 7 and 8 around the narrow-output operand
//! swap; stages 1–3, whose forward reads the bordered planes, also as
//! the plane fill and the register tile timed apart), at batch 1 (an
//! attack query's ∂input) and at the training
//! batch of 32 (backward), and its classifier head; LAP(8) and LAR(2)
//! on a batch of 8, LAP(32) on a served batch of 16 and its adjoint on
//! one attack query. One row is not a GEMM: TM-II's sensor noise on one
//! frame, whose lane-wise Box–Muller is instantiated per ISA like the
//! micro-kernel and falls under the same bit-identity gate.
//! Two more cells run the whole Compact victim: its forward at batch 16,
//! so the fused conv+ReLU store and the recycled activations are under
//! the same gate, and one training step at batch 32 (forward, backward
//! and Adam from fixed weights), so every kernel a step runs is. GEMM-
//! and filter-backed workloads also report GFLOP/s (a filter counts a
//! multiply and an add per tap and pixel), and are timed
//! serially once more on every narrower instantiation of the
//! micro-kernel the host can run (baseline, AVX2), so each ISA's share
//! of a number is visible.
//!
//! It emits machine-readable artifacts — `BENCH_kernels.json` at the
//! repo root and `results/kernels.txt` — because it is the first
//! datapoint of the bench trajectory. It also asserts that every workload's output is
//! bit-identical across thread counts *and* across every instantiation
//! the host can run before timing it, so the numbers can never come
//! from a divergent kernel.
//!
//! `cargo bench -p fademl-bench --bench kernels` — full run.
//! `cargo bench -p fademl-bench --bench kernels -- --test` — CI smoke:
//! one iteration per cell, artifacts not written.

use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fademl_data::{NoiseModel, CLASS_COUNT};
use fademl_filters::{FilterSpec, Kernel};
use fademl_nn::vgg::{VggConfig, VggProfile};
use fademl_nn::{Adam, CrossEntropyLoss, Optimizer};
use fademl_tensor::io::atomic_write;
use fademl_tensor::plan::alloc;
use fademl_tensor::simd::{self, Isa};
use fademl_tensor::{
    conv2d, conv2d_backward, conv2d_backward_input, conv2d_layer, par, ConvSpec, PlaneForward,
    Tensor, TensorRng, TransposedWeight,
};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// `TrainConfig::default().batch_size`: the shape a training step's
/// backward runs at.
const TRAIN_BATCH: usize = 32;

/// A named kernel workload returning its full output buffer (flattened)
/// so cross-thread bit-identity can be checked on everything computed.
struct Workload {
    name: String,
    /// Floating-point operations of one run (2 per multiply-add); zero
    /// for workloads that are neither a GEMM nor a filter.
    flops: f64,
    run: Box<dyn Fn() -> Vec<f32>>,
}

/// (input channels, output channels, input side) of the served
/// victim's 3×3 stride-1 pad-1 convolution stages (`VggProfile::Compact`
/// on 3×32×32: each stage halves the side).
fn victim_stages() -> Vec<(usize, usize, usize)> {
    let (mut channels, mut side) = (3, 32);
    let mut stages = Vec::new();
    for out in VggProfile::Compact.stage_channels() {
        stages.push((channels, out, side));
        channels = out;
        side /= 2;
    }
    stages
}

/// Floating-point operations of one pass of a paper filter over
/// `pixels` pixels of 32×32 planes, where every tap lands on the plane:
/// a multiply and an add per tap and pixel (the renormalizing divide
/// and the weight-sum plane are not counted).
fn filter_flops(spec: FilterSpec, pixels: usize) -> f64 {
    let taps = match spec {
        FilterSpec::Lap { np } => np + 1,
        FilterSpec::Lar { r } => Kernel::disc(r).len(),
        _ => 0,
    };
    2.0 * (taps * pixels) as f64
}

/// All three gradients of one `conv2d_backward` call, concatenated.
fn backward_run(x: Tensor, w: Tensor, g: Tensor, spec: ConvSpec) -> Box<dyn Fn() -> Vec<f32>> {
    Box::new(move || {
        let grads = conv2d_backward(&x, &w, &g, &spec).expect("conv2d_backward");
        let mut out = grads.input.into_vec();
        out.extend(grads.weight.into_vec());
        out.extend(grads.bias.into_vec());
        out
    })
}

fn workloads() -> Vec<Workload> {
    let mut rng = TensorRng::seed_from_u64(42);

    // Fully-connected head: activations [128, 256] × weights [256, 1024].
    let a = rng.uniform(&[128, 256], -1.0, 1.0);
    let b = rng.uniform(&[256, 1024], -1.0, 1.0);

    // VGG-shaped CIFAR entry layer: [8, 3, 32, 32], C3→F32, k3 s1 p1.
    let vgg_spec = ConvSpec::new(3, 32, 3, 1, 1);
    let vgg_x = rng.uniform(&[8, 3, 32, 32], 0.0, 1.0);
    let vgg_w = rng.uniform(&[32, 3, 3, 3], -0.5, 0.5);
    let vgg_b = rng.uniform(&[32], -0.1, 0.1);
    let vgg_g = rng.uniform(&[8, 32, 32, 32], -1.0, 1.0);

    // GTSRB-shaped mid layer: [8, 32, 16, 16], C32→F64, k3 s1 p1.
    let gt_spec = ConvSpec::new(32, 64, 3, 1, 1);
    let gt_x = rng.uniform(&[8, 32, 16, 16], 0.0, 1.0);
    let gt_w = rng.uniform(&[64, 32, 3, 3], -0.5, 0.5);
    let gt_b = rng.uniform(&[64], -0.1, 0.1);

    // Pre-processing filters from the paper sweep on a serving batch.
    let batch = rng.uniform(&[8, 3, 32, 32], 0.0, 1.0);
    let grad = rng.uniform(&[8, 3, 32, 32], -1.0, 1.0);
    let lap = FilterSpec::Lap { np: 8 }.build().expect("LAP(8) builds");
    let lar = FilterSpec::Lar { r: 2 }.build().expect("LAR(2) builds");
    let lap32 = FilterSpec::Lap { np: 32 }.build().expect("LAP(32) builds");
    let lap32_backward = lap32.clone();
    // Their own seeds, so the rows above and below keep their inputs: a
    // served LAP(32) batch, and an attack query's LAP(32) adjoint.
    let served = TensorRng::seed_from_u64(9).uniform(&[16, 3, 32, 32], 0.0, 1.0);
    let mut own = TensorRng::seed_from_u64(10);
    let query = own.uniform(&[3, 32, 32], 0.0, 1.0);
    let query_grad = own.uniform(&[3, 32, 32], -1.0, 1.0);

    let mut jobs = vec![
        Workload {
            name: "matmul_128x256x1024".into(),
            flops: 2.0 * (128 * 256 * 1024) as f64,
            run: Box::new(move || a.matmul(&b).expect("matmul").into_vec()),
        },
        Workload {
            name: "conv2d_vgg_8x3x32x32_f32".into(),
            flops: 2.0 * (8 * 27 * 32 * 1024) as f64,
            run: {
                let (x, w, bias) = (vgg_x.clone(), vgg_w.clone(), vgg_b.clone());
                Box::new(move || conv2d(&x, &w, &bias, &vgg_spec).expect("conv2d").into_vec())
            },
        },
        Workload {
            name: "conv2d_backward_vgg".into(),
            // Two products of the forward's size: ∂weight and ∂input.
            flops: 4.0 * (8 * 27 * 32 * 1024) as f64,
            run: backward_run(vgg_x, vgg_w, vgg_g, vgg_spec),
        },
        Workload {
            name: "conv2d_gtsrb_8x32x16x16_f64".into(),
            flops: 2.0 * (8 * 288 * 64 * 256) as f64,
            run: Box::new(move || {
                conv2d(&gt_x, &gt_w, &gt_b, &gt_spec)
                    .expect("conv2d")
                    .into_vec()
            }),
        },
        Workload {
            name: "filter_lap8_8x3x32x32".into(),
            flops: filter_flops(FilterSpec::Lap { np: 8 }, batch.numel()),
            run: {
                let x = batch.clone();
                Box::new(move || lap.apply(&x).expect("LAP apply").into_vec())
            },
        },
        Workload {
            name: "filter_lar2_backward_8x3x32x32".into(),
            flops: filter_flops(FilterSpec::Lar { r: 2 }, batch.numel()),
            run: Box::new(move || {
                lar.backward(&batch, &grad)
                    .expect("LAR backward")
                    .into_vec()
            }),
        },
        Workload {
            name: "filter_lap32_16x3x32x32".into(),
            flops: filter_flops(FilterSpec::Lap { np: 32 }, served.numel()),
            run: Box::new(move || lap32.apply(&served).expect("LAP apply").into_vec()),
        },
        Workload {
            name: "filter_lap32_backward_3x32x32".into(),
            flops: filter_flops(FilterSpec::Lap { np: 32 }, query.numel()),
            run: Box::new(move || {
                lap32_backward
                    .backward(&query, &query_grad)
                    .expect("LAP backward")
                    .into_vec()
            }),
        },
        Workload {
            name: "sensor_noise_3x32x32".into(),
            flops: 0.0,
            run: {
                // Its own seeds, so the rows above and below keep their
                // inputs.
                let frame = TensorRng::seed_from_u64(7).uniform(&[3, 32, 32], 0.0, 1.0);
                Box::new(move || {
                    NoiseModel::sensor()
                        .apply(&frame, &mut TensorRng::seed_from_u64(8))
                        .into_vec()
                })
            },
        },
    ];

    // The served victim, stage by stage, as one frame and as a full
    // serving batch (as the layer runs it, its weight's transpose kept:
    // fewer than 32 output columns swap the product's operands), and
    // stage 5 on either side of that threshold; then an attack query's
    // ∂input at one frame, and the backward at the training batch.
    let stages = victim_stages();
    for (stage, &(cin, cout, side)) in stages.iter().enumerate() {
        let spec = ConvSpec::new(cin, cout, 3, 1, 1);
        let narrow = if stage == 4 { &[7usize, 8][..] } else { &[] };
        for (i, &n) in [1usize, 16].iter().chain(narrow).enumerate() {
            // Rows past the first two draw from their own seeds, so the
            // rows above and below keep their inputs.
            let mut own = TensorRng::seed_from_u64(100 + n as u64);
            let rng = if i < 2 { &mut rng } else { &mut own };
            let x = rng.uniform(&[n, cin, side, side], 0.0, 1.0);
            let w = rng.uniform(&[cout, cin, 3, 3], -0.1, 0.1);
            let bias = rng.uniform(&[cout], -0.1, 0.1);
            let kept = TransposedWeight::default();
            jobs.push(Workload {
                name: format!("conv2d_victim_stage{}_b{n}", stage + 1),
                flops: 2.0 * (n * cin * 9 * cout * side * side) as f64,
                run: Box::new(move || {
                    conv2d_layer(&x, &w, &kept, &bias, &spec, false)
                        .expect("conv2d_layer")
                        .into_vec()
                }),
            });
        }
        // The plane-reading forward's two parts, timed apart at the
        // stages it serves: the fill of every sample's bordered planes,
        // and the register tile and store that read them (bit for bit
        // the stage's forward; the fill is a copy, checked through it).
        for n in [1usize, 16] {
            let mut own = TensorRng::seed_from_u64(300 + 10 * stage as u64 + n as u64);
            let x = own.uniform(&[n, cin, side, side], 0.0, 1.0);
            let w = own.uniform(&[cout, cin, 3, 3], -0.1, 0.1);
            let bias = own.uniform(&[cout], -0.1, 0.1);
            let Some(mut parts) =
                PlaneForward::new(&spec, n, (side, side)).expect("victim stage plans")
            else {
                continue;
            };
            parts.fill(&x).expect("victim stage input");
            let parts = RefCell::new(parts);
            jobs.push(Workload {
                name: format!("conv2d_victim_stage{}_b{n}_fill", stage + 1),
                flops: 0.0,
                run: Box::new(move || {
                    parts.borrow_mut().fill(&x).expect("fill");
                    Vec::new()
                }),
            });
            let mut product = PlaneForward::new(&spec, n, (side, side))
                .expect("victim stage plans")
                .expect("a plane-reading stage");
            let x = own.uniform(&[n, cin, side, side], 0.0, 1.0);
            product.fill(&x).expect("victim stage input");
            jobs.push(Workload {
                name: format!("conv2d_victim_stage{}_b{n}_tile", stage + 1),
                flops: 2.0 * (n * cin * 9 * cout * side * side) as f64,
                run: Box::new(move || product.product(&w, &bias).expect("product").into_vec()),
            });
        }
        let mut own = TensorRng::seed_from_u64(200 + stage as u64);
        let x = own.uniform(&[1, cin, side, side], 0.0, 1.0);
        let w = own.uniform(&[cout, cin, 3, 3], -0.1, 0.1);
        let g = own.uniform(&[1, cout, side, side], -1.0, 1.0);
        jobs.push(Workload {
            name: format!("conv2d_backward_input_victim_stage{}_b1", stage + 1),
            flops: 2.0 * (cin * 9 * cout * side * side) as f64,
            run: Box::new(move || {
                conv2d_backward_input(&x, &w, &g, &spec)
                    .expect("conv2d_backward_input")
                    .into_vec()
            }),
        });
        let n = TRAIN_BATCH;
        let x = rng.uniform(&[n, cin, side, side], 0.0, 1.0);
        let w = rng.uniform(&[cout, cin, 3, 3], -0.1, 0.1);
        let g = rng.uniform(&[n, cout, side, side], -1.0, 1.0);
        jobs.push(Workload {
            name: format!("conv2d_backward_victim_stage{}_b{n}", stage + 1),
            flops: 4.0 * (n * cin * 9 * cout * side * side) as f64,
            run: backward_run(x, w, g, spec),
        });
    }
    let features = stages.last().map_or(1, |&(_, out, _)| out);
    let acts = rng.uniform(&[16, features], 0.0, 1.0);
    let head_w = rng.uniform(&[CLASS_COUNT, features], -0.1, 0.1);
    jobs.push(Workload {
        name: "matmul_nt_victim_head_b16".into(),
        flops: 2.0 * (16 * features * CLASS_COUNT) as f64,
        run: Box::new(move || acts.matmul_nt(&head_w).expect("matmul_nt").into_vec()),
    });

    // The whole served victim at a full serving batch: conv+ReLU fused
    // into the store, activations recycled between layers.
    let model = VggConfig::new(VggProfile::Compact, 3, 32, CLASS_COUNT)
        .build(&mut rng)
        .expect("Compact victim builds");
    let frames = rng.uniform(&[16, 3, 32, 32], 0.0, 1.0);
    let conv_flops: usize = stages
        .iter()
        .map(|&(cin, cout, side)| cin * 9 * cout * side * side)
        .sum();
    let head_flops = features * CLASS_COUNT;
    let step_model = model.clone();
    jobs.push(Workload {
        name: "victim_compact_forward_b16".into(),
        flops: 2.0 * (16 * (conv_flops + head_flops)) as f64,
        run: Box::new(move || model.forward(&frames).expect("forward").into_vec()),
    });

    // One whole training step of the served victim at its training
    // batch, from the same weights every call: zero_grad, forward_train,
    // cross-entropy, backward, Adam. Returns the updated parameters.
    let batch = rng.uniform(&[TRAIN_BATCH, 3, 32, 32], 0.0, 1.0);
    let labels: Vec<usize> = (0..TRAIN_BATCH).map(|i| i % CLASS_COUNT).collect();
    let stage1_flops = stages
        .first()
        .map_or(0, |&(cin, cout, side)| cin * 9 * cout * side * side);
    jobs.push(Workload {
        name: format!("victim_compact_train_step_b{TRAIN_BATCH}"),
        // Forward, ∂weight, and ∂input below the first layer.
        flops: 2.0 * (TRAIN_BATCH * (3 * (conv_flops + head_flops) - stage1_flops)) as f64,
        run: Box::new(move || {
            let mut model = step_model.clone();
            let mut adam = Adam::new(1e-3);
            model.zero_grad();
            let logits = model.forward_train(&batch).expect("forward_train");
            let loss = CrossEntropyLoss::new()
                .compute(&logits, &labels)
                .expect("cross-entropy");
            model.backward(&loss.grad).expect("backward");
            adam.step(&mut model.params_mut()).expect("Adam step");
            model
                .params()
                .iter()
                .flat_map(|p| p.value.as_slice().iter().copied())
                .collect()
        }),
    });
    jobs
}

/// One timed cell: median over `samples` of (elapsed / iters).
fn time_ns(run: &dyn Fn() -> Vec<f32>, iters: usize, samples: usize) -> u128 {
    let mut per_iter: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(run());
            }
            start.elapsed().as_nanos() / iters as u128
        })
        .collect();
    per_iter.sort_unstable();
    per_iter[per_iter.len() / 2]
}

/// Picks an iteration count so one sample lasts roughly `target_ms`.
fn calibrate(run: &dyn Fn() -> Vec<f32>, target_ms: u128) -> usize {
    let start = Instant::now();
    black_box(run());
    let one = start.elapsed().as_nanos().max(1);
    ((target_ms * 1_000_000) / one).clamp(1, 1_000) as usize
}

struct Cell {
    workload: String,
    threads: usize,
    isa: Isa,
    ns_per_iter: u128,
    gflops: f64,
    /// `gflops` over the instantiation's mul+add ceiling times `threads`.
    peak_frac: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let isas = simd::available();
    let isa = simd::detected();
    let isa_names: Vec<&str> = isas.iter().map(|i| i.name()).collect();
    eprintln!(
        "[kernels] host cores: {host_cores}, isa: {} (gate: {}), mode: {}",
        isa.name(),
        isa_names.join(" = "),
        if quick { "smoke (--test)" } else { "full" }
    );
    if isa == Isa::Baseline {
        eprintln!("[kernels] host lacks AVX2 and AVX-512F: cross-instantiation gate skipped");
    }
    // One core's mul+add ceiling per instantiation; a cell's peak
    // fraction divides its GFLOP/s by this times its thread count.
    let ceilings: Vec<(Isa, f64)> = isas
        .iter()
        .map(|&i| (i, simd::peak_gflops(i).unwrap_or(0.0)))
        .collect();
    let ceiling = |i: Isa| ceilings.iter().find(|c| c.0 == i).map_or(0.0, |c| c.1);
    for &(i, peak) in &ceilings {
        eprintln!(
            "[kernels] mul+add ceiling {:<8} {peak:>7.2} GFLOP/s per core",
            i.name()
        );
    }

    let jobs = workloads();
    let mut cells: Vec<Cell> = Vec::new();
    let timed_threads: Vec<usize> = THREAD_SWEEP
        .into_iter()
        .filter(|&t| t <= host_cores)
        .collect();

    // Scratch-arena gate: at one compute thread, one warm call per
    // workload must lease every scratch buffer from the arena without
    // growing it — the steady-state zero-allocation contract. Runs in
    // both modes so the CI smoke (`--test`) enforces it on every push.
    par::set_threads(1);
    for job in &jobs {
        black_box((job.run)());
        let before = alloc::stats();
        black_box((job.run)());
        let after = alloc::stats();
        assert_eq!(
            after.grows - before.grows,
            0,
            "{}: warm serial call grew a scratch buffer (arena disengaged?)",
            job.name
        );
    }
    let arena = alloc::stats();
    assert!(
        arena.hits > 0,
        "no arena hits across all workloads — scratch arena is not engaged"
    );
    eprintln!(
        "[kernels] arena: {} acquires, {} hits, {} grows, {} evictions (warm serial grows: 0)",
        arena.acquires, arena.hits, arena.grows, arena.evictions
    );

    for job in &jobs {
        let time = |threads: usize, isa: Isa| {
            let (iters, samples) = if quick {
                (1, 1)
            } else {
                (calibrate(&*job.run, 40), 5)
            };
            let ns = time_ns(&*job.run, iters, samples);
            let gflops = job.flops / ns.max(1) as f64;
            let peak_frac = gflops / (ceiling(isa) * threads as f64).max(f64::MIN_POSITIVE);
            eprintln!(
                "[kernels] {:<34} t={threads} {:<8} {ns:>12} ns/iter {gflops:>7.2} GFLOP/s {peak_frac:>6.3} of peak",
                job.name,
                isa.name()
            );
            Cell {
                workload: job.name.clone(),
                threads,
                isa,
                ns_per_iter: ns,
                gflops,
                peak_frac,
            }
        };

        // Bit-identity gate: the serial baseline-instantiation output is
        // the reference; every narrower instantiation the host runs, and
        // the detected one at every thread count, must reproduce it
        // exactly before being timed.
        par::set_threads(1);
        let mut reference: Option<Vec<u32>> = None;
        for &narrow in isas.iter().filter(|&&i| i != isa) {
            simd::pin(Some(narrow));
            let got: Vec<u32> = (job.run)().iter().map(|v| v.to_bits()).collect();
            let want = reference.get_or_insert_with(|| got.clone());
            assert_eq!(
                &got,
                want,
                "{} on {} diverged from the serial baseline reference",
                job.name,
                narrow.name()
            );
            cells.push(time(1, narrow));
        }
        simd::pin(None);

        for &t in &THREAD_SWEEP {
            par::set_threads(t);
            let got: Vec<u32> = (job.run)().iter().map(|v| v.to_bits()).collect();
            let want = reference.get_or_insert_with(|| got.clone());
            assert_eq!(
                &got,
                want,
                "{} at {t} threads on {} diverged from the serial baseline reference",
                job.name,
                isa.name()
            );
            if timed_threads.contains(&t) {
                cells.push(time(t, isa));
            }
        }
    }
    par::set_threads(1);

    if quick {
        eprintln!("[kernels] smoke mode: artifacts not written");
        return;
    }

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let json_path = format!("{root}/BENCH_kernels.json");
    let txt_path = format!("{root}/results/kernels.txt");

    let cell = |name: &str, threads: usize, isa: Isa| {
        cells
            .iter()
            .find(|c| c.workload == name && c.threads == threads && c.isa == isa)
    };
    let ns_of = |name: &str, threads: usize, isa: Isa| {
        cell(name, threads, isa).map_or(0, |c| c.ns_per_iter)
    };

    let mut json = String::from("{\n  \"bench\": \"kernels\",\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"isa\": \"{}\",\n", isa.name()));
    json.push_str(
        "  \"note\": \"bit-exact at 1/2/4/8 threads and across every kernel instantiation the host runs; narrower instantiations timed at t=1; only threads <= host_cores are timed; peak_frac = gflops / (ceiling_gflops of the cell's isa x threads)\",\n",
    );
    let ceiling_json: Vec<String> = ceilings
        .iter()
        .map(|(i, peak)| format!("\"{}\": {peak:.3}", i.name()))
        .collect();
    json.push_str(&format!(
        "  \"ceiling_gflops\": {{{}}},\n",
        ceiling_json.join(", ")
    ));
    let final_arena = alloc::stats();
    json.push_str(&format!(
        "  \"arena\": {{\"acquires\": {}, \"hits\": {}, \"grows\": {}, \"evictions\": {}, \"warm_serial_grows\": 0}},\n",
        final_arena.acquires, final_arena.hits, final_arena.grows, final_arena.evictions
    ));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let speedup = ns_of(&c.workload, 1, isa) as f64 / c.ns_per_iter.max(1) as f64;
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"isa\": \"{}\", \"ns_per_iter\": {}, \"gflops\": {:.3}, \"peak_frac\": {:.3}, \"speedup_vs_serial\": {:.3}}}{}\n",
            c.workload,
            c.threads,
            c.isa.name(),
            c.ns_per_iter,
            c.gflops,
            c.peak_frac,
            speedup,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let mut txt = String::new();
    txt.push_str(&format!(
        "kernel throughput (ns/iter, median of 5) — host cores: {host_cores}, isa: {}\n",
        isa.name()
    ));
    let narrower: Vec<Isa> = isas.iter().copied().filter(|&i| i != isa).collect();
    let isa_heads: String = narrower
        .iter()
        .map(|i| format!(" {:>12}", format!("{} t=1", i.name())))
        .collect();
    let thread_heads: String = timed_threads
        .iter()
        .map(|t| format!(" {:>12}", format!("{} t={t}", isa.name())))
        .collect();
    let ceiling_txt: Vec<String> = ceilings
        .iter()
        .map(|(i, peak)| format!("{} {peak:.2}", i.name()))
        .collect();
    txt.push_str(&format!(
        "mul+add ceiling per core (GFLOP/s): {}; peak_frac = GFLOP/s over the {} t=1 ceiling\n",
        ceiling_txt.join(", "),
        isa.name()
    ));
    txt.push_str(&format!(
        "{:<34}{isa_heads}{thread_heads} {:>10} {:>10}\n",
        "workload", "GFLOP/s", "peak_frac"
    ));
    for job in &jobs {
        txt.push_str(&format!("{:<34}", job.name));
        for &narrow in &narrower {
            txt.push_str(&format!(" {:>12}", ns_of(&job.name, 1, narrow)));
        }
        for &t in &timed_threads {
            txt.push_str(&format!(" {:>12}", ns_of(&job.name, t, isa)));
        }
        let (gflops, frac) =
            cell(&job.name, 1, isa).map_or((0.0, 0.0), |c| (c.gflops, c.peak_frac));
        txt.push_str(&format!(" {gflops:>10.2} {frac:>10.3}\n"));
    }
    txt.push_str(&format!(
        "\nspeedup vs t=1 (bit-identical outputs asserted at 1/2/4/8 threads and on {})\n{:<34}{thread_heads}\n",
        isa_names.join(", "),
        "workload"
    ));
    for job in &jobs {
        txt.push_str(&format!("{:<34}", job.name));
        let base = ns_of(&job.name, 1, isa);
        for &t in &timed_threads {
            let ns = ns_of(&job.name, t, isa);
            txt.push_str(&format!(" {:>11.2}x", base as f64 / ns.max(1) as f64));
        }
        txt.push('\n');
    }

    atomic_write(Path::new(&json_path), json.as_bytes()).expect("write BENCH_kernels.json");
    atomic_write(Path::new(&txt_path), txt.as_bytes()).expect("write results/kernels.txt");
    eprintln!("[kernels] wrote {json_path} and {txt_path}");
}
