//! Compute-kernel throughput: the cache-blocked GEMM, conv, and filter
//! kernels run serially and on the `fademl_tensor::par` worker pool at
//! 1/2/4/8 threads — every count is bit-checked, but only counts the
//! host has cores for are timed and recorded (more threads than cores
//! measures the scheduler, not the kernel). Shapes mirror the paper's
//! victims (VGG-ish CIFAR layer, GTSRB-ish mid layer), the five
//! convolution stages of the served Compact victim at batch 1 and 16
//! (forward) and at the training batch of 32 (backward), and its
//! classifier head.
//! GEMM-backed workloads also report GFLOP/s, and are timed once more
//! on the baseline instantiation of the micro-kernel when the host
//! runs the AVX2 one, so the ISA's share of a number is visible.
//!
//! Unlike the criterion benches this one emits machine-readable
//! artifacts — `BENCH_kernels.json` at the repo root and
//! `results/kernels.txt` — because it is the first datapoint of the
//! bench trajectory. It also asserts that every workload's output is
//! bit-identical across thread counts *and* across the micro-kernel's
//! instantiations (baseline vs AVX2) before timing it, so the numbers
//! can never come from a divergent kernel.
//!
//! `cargo bench -p fademl-bench --bench kernels` — full run.
//! `cargo bench -p fademl-bench --bench kernels -- --test` — CI smoke:
//! one iteration per cell, artifacts not written.

use std::hint::black_box;
use std::time::Instant;

use fademl_data::CLASS_COUNT;
use fademl_filters::FilterSpec;
use fademl_nn::vgg::VggProfile;
use fademl_tensor::plan::alloc;
use fademl_tensor::simd::{self, Isa};
use fademl_tensor::{conv2d, conv2d_backward, par, ConvSpec, Tensor, TensorRng};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// `TrainConfig::default().batch_size`: the shape a training step's
/// backward runs at.
const TRAIN_BATCH: usize = 32;

/// A named kernel workload returning its full output buffer (flattened)
/// so cross-thread bit-identity can be checked on everything computed.
struct Workload {
    name: String,
    /// Floating-point operations of one run (2 per multiply-add); zero
    /// for workloads that are not a GEMM.
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
            flops: 0.0,
            run: {
                let x = batch.clone();
                Box::new(move || lap.apply(&x).expect("LAP apply").into_vec())
            },
        },
        Workload {
            name: "filter_lar2_backward_8x3x32x32".into(),
            flops: 0.0,
            run: Box::new(move || {
                lar.backward(&batch, &grad)
                    .expect("LAR backward")
                    .into_vec()
            }),
        },
    ];

    // The served victim, stage by stage, as one frame and as a full
    // serving batch; then its backward at the batch it is trained with.
    let stages = victim_stages();
    for (stage, &(cin, cout, side)) in stages.iter().enumerate() {
        let spec = ConvSpec::new(cin, cout, 3, 1, 1);
        for n in [1usize, 16] {
            let x = rng.uniform(&[n, cin, side, side], 0.0, 1.0);
            let w = rng.uniform(&[cout, cin, 3, 3], -0.1, 0.1);
            let bias = rng.uniform(&[cout], -0.1, 0.1);
            jobs.push(Workload {
                name: format!("conv2d_victim_stage{}_b{n}", stage + 1),
                flops: 2.0 * (n * cin * 9 * cout * side * side) as f64,
                run: Box::new(move || conv2d(&x, &w, &bias, &spec).expect("conv2d").into_vec()),
            });
        }
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
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let isa = simd::detected();
    eprintln!(
        "[kernels] host cores: {host_cores}, isa: {}, mode: {}",
        isa.name(),
        if quick { "smoke (--test)" } else { "full" }
    );
    if isa == Isa::Baseline {
        eprintln!("[kernels] host lacks AVX2: baseline-vs-AVX2 gate skipped");
    }

    let jobs = workloads();
    let mut cells: Vec<Cell> = Vec::new();
    let timed_threads: Vec<usize> = THREAD_SWEEP
        .into_iter()
        .filter(|&t| t <= host_cores)
        .collect();

    // Scratch-arena gate: with the pool serial, one warm call per
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
            eprintln!(
                "[kernels] {:<34} t={threads} {:<8} {ns:>12} ns/iter {gflops:>7.2} GFLOP/s",
                job.name,
                isa.name()
            );
            Cell {
                workload: job.name.clone(),
                threads,
                isa,
                ns_per_iter: ns,
                gflops,
            }
        };

        // Bit-identity gate: the serial baseline-instantiation output is
        // the reference; every thread count and the detected
        // instantiation must reproduce it exactly before being timed.
        par::set_threads(1);
        simd::set_baseline_only(true);
        let reference: Vec<u32> = (job.run)().iter().map(|v| v.to_bits()).collect();
        if isa != Isa::Baseline {
            cells.push(time(1, Isa::Baseline));
        }
        simd::set_baseline_only(false);

        for &t in &THREAD_SWEEP {
            par::set_threads(t);
            let got: Vec<u32> = (job.run)().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got,
                reference,
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
        "  \"note\": \"bit-exact at 1/2/4/8 threads and across kernel instantiations; only threads <= host_cores are timed\",\n",
    );
    let final_arena = alloc::stats();
    json.push_str(&format!(
        "  \"arena\": {{\"acquires\": {}, \"hits\": {}, \"grows\": {}, \"evictions\": {}, \"warm_serial_grows\": 0}},\n",
        final_arena.acquires, final_arena.hits, final_arena.grows, final_arena.evictions
    ));
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let speedup = ns_of(&c.workload, 1, isa) as f64 / c.ns_per_iter.max(1) as f64;
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"isa\": \"{}\", \"ns_per_iter\": {}, \"gflops\": {:.3}, \"speedup_vs_serial\": {:.3}}}{}\n",
            c.workload,
            c.threads,
            c.isa.name(),
            c.ns_per_iter,
            c.gflops,
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
    let thread_heads: String = timed_threads
        .iter()
        .map(|t| format!(" {:>12}", format!("t={t}")))
        .collect();
    txt.push_str(&format!(
        "{:<34} {:>12}{thread_heads} {:>10}\n",
        "workload", "baseline t=1", "GFLOP/s"
    ));
    for job in &jobs {
        txt.push_str(&format!(
            "{:<34} {:>12}",
            job.name,
            ns_of(&job.name, 1, Isa::Baseline)
        ));
        for &t in &timed_threads {
            txt.push_str(&format!(" {:>12}", ns_of(&job.name, t, isa)));
        }
        let gflops = cell(&job.name, 1, isa).map_or(0.0, |c| c.gflops);
        txt.push_str(&format!(" {gflops:>10.2}\n"));
    }
    txt.push_str(&format!(
        "\nspeedup vs t=1 (bit-identical outputs asserted at 1/2/4/8 threads)\n{:<34}{thread_heads}\n",
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

    std::fs::write(&json_path, json).expect("write BENCH_kernels.json");
    std::fs::write(&txt_path, txt).expect("write results/kernels.txt");
    eprintln!("[kernels] wrote {json_path} and {txt_path}");
}
