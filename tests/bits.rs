//! The cross-commit bit corpus: recomputes `results/bits.txt` and diffs
//! it against the committed file, so "no bit moved" is a test and not a
//! scratch probe. Every other bit gate in the workspace compares two
//! paths of the *same* build; this one compares the build with its
//! ancestors.
//!
//! `FADEML_BLESS=1 cargo test -p fademl --test bits` rewrites the file.
//! House rule: a changed line is named, with its reason, in CHANGES.md.
//!
//! The `[arithmetic]` group draws every input and weight from uniform
//! xoshiro output and only adds, multiplies and compares, so it is
//! host-independent. The `[same-host]` group is downstream of `exp`,
//! `ln` and `cos` (softmax, Box–Muller init, sensor noise) and is only
//! stable on one platform's libm; it also holds what sits on top of the
//! kernels — one FAdeML[BIM] example, the pipeline's verdicts under each
//! threat model, and the cells and accuracy bars of the Fig. 5, 6, 7
//! and 9 drivers.

use std::path::Path;

use fademl::defense::{adversarial_fit, AdversarialTrainingConfig};
use fademl::experiments::{
    fig5, fig6, fig7, fig9, AccuracyGrid, AttackParams, ScenarioCell, StageLedger,
};
use fademl::setup::{ExperimentSetup, SetupProfile};
use fademl::{Detection, InferencePipeline, Scenario, ThreatModel, Verdict};
use fademl_attacks::{Attack, AttackGoal, AttackSurface, Bim, Fademl};
use fademl_data::{save_dataset, DatasetConfig, NoiseModel, SignDataset, CLASS_COUNT};
use fademl_detect::features::feature_dim;
use fademl_detect::{Detector, DetectorConfig};
use fademl_filters::FilterSpec;
use fademl_net::wire::encode_frame;
use fademl_net::{Frame, WireRequest, WireResponse};
use fademl_nn::metrics::Prediction;
use fademl_nn::serialize::encode_weights;
use fademl_nn::vgg::{VggConfig, VggProfile};
use fademl_nn::{
    CheckpointConfig, EpochStats, OptimizerState, Sequential, TrainConfig, TrainHistory,
    TrainSignal, TrainState, Trainer,
};
use fademl_tensor::io::atomic_write;
use fademl_tensor::{
    col2im, conv2d, conv2d_backward, conv2d_layer, digest, fnv1a, im2col, max_pool2d, par, simd,
    ConvSpec, PoolSpec, Tensor, TensorRng, TransposedWeight,
};

const TABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/bits.txt");

type Lines = Vec<(String, u64)>;

/// A Compact victim whose every parameter is a uniform draw (the
/// builder's own init goes through Box–Muller, hence libm).
fn uniform_victim(rng: &mut TensorRng) -> Sequential {
    let mut model = VggConfig::new(VggProfile::Compact, 3, 32, CLASS_COUNT)
        .build(rng)
        .expect("compact victim builds");
    for p in model.params_mut() {
        p.value = rng.uniform(p.value.dims(), -0.1, 0.1);
    }
    model
}

/// The convolution as a layer runs it — with its transpose kept, so
/// fewer than 32 output columns take the swapped product — checked
/// against plain `conv2d`, which never swaps.
fn layer_conv(x: &Tensor, w: &Tensor, b: &Tensor, spec: &ConvSpec) -> Tensor {
    let kept = TransposedWeight::default();
    let out = conv2d_layer(x, w, &kept, b, spec, false).expect("conv2d_layer");
    let plain = conv2d(x, w, b, spec).expect("conv2d");
    assert_eq!(digest(out.as_slice()), digest(plain.as_slice()), "{spec:?}");
    out
}

fn arithmetic() -> Lines {
    let mut lines = Lines::new();
    let (mut cin, mut side) = (3usize, 32usize);
    for (stage, cout) in (1..).zip(VggProfile::Compact.stage_channels()) {
        for n in [1usize, 16] {
            let mut rng = TensorRng::seed_from_u64(stage);
            let spec = ConvSpec::new(cin, cout, 3, 1, 1);
            let x = rng.uniform(&[n, cin, side, side], 0.0, 1.0);
            let w = rng.uniform(&[cout, cin, 3, 3], -0.1, 0.1);
            let g = rng.uniform(&[n, cout, side, side], -1.0, 1.0);
            let b = rng.uniform(&[cout], -0.1, 0.1);
            let out = layer_conv(&x, &w, &b, &spec);
            lines.push((format!("conv2d.stage{stage}.b{n}"), digest(out.as_slice())));
            let grads = conv2d_backward(&x, &w, &g, &spec).expect("conv2d_backward");
            for (part, t) in [
                ("input", &grads.input),
                ("weight", &grads.weight),
                ("bias", &grads.bias),
            ] {
                lines.push((
                    format!("conv2d_backward.stage{stage}.b{n}.{part}"),
                    digest(t.as_slice()),
                ));
            }
        }
        (cin, side) = (cout, side / 2);
    }

    // Around the narrow-output operand swap (fewer than 32 output
    // columns): stages 4 and 5 at b2, b7 and b8, and the argmax of every
    // stage's b1 pool over coarse values (ties) with a few NaNs.
    let (mut cin, mut side) = (3usize, 32usize);
    for (stage, cout) in (1..).zip(VggProfile::Compact.stage_channels()) {
        let spec = ConvSpec::new(cin, cout, 3, 1, 1);
        // Stage 1 at b2 and b3: the direct ∂input on more than one sample.
        let batches: &[usize] = match stage {
            1 => &[2, 3],
            4 | 5 => &[2, 7, 8],
            _ => &[],
        };
        for &n in batches {
            let mut rng = TensorRng::seed_from_u64(stage * 100 + n as u64);
            let x = rng.uniform(&[n, cin, side, side], 0.0, 1.0);
            let w = rng.uniform(&[cout, cin, 3, 3], -0.1, 0.1);
            let g = rng.uniform(&[n, cout, side, side], -1.0, 1.0);
            let b = rng.uniform(&[cout], -0.1, 0.1);
            let out = layer_conv(&x, &w, &b, &spec);
            lines.push((format!("conv2d.stage{stage}.b{n}"), digest(out.as_slice())));
            let grads = conv2d_backward(&x, &w, &g, &spec).expect("conv2d_backward");
            lines.push((
                format!("conv2d_backward.stage{stage}.b{n}.input"),
                digest(grads.input.as_slice()),
            ));
        }
        let mut rng = TensorRng::seed_from_u64(stage * 100);
        let mut plane = rng.uniform(&[1, cout, side, side], 0.0, 4.0);
        for (i, v) in plane.as_mut_slice().iter_mut().enumerate() {
            *v = if i % 37 == 5 { f32::NAN } else { v.floor() };
        }
        let pooled = max_pool2d(&plane, &PoolSpec::half()).expect("max_pool2d");
        let argmax: Vec<u8> = pooled
            .argmax
            .iter()
            .flat_map(|&i| (i as u64).to_le_bytes())
            .collect();
        lines.push((format!("max_pool2d.stage{stage}.b1.argmax"), fnv1a(&argmax)));
        (cin, side) = (cout, side / 2);
    }

    // The forward at the figure drivers' bar batch (b20) at every stage,
    // and a stride-1 plane whose rows (43 and 45 wide) are no multiple
    // of 8, 16 or 32, so column strips straddle rows and samples.
    let (mut cin, mut side) = (3usize, 32usize);
    for (stage, cout) in (1..).zip(VggProfile::Compact.stage_channels()) {
        let mut rng = TensorRng::seed_from_u64(stage * 1000 + 20);
        let spec = ConvSpec::new(cin, cout, 3, 1, 1);
        let x = rng.uniform(&[20, cin, side, side], 0.0, 1.0);
        let w = rng.uniform(&[cout, cin, 3, 3], -0.1, 0.1);
        let b = rng.uniform(&[cout], -0.1, 0.1);
        let out = layer_conv(&x, &w, &b, &spec);
        lines.push((format!("conv2d.stage{stage}.b20"), digest(out.as_slice())));
        (cin, side) = (cout, side / 2);
    }
    let mut rng = TensorRng::seed_from_u64(17);
    for pad in [0, 1] {
        let spec = ConvSpec::new(3, 5, 3, 1, pad);
        let x = rng.uniform(&[2, 3, 17, 45], -1.0, 1.0);
        let w = rng.uniform(&[5, 3, 3, 3], -1.0, 1.0);
        let b = rng.uniform(&[5], -0.5, 0.5);
        let out = layer_conv(&x, &w, &b, &spec);
        lines.push((
            format!("conv2d.c3.17x45.f5.p{pad}.b2"),
            digest(out.as_slice()),
        ));
    }

    let mut rng = TensorRng::seed_from_u64(6);
    let acts = rng.uniform(&[16, cin], 0.0, 1.0);
    let head = rng.uniform(&[CLASS_COUNT, cin], -0.1, 0.1);
    let product = acts.matmul_nt(&head).expect("matmul_nt");
    lines.push(("matmul_nt.head.b16".into(), digest(product.as_slice())));

    let plane = rng.uniform(&[16, 8, 32, 32], -1.0, 1.0);
    let pooled = max_pool2d(&plane, &PoolSpec::half()).expect("max_pool2d");
    lines.push((
        "max_pool2d.stage1.b16.output".into(),
        digest(pooled.output.as_slice()),
    ));
    let argmax: Vec<u8> = pooled
        .argmax
        .iter()
        .flat_map(|&i| (i as u64).to_le_bytes())
        .collect();
    lines.push(("max_pool2d.stage1.b16.argmax".into(), fnv1a(&argmax)));

    let model = uniform_victim(&mut rng);
    for n in [1usize, 16, 20] {
        let x = rng.uniform(&[n, 3, 32, 32], 0.0, 1.0);
        let logits = model.forward(&x).expect("victim forward");
        lines.push((
            format!("victim.compact.logits.b{n}"),
            digest(logits.as_slice()),
        ));
    }

    // The unfold and its adjoint off the victim's geometry: pad 0 and 2,
    // kernels 1 and 5, a plane narrower than the kernel, stride 2.
    let mut rng = TensorRng::seed_from_u64(11);
    for (c, h, w, kernel, stride, pad) in [
        (2, 5, 7, 1, 1, 0),
        (2, 5, 7, 3, 1, 2),
        (2, 5, 7, 5, 1, 0),
        (2, 5, 7, 5, 1, 2),
        (2, 2, 3, 5, 1, 2),
        (3, 9, 7, 3, 2, 1),
        (2, 6, 5, 5, 2, 2),
    ] {
        let spec = ConvSpec::new(c, 1, kernel, stride, pad);
        let tag = format!("c{c}.{h}x{w}.k{kernel}.s{stride}.p{pad}");
        let x = rng.uniform(&[c, h, w], -1.0, 1.0);
        let cols = im2col(&x, &spec).expect("im2col");
        lines.push((format!("im2col.{tag}"), digest(cols.as_slice())));
        let y = rng.uniform(cols.dims(), -1.0, 1.0);
        let folded = col2im(&y, &spec, h, w).expect("col2im");
        lines.push((format!("col2im.{tag}"), digest(folded.as_slice())));
    }

    // The head's two backward products (∂input and ∂weight of `Dense`),
    // then every filter of the paper's sweep, forward and adjoint, on
    // one image and on a b16 batch. LAP/LAR taps are sums and quotients.
    let mut rng = TensorRng::seed_from_u64(12);
    let acts = rng.uniform(&[16, cin], 0.0, 1.0);
    let head = rng.uniform(&[CLASS_COUNT, cin], -0.1, 0.1);
    let grad = rng.uniform(&[16, CLASS_COUNT], -1.0, 1.0);
    let product = grad.matmul(&head).expect("matmul");
    lines.push(("matmul.head.b16".into(), digest(product.as_slice())));
    let product = grad.matmul_tn(&acts).expect("matmul_tn");
    lines.push(("matmul_tn.head.b16".into(), digest(product.as_slice())));
    for spec in FilterSpec::paper_sweep() {
        let filter = spec.build().expect("paper filter builds");
        let tag = spec.to_string().to_lowercase().replace(['(', ')'], "");
        for dims in [&[3, 32, 32][..], &[16, 3, 32, 32]] {
            let shape = dims.iter().map(usize::to_string).collect::<Vec<_>>();
            let shape = shape.join("x");
            let x = rng.uniform(dims, 0.0, 1.0);
            let g = rng.uniform(dims, -1.0, 1.0);
            let out = filter.apply(&x).expect("filter apply");
            lines.push((
                format!("filter.{tag}.{shape}.apply"),
                digest(out.as_slice()),
            ));
            let back = filter.backward(&x, &g).expect("filter backward");
            lines.push((
                format!("filter.{tag}.{shape}.backward"),
                digest(back.as_slice()),
            ));
        }
    }
    // Off the 32×32 plane: a partial 32-column chunk, two chunks, an odd
    // row count and taps longer than the plane, forward and adjoint.
    let mut rng = TensorRng::seed_from_u64(16);
    for (spec, dims) in [
        (FilterSpec::Lap { np: 32 }, [2, 17, 45]),
        (FilterSpec::Lar { r: 5 }, [2, 17, 45]),
        (FilterSpec::Lap { np: 64 }, [1, 5, 3]),
    ] {
        let filter = spec.build().expect("filter builds");
        let tag = spec.to_string().to_lowercase().replace(['(', ')'], "");
        let shape = format!("{}x{}x{}", dims[0], dims[1], dims[2]);
        let x = rng.uniform(&dims, 0.0, 1.0);
        let g = rng.uniform(&dims, -1.0, 1.0);
        let out = filter.apply(&x).expect("filter apply");
        lines.push((
            format!("filter.{tag}.{shape}.apply"),
            digest(out.as_slice()),
        ));
        let back = filter.backward(&x, &g).expect("filter backward");
        lines.push((
            format!("filter.{tag}.{shape}.backward"),
            digest(back.as_slice()),
        ));
    }
    artifact_lines(&mut lines);
    lines
}

/// One encoded instance of every persisted or framed artifact, each
/// field a uniform draw: the proof that every byte an earlier encoder
/// wrote is the byte today's writes (and so still loads).
fn artifact_lines(lines: &mut Lines) {
    let mut rng = TensorRng::seed_from_u64(13);
    let model = uniform_victim(&mut rng);
    lines.push(("artifact.weights".into(), fnv1a(&encode_weights(&model))));

    let tensors = |rng: &mut TensorRng| -> Vec<Tensor> {
        [&[5][..], &[2, 3], &[2, 1, 2, 3]]
            .iter()
            .map(|dims| rng.uniform(dims, -1.0, 1.0))
            .collect()
    };
    let state = TrainState {
        epochs_done: 3,
        rng_state: rng.state(),
        learning_rate: rng.uniform_scalar(0.0, 0.1),
        params: tensors(&mut rng),
        optimizer: OptimizerState::Adam {
            lr: rng.uniform_scalar(0.0, 0.1),
            beta1: rng.uniform_scalar(0.8, 0.9),
            beta2: rng.uniform_scalar(0.9, 1.0),
            eps: rng.uniform_scalar(0.0, 1e-6),
            t: 7,
            m: tensors(&mut rng),
            v: tensors(&mut rng),
        },
        history: TrainHistory {
            epochs: (0..3)
                .map(|_| EpochStats {
                    loss: rng.uniform_scalar(0.0, 4.0),
                    train_accuracy: rng.uniform_scalar(0.0, 1.0),
                })
                .collect(),
        },
    };
    lines.push(("artifact.checkpoint".into(), fnv1a(&state.encode())));

    let labels = (0..4).map(|_| rng.index(CLASS_COUNT)).collect();
    let dataset = SignDataset::from_parts(rng.uniform(&[4, 3, 8, 8], 0.0, 1.0), labels)
        .expect("uniform dataset");
    let mut bytes = Vec::new();
    save_dataset(&dataset, &mut bytes).expect("dataset encodes");
    lines.push(("artifact.dataset".into(), fnv1a(&bytes)));

    let config = DetectorConfig {
        trees: 6,
        subsample: 16,
        scales: 2,
        seed: 14,
    };
    let dim = feature_dim(config.scales);
    let rows: Vec<Vec<f32>> = (0..24)
        .map(|_| rng.uniform(&[dim], 0.0, 1.0).as_slice().to_vec())
        .collect();
    let detector = Detector::fit(&rows, &config).expect("uniform forest");
    lines.push(("artifact.detector".into(), fnv1a(&detector.to_bytes())));
    // The lines below are pinned on an RNG stream that has drawn these
    // 20 feature rows.
    for _ in 0..20 {
        rng.uniform(&[dim], 0.0, 1.0);
    }

    let path = std::env::temp_dir().join(format!("fademl_bits_{}.ledger", std::process::id()));
    std::fs::remove_file(&path).ok();
    let ledger = StageLedger::open(&path, 0xFADE).expect("ledger opens");
    for key in ["fig7/s1", "fig7/s2", "fig9/s1"] {
        let value: Vec<u8> = rng
            .uniform(&[4], 0.0, 1.0)
            .as_slice()
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        ledger.record(key, &value).expect("ledger record");
    }
    let bytes = std::fs::read(&path).expect("ledger reads back");
    std::fs::remove_file(&path).ok();
    lines.push(("artifact.ledger".into(), fnv1a(&bytes)));

    let request = Frame::Request(WireRequest {
        id: 21,
        threat: ThreatModel::II,
        deadline_us: 5_000,
        tenant: "tenant-a".into(),
        image: rng.uniform(&[3, 8, 8], 0.0, 1.0),
    });
    let bytes = encode_frame(&request).expect("request encodes");
    lines.push(("artifact.request".into(), fnv1a(&bytes)));
    let response = Frame::Response(WireResponse {
        id: 21,
        verdict: Verdict {
            class: 3,
            confidence: rng.uniform_scalar(0.0, 1.0),
            top5: Prediction {
                top_classes: vec![3, 1, 4],
                top_probs: (0..3).map(|_| rng.uniform_scalar(0.0, 1.0)).collect(),
            },
            probabilities: rng.uniform(&[1, CLASS_COUNT], 0.0, 1.0),
            detection: Some(Detection {
                score: rng.uniform_scalar(0.0, 1.0),
                flagged: true,
                hardened: false,
            }),
        },
    });
    let bytes = encode_frame(&response).expect("response encodes");
    lines.push(("artifact.response".into(), fnv1a(&bytes)));
}

fn same_host() -> Lines {
    let mut lines = Lines::new();
    let mut rng = TensorRng::seed_from_u64(7);
    let model = uniform_victim(&mut rng);
    let x = rng.uniform(&[3, 32, 32], 0.0, 1.0);
    let goal = AttackGoal::Targeted { class: 3 };
    let lap32 = FilterSpec::Lap { np: 32 }.build().expect("LAP(32) builds");
    for (name, mut surface) in [
        ("bare", AttackSurface::new(model.clone())),
        (
            "lap32",
            AttackSurface::with_filter(model.clone(), lap32.clone()),
        ),
    ] {
        let (loss, grad) = surface
            .loss_and_input_grad(&x, goal)
            .expect("loss_and_input_grad");
        lines.push((format!("loss_and_input_grad.{name}.loss"), digest(&[loss])));
        lines.push((
            format!("loss_and_input_grad.{name}.grad"),
            digest(grad.as_slice()),
        ));
    }

    let params = AttackParams::default();
    let bim = Bim::new(params.epsilon, params.bim_alpha, params.bim_iterations).expect("BIM");
    let example = Fademl::new(Box::new(bim), params.fademl_rounds, params.fademl_eta)
        .expect("FAdeML[BIM]")
        .run(&mut AttackSurface::with_filter(model, lap32), &x, goal)
        .expect("FAdeML[BIM] through LAP(32)");
    lines.push((
        "fademl_bim.lap32.adversarial".into(),
        digest(example.adversarial.as_slice()),
    ));
    verdict_lines(&mut lines);
    noise_lines(&mut lines);

    let data = SignDataset::generate(&DatasetConfig {
        samples_per_class: 4,
        seed: 8,
        ..DatasetConfig::default()
    })
    .expect("SynSign slice");
    let victim = || {
        VggConfig::new(VggProfile::Compact, 3, 32, CLASS_COUNT)
            .build(&mut TensorRng::seed_from_u64(9))
            .expect("compact victim builds")
    };
    let two_epochs = TrainConfig {
        epochs: 2,
        seed: 10,
        ..TrainConfig::default()
    };
    let mut model = victim();
    let history = Trainer::new(two_epochs.clone())
        .fit(&mut model, data.images(), data.labels())
        .expect("two epochs");
    lines.push(("fit.synsign43x4.epochs2.weights".into(), weights(&model)));
    lines.push((
        "fit.synsign43x4.epochs2.history".into(),
        history_digest(&history),
    ));

    // The resume path: straight through, then halted after epoch 1 and
    // resumed from its checkpoint; both runs must agree to the bit.
    let mut durable = Vec::new();
    for halt_after in [None, Some(1)] {
        let dir = std::env::temp_dir().join(format!(
            "fademl_bits_fit_durable_{}_{halt_after:?}",
            std::process::id()
        ));
        remove_dir(&dir);
        let ckpt = CheckpointConfig::new(&dir).every(1);
        let mut model = victim();
        if let Some(epoch) = halt_after {
            let report = Trainer::new(two_epochs.clone())
                .fit_durable_with(&mut model, data.images(), data.labels(), &ckpt, |e, _| {
                    if e >= epoch {
                        TrainSignal::Halt
                    } else {
                        TrainSignal::Continue
                    }
                })
                .expect("halted run");
            assert!(!report.completed, "the halted run ran to its end");
            model = victim();
        }
        let report = Trainer::new(two_epochs.clone())
            .fit_durable(&mut model, data.images(), data.labels(), &ckpt)
            .expect("durable run");
        assert_eq!(report.resumed_from_epoch, halt_after.map(|e| e as u64));
        remove_dir(&dir);
        durable.push((weights(&model), history_digest(&report.history)));
    }
    assert_eq!(
        durable[0], durable[1],
        "halt after epoch 1 and resume differs from the straight run"
    );
    let (weights_digest, history) = durable[0];
    lines.push((
        "fit_durable.synsign43x4.epochs2.weights".into(),
        weights_digest,
    ));
    lines.push(("fit_durable.synsign43x4.epochs2.history".into(), history));

    // The hardened twin's loop, the other caller of `Sequential::backward`.
    let mut model = victim();
    adversarial_fit(
        &mut model,
        data.images(),
        data.labels(),
        &AdversarialTrainingConfig {
            base: TrainConfig {
                epochs: 1,
                seed: 10,
                ..TrainConfig::default()
            },
            ..AdversarialTrainingConfig::default()
        },
    )
    .expect("one adversarial epoch");
    lines.push((
        "adversarial_fit.synsign43x4.epochs1.weights".into(),
        weights(&model),
    ));

    // The figure drivers, Figs. 7 and 9 as `repro_figs` calls them, on
    // the Smoke victim: every float of every demonstration cell (classes
    // ride along as floats) and every accuracy bar, one line per
    // scenario. The victim is trained here, by this build: a weights
    // file an earlier build left in the temp directory pins nothing.
    let mut setup = ExperimentSetup::profile(SetupProfile::Smoke);
    setup.cache_weights = false;
    let prepared = setup.prepare().expect("smoke victim");
    let sweep: Vec<FilterSpec> = FilterSpec::paper_sweep().into_iter().step_by(2).collect();
    let blind = fig7::run(&prepared, &params, &sweep, FIG_EVAL_N, ThreatModel::III).expect("fig7");
    let aware = fig9::run(&prepared, &params, &sweep, FIG_EVAL_N, ThreatModel::III).expect("fig9");
    figure_lines(&mut lines, "fig7", &blind.cells, &blind.grids);
    figure_lines(&mut lines, "fig9", &aware.cells, &aware.grids);
    let fig5 = fig5::run(&prepared, &params).expect("fig5");
    let fig6 = fig6::run(&prepared, &params, FIG_EVAL_N).expect("fig6");
    figure_lines(&mut lines, "fig5", &fig5.cells, &[]);
    figure_lines(&mut lines, "fig6", &[], &fig6.grids);
    lines
}

const FIG_EVAL_N: usize = 20;

/// The served verdicts of 33 uniform images under LAP(32), one line per
/// threat model, from per-image `classify`; one b33 `classify_batch`
/// must give the same digest.
fn verdict_lines(lines: &mut Lines) {
    let mut rng = TensorRng::seed_from_u64(15);
    let model = uniform_victim(&mut rng);
    let pipeline =
        InferencePipeline::new(model, FilterSpec::Lap { np: 32 }).expect("LAP(32) pipeline");
    let images = rng.uniform(&[33, 3, 32, 32], 0.0, 1.0);
    let verdicts_digest = |verdicts: &[Verdict]| {
        let floats: Vec<f32> = verdicts
            .iter()
            .flat_map(|v| {
                std::iter::once(v.class as f32)
                    .chain(v.top5.top_classes.iter().map(|&c| c as f32))
                    .chain(v.top5.top_probs.iter().copied())
                    .chain(v.probabilities.as_slice().iter().copied())
            })
            .collect();
        digest(&floats)
    };
    for (name, threat) in [
        ("tm1", ThreatModel::I),
        ("tm2", ThreatModel::II),
        ("tm3", ThreatModel::III),
    ] {
        let singles: Vec<Verdict> = (0..33)
            .map(|i| {
                let image = images.index_batch(i).expect("image i");
                pipeline.classify(&image, threat).expect("b1 classify")
            })
            .collect();
        let value = verdicts_digest(&singles);
        let batched = pipeline
            .classify_batch(&images, threat)
            .expect("b33 classify_batch");
        assert_eq!(
            verdicts_digest(&batched),
            value,
            "b33 classify_batch differs from b1 classify under {name}"
        );
        lines.push((format!("verdict.lap32.{name}"), value));
    }
}

/// Threat Model II's re-acquisition noise and the Box–Muller stream
/// under it: `NoiseModel::sensor()` over 33 uniform 3×32×32 frames
/// (frame *i* drawn and noised from seed *i*), and 65 536 standard
/// normals from seed 7.
fn noise_lines(lines: &mut Lines) {
    let sensor = NoiseModel::sensor();
    let mut frames = Vec::new();
    for seed in 0..33 {
        let mut rng = TensorRng::seed_from_u64(seed);
        let clean = rng.uniform(&[3, 32, 32], 0.0, 1.0);
        frames.extend_from_slice(sensor.apply(&clean, &mut rng).as_slice());
    }
    lines.push(("noise.sensor.frames".into(), digest(&frames)));
    let stream = TensorRng::seed_from_u64(7).normal(&[65536], 0.0, 1.0);
    lines.push(("rng.normal.stream".into(), digest(stream.as_slice())));
}

/// Digest of every parameter value, in layer order.
fn weights(model: &Sequential) -> u64 {
    let values: Vec<f32> = model
        .params()
        .iter()
        .flat_map(|p| p.value.as_slice().iter().copied())
        .collect();
    digest(&values)
}

/// Digest of each epoch's loss and training accuracy.
fn history_digest(history: &TrainHistory) -> u64 {
    let stats: Vec<f32> = history
        .epochs
        .iter()
        .flat_map(|e| [e.loss, e.train_accuracy])
        .collect();
    digest(&stats)
}

/// Removes a checkpoint directory this test wrote, if it exists.
fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove checkpoint directory");
    }
}

/// One `cells` and one `grid` line per scenario, for whichever of the
/// two the figure has (Fig. 5 draws no grid, Fig. 6 no cells).
fn figure_lines(lines: &mut Lines, figure: &str, cells: &[ScenarioCell], grids: &[AccuracyGrid]) {
    for Scenario { id, .. } in Scenario::paper_scenarios() {
        let floats: Vec<f32> = cells
            .iter()
            .filter(|c| c.scenario_id == id)
            .flat_map(|c| {
                [
                    c.tm1_class as f32,
                    c.tm1_confidence,
                    c.tm23_class as f32,
                    c.tm23_confidence,
                    c.cost,
                    c.noise_linf,
                ]
            })
            .collect();
        if !floats.is_empty() {
            lines.push((format!("{figure}.smoke.s{id}.cells"), digest(&floats)));
        }
        if let Some(grid) = grids.iter().find(|g| g.scenario.id == id) {
            let bars: Vec<f32> = grid.cells.iter().map(|c| c.top5_accuracy).collect();
            lines.push((format!("{figure}.smoke.s{id}.grid"), digest(&bars)));
        }
    }
}

fn render(arithmetic: &Lines, same_host: &Lines) -> String {
    let mut out = String::from(
        "# FNV-1a digests of the bits this repository's kernels produce (tests/bits.rs).\n\
         # A changed line is a changed bit: name it, with its reason, in CHANGES.md.\n\
         # Rewrite with FADEML_BLESS=1 cargo test -p fademl --test bits\n",
    );
    for (header, lines) in [
        (
            "[arithmetic] uniform xoshiro inputs; add, multiply, compare only: host-independent",
            arithmetic,
        ),
        (
            "[same-host] downstream of libm (exp, ln, cos): stable on one platform only",
            same_host,
        ),
    ] {
        out.push_str(&format!("\n{header}\n"));
        for (name, value) in lines {
            out.push_str(&format!("{name} {value:016x}\n"));
        }
    }
    out
}

#[test]
fn bits_match_the_committed_table() {
    // The only test in this binary, so the process-wide switches are
    // its own. Every instantiation the host can run must print one
    // table. The kernel lines are also computed at 1 and 2 threads; the
    // `[same-host]` lines (victim training and the figure drivers,
    // most of the cost) once per instantiation.
    let mut tables = Vec::new();
    for isa in simd::available() {
        assert!(simd::pin(Some(isa)), "{isa:?} is available but refused");
        par::set_threads(1);
        let serial = arithmetic();
        par::set_threads(2);
        let pooled = arithmetic();
        assert_eq!(
            serial,
            pooled,
            "[arithmetic] differs between 1 and 2 threads on {}",
            isa.name()
        );
        tables.push((isa, render(&pooled, &same_host())));
    }
    simd::pin(None);
    par::set_threads(0);
    let (_, first) = &tables[0];
    for (isa, table) in &tables {
        assert_eq!(table, first, "table differs on {}", isa.name());
    }
    if std::env::var_os("FADEML_BLESS").is_some() {
        atomic_write(Path::new(TABLE), first.as_bytes()).expect("write results/bits.txt");
        return;
    }
    let committed = std::fs::read_to_string(TABLE).expect("results/bits.txt is committed");
    for (want, got) in committed.lines().zip(first.lines()) {
        assert_eq!(got, want, "a bit moved (FADEML_BLESS=1 rewrites the table)");
    }
    assert_eq!(
        first, &committed,
        "results/bits.txt has lines added or removed"
    );
}
