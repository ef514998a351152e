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
//! kernels — one FAdeML[BIM] example and the cells and accuracy bars of
//! the Fig. 5, 6, 7 and 9 drivers.

use fademl::experiments::{fig5, fig6, fig7, fig9, AccuracyGrid, AttackParams, ScenarioCell};
use fademl::setup::{ExperimentSetup, SetupProfile};
use fademl::{Scenario, ThreatModel};
use fademl_attacks::{Attack, AttackGoal, AttackSurface, Bim, Fademl};
use fademl_data::{DatasetConfig, SignDataset, CLASS_COUNT};
use fademl_filters::FilterSpec;
use fademl_nn::vgg::{VggConfig, VggProfile};
use fademl_nn::{Sequential, TrainConfig, Trainer};
use fademl_tensor::{
    conv2d_backward, digest, fnv1a, max_pool2d, par, simd, ConvSpec, PoolSpec, TensorRng,
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
    for n in [1usize, 16] {
        let x = rng.uniform(&[n, 3, 32, 32], 0.0, 1.0);
        let logits = model.forward(&x).expect("victim forward");
        lines.push((
            format!("victim.compact.logits.b{n}"),
            digest(logits.as_slice()),
        ));
    }
    lines
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

    let data = SignDataset::generate(&DatasetConfig {
        samples_per_class: 4,
        seed: 8,
        ..DatasetConfig::default()
    })
    .expect("SynSign slice");
    let mut model = VggConfig::new(VggProfile::Compact, 3, 32, CLASS_COUNT)
        .build(&mut TensorRng::seed_from_u64(9))
        .expect("compact victim builds");
    let history = Trainer::new(TrainConfig {
        epochs: 2,
        seed: 10,
        ..TrainConfig::default()
    })
    .fit(&mut model, data.images(), data.labels())
    .expect("two epochs");
    let weights: Vec<f32> = model
        .params()
        .iter()
        .flat_map(|p| p.value.as_slice().iter().copied())
        .collect();
    lines.push(("fit.synsign43x4.epochs2.weights".into(), digest(&weights)));
    let stats: Vec<f32> = history
        .epochs
        .iter()
        .flat_map(|e| [e.loss, e.train_accuracy])
        .collect();
    lines.push(("fit.synsign43x4.epochs2.history".into(), digest(&stats)));

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

fn render() -> String {
    let mut out = String::from(
        "# FNV-1a digests of the bits this repository's kernels produce (tests/bits.rs).\n\
         # A changed line is a changed bit: name it, with its reason, in CHANGES.md.\n\
         # Rewrite with FADEML_BLESS=1 cargo test -p fademl --test bits\n",
    );
    for (header, lines) in [
        (
            "[arithmetic] uniform xoshiro inputs; add, multiply, compare only: host-independent",
            arithmetic(),
        ),
        (
            "[same-host] downstream of libm (exp, ln, cos): stable on one platform only",
            same_host(),
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
    // its own: every (instantiation, thread count) must print one table.
    let mut tables = Vec::new();
    for baseline_only in [true, false] {
        simd::set_baseline_only(baseline_only);
        for threads in [1, 2] {
            par::set_threads(threads);
            tables.push((baseline_only, threads, render()));
        }
    }
    simd::set_baseline_only(false);
    par::set_threads(0);
    let (_, _, first) = &tables[0];
    for (baseline_only, threads, table) in &tables {
        assert_eq!(
            table, first,
            "table differs at baseline_only={baseline_only}, threads={threads}"
        );
    }
    if std::env::var_os("FADEML_BLESS").is_some() {
        std::fs::write(TABLE, first).expect("write results/bits.txt");
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
