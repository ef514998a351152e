//! The traced run's per-layer numbers.
//!
//! Spans inside the product crates do not exist yet, so a layer is
//! measured from outside: the seed's frames are pushed through each
//! layer's public entry point in isolation and every call is timed.
//! Calls that contain one another form one tree per replayed request,
//! so that a layer's self time is its span minus its children.
//!
//! Every traced run replays every layer, so that each per-layer time is
//! a measurement on every run. What depends on the workload is the
//! traffic mix of the replayed requests, the batch sizes (drawn from
//! the histogram its untraced pass reported), the engine's own counters,
//! and which spans reach the trace file: only those of layers the
//! workload enters — no `net.*` outside `net_closed`, no `detect.*`
//! without triage, no serving spans on `repro_figs`, no attack or
//! backward spans on the serving workloads.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::report::Metrics;
use crate::stats;
use crate::sut::{
    self, AttackKind, Engine, EngineReport, NetFront, SutResult, Tm, Variant, World, EVAL_N,
};
use crate::trace::{Node, Trace};
use crate::workloads::{Kind, Measured, Workload};

/// Request chains, batch trees and gradient trees replayed per run.
const TREES: u64 = 48;
/// One replayed request in this many takes the hardened path.
const HARDENED_EVERY: u64 = 8;
/// Calls behind each fixed-shape median.
const REPS: usize = 25;

fn timed<T>(call: impl FnOnce() -> SutResult<T>) -> SutResult<u64> {
    let began = Instant::now();
    black_box(call()?);
    Ok(began.elapsed().as_nanos() as u64)
}

/// Median of `REPS` calls in µs, after one call to warm caches.
fn median_us<T>(mut call: impl FnMut() -> SutResult<T>) -> SutResult<f64> {
    black_box(call()?);
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        samples.push(timed(&mut call)? as f64 / 1e3);
    }
    Ok(stats::median(&samples))
}

/// The layer a span belongs to: the first component of its name.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// The replayed trees: their durations by span name, and the trace the
/// workload's share of them is laid out in.
struct Replay<'a> {
    trace: &'a mut Trace,
    cursor_ns: u64,
    next_request: u64,
    samples_us: BTreeMap<String, Vec<f64>>,
}

impl Replay<'_> {
    /// Records every duration of the tree. The spans of the layers in
    /// `entered` go to the trace file; a node of another layer drops
    /// out and its children move up.
    fn add(&mut self, tree: Node, entered: &[&str]) {
        self.absorb(&tree);
        for root in prune(tree, entered) {
            self.trace
                .lay_out(&root, self.cursor_ns, None, self.next_request);
            self.cursor_ns += root.duration_ns;
        }
        self.next_request += 1;
    }

    fn absorb(&mut self, node: &Node) {
        self.samples_us
            .entry(node.name.clone())
            .or_default()
            .push(node.duration_ns as f64 / 1e3);
        node.children.iter().for_each(|child| self.absorb(child));
    }

    fn median_us(&self, name: &str) -> f64 {
        self.samples_us
            .get(name)
            .map_or(0.0, |sample| stats::median(sample))
    }
}

fn prune(node: Node, entered: &[&str]) -> Vec<Node> {
    let keep = entered.contains(&layer(&node.name));
    let children: Vec<Node> = node
        .children
        .into_iter()
        .flat_map(|child| prune(child, entered))
        .collect();
    if keep {
        vec![Node::with(node.name, node.duration_ns, children)]
    } else {
        children
    }
}

/// `Sequential::predict_proba` on `batch` images, over the tensor
/// kernels of the victim's shapes at that batch size.
fn forward_tree(world: &World, images: &sut::Images, batch: usize) -> SutResult<Node> {
    let mut kernels = Vec::new();
    for stage in 1..=5 {
        let case = sut::conv_case(stage, batch)?;
        kernels.push(Node::leaf(
            format!("tensor.conv2d.stage{stage}"),
            timed(|| case.forward())?,
        ));
        let pool = case.pool_case();
        kernels.push(Node::leaf(
            format!("tensor.max_pool2d.stage{stage}"),
            timed(|| pool.forward())?,
        ));
    }
    let head = sut::head_case(batch);
    kernels.push(Node::leaf("tensor.matmul.head", timed(|| head.forward())?));
    Ok(Node::with(
        "nn.predict_proba",
        timed(|| world.predict_proba(images))?,
        kernels,
    ))
}

/// What a pipeline call on `images` contains: `stage_input_batch` ⊃
/// `Filter::apply`, and `predict_proba` ⊃ kernels.
fn pipeline_children(
    world: &World,
    images: &sut::Images,
    batch: usize,
    tm: Tm,
    hardened: bool,
) -> SutResult<Vec<Node>> {
    let mut stage = Node::leaf(
        "core.stage_input_batch",
        timed(|| world.stage_input_batch(images, tm, hardened))?,
    );
    // TM-I bypasses the filter, except on the hardened path.
    if hardened || tm != Tm::One {
        let filter = sut::lap(if hardened { 64 } else { 32 })?;
        stage
            .children
            .push(Node::leaf("filters.apply", timed(|| filter.apply(images))?));
    }
    Ok(vec![stage, forward_tree(world, images, batch)?])
}

/// The layers a request crosses, outermost first, at concurrency 1:
/// socket ⊃ router ⊃ engine ⊃ {submit, triage, pipeline}. Returns the
/// replay engine's own report.
fn request_chains(
    world: &World,
    workload: &Workload,
    entered: &[&str],
    replay: &mut Replay<'_>,
) -> SutResult<EngineReport> {
    let front = NetFront::start(world)?;
    let mut connection = front.connect()?;
    let engine = Engine::start(world, true)?;
    let flagged = world.flagged_variants();
    for i in 0..TREES {
        // A stride coprime to the pool size and to 3 visits frames and
        // threat models evenly.
        let (mut variant, tm) = workload.request(i * 37);
        let mut hardened = false;
        if i % HARDENED_EVERY == HARDENED_EVERY - 1 && !flagged.is_empty() {
            variant = flagged[(i / HARDENED_EVERY) as usize % flagged.len()];
            hardened = true;
        } else if flagged.contains(&variant) {
            hardened = true;
        }
        let pipeline = Node::with(
            if hardened {
                "core.classify.hardened"
            } else {
                "core.classify"
            },
            timed(|| world.classify(variant, tm, hardened))?,
            pipeline_children(world, &world.batch(&[variant])?, 1, tm, hardened)?,
        );
        let triage = Node::leaf("detect.score_image", timed(|| world.score_image(variant))?);

        let began = Instant::now();
        let ticket = engine.submit(world, variant, tm)?;
        let submit_ns = began.elapsed().as_nanos() as u64;
        black_box(ticket.wait()?);
        let engine_ns = began.elapsed().as_nanos() as u64;
        let submit = Node::with("serve.submit", submit_ns, vec![triage]);
        let served = Node::with("serve.engine_classify", engine_ns, vec![submit, pipeline]);

        let router_ns = timed(|| front.router_classify(world, variant, tm))?;
        let routed = Node::with("net.router_classify", router_ns, vec![served]);
        let client_ns = timed(|| connection.classify(world, variant, tm))?;
        replay.add(
            Node::with("net.client_classify", client_ns, vec![routed]),
            entered,
        );
    }
    connection.close();
    front.stop();
    Ok(engine.stop())
}

/// Pipeline trees at batch sizes drawn from the histogram the untraced
/// pass reported, weighted by the images each size carried. Returns
/// (images replayed, ns replayed).
fn batch_trees(
    world: &World,
    workload: &Workload,
    untraced: &Measured,
    entered: &[&str],
    replay: &mut Replay<'_>,
) -> SutResult<(u64, u64)> {
    let weights: Vec<u64> = untraced
        .engine
        .batch_size_counts
        .iter()
        .zip(1u64..)
        .map(|(n, size)| n * size)
        .collect();
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return Ok((0, 0));
    }
    let (mut images, mut ns) = (0, 0);
    let mut k = 0u64;
    for i in 0..TREES {
        // Evenly spaced quantiles of the image-weighted histogram.
        let target = (2 * i + 1) * total / (2 * TREES);
        let mut seen = 0;
        let size = weights
            .iter()
            .position(|w| {
                seen += w;
                seen > target
            })
            .map_or(1, |index| index + 1);
        // The batcher buckets by threat model: one batch, one model.
        let tm = workload.request(k).1;
        let variants: Vec<Variant> = (0..size as u64)
            .map(|j| workload.request(k + 3 * j).0)
            .collect();
        k += 3 * size as u64 + 1;
        let stacked = world.batch(&variants)?;
        let tree = Node::with(
            format!("core.classify_batch.b{size}"),
            timed(|| world.classify_batch(&stacked, tm))?,
            pipeline_children(world, &stacked, size, tm, false)?,
        );
        images += size as u64;
        ns += tree.duration_ns;
        replay.add(tree, entered);
    }
    Ok((images, ns))
}

/// One filter-aware gradient query — filter forward, a forward and a
/// backward pass of the victim, filter backward — and the four attacks
/// on scenario 1.
fn research(
    world: &World,
    entered: &[&str],
    replay: &mut Replay<'_>,
    metrics: &mut Metrics,
) -> SutResult<()> {
    let kinds = [
        ("fgsm", AttackKind::Fgsm),
        ("bim", AttackKind::Bim),
        ("lbfgs", AttackKind::Lbfgs),
        ("fademl_bim", AttackKind::FademlBim),
    ];
    for (name, kind) in kinds {
        let mut op = world.attack_op(kind)?;
        let queries = op.run()?;
        for _ in 0..5 {
            replay.add(
                Node::leaf(format!("attacks.{name}"), timed(|| op.run())?),
                entered,
            );
        }
        if kind == AttackKind::FademlBim {
            metrics.set("attacks.queries_per_example.fademl_bim", queries as f64)?;
        }
    }

    let image = world.single(Variant {
        frame: 0,
        adversarial: false,
    })?;
    let lap32 = sut::lap(32)?;
    let mut bare = world.grad_op(false)?;
    let mut filtered = world.grad_op(true)?;
    bare.run()?;
    filtered.run()?;
    for _ in 0..TREES {
        let mut kernels = Vec::new();
        for stage in 1..=5 {
            let case = sut::conv_case(stage, 1)?;
            kernels.push(Node::leaf(
                format!("tensor.conv2d.stage{stage}"),
                timed(|| case.forward())?,
            ));
            kernels.push(Node::leaf(
                format!("tensor.conv2d_backward.stage{stage}"),
                timed(|| case.backward())?,
            ));
        }
        let bare_tree = Node::with("nn.input_grad", timed(|| bare.run())?, kernels);
        let tree = Node::with(
            "nn.input_grad_filtered",
            timed(|| filtered.run())?,
            vec![
                Node::leaf("filters.apply", timed(|| lap32.apply(&image))?),
                bare_tree,
                Node::leaf(
                    "filters.backward",
                    timed(|| lap32.backward(&image, &image))?,
                ),
            ],
        );
        replay.add(tree, entered);
    }
    let lar3 = sut::lar(3)?;
    metrics.set(
        "filters.backward_us.lar3.b1",
        median_us(|| lar3.backward(&image, &image))?,
    )?;

    let eval: Vec<Variant> = (0..EVAL_N)
        .map(|frame| Variant {
            frame,
            adversarial: false,
        })
        .collect();
    let eval = world.batch(&eval)?;
    let mut sweep_us = Vec::new();
    for op in sut::repro_sweep_ops()? {
        sweep_us.push(median_us(|| op.apply(&eval))? / EVAL_N as f64);
    }
    let mean = sweep_us.iter().sum::<f64>() / sweep_us.len().max(1) as f64;
    metrics.set("filters.sweep_apply_us_per_image", mean)
}

/// Fixed-shape loops: the `.b1` and `.b16` numbers, the codec, the
/// detector's parts and the frame stream.
fn fixed_shapes(world: &World, workload: &Workload, metrics: &mut Metrics) -> SutResult<()> {
    let frames = |n: usize| -> Vec<Variant> {
        (0..n)
            .map(|frame| Variant {
                frame,
                adversarial: false,
            })
            .collect()
    };
    let sixteen = world.batch(&frames(16))?;
    let one = world.batch(&frames(1))?;
    let single = world.single(frames(1)[0])?;

    let batch_us = median_us(|| world.classify_batch(&sixteen, Tm::Three))?;
    metrics.set("core.classify_batch_us_per_image.b16", batch_us / 16.0)?;
    for (name, tm) in [("tm2", Tm::Two), ("tm3", Tm::Three)] {
        let us = median_us(|| world.stage_input_batch(&sixteen, tm, false))?;
        metrics.set(
            &format!("core.stage_input_batch_us_per_image.{name}"),
            us / 16.0,
        )?;
    }
    let lap32 = sut::lap(32)?;
    metrics.set(
        "filters.apply_us_per_image.lap32.b16",
        median_us(|| lap32.apply(&sixteen))? / 16.0,
    )?;
    let lap64 = sut::lap(64)?;
    metrics.set(
        "filters.apply_us_per_image.lap64.b1",
        median_us(|| lap64.apply(&single))?,
    )?;
    metrics.set("filters.bytes_per_image", sut::filter_bytes_per_image())?;

    metrics.set("nn.forward_us.b1", median_us(|| world.predict_proba(&one))?)?;
    let forward_us = median_us(|| world.predict_proba(&sixteen))?;
    metrics.set("nn.forward_us_per_image.b16", forward_us / 16.0)?;
    metrics.set(
        "nn.forward_gflops.b16",
        sut::victim_flops_per_image() * 16.0 / forward_us / 1e3,
    )?;

    for stage in 1..=5 {
        let case = sut::conv_case(stage, 16)?;
        let us = median_us(|| case.forward())?;
        metrics.set(&format!("tensor.conv2d_us.stage{stage}.b16"), us)?;
        if stage == 3 {
            metrics.set("tensor.conv2d_gflops.stage3.b16", case.flops / us / 1e3)?;
        }
        if stage == 1 {
            let pool = case.pool_case();
            metrics.set(
                "tensor.max_pool2d_us.stage1.b16",
                median_us(|| pool.forward())?,
            )?;
        }
    }
    let head = sut::head_case(16);
    metrics.set("tensor.matmul_us.head.b16", median_us(|| head.forward())?)?;

    // The codec and the detector's parts, on the workload's own mix.
    let mut samples: [Vec<f64>; 7] = Default::default();
    let (mut request_bytes, mut response_bytes) = (0, 0);
    for i in 0..TREES {
        let (variant, tm) = workload.request(i * 37);
        let case = world.wire_case(variant, tm)?;
        request_bytes = case.encode_request()?;
        response_bytes = case.encode_response()?;
        let features = world.features(variant)?;
        let calls: [&dyn Fn() -> SutResult<usize>; 7] = [
            &|| case.encode_request(),
            &|| case.decode_request(),
            &|| case.encode_response(),
            &|| case.decode_response(),
            &|| world.score_image(variant).map(|_| 0),
            &|| world.features(variant).map(|f| f.len()),
            &|| world.forest_score(&features).map(|_| 0),
        ];
        for (sample, call) in samples.iter_mut().zip(calls) {
            sample.push(timed(call)? as f64 / 1e3);
        }
    }
    let names = [
        "net.wire_encode_request_us",
        "net.wire_decode_request_us",
        "net.wire_encode_response_us",
        "net.wire_decode_response_us",
        "detect.score_image_us",
        "detect.features_us",
        "detect.forest_score_us",
    ];
    for (name, sample) in names.iter().zip(&samples) {
        metrics.set(name, stats::median(sample))?;
    }
    metrics.set("net.request_frame_bytes", request_bytes as f64)?;
    metrics.set("net.response_frame_bytes", response_bytes as f64)?;

    let mut frames = sut::frame_source(0)?;
    metrics.set("data.stream_frame_us", median_us(|| frames.next_frame())?)
}

/// Share by which the traced pass was slower than the untraced one.
fn trace_overhead_pct(workload: &Workload, untraced: &Measured, traced: &Measured) -> f64 {
    let rate = |m: &Measured| m.tally.latencies_us.len() as f64 / m.window_s.max(f64::MIN_POSITIVE);
    let (plain, with_trace) = match workload.kind {
        // Passes per second would quantise; compare pass times.
        Kind::Repro => (
            1.0 / (untraced.fig.fig7_s + untraced.fig.fig9_s),
            1.0 / (traced.fig.fig7_s + traced.fig.fig9_s),
        ),
        _ => (rate(untraced), rate(traced)),
    };
    (plain - with_trace) / plain * 100.0
}

/// Fills every per-layer metric and lays the workload's replay spans
/// after the client spans already in `trace`. Returns the lines of the
/// add-up report.
pub fn replay(
    world: &World,
    workload: &Workload,
    untraced: &Measured,
    traced: &Measured,
    trace: &mut Trace,
    metrics: &mut Metrics,
) -> SutResult<Vec<String>> {
    let serving = workload.kind != Kind::Repro;
    let mut entered = vec!["core", "filters", "nn", "tensor"];
    if serving {
        entered.push("serve");
    }
    if workload.kind == Kind::NetClosed {
        entered.push("net");
    }
    if workload.uses_triage() {
        entered.push("detect");
    }
    let cursor_ns = trace.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let next_request = trace
        .spans
        .iter()
        .map(|s| s.request_id + 1)
        .max()
        .unwrap_or(0);
    let mut replay = Replay {
        trace,
        cursor_ns,
        next_request,
        samples_us: BTreeMap::new(),
    };
    let mut notes = Vec::new();

    // Request chains and batch trees are the serving workloads' spans,
    // attack and gradient trees are `repro_figs`'s.
    let serving_spans: &[&str] = if serving { &entered } else { &[] };
    let replay_engine = request_chains(world, workload, serving_spans, &mut replay)?;
    let (images, ns) = batch_trees(world, workload, untraced, serving_spans, &mut replay)?;
    let mut research_spans = entered.clone();
    research_spans.push("attacks");
    let research_spans: &[&str] = if serving { &[] } else { &research_spans };
    research(world, research_spans, &mut replay, metrics)?;
    fixed_shapes(world, workload, metrics)?;

    let client_us = replay.median_us("net.client_classify");
    let router_us = replay.median_us("net.router_classify");
    let engine_us = replay.median_us("serve.engine_classify");
    let classify_us = replay.median_us("core.classify");
    metrics.set("net.socket_overhead_us", client_us - router_us)?;
    metrics.set("net.router_overhead_us", router_us - engine_us)?;
    metrics.set("serve.engine_overhead_us", engine_us - classify_us)?;
    metrics.set("serve.submit_us", replay.median_us("serve.submit"))?;
    metrics.set("core.classify_us.b1", classify_us)?;
    notes.push(format!(
        "add-up: socket {:.1} + router {:.1} + engine {:.1} + classify.b1 {classify_us:.1} = {client_us:.1} us per request at concurrency 1",
        client_us - router_us,
        router_us - engine_us,
        engine_us - classify_us,
    ));
    for (metric, span) in [
        ("nn.input_grad_us.b1", "nn.input_grad"),
        ("nn.input_grad_filtered_us.b1", "nn.input_grad_filtered"),
        ("filters.backward_us.lap32.b1", "filters.backward"),
        ("attacks.fgsm_us", "attacks.fgsm"),
        ("attacks.bim_us", "attacks.bim"),
        ("attacks.lbfgs_us", "attacks.lbfgs"),
        ("attacks.fademl_bim_us", "attacks.fademl_bim"),
    ] {
        metrics.set(metric, replay.median_us(span))?;
    }
    for stage in 1..=5 {
        metrics.set(
            &format!("tensor.conv2d_backward_us.stage{stage}.b1"),
            replay.median_us(&format!("tensor.conv2d_backward.stage{stage}")),
        )?;
    }

    // The engine's own account: the workload's engine under load, or,
    // where it has none (or never took the hardened path), the replay
    // engine at concurrency 1.
    let engine = if serving {
        &untraced.engine
    } else {
        &replay_engine
    };
    let hardened = if engine.hardened_served > 0 {
        engine
    } else {
        &replay_engine
    };
    let (workers, max_batch) = sut::engine_shape();
    metrics.set("serve.mean_batch_size", engine.mean_batch_size)?;
    metrics.set(
        "serve.batch_fill_ratio",
        engine.mean_batch_size / max_batch as f64,
    )?;
    metrics.set("serve.batches_dispatched", engine.batches_dispatched as f64)?;
    metrics.set("serve.queue_rejected", engine.queue_rejected as f64)?;
    metrics.set("serve.server_latency_p50_us", engine.latency_p50_us as f64)?;
    metrics.set("serve.hardened_served", engine.hardened_served as f64)?;
    metrics.set(
        "serve.hardened_latency_p50_us",
        hardened.hardened_latency_p50_us as f64,
    )?;
    if images > 0 {
        // Self time per layer over the batch trees alone.
        let trace = &*replay.trace;
        let mut per_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for (id, (span, own)) in trace.spans.iter().zip(trace.self_times()).enumerate() {
            let root = &trace.spans[trace.root_of(id)].name;
            if root.starts_with("core.classify_batch") {
                *per_layer.entry(layer(&span.name)).or_default() += own;
            }
        }
        let terms: Vec<String> = per_layer
            .iter()
            .map(|(layer, ns)| format!("{layer} {:.1}", *ns as f64 / 1e3 / images as f64))
            .collect();
        notes.push(format!(
            "add-up: per image at the observed batch sizes, self time {} = {:.1} us of pipeline compute ({images} images replayed, {workers} workers)",
            terms.join(" + "),
            ns as f64 / 1e3 / images as f64,
        ));
    }
    metrics.set("net.frame_errors", untraced.net.frame_errors as f64)?;
    metrics.set("net.timeouts", untraced.net.timeouts as f64)?;
    metrics.set(
        "net.connections_rejected",
        untraced.net.connections_rejected as f64,
    )?;
    metrics.set("detect.flag_rate_clean", untraced.tally.flag_rate(false))?;
    metrics.set("detect.flag_rate_adv", untraced.tally.flag_rate(true))?;

    // The figures' split: the workload's own passes, or one pass made
    // for the profile.
    let fig = if serving {
        let (blind, aware) = (world.fig7(EVAL_N)?, world.fig9(EVAL_N)?);
        crate::workloads::FigStats {
            fig7_s: blind.seconds,
            fig9_s: aware.seconds,
            blind_success_rate: f64::from(blind.filtered_success_rate),
            fademl_success_rate: f64::from(aware.filtered_success_rate),
            clean_top5: f64::from(blind.clean_top5),
        }
    } else {
        untraced.fig
    };
    metrics.set("core.fig7_s", fig.fig7_s)?;
    metrics.set("core.fig9_s", fig.fig9_s)?;
    metrics.set("attacks.blind_success_rate", fig.blind_success_rate)?;
    metrics.set("attacks.fademl_success_rate", fig.fademl_success_rate)?;

    let times = &world.times;
    metrics.set("detect.fit_s", times.detector_fit_s)?;
    metrics.set(
        "nn.train_epoch_s",
        times.train_s / times.epochs.max(1) as f64,
    )?;
    metrics.set(
        "data.generate_us_per_image",
        times.generate_s * 1e6 / times.generated_images.max(1) as f64,
    )?;
    metrics.set("tensor.arena_grows_steady", untraced.arena_grows as f64)?;
    metrics.set("tensor.arena_hit_ratio", untraced.arena_hit_ratio)?;
    // Demoted from the end-to-end set: on a shared two-core host it does
    // not repeat within the contract's widest bound.
    let latencies = stats::sorted(untraced.tally.latencies_us.clone());
    if let Some(p99) = stats::percentile(&latencies, 99.0) {
        metrics.set("bench.latency_p99_us", p99)?;
    }
    metrics.set("bench.client_overhead_us", untraced.client_overhead_us)?;
    metrics.set(
        "bench.trace_overhead_pct",
        trace_overhead_pct(workload, untraced, traced),
    )?;

    // Self time per layer over the replay spans in the trace file.
    let trace = &*replay.trace;
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (span, own) in trace.spans.iter().zip(trace.self_times()) {
        if layer(&span.name) != "client" {
            *layers.entry(layer(&span.name)).or_default() += own;
        }
    }
    let total: u64 = layers.values().sum();
    for (layer, ns) in layers {
        notes.push(format!(
            "self time: {layer} {:.1} ms ({:.1} % of the replay spans)",
            ns as f64 / 1e6,
            ns as f64 * 100.0 / total.max(1) as f64
        ));
    }
    Ok(notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_a_workload_never_enters_leave_no_span() {
        let chain = Node::with(
            "net.client_classify",
            900,
            vec![Node::with(
                "serve.engine_classify",
                700,
                vec![
                    Node::with(
                        "serve.submit",
                        90,
                        vec![Node::leaf("detect.score_image", 25)],
                    ),
                    Node::with("core.classify", 500, vec![Node::leaf("filters.apply", 100)]),
                ],
            )],
        );
        let names = |roots: &[Node]| -> Vec<String> {
            fn walk(node: &Node, out: &mut Vec<String>) {
                out.push(node.name.clone());
                node.children.iter().for_each(|c| walk(c, out));
            }
            let mut out = Vec::new();
            roots.iter().for_each(|r| walk(r, &mut out));
            out
        };
        let saturate = prune(chain.clone(), &["serve", "core", "filters", "nn", "tensor"]);
        assert_eq!(
            names(&saturate),
            [
                "serve.engine_classify",
                "serve.submit",
                "core.classify",
                "filters.apply"
            ]
        );
        assert_eq!(saturate[0].duration_ns, 700);
        let figures = prune(chain.clone(), &["core", "filters", "nn", "tensor"]);
        assert_eq!(names(&figures), ["core.classify", "filters.apply"]);
        assert!(prune(chain, &[]).is_empty());
    }

    #[test]
    fn every_replayed_duration_feeds_its_median_whether_traced_or_not() {
        let mut trace = Trace::default();
        let mut replay = Replay {
            trace: &mut trace,
            cursor_ns: 0,
            next_request: 0,
            samples_us: BTreeMap::new(),
        };
        for ns in [3_000, 1_000, 2_000] {
            replay.add(
                Node::with("net.x", ns * 2, vec![Node::leaf("core.y", ns)]),
                &["core"],
            );
        }
        assert_eq!(replay.median_us("net.x"), 4.0);
        assert_eq!(replay.median_us("core.y"), 2.0);
        assert_eq!(replay.median_us("absent"), 0.0);
        assert_eq!(replay.next_request, 3);
        assert!(trace.spans.iter().all(|s| s.name == "core.y"));
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[1].start_ns, 3_000);
    }
}
