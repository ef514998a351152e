//! The system under test, and the only file that names a product type.
//!
//! Workloads, tracing and reporting see frames as [`Variant`]s, threat
//! models as [`Tm`], verdicts as [`Answer`]s and errors as strings; a
//! renamed constructor or client in the product is a change to this
//! file alone.
//!
//! The system is fixed for every workload: the victim is
//! `VggProfile::Compact` on 3×32×32 → 43 classes trained in set-up, the
//! deployed filter is `Lap{np:32}`, flagged frames go to a `Lap{np:64}`
//! pipeline, and every serve/net/triage knob other than
//! `compute_threads` is the crate default, so that a better default
//! shows up as a gain.

use std::time::{Duration, Instant};

use fademl::experiments::{fig7, fig9, AccuracyGrid, AttackParams};
use fademl::setup::{ExperimentSetup, PreparedSetup, SetupProfile};
use fademl::{InferencePipeline, Scenario, ThreatModel, Verdict};
use fademl_attacks::{Attack, AttackGoal, AttackSurface, Fademl, Fgsm};
use fademl_data::{DatasetConfig, FrameStream, SignDataset, StreamConfig};
use fademl_detect::{pyramid_features, Detector, DetectorConfig};
use fademl_filters::{Filter, FilterSpec};
use fademl_net::wire::{decode_frame, encode_frame};
use fademl_net::{
    Frame, NetClient, NetConfig, NetServer, ReplicaRouter, RouterConfig, WireRequest, WireResponse,
};
use fademl_nn::vgg::VggConfig;
use fademl_serve::{InferenceServer, MetricsReport, ResponseHandle, ServerConfig, TriageConfig};
use fademl_tensor::{conv2d, conv2d_backward, max_pool2d, ConvSpec, PoolSpec, Tensor, TensorRng};

use crate::check::{Answer, Reference, Triage};
use crate::stats;

pub type SutResult<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One compute thread everywhere: parallelism comes from the serving
/// workers, not from workers × replicas × pool threads on two cores.
pub const COMPUTE_THREADS: usize = 1;
const DEPLOYED: FilterSpec = FilterSpec::Lap { np: 32 };
const HARDENED: FilterSpec = FilterSpec::Lap { np: 64 };
const SAMPLES_PER_CLASS: usize = 24;
const EPOCHS: usize = 8;
const FIT_FRAMES: usize = 256;
const CALIBRATION_FRAMES: usize = 256;
/// Frames a workload cycles through.
pub const POOL_FRAMES: usize = 512;
/// Pool frames whose index ends in a digit below this also exist in an
/// adversarial version.
pub const ADVERSARIAL_TENTHS: usize = 3;
const FGSM_EPSILON: f32 = 0.08;
/// Clean calibration frames score below the triage threshold this often.
const CLEAN_PASS_PERCENT: f64 = 95.0;
/// Keeps traffic seeds apart from the victim's own dataset seed.
const TRAFFIC_SALT: u64 = 0xFAB0_0000_0000_0000;
/// Test images behind every accuracy cell of the figure drivers.
pub const EVAL_N: usize = 20;

/// The benchmark's name for a threat model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tm {
    /// TM-I: straight into the DNN's input buffer, past the filter.
    One,
    /// TM-II: re-acquired by the sensor, then filtered.
    Two,
    /// TM-III: injected before the filter.
    Three,
}

impl Tm {
    pub const ALL: [Tm; 3] = [Tm::One, Tm::Two, Tm::Three];

    fn product(self) -> ThreatModel {
        match self {
            Tm::One => ThreatModel::I,
            Tm::Two => ThreatModel::II,
            Tm::Three => ThreatModel::III,
        }
    }

    /// The hardened path revokes the filter bypass.
    fn escalated(self) -> Tm {
        match self {
            Tm::One => Tm::Three,
            other => other,
        }
    }
}

/// One image of the traffic pool: frame `frame`, clean or carrying
/// blind FGSM noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Variant {
    pub frame: usize,
    pub adversarial: bool,
}

impl Variant {
    fn slot(self) -> usize {
        self.frame * 2 + usize::from(self.adversarial)
    }
}

/// Where set-up time went.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub train_s: f64,
    pub epochs: usize,
    pub generate_s: f64,
    pub generated_images: usize,
    pub detector_fit_s: f64,
}

/// Everything set-up builds. Workloads borrow it; nothing in it changes
/// after [`World::build`] returns.
pub struct World {
    prepared: PreparedSetup,
    deployed: InferencePipeline,
    hardened: InferencePipeline,
    detector: Detector,
    triage: TriageConfig,
    /// Indexed by [`Variant::slot`]; adversarial slots exist only where
    /// `frame % 10 < ADVERSARIAL_TENTHS`.
    pool: Vec<Option<PoolImage>>,
    pub times: SetupTimes,
    /// Top-5 accuracy of the deployed pipeline on the clean pool.
    pub clean_top5: f64,
}

/// One image of the pool and its reference answers per threat model,
/// in [`Tm::ALL`] order.
struct PoolImage {
    image: Tensor,
    references: [Reference; 3],
}

fn answer(verdict: &Verdict) -> Answer {
    Answer {
        class: verdict.class,
        top5: verdict
            .top5
            .top_classes
            .iter()
            .zip(&verdict.top5.top_probs)
            .map(|(&class, p)| (class, p.to_bits()))
            .collect(),
        probability_bits: verdict
            .probabilities
            .as_slice()
            .iter()
            .map(|p| p.to_bits())
            .collect(),
        triage: verdict.detection.map(|d| Triage {
            flagged: d.flagged,
            hardened: d.hardened,
        }),
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        compute_threads: COMPUTE_THREADS,
        ..ServerConfig::default()
    }
}

fn router_config() -> RouterConfig {
    RouterConfig {
        replica: server_config(),
        ..RouterConfig::default()
    }
}

/// Worker threads of one serving engine and the largest batch it forms.
pub fn engine_shape() -> (usize, usize) {
    let config = server_config();
    (config.workers, config.max_batch_size)
}

/// The resolved configurations, for the run's provenance.
pub fn describe_configs() -> Vec<(&'static str, String)> {
    vec![
        ("server_config", serde::json::to_string(&server_config())),
        ("router_config", format!("{:?}", router_config())),
        ("net_config", format!("{:?}", NetConfig::default())),
        ("triage_config", format!("{:?} with threshold = p{CLEAN_PASS_PERCENT} of clean scores, hardened_filter = {HARDENED}", TriageConfig::default())),
        ("detector_config", format!("{:?}", DetectorConfig::default())),
        ("attack_params", format!("{:?}", AttackParams::default())),
        ("victim", format!("VggProfile::Compact 3x32x32, samples_per_class = {SAMPLES_PER_CLASS}, epochs = {EPOCHS}, deployed filter {DEPLOYED}")),
    ]
}

impl World {
    /// The researcher's and the operator's first step, timed as
    /// `setup_s`: train the victim, render the seed's traffic, fit and
    /// calibrate the detector, craft the adversarial frames and compute
    /// the reference answer of every (image, threat model) pair.
    ///
    /// The victim's own seeds are the profile's, on every run: the seed
    /// makes the inputs, not the system.
    pub fn build(seed: u64) -> SutResult<World> {
        fademl_tensor::par::set_threads(COMPUTE_THREADS);
        let begun = Instant::now();
        let mut setup = ExperimentSetup::profile(SetupProfile::Full);
        setup.dataset.samples_per_class = SAMPLES_PER_CLASS;
        setup.train.epochs = EPOCHS;
        setup.train.verbose = false;
        setup.train.compute_threads = COMPUTE_THREADS;
        // The cache lives in the system's temp directory, outside the checkout.
        setup.cache_weights = false;
        let mut prepared = setup.prepare().map_err(err)?;
        let train_s = begun.elapsed().as_secs_f64();

        let generate_began = Instant::now();
        let traffic = SignDataset::generate(&DatasetConfig {
            seed: TRAFFIC_SALT ^ seed,
            ..setup.dataset
        })
        .map_err(err)?;
        let generate_s = generate_began.elapsed().as_secs_f64();
        let needed = FIT_FRAMES + CALIBRATION_FRAMES + POOL_FRAMES;
        if traffic.len() < needed {
            return Err(format!(
                "traffic set holds {} frames, {needed} needed",
                traffic.len()
            ));
        }
        let frames = |range: std::ops::Range<usize>| -> SutResult<Vec<Tensor>> {
            range
                .map(|i| traffic.images().index_batch(i).map_err(err))
                .collect()
        };

        let fit_began = Instant::now();
        let detector = Detector::fit_images(&frames(0..FIT_FRAMES)?, &DetectorConfig::default())
            .map_err(err)?;
        let detector_fit_s = fit_began.elapsed().as_secs_f64();
        let mut scores = Vec::with_capacity(CALIBRATION_FRAMES);
        for frame in frames(FIT_FRAMES..FIT_FRAMES + CALIBRATION_FRAMES)? {
            scores.push(f64::from(detector.score_image(&frame).map_err(err)?));
        }
        let threshold = stats::percentile(&stats::sorted(scores), CLEAN_PASS_PERCENT)
            .ok_or("no calibration scores")? as f32;
        let triage = TriageConfig {
            threshold,
            hardened_filter: HARDENED,
            ..TriageConfig::default()
        };

        let pool_start = FIT_FRAMES + CALIBRATION_FRAMES;
        let pool = frames(pool_start..needed)?;
        let labels = &traffic.labels()[pool_start..needed];
        let fgsm = Fgsm::new(FGSM_EPSILON).map_err(err)?;
        let mut bare = AttackSurface::new(prepared.model.clone());
        let mut images = Vec::with_capacity(POOL_FRAMES * 2);
        for (frame, (image, &label)) in pool.iter().zip(labels).enumerate() {
            images.push(Some(image.clone()));
            images.push(if frame % 10 < ADVERSARIAL_TENTHS {
                let goal = AttackGoal::Untargeted { source: label };
                Some(fgsm.run(&mut bare, image, goal).map_err(err)?.adversarial)
            } else {
                None
            });
        }

        let deployed = InferencePipeline::new(prepared.model.clone(), DEPLOYED).map_err(err)?;
        let hardened = InferencePipeline::new(prepared.model.clone(), HARDENED).map_err(err)?;
        let mut slots = Vec::with_capacity(images.len());
        for image in images {
            let Some(image) = image else {
                slots.push(None);
                continue;
            };
            // Triage is a pure function of the image, so set-up knows
            // which images the engines must send down the hardened path.
            let flagged = detector.score_image(&image).map_err(err)? >= threshold;
            let mut per_tm = Vec::with_capacity(Tm::ALL.len());
            for tm in Tm::ALL {
                let hardened = if flagged {
                    let threat = tm.escalated().product();
                    Some(answer(&hardened.classify(&image, threat).map_err(err)?))
                } else {
                    None
                };
                per_tm.push(Reference {
                    deployed: answer(&deployed.classify(&image, tm.product()).map_err(err)?),
                    hardened,
                });
            }
            let references = per_tm
                .try_into()
                .map_err(|_| "one reference per threat model")?;
            slots.push(Some(PoolImage { image, references }));
        }
        let clean_top5 = f64::from(
            deployed
                .top_k_accuracy(
                    &Tensor::stack(&pool).map_err(err)?,
                    labels,
                    ThreatModel::III,
                    5,
                )
                .map_err(err)?,
        );

        // The figure drivers attack the first test image of each
        // scenario's source class and evaluate on the first `eval_n`
        // test images. The paper fixes the scenarios, so the sources
        // stay the victim's own test images; the seed draws the
        // evaluation images, from classes that are no scenario's source.
        let sources: Vec<usize> = Scenario::paper_scenarios()
            .iter()
            .map(|s| s.source.index())
            .collect();
        let mut test_images = Vec::new();
        let mut test_labels = Vec::new();
        for (image, &label) in pool.iter().zip(labels) {
            if test_labels.len() < EVAL_N && !sources.contains(&label) {
                test_images.push(image.clone());
                test_labels.push(label);
            }
        }
        for i in 0..prepared.test.len() {
            let (image, label) = prepared.test.sample(i).map_err(err)?;
            test_images.push(image);
            test_labels.push(label);
        }
        prepared.test =
            SignDataset::from_parts(Tensor::stack(&test_images).map_err(err)?, test_labels)
                .map_err(err)?;

        Ok(World {
            prepared,
            deployed,
            hardened,
            detector,
            triage,
            pool: slots,
            clean_top5,
            times: SetupTimes {
                total_s: begun.elapsed().as_secs_f64(),
                train_s,
                epochs: EPOCHS,
                generate_s,
                generated_images: traffic.len(),
                detector_fit_s,
            },
        })
    }

    fn slot(&self, variant: Variant) -> SutResult<&PoolImage> {
        self.pool
            .get(variant.slot())
            .and_then(Option::as_ref)
            .ok_or_else(|| format!("{variant:?} is not in the pool"))
    }

    fn image(&self, variant: Variant) -> SutResult<&Tensor> {
        self.slot(variant).map(|slot| &slot.image)
    }

    /// The reference answers of one (image, threat model) pair.
    pub fn reference(&self, variant: Variant, tm: Tm) -> SutResult<&Reference> {
        self.slot(variant).map(|slot| &slot.references[tm as usize])
    }

    /// The pool images set-up's detector flags: the engines must serve
    /// exactly these on the hardened path.
    pub fn flagged_variants(&self) -> Vec<Variant> {
        let flagged = |slot: &Option<PoolImage>| {
            slot.as_ref()
                .is_some_and(|image| image.references[0].hardened.is_some())
        };
        (0..self.pool.len())
            .filter(|&slot| flagged(&self.pool[slot]))
            .map(|slot| Variant {
                frame: slot / 2,
                adversarial: slot % 2 == 1,
            })
            .collect()
    }

    /// The pipeline a request takes, and the threat model it takes it
    /// under: a flagged image goes to the hardened pipeline with the
    /// filter bypass revoked.
    fn path(&self, tm: Tm, hardened: bool) -> (&InferencePipeline, ThreatModel) {
        if hardened {
            (&self.hardened, tm.escalated().product())
        } else {
            (&self.deployed, tm.product())
        }
    }

    /// `InferencePipeline::classify`, as a worker calls it for one image.
    pub fn classify(&self, variant: Variant, tm: Tm, hardened: bool) -> SutResult<Answer> {
        let (pipeline, threat) = self.path(tm, hardened);
        let verdict = pipeline
            .classify(self.image(variant)?, threat)
            .map_err(err)?;
        Ok(answer(&verdict))
    }
}

// ---- serve ------------------------------------------------------------

/// What a serving engine reports about a run, from its public
/// `MetricsReport`.
#[derive(Clone, Debug, Default)]
pub struct EngineReport {
    pub completed: u64,
    pub failed: u64,
    pub queue_rejected: u64,
    pub batches_dispatched: u64,
    pub mean_batch_size: f64,
    /// Batches dispatched per size; index 0 is size 1.
    pub batch_size_counts: Vec<u64>,
    pub latency_p50_us: u64,
    pub hardened_served: u64,
    pub hardened_latency_p50_us: u64,
}

impl From<MetricsReport> for EngineReport {
    fn from(report: MetricsReport) -> Self {
        let detection = report.detection.unwrap_or_default();
        EngineReport {
            completed: report.requests_completed,
            failed: report.requests_failed,
            queue_rejected: report.requests_rejected,
            batches_dispatched: report.batches_dispatched,
            mean_batch_size: report.mean_batch_size,
            batch_size_counts: report.batch_size_counts,
            latency_p50_us: report.latency_p50_us,
            hardened_served: detection.hardened_served,
            hardened_latency_p50_us: detection.hardened_latency_p50_us,
        }
    }
}

/// An in-process `InferenceServer`.
pub struct Engine(InferenceServer);

/// A request in flight on an [`Engine`].
pub struct Ticket(ResponseHandle);

impl Engine {
    pub fn start(world: &World, triage: bool) -> SutResult<Engine> {
        let pipeline = world.deployed.clone();
        let server = if triage {
            InferenceServer::start_with_triage(
                pipeline,
                server_config(),
                world.detector.clone(),
                world.triage.clone(),
            )
        } else {
            InferenceServer::start(pipeline, server_config())
        };
        server.map(Engine).map_err(err)
    }

    /// `InferenceServer::submit`. The engine takes the image by value,
    /// so the caller's copy is part of the call.
    pub fn submit(&self, world: &World, variant: Variant, tm: Tm) -> SutResult<Ticket> {
        self.0
            .submit(world.image(variant)?.clone(), tm.product())
            .map(Ticket)
            .map_err(err)
    }

    pub fn report(&self) -> EngineReport {
        self.0.metrics().into()
    }

    pub fn stop(self) -> EngineReport {
        self.0.shutdown().into()
    }
}

impl Ticket {
    pub fn wait(self) -> SutResult<Answer> {
        self.0.wait().map(|verdict| answer(&verdict)).map_err(err)
    }
}

// ---- net --------------------------------------------------------------

/// A `NetServer` over a triaging `ReplicaRouter`, on loopback.
pub struct NetFront(NetServer);

/// One `NetClient` connection.
pub struct Connection(NetClient);

/// The front's own failure counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetCounters {
    pub frame_errors: u64,
    pub timeouts: u64,
    pub connections_rejected: u64,
}

impl NetFront {
    pub fn start(world: &World) -> SutResult<NetFront> {
        let router = ReplicaRouter::start_with_triage(
            world.deployed.clone(),
            router_config(),
            world.detector.clone(),
            world.triage.clone(),
        )
        .map_err(err)?;
        NetServer::serve_router(router, NetConfig::default())
            .map(NetFront)
            .map_err(err)
    }

    pub fn connect(&self) -> SutResult<Connection> {
        let mut client = NetClient::connect(self.0.local_addr()).map_err(err)?;
        // A lost reply must end the run, not hang it: give up on a call
        // when the front itself would have given up on the peer.
        let patience = Duration::from_millis(NetConfig::default().read_timeout_ms);
        client.set_read_timeout(Some(patience)).map_err(err)?;
        Ok(Connection(client))
    }

    /// `ReplicaRouter::classify_for_tenant` on the front's own router,
    /// skipping the socket.
    pub fn router_classify(&self, world: &World, variant: Variant, tm: Tm) -> SutResult<Answer> {
        self.0
            .router()
            .classify_for_tenant(world.image(variant)?.clone(), tm.product(), None, "")
            .map(|verdict| answer(&verdict))
            .map_err(err)
    }

    pub fn report(&self) -> EngineReport {
        self.0.report().serving.into()
    }

    pub fn counters(&self) -> NetCounters {
        NetCounters {
            frame_errors: self.0.frame_errors(),
            timeouts: self.0.timeouts(),
            connections_rejected: self.0.connections_rejected(),
        }
    }

    pub fn stop(self) -> EngineReport {
        self.0.shutdown().serving.into()
    }
}

impl Connection {
    /// `NetClient::classify`: one request frame out, one reply frame in.
    pub fn classify(&mut self, world: &World, variant: Variant, tm: Tm) -> SutResult<Answer> {
        self.0
            .classify(world.image(variant)?, tm.product())
            .map(|verdict| answer(&verdict))
            .map_err(err)
    }

    pub fn close(self) {
        self.0.goodbye();
    }
}

/// One request and its reply as frames and as bytes, so that each codec
/// direction can be called on its own.
pub struct WireCase {
    request: Frame,
    request_bytes: Vec<u8>,
    response: Frame,
    response_bytes: Vec<u8>,
}

impl World {
    pub fn wire_case(&self, variant: Variant, tm: Tm) -> SutResult<WireCase> {
        let image = self.image(variant)?;
        let request = Frame::Request(WireRequest {
            id: 1,
            threat: tm.product(),
            deadline_us: 0,
            tenant: String::new(),
            image: image.clone(),
        });
        let verdict = self.deployed.classify(image, tm.product()).map_err(err)?;
        let response = Frame::Response(WireResponse { id: 1, verdict });
        Ok(WireCase {
            request_bytes: encode_frame(&request).map_err(err)?,
            response_bytes: encode_frame(&response).map_err(err)?,
            request,
            response,
        })
    }
}

impl WireCase {
    pub fn encode_request(&self) -> SutResult<usize> {
        encode_frame(&self.request)
            .map(|bytes| bytes.len())
            .map_err(err)
    }

    pub fn decode_request(&self) -> SutResult<usize> {
        decode_frame(&self.request_bytes)
            .map(|(_, used)| used)
            .map_err(err)
    }

    pub fn encode_response(&self) -> SutResult<usize> {
        encode_frame(&self.response)
            .map(|bytes| bytes.len())
            .map_err(err)
    }

    pub fn decode_response(&self) -> SutResult<usize> {
        decode_frame(&self.response_bytes)
            .map(|(_, used)| used)
            .map_err(err)
    }
}

// ---- detect -----------------------------------------------------------

impl World {
    /// `Detector::score_image`, as admission triage calls it.
    pub fn score_image(&self, variant: Variant) -> SutResult<f32> {
        self.detector.score_image(self.image(variant)?).map_err(err)
    }

    /// `pyramid_features` at the detector's depth.
    pub fn features(&self, variant: Variant) -> SutResult<Vec<f32>> {
        pyramid_features(self.image(variant)?, self.detector.scales()).map_err(err)
    }

    /// `Detector::score` on extracted features.
    pub fn forest_score(&self, features: &[f32]) -> SutResult<f32> {
        self.detector.score(features).map_err(err)
    }
}

// ---- core, filters, nn ------------------------------------------------

/// Images stacked for a batched call, or one `[C, H, W]` image.
pub struct Images(Tensor);

/// A filter of the product, by the benchmark's name for it.
pub struct FilterOp(Box<dyn Filter>);

fn filter_op(spec: FilterSpec) -> SutResult<FilterOp> {
    spec.build().map(FilterOp).map_err(err)
}

pub fn lap(np: usize) -> SutResult<FilterOp> {
    filter_op(FilterSpec::Lap { np })
}

pub fn lar(r: usize) -> SutResult<FilterOp> {
    filter_op(FilterSpec::Lar { r })
}

/// Every other configuration of the paper's sweep (None, LAP 8/32,
/// LAR 1/3/5): what one `repro_figs` pass covers.
fn repro_sweep() -> Vec<FilterSpec> {
    FilterSpec::paper_sweep().into_iter().step_by(2).collect()
}

pub fn repro_sweep_ops() -> SutResult<Vec<FilterOp>> {
    repro_sweep().into_iter().map(filter_op).collect()
}

impl FilterOp {
    pub fn apply(&self, images: &Images) -> SutResult<Images> {
        self.0.apply(&images.0).map(Images).map_err(err)
    }

    pub fn backward(&self, input: &Images, grad_out: &Images) -> SutResult<Images> {
        self.0
            .backward(&input.0, &grad_out.0)
            .map(Images)
            .map_err(err)
    }
}

impl World {
    pub fn batch(&self, variants: &[Variant]) -> SutResult<Images> {
        let images: Vec<Tensor> = variants
            .iter()
            .map(|&v| self.image(v).cloned())
            .collect::<SutResult<_>>()?;
        Tensor::stack(&images).map(Images).map_err(err)
    }

    pub fn single(&self, variant: Variant) -> SutResult<Images> {
        self.image(variant).cloned().map(Images)
    }

    /// `InferencePipeline::classify_batch` on the deployed pipeline.
    pub fn classify_batch(&self, images: &Images, tm: Tm) -> SutResult<usize> {
        self.deployed
            .classify_batch(&images.0, tm.product())
            .map(|v| v.len())
            .map_err(err)
    }

    /// `InferencePipeline::stage_input_batch`: re-acquisition and filter.
    pub fn stage_input_batch(&self, images: &Images, tm: Tm, hardened: bool) -> SutResult<Images> {
        let (pipeline, threat) = self.path(tm, hardened);
        pipeline
            .stage_input_batch(&images.0, threat)
            .map(Images)
            .map_err(err)
    }

    /// `Sequential::predict_proba` on the victim.
    pub fn predict_proba(&self, images: &Images) -> SutResult<usize> {
        self.prepared
            .model
            .predict_proba(&images.0)
            .map(|p| p.numel())
            .map_err(err)
    }
}

/// `AttackSurface::loss_and_input_grad` on one image: a forward and a
/// backward pass down to the pixels.
pub struct GradOp {
    surface: AttackSurface,
    image: Tensor,
    goal: AttackGoal,
}

impl World {
    fn scenario_one(&self) -> SutResult<(Tensor, AttackGoal)> {
        let scenario = Scenario::paper_scenarios()
            .first()
            .copied()
            .ok_or("the paper has no scenarios")?;
        let source = self
            .prepared
            .test
            .first_of_class(scenario.source)
            .map_err(err)?;
        Ok((source, scenario.goal()))
    }

    pub fn grad_op(&self, through_deployed_filter: bool) -> SutResult<GradOp> {
        let model = self.prepared.model.clone();
        let surface = if through_deployed_filter {
            AttackSurface::with_filter(model, DEPLOYED.build().map_err(err)?)
        } else {
            AttackSurface::new(model)
        };
        let (image, goal) = self.scenario_one()?;
        Ok(GradOp {
            surface,
            image,
            goal,
        })
    }
}

impl GradOp {
    pub fn run(&mut self) -> SutResult<f32> {
        self.surface
            .loss_and_input_grad(&self.image, self.goal)
            .map(|(loss, _)| loss)
            .map_err(err)
    }
}

// ---- tensor -----------------------------------------------------------

/// (input channels, output channels, input side) of the victim's five
/// convolution stages.
fn victim_stages() -> Vec<(usize, usize, usize)> {
    let config = ExperimentSetup::profile(SetupProfile::Full).vgg;
    let VggConfig {
        stage_channels,
        in_channels,
        input_size,
        ..
    } = config;
    let mut stages = Vec::with_capacity(stage_channels.len());
    let (mut channels, mut side) = (in_channels, input_size);
    for out in stage_channels {
        stages.push((channels, out, side));
        channels = out;
        side /= 2;
    }
    stages
}

/// Multiply-adds ×2 of one victim forward pass on one image, computed
/// from the layer shapes.
pub fn victim_flops_per_image() -> f64 {
    let stages = victim_stages();
    let conv: usize = stages
        .iter()
        .map(|&(cin, cout, side)| 2 * cin * 9 * cout * side * side)
        .sum();
    let (_, features, _) = stages.last().copied().unwrap_or((0, 0, 0));
    (conv + 2 * features * fademl_data::CLASS_COUNT) as f64
}

/// Bytes one filter pass reads and writes per image, computed from the
/// tensor sizes (cache misses not counted).
pub fn filter_bytes_per_image() -> f64 {
    let (channels, _, side) = victim_stages().first().copied().unwrap_or((0, 0, 0));
    (2 * channels * side * side * std::mem::size_of::<f32>()) as f64
}

/// One of the victim's convolution shapes on random data.
pub struct ConvCase {
    input: Tensor,
    weight: Tensor,
    bias: Tensor,
    grad_out: Tensor,
    spec: ConvSpec,
    /// Floating-point operations of one forward call.
    pub flops: f64,
}

/// `stage` counts from 1.
pub fn conv_case(stage: usize, batch: usize) -> SutResult<ConvCase> {
    let (cin, cout, side) = stage
        .checked_sub(1)
        .and_then(|i| victim_stages().get(i).copied())
        .ok_or_else(|| format!("the victim has no stage {stage}"))?;
    let mut rng = TensorRng::seed_from_u64(stage as u64);
    Ok(ConvCase {
        input: rng.uniform(&[batch, cin, side, side], 0.0, 1.0),
        weight: rng.uniform(&[cout, cin, 3, 3], -0.1, 0.1),
        bias: rng.uniform(&[cout], -0.1, 0.1),
        grad_out: rng.uniform(&[batch, cout, side, side], -1.0, 1.0),
        spec: ConvSpec::new(cin, cout, 3, 1, 1),
        flops: (2 * batch * cin * 9 * cout * side * side) as f64,
    })
}

impl ConvCase {
    pub fn forward(&self) -> SutResult<usize> {
        conv2d(&self.input, &self.weight, &self.bias, &self.spec)
            .map(|t| t.numel())
            .map_err(err)
    }

    pub fn backward(&self) -> SutResult<usize> {
        conv2d_backward(&self.input, &self.weight, &self.grad_out, &self.spec)
            .map(|grads| grads.input.numel())
            .map_err(err)
    }

    /// `max_pool2d` over this stage's output shape.
    pub fn pool_case(&self) -> PoolCase {
        PoolCase(self.grad_out.clone())
    }
}

pub struct PoolCase(Tensor);

impl PoolCase {
    pub fn forward(&self) -> SutResult<usize> {
        max_pool2d(&self.0, &PoolSpec::half())
            .map(|out| out.output.numel())
            .map_err(err)
    }
}

/// The classifier head's product: `[batch, features] · [classes, features]ᵀ`.
pub struct HeadCase {
    activations: Tensor,
    weight: Tensor,
}

pub fn head_case(batch: usize) -> HeadCase {
    let (_, features, _) = victim_stages().last().copied().unwrap_or((0, 1, 0));
    let mut rng = TensorRng::seed_from_u64(0);
    HeadCase {
        activations: rng.uniform(&[batch, features], 0.0, 1.0),
        weight: rng.uniform(&[fademl_data::CLASS_COUNT, features], -0.1, 0.1),
    }
}

impl HeadCase {
    pub fn forward(&self) -> SutResult<usize> {
        self.activations
            .matmul_nt(&self.weight)
            .map(|t| t.numel())
            .map_err(err)
    }
}

/// Scratch-arena counters of the tensor crate: (acquires, hits, grows).
pub fn arena_counters() -> (u64, u64, u64) {
    let stats = fademl_tensor::plan::alloc::stats();
    (stats.acquires, stats.hits, stats.grows)
}

// ---- attacks ----------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackKind {
    Lbfgs,
    Fgsm,
    Bim,
    /// BIM inside the FAdeML loop, crafted through the deployed filter.
    FademlBim,
}

/// One attack on scenario 1's source image.
pub struct AttackOp {
    attack: Box<dyn Attack>,
    surface: AttackSurface,
    source: Tensor,
    goal: AttackGoal,
}

impl World {
    pub fn attack_op(&self, kind: AttackKind) -> SutResult<AttackOp> {
        let params = AttackParams::default();
        let mut library = params.library().map_err(err)?;
        // `library` is in the figures' order: L-BFGS, FGSM, BIM.
        let index = match kind {
            AttackKind::Lbfgs => 0,
            AttackKind::Fgsm => 1,
            AttackKind::Bim | AttackKind::FademlBim => 2,
        };
        let base = library.swap_remove(index);
        let model = self.prepared.model.clone();
        let (attack, surface): (Box<dyn Attack>, _) = if kind == AttackKind::FademlBim {
            (
                Box::new(Fademl::new(base, params.fademl_rounds, params.fademl_eta).map_err(err)?),
                AttackSurface::with_filter(model, DEPLOYED.build().map_err(err)?),
            )
        } else {
            (base, AttackSurface::new(model))
        };
        let (source, goal) = self.scenario_one()?;
        Ok(AttackOp {
            attack,
            surface,
            source,
            goal,
        })
    }
}

impl AttackOp {
    /// Crafts one example; returns the queries it put to the surface.
    pub fn run(&mut self) -> SutResult<u64> {
        self.attack
            .run(&mut self.surface, &self.source, self.goal)
            .map(|example| example.queries)
            .map_err(err)
    }
}

// ---- the figure drivers -----------------------------------------------

/// One call of a figure driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FigRun {
    pub seconds: f64,
    /// Share of filtered cells where the targeted misclassification
    /// survived the filter.
    pub filtered_success_rate: f32,
    /// Mean "No attack" top-5 accuracy at the deployed filter.
    pub clean_top5: f32,
}

fn fig_run(began: Instant, filtered_success_rate: f32, grids: &[AccuracyGrid]) -> FigRun {
    let clean: Vec<f32> = grids
        .iter()
        .filter_map(|g| g.accuracy(DEPLOYED, "No attack"))
        .collect();
    FigRun {
        seconds: began.elapsed().as_secs_f64(),
        filtered_success_rate,
        clean_top5: clean.iter().sum::<f32>() / clean.len().max(1) as f32,
    }
}

impl World {
    /// `fig7::run` over the repro sweep: classical attacks, crafted
    /// blind, through every filter.
    pub fn fig7(&self, eval_n: usize) -> SutResult<FigRun> {
        let began = Instant::now();
        let params = AttackParams::default();
        let result = fig7::run(
            &self.prepared,
            &params,
            &repro_sweep(),
            eval_n,
            ThreatModel::III,
        )
        .map_err(err)?;
        Ok(fig_run(
            began,
            result.filtered_success_rate(),
            &result.grids,
        ))
    }

    /// `fig9::run` over the repro sweep: the same attacks inside the
    /// FAdeML loop, crafted through each filter.
    pub fn fig9(&self, eval_n: usize) -> SutResult<FigRun> {
        let began = Instant::now();
        let params = AttackParams::default();
        let result = fig9::run(
            &self.prepared,
            &params,
            &repro_sweep(),
            eval_n,
            ThreatModel::III,
        )
        .map_err(err)?;
        Ok(fig_run(
            began,
            result.filtered_success_rate(),
            &result.grids,
        ))
    }
}

// ---- data -------------------------------------------------------------

/// A `FrameStream` of correlated camera frames.
pub struct FrameSource(FrameStream);

pub fn frame_source(seed: u64) -> SutResult<FrameSource> {
    FrameStream::new(StreamConfig {
        seed,
        ..StreamConfig::default()
    })
    .map(FrameSource)
    .map_err(err)
}

impl FrameSource {
    pub fn next_frame(&mut self) -> SutResult<usize> {
        self.0.next_frame().map(|frame| frame.numel()).map_err(err)
    }
}
