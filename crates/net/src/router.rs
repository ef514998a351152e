//! The front router: shards requests across N in-process replica
//! [`InferenceServer`]s via consistent hashing keyed on threat model,
//! applies per-tenant token-bucket quotas ahead of the replicas' own
//! queue-full shedding, tracks per-replica health, and performs
//! rolling zero-downtime weight swaps.
//!
//! Routing is threat-model-keyed on purpose: the serving engine never
//! mixes threat models in one batch, so pinning each threat model to a
//! stable replica (ring walk order) maximizes batch coalescing. When
//! the pinned replica is unhealthy — breaker open or too many
//! consecutive hard failures — the walk continues to the next healthy
//! replica; when it is merely full, one spill attempt is made before
//! the `Overloaded` error propagates to the caller.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fademl::{InferencePipeline, ThreatModel, Verdict};
use fademl_detect::Detector;
use fademl_serve::error::{Result, ServeError};
use fademl_serve::metrics::MetricsReport;
use fademl_serve::{InferenceServer, ResponseHandle, ServerConfig, TriageConfig};
use fademl_tensor::fnv1a;
use serde::{Deserialize, Serialize};

#[cfg(feature = "faults")]
use fademl_serve::FaultPlan;

use crate::quota::{QuotaConfig, TenantQuotas};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of in-process replica servers.
    pub replicas: usize,
    /// Configuration applied to every replica.
    pub replica: ServerConfig,
    /// Virtual nodes per replica on the hash ring; more nodes smooth
    /// the key distribution.
    pub virtual_nodes: usize,
    /// Per-tenant admission quotas (rate 0 disables them).
    pub quota: QuotaConfig,
    /// Consecutive hard failures (batch/pipeline/internal errors)
    /// after which a replica is routed around until it succeeds again.
    pub unhealthy_after: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: 2,
            replica: ServerConfig::default(),
            virtual_nodes: 16,
            quota: QuotaConfig::default(),
            unhealthy_after: 3,
        }
    }
}

impl RouterConfig {
    /// Validates the settings.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] with the offending field named.
    pub fn validate(&self) -> Result<()> {
        if self.replicas == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "replicas must be at least 1".into(),
            });
        }
        if self.virtual_nodes == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "virtual_nodes must be at least 1".into(),
            });
        }
        if self.unhealthy_after == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "unhealthy_after must be at least 1".into(),
            });
        }
        self.replica.validate()
    }
}

#[derive(Debug)]
struct ReplicaSlot {
    id: u64,
    server: InferenceServer,
    consecutive_failures: AtomicU32,
}

/// A router over N replica serving engines. See the module docs for
/// the routing policy.
#[derive(Debug)]
pub struct ReplicaRouter {
    replicas: Vec<ReplicaSlot>,
    /// Sorted `(hash, replica index)` ring with virtual nodes.
    ring: Vec<(u64, usize)>,
    quotas: TenantQuotas,
    shutting_down: AtomicBool,
    unhealthy_after: u32,
    queue_capacity: usize,
    quota_rejected: AtomicU64,
    rerouted: AtomicU64,
    spilled: AtomicU64,
}

/// Router-level snapshot: the aggregated serving report (with its
/// per-replica section) plus the router's own admission counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterReport {
    /// Requests refused by tenant quotas before reaching any replica.
    pub quota_rejected: u64,
    /// Requests steered away from an unhealthy primary replica.
    pub rerouted: u64,
    /// Requests spilled to a second replica after the first shed load.
    pub spilled: u64,
    /// Aggregated serving metrics across replicas (the `replicas`
    /// field holds the per-replica breakdown).
    pub serving: MetricsReport,
}

impl RouterReport {
    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = self.serving.render();
        out.push_str(&format!(
            "  router:   {} quota-rejected, {} rerouted, {} spilled\n",
            self.quota_rejected, self.rerouted, self.spilled,
        ));
        out
    }
}

impl ReplicaRouter {
    /// Starts `config.replicas` serving engines, each on a clone of
    /// `pipeline`, and the hash ring over them.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for unusable settings, or
    /// whatever a replica's [`InferenceServer::start`] fails with.
    pub fn start(pipeline: InferencePipeline, config: RouterConfig) -> Result<Self> {
        let replica = config.replica.clone();
        Self::launch(config, |_| {
            InferenceServer::start(pipeline.clone(), replica.clone())
        })
    }

    /// Starts `config.replicas` serving engines with adversarial triage:
    /// every replica scores admitted images against its own copy of
    /// `detector` and routes flagged inputs to its hardened path. Pairs
    /// with [`swap_detectors`](ReplicaRouter::swap_detectors) for
    /// rolling zero-downtime detector refresh across the fleet.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for unusable settings, or whatever
    /// a replica's [`InferenceServer::start_with_triage`] fails with.
    pub fn start_with_triage(
        pipeline: InferencePipeline,
        config: RouterConfig,
        detector: Detector,
        triage: TriageConfig,
    ) -> Result<Self> {
        let replica = config.replica.clone();
        Self::launch(config, |_| {
            InferenceServer::start_with_triage(
                pipeline.clone(),
                replica.clone(),
                detector.clone(),
                triage.clone(),
            )
        })
    }

    /// Starts the router with per-replica fault plans (chaos testing):
    /// replica `i` is armed with `plans[i]`; replicas beyond the list
    /// run clean.
    ///
    /// # Errors
    ///
    /// Same as [`start`](ReplicaRouter::start).
    #[cfg(feature = "faults")]
    pub fn start_with_faults(
        pipeline: InferencePipeline,
        config: RouterConfig,
        plans: Vec<FaultPlan>,
    ) -> Result<Self> {
        let replica = config.replica.clone();
        let mut plans = plans.into_iter();
        Self::launch(config, |_| match plans.next() {
            Some(plan) => {
                InferenceServer::start_with_faults(pipeline.clone(), replica.clone(), plan)
            }
            None => InferenceServer::start(pipeline.clone(), replica.clone()),
        })
    }

    /// Validates `config`, starts replica `id` for every `id` in
    /// `0..config.replicas` with `start_replica`, and builds the ring.
    fn launch(
        config: RouterConfig,
        mut start_replica: impl FnMut(usize) -> Result<InferenceServer>,
    ) -> Result<Self> {
        config.validate()?;
        let mut replicas = Vec::with_capacity(config.replicas);
        for id in 0..config.replicas {
            replicas.push(ReplicaSlot {
                id: id as u64,
                server: start_replica(id)?,
                consecutive_failures: AtomicU32::new(0),
            });
        }
        Ok(Self::assemble(replicas, config))
    }

    fn assemble(replicas: Vec<ReplicaSlot>, config: RouterConfig) -> Self {
        let mut ring = Vec::with_capacity(config.replicas * config.virtual_nodes);
        for replica in 0..config.replicas {
            for vnode in 0..config.virtual_nodes {
                let key = format!("replica-{replica}-vnode-{vnode}");
                ring.push((fnv1a(key.as_bytes()), replica));
            }
        }
        ring.sort_unstable();
        ReplicaRouter {
            replicas,
            ring,
            quotas: TenantQuotas::new(config.quota),
            shutting_down: AtomicBool::new(false),
            unhealthy_after: config.unhealthy_after,
            queue_capacity: config.replica.queue_capacity,
            quota_rejected: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
        }
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The replica queue capacity quoted in quota-shed `Overloaded`
    /// errors.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Whether replica `idx` is currently routable.
    pub fn replica_healthy(&self, idx: usize) -> bool {
        self.replicas.get(idx).is_some_and(|s| self.slot_healthy(s))
    }

    fn slot_healthy(&self, slot: &ReplicaSlot) -> bool {
        slot.consecutive_failures.load(Ordering::Relaxed) < self.unhealthy_after
            && !slot.server.is_degraded()
    }

    /// Replica indices in routing preference order for `threat`:
    /// the ring walk from the threat key's hash, distinct replicas.
    fn candidates(&self, threat: ThreatModel) -> Vec<usize> {
        let key = fnv1a(threat_key(threat).as_bytes());
        let start = self.ring.partition_point(|&(hash, _)| hash < key);
        let mut order = Vec::with_capacity(self.replicas.len());
        for &(_, idx) in self
            .ring
            .iter()
            .skip(start)
            .chain(self.ring.iter().take(start))
        {
            if !order.contains(&idx) {
                order.push(idx);
                if order.len() == self.replicas.len() {
                    break;
                }
            }
        }
        order
    }

    /// Submits one request through admission control and routing,
    /// returning the serving replica's index and the response handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] during shutdown,
    /// [`ServeError::Overloaded`] when the tenant's quota is exhausted
    /// or the chosen replica (and its spill target) shed load, plus
    /// everything the replica's own admission can raise.
    pub fn submit(
        &self,
        image: fademl_tensor::Tensor,
        threat: ThreatModel,
        deadline: Option<Duration>,
        tenant: &str,
    ) -> Result<(usize, ResponseHandle)> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        if !self.quotas.admit(tenant, Instant::now()) {
            self.quota_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                capacity: self.queue_capacity,
            });
        }
        let order = self.candidates(threat);
        let primary = order.first().copied().ok_or_else(|| ServeError::Internal {
            reason: "router has no replicas".into(),
        })?;
        let chosen = order
            .iter()
            .copied()
            .find(|&idx| self.replica_healthy(idx))
            .unwrap_or(primary);
        if chosen != primary {
            self.rerouted.fetch_add(1, Ordering::Relaxed);
        }
        let spill_target = order
            .iter()
            .copied()
            .find(|&idx| idx != chosen && self.replica_healthy(idx));
        let slot = self
            .replicas
            .get(chosen)
            .ok_or_else(|| ServeError::Internal {
                reason: "replica index out of range".into(),
            })?;
        // Keep a copy only if a spill target exists to retry on.
        let retry_image = spill_target.map(|_| image.clone());
        match slot.server.submit_with_deadline(image, threat, deadline) {
            Ok(handle) => Ok((chosen, handle)),
            Err(ServeError::Overloaded { capacity }) => {
                let (Some(next), Some(image)) = (spill_target, retry_image) else {
                    return Err(ServeError::Overloaded { capacity });
                };
                let slot = self
                    .replicas
                    .get(next)
                    .ok_or_else(|| ServeError::Internal {
                        reason: "replica index out of range".into(),
                    })?;
                self.spilled.fetch_add(1, Ordering::Relaxed);
                slot.server
                    .submit_with_deadline(image, threat, deadline)
                    .map(|handle| (next, handle))
            }
            Err(err) => Err(err),
        }
    }

    /// Submit, wait, and feed the outcome back into health tracking.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](ReplicaRouter::submit), plus any error the
    /// serving engine answers with.
    pub fn classify_for_tenant(
        &self,
        image: fademl_tensor::Tensor,
        threat: ThreatModel,
        deadline: Option<Duration>,
        tenant: &str,
    ) -> Result<Verdict> {
        let (replica, handle) = self.submit(image, threat, deadline, tenant)?;
        let result = handle.wait();
        self.record_outcome(replica, &result);
        result
    }

    /// Convenience: classify with no deadline under the empty tenant.
    ///
    /// # Errors
    ///
    /// Same as [`classify_for_tenant`](ReplicaRouter::classify_for_tenant).
    pub fn classify(&self, image: fademl_tensor::Tensor, threat: ThreatModel) -> Result<Verdict> {
        self.classify_for_tenant(image, threat, None, "")
    }

    /// Feeds a request outcome into replica health: hard failures
    /// (lost batches, pipeline faults, engine errors) count toward the
    /// unhealthy threshold; any success resets it. Deadline misses and
    /// load sheds are *not* health signals — a busy replica is not a
    /// broken one.
    pub fn record_outcome(&self, replica: usize, result: &Result<Verdict>) {
        let Some(slot) = self.replicas.get(replica) else {
            return;
        };
        match result {
            Ok(_) => slot.consecutive_failures.store(0, Ordering::Relaxed),
            Err(
                ServeError::BatchFailed { .. }
                | ServeError::Pipeline { .. }
                | ServeError::Internal { .. },
            ) => {
                slot.consecutive_failures.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
    }

    /// Rolling hot weight swap: each replica validates and swaps the
    /// `FADEMLW2` artifact in turn while the others keep serving, so
    /// the fleet never has zero capacity. Returns the generation the
    /// last replica reached. Aborts on the first refusal — already
    /// swapped replicas keep the new weights (the artifact that passed
    /// validation once is sound; a refusal means it never applied to
    /// any remaining replica's architecture).
    ///
    /// # Errors
    ///
    /// [`ServeError::SwapFailed`] from the first replica that refuses
    /// the artifact.
    pub fn swap_weights(&self, artifact: &[u8]) -> Result<u64> {
        let mut generation = 0;
        for slot in &self.replicas {
            generation = slot.server.swap_weights(artifact)?;
        }
        Ok(generation)
    }

    /// Rolling hot *detector* swap, mirroring
    /// [`swap_weights`](ReplicaRouter::swap_weights): each replica
    /// validates and swaps the `FADEMLD1` artifact in turn while the
    /// others keep triaging on their incumbent, so the fleet is never
    /// blind. Returns the generation the last replica reached; aborts
    /// on the first refusal (already-swapped replicas keep the new
    /// detector).
    ///
    /// # Errors
    ///
    /// [`ServeError::SwapFailed`] from the first replica that refuses
    /// the artifact (corrupt bytes, mismatched feature geometry, or a
    /// replica started without triage).
    pub fn swap_detectors(&self, artifact: &[u8]) -> Result<u64> {
        let mut generation = 0;
        for slot in &self.replicas {
            generation = slot.server.swap_detector(artifact)?;
        }
        Ok(generation)
    }

    /// The detector generation every replica has provably reached
    /// (minimum across replicas).
    pub fn detector_generation(&self) -> u64 {
        self.replicas
            .iter()
            .map(|slot| slot.server.detector_generation())
            .min()
            .unwrap_or(0)
    }

    /// The weight generation every replica has provably reached
    /// (minimum across replicas).
    pub fn swap_generation(&self) -> u64 {
        self.replicas
            .iter()
            .map(|slot| slot.server.swap_generation())
            .min()
            .unwrap_or(0)
    }

    /// Live aggregated snapshot.
    pub fn report(&self) -> RouterReport {
        let parts: Vec<(u64, bool, MetricsReport)> = self
            .replicas
            .iter()
            .map(|slot| (slot.id, self.slot_healthy(slot), slot.server.metrics()))
            .collect();
        RouterReport {
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            rerouted: self.rerouted.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
            serving: MetricsReport::aggregate(&parts),
        }
    }

    /// Graceful shutdown: stops accepting, then drains every replica
    /// (each replica answers all queued and in-flight requests before
    /// its threads exit) and returns the final aggregated report.
    pub fn shutdown(self) -> RouterReport {
        self.shutting_down.store(true, Ordering::Release);
        let unhealthy_after = self.unhealthy_after;
        let parts: Vec<(u64, bool, MetricsReport)> = self
            .replicas
            .into_iter()
            .map(|slot| {
                let healthy = slot.consecutive_failures.load(Ordering::Relaxed) < unhealthy_after
                    && !slot.server.is_degraded();
                (slot.id, healthy, slot.server.shutdown())
            })
            .collect();
        RouterReport {
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            rerouted: self.rerouted.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
            serving: MetricsReport::aggregate(&parts),
        }
    }
}

fn threat_key(threat: ThreatModel) -> &'static str {
    match threat {
        ThreatModel::I => "threat-I",
        ThreatModel::II => "threat-II",
        ThreatModel::III => "threat-III",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fademl_filters::FilterSpec;
    use fademl_nn::vgg::VggConfig;
    use fademl_tensor::{Tensor, TensorRng};

    fn pipeline() -> InferencePipeline {
        let mut rng = TensorRng::seed_from_u64(1);
        let model = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
        InferencePipeline::new(model, FilterSpec::Lap { np: 8 }).unwrap()
    }

    fn image(seed: u64) -> Tensor {
        TensorRng::seed_from_u64(seed).uniform(&[3, 16, 16], 0.0, 1.0)
    }

    fn config() -> RouterConfig {
        RouterConfig {
            replicas: 2,
            replica: ServerConfig {
                queue_capacity: 64,
                max_batch_size: 4,
                linger_us: 500,
                workers: 1,
                ..ServerConfig::default()
            },
            ..RouterConfig::default()
        }
    }

    #[test]
    fn routes_and_serves_all_threat_models() {
        let router = ReplicaRouter::start(pipeline(), config()).unwrap();
        let reference = pipeline();
        for (i, threat) in [ThreatModel::I, ThreatModel::II, ThreatModel::III]
            .into_iter()
            .enumerate()
        {
            let img = image(i as u64 + 10);
            let served = router.classify(img.clone(), threat).unwrap();
            let direct = reference.classify(&img, threat).unwrap();
            assert_eq!(served.class, direct.class);
        }
        let report = router.shutdown();
        assert_eq!(report.serving.requests_completed, 3);
        assert_eq!(report.serving.requests_failed, 0);
        assert_eq!(report.serving.replicas.len(), 2);
        // Both replicas snapshot the same process-wide arena counters:
        // the router must report them once, not once per replica.
        let arena = report.serving.arena.expect("kernels leased scratch");
        let after = fademl_tensor::plan::alloc::stats();
        assert!(
            arena.scratch_acquires <= after.acquires,
            "router reported {} scratch leases, the process made {}",
            arena.scratch_acquires,
            after.acquires
        );
    }

    #[test]
    fn threat_routing_is_deterministic() {
        let router = ReplicaRouter::start(pipeline(), config()).unwrap();
        let a = router.candidates(ThreatModel::I);
        let b = router.candidates(ThreatModel::I);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_ne!(a[0], a[1]);
        router.shutdown();
    }

    #[test]
    fn quota_exhaustion_is_overloaded() {
        let mut cfg = config();
        cfg.quota = QuotaConfig {
            rate_per_sec: 1,
            burst: 2,
        };
        let router = ReplicaRouter::start(pipeline(), cfg).unwrap();
        let mut sheds = 0;
        for i in 0..5 {
            match router.classify_for_tenant(image(i), ThreatModel::I, None, "greedy") {
                Ok(_) => {}
                Err(ServeError::Overloaded { .. }) => sheds += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(sheds >= 2, "burst of 2 must shed some of 5 instant calls");
        let report = router.shutdown();
        assert_eq!(report.quota_rejected, sheds);
    }

    #[test]
    fn unhealthy_replica_is_routed_around() {
        let router = ReplicaRouter::start(pipeline(), config()).unwrap();
        let primary = *router.candidates(ThreatModel::II).first().unwrap();
        // Push the primary over the failure threshold by hand.
        for _ in 0..3 {
            router.record_outcome(
                primary,
                &Err(ServeError::BatchFailed {
                    reason: "injected".into(),
                }),
            );
        }
        assert!(!router.replica_healthy(primary));
        let (served_by, handle) = router.submit(image(42), ThreatModel::II, None, "").unwrap();
        assert_ne!(served_by, primary, "must route around the sick replica");
        let result = handle.wait();
        router.record_outcome(served_by, &result);
        assert!(result.is_ok());
        let report = router.shutdown();
        assert_eq!(report.rerouted, 1);
    }

    #[test]
    fn success_resets_failure_count() {
        let router = ReplicaRouter::start(pipeline(), config()).unwrap();
        router.record_outcome(
            0,
            &Err(ServeError::Pipeline {
                message: "x".into(),
            }),
        );
        router.record_outcome(
            0,
            &Err(ServeError::Pipeline {
                message: "x".into(),
            }),
        );
        assert!(router.replica_healthy(0));
        let verdict = Err(ServeError::DeadlineExceeded {
            stage: fademl_serve::DeadlineStage::Queue,
        });
        // Deadline misses are not health signals.
        router.record_outcome(0, &verdict);
        assert!(router.replica_healthy(0));
        router.shutdown();
    }

    #[test]
    fn rolling_swap_advances_every_replica() {
        let router = ReplicaRouter::start(pipeline(), config()).unwrap();
        assert_eq!(router.swap_generation(), 0);
        let mut rng = TensorRng::seed_from_u64(50);
        let next = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
        let artifact = fademl::serialize::encode_weights(&next);
        let generation = router.swap_weights(&artifact).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(router.swap_generation(), 1);
        let report = router.shutdown();
        assert_eq!(report.serving.swap_generation, 1);
        for replica in &report.serving.replicas {
            assert_eq!(replica.swap_generation, 1);
        }
    }

    #[test]
    fn rolling_detector_swap_advances_every_replica() {
        let detector_for = |seed: u64| {
            let samples: Vec<Tensor> = (0..32).map(|i| image(seed + i)).collect();
            Detector::fit_images(
                &samples,
                &fademl_detect::DetectorConfig {
                    trees: 8,
                    subsample: 16,
                    scales: 2,
                    seed,
                },
            )
            .unwrap()
        };
        let router = ReplicaRouter::start_with_triage(
            pipeline(),
            config(),
            detector_for(100),
            TriageConfig::default(),
        )
        .unwrap();
        assert_eq!(router.detector_generation(), 0);
        router.classify(image(1), ThreatModel::II).unwrap();
        let generation = router
            .swap_detectors(&detector_for(200).to_bytes())
            .unwrap();
        assert_eq!(generation, 1);
        assert_eq!(router.detector_generation(), 1);
        // Serving continues on the swapped fleet, still annotated.
        let verdict = router.classify(image(2), ThreatModel::II).unwrap();
        assert!(verdict.detection.is_some());
        // A corrupt artifact is refused and the generation holds.
        assert!(matches!(
            router.swap_detectors(&[0_u8; 16]),
            Err(ServeError::SwapFailed { .. })
        ));
        assert_eq!(router.detector_generation(), 1);
        let report = router.shutdown();
        assert_eq!(report.serving.requests_failed, 0);
    }

    #[test]
    fn triage_swap_on_plain_router_is_refused_typed() {
        let router = ReplicaRouter::start(pipeline(), config()).unwrap();
        assert!(matches!(
            router.swap_detectors(&[0_u8; 16]),
            Err(ServeError::SwapFailed { .. })
        ));
        assert_eq!(router.detector_generation(), 0);
        router.shutdown();
    }

    #[test]
    fn invalid_config_refused() {
        assert!(matches!(
            ReplicaRouter::start(
                pipeline(),
                RouterConfig {
                    replicas: 0,
                    ..RouterConfig::default()
                }
            ),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn router_report_serde_round_trips() {
        let router = ReplicaRouter::start(pipeline(), config()).unwrap();
        let _ = router.classify(image(1), ThreatModel::I).unwrap();
        let report = router.shutdown();
        let json = serde::json::to_string_pretty(&report);
        let back: RouterReport = serde::json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
