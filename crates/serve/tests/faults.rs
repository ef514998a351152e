//! Deterministic chaos tests for the serving engine, driven by the
//! fault-injection harness (`--features faults`).
//!
//! The invariant under test, everywhere: **every accepted request's
//! handle resolves** — with *the* verdict or a typed error — no matter
//! which fault fires. A hang is the one failure mode these tests are
//! designed to catch, so every wait goes through `wait_timeout`; a
//! served verdict must equal the offline `classify` of its image, bit
//! for bit, whatever batch or path served it.

#![cfg(feature = "faults")]

use std::time::Duration;

use fademl::{InferencePipeline, ThreatModel, Verdict};
use fademl_filters::FilterSpec as Spec;
use fademl_nn::vgg::VggConfig;
use fademl_serve::{
    DeadlineStage, FaultPlan, InferenceServer, ResponseHandle, ServeError, ServerConfig,
};
use fademl_tensor::{Tensor, TensorRng};

/// Generous bound for "resolves": far above any real processing time,
/// far below a hung test.
const RESOLVE_WITHIN: Duration = Duration::from_secs(30);

fn pipeline() -> InferencePipeline {
    let mut rng = TensorRng::seed_from_u64(1);
    let model = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
    InferencePipeline::new(model, Spec::Lap { np: 8 }).unwrap()
}

fn images(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.uniform(&[3, 16, 16], 0.0, 1.0))
        .collect()
}

/// One worker, small batches: batch sequence numbers are deterministic.
fn single_worker_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: 64,
        max_batch_size: 2,
        linger_us: 20_000,
        workers: 1,
        ..ServerConfig::default()
    }
}

/// Spins until workers have taken `n` batches out of the queue.
fn await_batches(server: &InferenceServer, n: u64) {
    while server.metrics().batches_dispatched < n {
        std::thread::yield_now();
    }
}

fn resolve(handle: ResponseHandle) -> Result<Verdict, ServeError> {
    handle
        .wait_timeout(RESOLVE_WITHIN)
        .expect("handle must resolve, not hang")
}

fn verdict_bits(v: &Verdict) -> (usize, Vec<usize>, Vec<u32>, Vec<u32>) {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (
        v.class,
        v.top5.top_classes.clone(),
        bits(&v.top5.top_probs),
        bits(v.probabilities.as_slice()),
    )
}

/// Asserts that `served` is *the* verdict of `image`: the offline
/// `classify` of the same pipeline, bit for bit.
fn assert_the_verdict(served: &Verdict, image: &Tensor, threat: ThreatModel) {
    let offline = pipeline().classify(image, threat).unwrap();
    assert_eq!(
        verdict_bits(served),
        verdict_bits(&offline),
        "served verdict differs from the offline one under {threat:?}"
    );
}

#[test]
fn injected_panic_fails_only_its_batch() {
    let server = InferenceServer::start_with_faults(
        pipeline(),
        single_worker_config(),
        FaultPlan::new().panic_on_batch(1),
    )
    .unwrap();
    let mut imgs = images(4, 2).into_iter();

    // Batch 1: two requests, poisoned by the injected panic.
    let h1 = server.submit(imgs.next().unwrap(), ThreatModel::I).unwrap();
    let h2 = server.submit(imgs.next().unwrap(), ThreatModel::I).unwrap();
    for handle in [h1, h2] {
        match resolve(handle) {
            Err(ServeError::BatchFailed { reason }) => {
                assert!(reason.contains("injected panic"), "reason: {reason}");
            }
            other => panic!("expected BatchFailed, got {other:?}"),
        }
    }

    // Batch 2: the worker survived the panic and serves normally.
    let (i3, i4) = (imgs.next().unwrap(), imgs.next().unwrap());
    let h3 = server.submit(i3.clone(), ThreatModel::I).unwrap();
    let h4 = server.submit(i4.clone(), ThreatModel::I).unwrap();
    assert_the_verdict(&resolve(h3).unwrap(), &i3, ThreatModel::I);
    assert_the_verdict(&resolve(h4).unwrap(), &i4, ThreatModel::I);

    let report = server.shutdown();
    assert_eq!(report.worker_panics, 1);
    assert_eq!(report.batches_failed, 1);
    assert_eq!(
        report.workers_respawned, 0,
        "panic must not kill the worker"
    );
    assert_eq!(report.requests_failed, 2);
    assert_eq!(report.requests_completed, 2);
}

/// Regression test for the silent-hang bug: a worker killed mid-flight
/// used to leave its batch — and the whole server — unable to answer.
/// Now the batch fails typed, the supervisor respawns the worker, and
/// later requests are served.
#[test]
fn killed_worker_is_respawned_and_nothing_hangs() {
    let server = InferenceServer::start_with_faults(
        pipeline(),
        single_worker_config(),
        FaultPlan::new().kill_worker_on_batch(1),
    )
    .unwrap();
    let mut imgs = images(4, 3).into_iter();

    let h1 = server
        .submit(imgs.next().unwrap(), ThreatModel::II)
        .unwrap();
    let h2 = server
        .submit(imgs.next().unwrap(), ThreatModel::II)
        .unwrap();
    for handle in [h1, h2] {
        match resolve(handle) {
            Err(ServeError::BatchFailed { reason }) => {
                assert!(reason.contains("worker kill"), "reason: {reason}");
            }
            other => panic!("expected BatchFailed, got {other:?}"),
        }
    }

    // The only worker died; these can only be served by its replacement.
    let (i3, i4) = (imgs.next().unwrap(), imgs.next().unwrap());
    let h3 = server.submit(i3.clone(), ThreatModel::II).unwrap();
    let h4 = server.submit(i4.clone(), ThreatModel::II).unwrap();
    assert_the_verdict(&resolve(h3).unwrap(), &i3, ThreatModel::II);
    assert_the_verdict(&resolve(h4).unwrap(), &i4, ThreatModel::II);

    let report = server.shutdown();
    assert_eq!(report.workers_respawned, 1);
    assert_eq!(report.worker_panics, 1);
    assert_eq!(report.requests_completed, 2);
    assert_eq!(report.requests_failed, 2);
}

#[test]
fn deadline_expires_in_queue_behind_a_stalled_batcher() {
    let server = InferenceServer::start_with_faults(
        pipeline(),
        single_worker_config(),
        // The worker sleeps 80 ms before its first look at the queue —
        // the request's 10 ms deadline expires while it waits there.
        FaultPlan::new().stall_dequeue(1, Duration::from_millis(80)),
    )
    .unwrap();
    let handle = server
        .submit_with_deadline(
            images(1, 4).pop().unwrap(),
            ThreatModel::I,
            Some(Duration::from_millis(10)),
        )
        .unwrap();
    assert_eq!(
        resolve(handle),
        Err(ServeError::DeadlineExceeded {
            stage: DeadlineStage::Queue,
        })
    );
    let report = server.shutdown();
    assert_eq!(report.deadline_missed_queue, 1);
    assert_eq!(report.deadline_missed_batch, 0);
    assert_eq!(report.requests_failed, 1);
    // Exactly one overshoot recorded (scheduling decides the bucket).
    assert_eq!(report.deadline_overshoot_buckets.iter().sum::<u64>(), 1);
}

/// A request stuck behind a busy worker waits in the queue — nothing
/// sits between the queue and a worker — so that is where it expires.
/// (Stage `Batch` needs the deadline to pass between the take and the
/// execution; `server::tests` reaches it by calling `process_batch`.)
#[test]
fn deadline_expires_in_batch_behind_a_slow_worker() {
    let server = InferenceServer::start_with_faults(
        pipeline(),
        ServerConfig {
            max_batch_size: 1, // every request is its own batch
            linger_us: 1_000,
            workers: 1,
            ..ServerConfig::default()
        },
        // The worker sleeps 150 ms inside batch 1; the second request
        // stays queued the whole time.
        FaultPlan::new().delay_batch(1, Duration::from_millis(150)),
    )
    .unwrap();
    let mut imgs = images(2, 5).into_iter();
    let slow = server.submit(imgs.next().unwrap(), ThreatModel::I).unwrap();
    // Let the first request become batch 1 before submitting the second.
    await_batches(&server, 1);
    let expired = server
        .submit_with_deadline(
            imgs.next().unwrap(),
            ThreatModel::I,
            Some(Duration::from_millis(20)),
        )
        .unwrap();
    assert!(resolve(slow).is_ok(), "the delayed batch still serves");
    assert_eq!(
        resolve(expired),
        Err(ServeError::DeadlineExceeded {
            stage: DeadlineStage::Queue,
        })
    );
    let report = server.shutdown();
    assert_eq!(report.deadline_missed_queue, 1);
    assert_eq!(report.deadline_missed_batch, 0);
}

/// Batches form from backlog, not from a timer: with no linger at all,
/// everything submitted while the only worker is busy comes back as one
/// batch.
#[test]
fn backlog_behind_a_busy_worker_is_served_as_one_batch() {
    let server = InferenceServer::start_with_faults(
        pipeline(),
        ServerConfig {
            workers: 1,
            linger_us: 0,
            ..ServerConfig::default()
        },
        FaultPlan::new().delay_batch(1, Duration::from_millis(100)),
    )
    .unwrap();
    let mut imgs = images(9, 6).into_iter();
    let first = server.submit(imgs.next().unwrap(), ThreatModel::I).unwrap();
    // The idle worker takes the lone request at once and stalls in it.
    await_batches(&server, 1);
    let backlog: Vec<_> = imgs
        .map(|img| server.submit(img, ThreatModel::I).unwrap())
        .collect();
    assert!(resolve(first).is_ok());
    for handle in backlog {
        assert!(resolve(handle).is_ok());
    }
    let report = server.shutdown();
    assert_eq!(report.batches_dispatched, 2);
    assert_eq!(report.batch_size_counts[0], 1, "the lone first request");
    assert_eq!(report.batch_size_counts[7], 1, "the backlog of eight");
}

/// No stranded wake-up: the worker respawned after a kill serves the
/// next request without any linger to time it out of a park.
#[test]
fn respawned_worker_serves_at_linger_zero() {
    let server = InferenceServer::start_with_faults(
        pipeline(),
        ServerConfig {
            workers: 1,
            linger_us: 0,
            ..ServerConfig::default()
        },
        FaultPlan::new().kill_worker_on_batch(1),
    )
    .unwrap();
    let mut imgs = images(2, 7).into_iter();
    let killed = server.submit(imgs.next().unwrap(), ThreatModel::I).unwrap();
    assert!(matches!(
        resolve(killed),
        Err(ServeError::BatchFailed { .. })
    ));
    let next = server.submit(imgs.next().unwrap(), ThreatModel::I).unwrap();
    assert!(resolve(next).is_ok());
    let report = server.shutdown();
    assert_eq!(report.workers_respawned, 1);
    assert_eq!(report.requests_completed, 1);
}

#[test]
fn breaker_degrades_after_consecutive_failures_and_probe_recovers() {
    let config = ServerConfig {
        queue_capacity: 64,
        max_batch_size: 2,
        linger_us: 20_000,
        workers: 1,
        degrade_after_failures: 2,
        probe_every: 2,
        ..ServerConfig::default()
    };
    let server = InferenceServer::start_with_faults(
        pipeline(),
        config,
        FaultPlan::new().panic_on_batch(1).panic_on_batch(2),
    )
    .unwrap();
    let submit_pair = |seed: u64| -> Vec<(Tensor, ResponseHandle)> {
        images(2, seed)
            .into_iter()
            .map(|img| (img.clone(), server.submit(img, ThreatModel::I).unwrap()))
            .collect()
    };

    // Batches 1 and 2 panic → breaker opens.
    for seed in [10, 11] {
        for (_, handle) in submit_pair(seed) {
            assert!(matches!(
                resolve(handle),
                Err(ServeError::BatchFailed { .. })
            ));
        }
    }
    assert!(
        server.is_degraded(),
        "two consecutive failures must degrade"
    );

    // Batch 3 runs per-image (isolated) and still serves the verdicts.
    for (image, handle) in submit_pair(12) {
        assert_the_verdict(&resolve(handle).unwrap(), &image, ThreatModel::I);
    }
    assert!(server.is_degraded(), "first degraded batch is not a probe");

    // Batch 4 is the probe (every 2nd degraded batch); its success
    // closes the breaker.
    for (image, handle) in submit_pair(13) {
        assert_the_verdict(&resolve(handle).unwrap(), &image, ThreatModel::I);
    }
    assert!(!server.is_degraded(), "successful probe must recover");

    let report = server.shutdown();
    assert_eq!(report.degraded_entered, 1);
    assert_eq!(report.degraded_exited, 1);
    assert!(!report.degraded_now);
    assert_eq!(report.single_image_fallbacks, 2, "batch 3 ran per-image");
    assert_eq!(report.worker_panics, 2);
}

/// The full chaos drill: concurrent submitters, mixed deadlines, and a
/// plan that panics a worker, kills a worker, delays a batch and stalls
/// a dequeue — all at once. Every single handle must resolve.
#[test]
fn chaos_stress_every_handle_resolves() {
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 12;

    let plan = FaultPlan::new()
        .panic_on_batch(2)
        .kill_worker_on_batch(5)
        .delay_batch(8, Duration::from_millis(40))
        .stall_dequeue(9, Duration::from_millis(30));
    let server = std::sync::Arc::new(
        InferenceServer::start_with_faults(
            pipeline(),
            ServerConfig {
                queue_capacity: 256,
                max_batch_size: 4,
                linger_us: 5_000,
                workers: 2,
                degrade_after_failures: 2,
                probe_every: 2,
                ..ServerConfig::default()
            },
            plan,
        )
        .unwrap(),
    );

    #[expect(
        clippy::disallowed_methods,
        reason = "concurrent submitters, each on its own thread"
    )]
    let threads: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let server = std::sync::Arc::clone(&server);
            std::thread::spawn(move || {
                let mut verdicts = 0usize;
                let mut typed_errors = 0usize;
                for (i, img) in images(PER_SUBMITTER, 100 + t as u64)
                    .into_iter()
                    .enumerate()
                {
                    let threat = [ThreatModel::I, ThreatModel::II, ThreatModel::III][i % 3];
                    // Every 4th request carries a tight-ish deadline.
                    let deadline = (i % 4 == 0).then(|| Duration::from_millis(200));
                    match server.submit_with_deadline(img.clone(), threat, deadline) {
                        Ok(handle) => match resolve(handle) {
                            Ok(served) => {
                                assert_the_verdict(&served, &img, threat);
                                verdicts += 1;
                            }
                            Err(_) => typed_errors += 1,
                        },
                        // Shedding at the edge also counts as resolved.
                        Err(_) => typed_errors += 1,
                    }
                }
                (verdicts, typed_errors)
            })
        })
        .collect();

    let mut verdicts = 0;
    let mut typed_errors = 0;
    for thread in threads {
        let (v, e) = thread.join().unwrap();
        verdicts += v;
        typed_errors += e;
    }
    assert_eq!(
        verdicts + typed_errors,
        SUBMITTERS * PER_SUBMITTER,
        "every request resolved with a verdict or a typed error"
    );
    assert!(verdicts > 0, "chaos must not take down the whole service");

    let report = std::sync::Arc::try_unwrap(server)
        .expect("all submitter clones joined")
        .shutdown();
    assert!(report.worker_panics >= 2, "both injected panics fired");
    assert_eq!(report.workers_respawned, 1);
    // Accounting closes: nothing submitted is left unanswered.
    assert_eq!(
        report.requests_completed + report.requests_failed,
        report.requests_submitted
    );
    assert_eq!(report.queue_depth, 0);
}
