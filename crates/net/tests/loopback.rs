//! End-to-end loopback tests: real TCP, real replicas, real weights.
//!
//! The headline assertions mirror the subsystem's contract: verdicts
//! over the wire are bit-identical to in-process inference, typed
//! serving errors survive the hop, a hot weight swap under sustained
//! client load completes with zero dropped or errored requests and a
//! monotonically advancing `swap_generation`, and graceful shutdown
//! drains every in-flight request.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fademl::{serialize, InferencePipeline, ThreatModel};
use fademl_filters::FilterSpec;
use fademl_net::{NetClient, NetConfig, NetError, NetServer, RouterConfig};
use fademl_nn::vgg::VggConfig;
use fademl_serve::{ServeError, ServerConfig};
use fademl_tensor::TensorRng;

fn pipeline(seed: u64) -> InferencePipeline {
    let mut rng = TensorRng::seed_from_u64(seed);
    let model = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
    InferencePipeline::new(model, FilterSpec::Lap { np: 8 }).unwrap()
}

fn router_config(replicas: usize) -> RouterConfig {
    RouterConfig {
        replicas,
        replica: ServerConfig {
            queue_capacity: 128,
            max_batch_size: 8,
            linger_us: 500,
            workers: 2,
            ..ServerConfig::default()
        },
        ..RouterConfig::default()
    }
}

#[test]
fn wire_verdicts_match_in_process_inference() {
    let server = NetServer::start(pipeline(11), router_config(2), NetConfig::default()).unwrap();
    let reference = pipeline(11);
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let mut rng = TensorRng::seed_from_u64(500);
    for (i, threat) in ThreatModel::ALL.iter().cycle().take(9).enumerate() {
        let image = rng.uniform(&[3, 16, 16], 0.0, 1.0);
        let over_wire = client.classify(&image, *threat).unwrap();
        let direct = reference.classify(&image, *threat).unwrap();
        assert_eq!(over_wire, direct, "request {i} diverged from in-process");
    }
    client.goodbye();
    let report = server.shutdown();
    assert_eq!(report.serving.requests_completed, 9);
    assert_eq!(report.serving.requests_failed, 0);
}

#[test]
fn typed_errors_survive_the_wire() {
    let server = NetServer::start(pipeline(12), router_config(1), NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let mut rng = TensorRng::seed_from_u64(501);

    // Wrong rank: refused at admission, delivered as the same typed
    // variant the in-process engine raises.
    let wrong_rank = rng.uniform(&[3, 16], 0.0, 1.0);
    match client.classify(&wrong_rank, ThreatModel::I) {
        Err(NetError::Remote(ServeError::InvalidInput { .. })) => {}
        other => panic!("expected Remote(InvalidInput), got {other:?}"),
    }

    // Out-of-range pixels: also InvalidInput, and the connection keeps
    // working afterwards — a rejected request is not a dead session.
    let out_of_range = rng.uniform(&[3, 16, 16], 5.0, 9.0);
    match client.classify(&out_of_range, ThreatModel::II) {
        Err(NetError::Remote(ServeError::InvalidInput { .. })) => {}
        other => panic!("expected Remote(InvalidInput), got {other:?}"),
    }
    let fine = rng.uniform(&[3, 16, 16], 0.0, 1.0);
    client.classify(&fine, ThreatModel::III).unwrap();
    client.goodbye();
    server.shutdown();
}

/// A deadline under one microsecond is still a deadline over the wire:
/// the server refuses the stale answer, as the in-process engine does.
#[test]
fn a_zero_deadline_is_refused_over_the_wire() {
    let server = NetServer::start(pipeline(15), router_config(1), NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let image = TensorRng::seed_from_u64(502).uniform(&[3, 16, 16], 0.0, 1.0);
    for deadline in [Duration::ZERO, Duration::from_nanos(900)] {
        match client.classify_with_deadline(&image, ThreatModel::I, Some(deadline)) {
            Err(NetError::Remote(ServeError::DeadlineExceeded { .. })) => {}
            other => panic!("expected Remote(DeadlineExceeded) at {deadline:?}, got {other:?}"),
        }
    }
    client.classify(&image, ThreatModel::I).unwrap();
    client.goodbye();
    server.shutdown();
}

/// The acceptance-criteria test: three successive hot swaps while four
/// client threads hammer the loopback path. Every request must resolve
/// Ok, the generation must advance monotonically, and the final report
/// must show zero failures and zero shed requests.
#[test]
fn hot_swap_under_sustained_load_drops_nothing() {
    let server = NetServer::start(pipeline(13), router_config(2), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for w in 0..4u64 {
        let stop = Arc::clone(&stop);
        let ok = Arc::clone(&ok);
        #[expect(
            clippy::disallowed_methods,
            reason = "load-generating clients, each on its own thread"
        )]
        workers.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr)
                .unwrap()
                .with_tenant(&format!("load-{w}"));
            let mut rng = TensorRng::seed_from_u64(600 + w);
            let mut i = 0usize;
            let mut errors = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let image = rng.uniform(&[3, 16, 16], 0.0, 1.0);
                if let Err(err) = client.classify(&image, ThreatModel::ALL[i % 3]) {
                    errors.push(format!("{err}"));
                }
                ok.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
            client.goodbye();
            errors
        }));
    }

    // Three rolling swaps, spaced so load is continuous across each.
    let mut last_generation = server.router().swap_generation();
    assert_eq!(last_generation, 0);
    for swap in 0..3u64 {
        std::thread::sleep(Duration::from_millis(120));
        let mut rng = TensorRng::seed_from_u64(900 + swap);
        let next = VggConfig::tiny(3, 16, 6).build(&mut rng).unwrap();
        let generation = server
            .router()
            .swap_weights(&serialize::encode_weights(&next))
            .unwrap();
        assert!(
            generation > last_generation,
            "swap_generation must advance monotonically: {generation} after {last_generation}"
        );
        last_generation = generation;
    }
    std::thread::sleep(Duration::from_millis(120));
    stop.store(true, Ordering::Release);

    let mut client_errors = Vec::new();
    for handle in workers {
        client_errors.extend(handle.join().unwrap());
    }
    assert!(
        client_errors.is_empty(),
        "hot swap dropped or errored requests: {client_errors:?}"
    );
    let requests = ok.load(Ordering::Relaxed);
    assert!(requests > 0, "load generator never got a request through");

    let report = server.shutdown();
    assert_eq!(report.serving.swap_generation, 3, "all replicas at gen 3");
    assert_eq!(report.serving.requests_failed, 0);
    assert_eq!(report.serving.requests_rejected, 0);
    assert_eq!(report.serving.requests_completed, requests);
    for replica in &report.serving.replicas {
        assert_eq!(
            replica.swap_generation, 3,
            "replica {} lags",
            replica.replica
        );
    }
}

/// Graceful shutdown: every request admitted before the drain gets its
/// response; late requests get a typed `ShuttingDown`, never silence.
#[test]
fn graceful_shutdown_drains_every_in_flight_request() {
    let server = NetServer::start(pipeline(14), router_config(2), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for w in 0..3u64 {
        let stop = Arc::clone(&stop);
        #[expect(
            clippy::disallowed_methods,
            reason = "load-generating clients, each on its own thread"
        )]
        workers.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).unwrap();
            let mut rng = TensorRng::seed_from_u64(700 + w);
            let mut delivered = 0u64;
            loop {
                let image = rng.uniform(&[3, 16, 16], 0.0, 1.0);
                match client.classify(&image, ThreatModel::ALL[(w % 3) as usize]) {
                    Ok(_) => delivered += 1,
                    Err(NetError::Remote(ServeError::ShuttingDown)) => break,
                    Err(NetError::Disconnected { .. }) if stop.load(Ordering::Acquire) => break,
                    Err(other) => panic!("unexpected client error: {other}"),
                }
            }
            delivered
        }));
    }

    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Release);
    let report = server.shutdown();

    let delivered: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(delivered > 0, "no request completed before shutdown");
    assert_eq!(
        delivered, report.serving.requests_completed,
        "an admitted request was dropped during the drain"
    );
    assert_eq!(report.serving.requests_failed, 0);
}
