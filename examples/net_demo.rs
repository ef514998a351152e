//! Networked serving demo: a TCP front over a 2-replica router, a
//! swarm of loopback clients, and a zero-downtime hot weight swap
//! performed under sustained load.
//!
//! ```sh
//! cargo run --release -p fademl-net --example net_demo
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fademl::{serialize, InferencePipeline, ThreatModel};
use fademl_filters::FilterSpec;
use fademl_net::{NetClient, NetConfig, NetServer, QuotaConfig, RouterConfig};
use fademl_nn::vgg::VggConfig;
use fademl_serve::ServerConfig;
use fademl_tensor::TensorRng;

fn main() {
    println!("=== fademl-net demo: router + 2 replicas + hot swap under load ===\n");

    // A tiny victim (random weights — this demo is about the serving
    // path, not accuracy) behind the paper's LAP filter.
    let mut rng = TensorRng::seed_from_u64(7);
    let model = VggConfig::tiny(3, 16, 6).build(&mut rng).expect("model");
    let pipeline = InferencePipeline::new(model, FilterSpec::Lap { np: 8 }).expect("pipeline");

    let router_config = RouterConfig {
        replicas: 2,
        replica: ServerConfig {
            queue_capacity: 256,
            max_batch_size: 8,
            linger_us: 1_000,
            workers: 2,
            ..ServerConfig::default()
        },
        quota: QuotaConfig {
            rate_per_sec: 0, // unlimited for the demo
            burst: 8,
        },
        ..RouterConfig::default()
    };
    let server = NetServer::start(pipeline, router_config, NetConfig::default()).expect("server");
    let addr = server.local_addr();
    println!("listening on {addr} with 2 replicas\n");

    // Load: 4 client threads hammering the loopback path across all
    // three threat models while the swap happens mid-flight.
    let stop = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::new();
    for worker in 0..4u64 {
        let stop = Arc::clone(&stop);
        let ok = Arc::clone(&ok);
        let failed = Arc::clone(&failed);
        #[expect(
            clippy::disallowed_methods,
            reason = "load-generating clients, each on its own thread"
        )]
        clients.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr)
                .expect("connect")
                .with_tenant(&format!("demo-{worker}"));
            let mut rng = TensorRng::seed_from_u64(100 + worker);
            let threats = [ThreatModel::I, ThreatModel::II, ThreatModel::III];
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                let image = rng.uniform(&[3, 16, 16], 0.0, 1.0);
                match client.classify(&image, threats[i % 3]) {
                    Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                    Err(_) => failed.fetch_add(1, Ordering::Relaxed),
                };
                i += 1;
            }
            client.goodbye();
        }));
    }

    // Let traffic build, then hot-swap to freshly trained weights.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let before_swap = ok.load(Ordering::Relaxed);
    let mut rng = TensorRng::seed_from_u64(99);
    let next_model = VggConfig::tiny(3, 16, 6).build(&mut rng).expect("model");
    let artifact = serialize::encode_weights(&next_model);
    let swap_started = Instant::now();
    let generation = server
        .router()
        .swap_weights(&artifact)
        .expect("swap must succeed");
    let swap_us = swap_started.elapsed().as_micros();
    println!(
        "hot swap to generation {generation} in {swap_us} µs \
         ({before_swap} requests already served)"
    );

    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, Ordering::Release);
    for handle in clients {
        let _ = handle.join();
    }

    let served = ok.load(Ordering::Relaxed);
    let errors = failed.load(Ordering::Relaxed);
    println!("\nclients: {served} verdicts, {errors} errors during the swap window");
    assert_eq!(errors, 0, "a hot swap must drop zero requests");

    let report = server.shutdown();
    println!("\n{}", report.render());
    println!(
        "swap generation in final report: {} (every replica reached it)",
        report.serving.swap_generation
    );
    assert_eq!(report.serving.swap_generation, 1);
    assert_eq!(report.serving.requests_failed, 0);
    println!("\nzero dropped requests across the deploy — the defense pipeline");
    println!("stays transparent to live traffic while its weights change.");
}
