//! Drives the dynamic-batching serving engine with mixed traffic:
//! clean test images and BIM adversarial examples, spread across all
//! three threat models, submitted from concurrent client threads. Ends
//! with the server's metrics report — batch-size histogram, queue
//! rejections and latency percentiles.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```

use std::sync::Arc;
use std::thread;

use fademl::setup::{ExperimentSetup, SetupProfile};
use fademl::{InferencePipeline, ThreatModel};
use fademl_attacks::{Attack, AttackGoal, AttackSurface, Bim};
use fademl_filters::FilterSpec;
use fademl_serve::{InferenceServer, ServeError, ServerConfig};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 24;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prepared = ExperimentSetup::profile(SetupProfile::Smoke).prepare()?;
    let pipeline = InferencePipeline::new(prepared.model.clone(), FilterSpec::Lap { np: 8 })?;

    // Pre-craft a small pool of adversarial examples so client threads
    // only submit — attack crafting is not part of the serving path.
    let attack = Bim::new(0.12, 0.02, 8)?;
    let mut surface = AttackSurface::new(prepared.model.clone());
    let mut traffic = Vec::new();
    for index in 0..8 {
        let (clean, label) = prepared.test.sample(index)?;
        let goal = AttackGoal::Untargeted { source: label };
        let crafted = attack.run(&mut surface, &clean, goal)?;
        traffic.push(clean);
        traffic.push(crafted.adversarial);
    }
    let traffic = Arc::new(traffic);

    let config = ServerConfig {
        queue_capacity: 64,
        max_batch_size: 8,
        workers: 2,
        ..ServerConfig::default()
    };
    println!("serving with {config:?}\n");
    let server = Arc::new(InferenceServer::start(pipeline, config)?);

    thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = Arc::clone(&server);
            let traffic = Arc::clone(&traffic);
            scope.spawn(move || {
                let mut served = 0usize;
                let mut shed = 0usize;
                for i in 0..REQUESTS_PER_CLIENT {
                    let image = traffic[(client + i) % traffic.len()].clone();
                    let threat = ThreatModel::ALL[i % ThreatModel::ALL.len()];
                    match server.submit(image, threat) {
                        Ok(handle) => match handle.wait() {
                            Ok(_) => served += 1,
                            Err(error) => println!("client {client}: {error}"),
                        },
                        Err(ServeError::Overloaded { .. }) => shed = shed.saturating_add(1),
                        Err(error) => println!("client {client}: submit failed: {error}"),
                    }
                }
                println!("client {client}: {served} served, {shed} shed");
            });
        }
    });

    let server = Arc::into_inner(server).expect("all clients joined");
    let report = server.shutdown();
    println!("\n{}", report.render());
    println!("json:\n{}", report.to_json());
    Ok(())
}
