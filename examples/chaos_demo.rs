//! Chaos drill for the fault-tolerant serving engine: concurrent
//! clients submit mixed traffic (with per-request deadlines and some
//! deliberately malformed images) while an armed [`FaultPlan`] panics a
//! worker, kills another mid-batch, delays a batch and stalls a
//! dequeue. The demo asserts the engine's core invariant — every
//! accepted request resolves with a verdict or a typed error — and
//! prints the resulting fault/degradation metrics.
//!
//! ```text
//! cargo run --release --features faults --example chaos_demo
//! ```

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use fademl::setup::{ExperimentSetup, SetupProfile};
use fademl::{InferencePipeline, ThreatModel};
use fademl_filters::FilterSpec;
use fademl_serve::{FaultPlan, InferenceServer, ServeError, ServerConfig};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 24;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prepared = ExperimentSetup::profile(SetupProfile::Smoke).prepare()?;
    let pipeline = InferencePipeline::new(prepared.model.clone(), FilterSpec::Lap { np: 8 })?;

    let mut traffic = Vec::new();
    for index in 0..12 {
        let (clean, _) = prepared.test.sample(index)?;
        traffic.push(clean);
    }
    let traffic = Arc::new(traffic);

    let config = ServerConfig {
        queue_capacity: 128,
        max_batch_size: 4,
        workers: 2,
        degrade_after_failures: 2,
        probe_every: 2,
        ..ServerConfig::default()
    };
    let plan = FaultPlan::new()
        .panic_on_batch(2)
        .panic_on_batch(3) // consecutive failures open the breaker
        .kill_worker_on_batch(6)
        .delay_batch(9, Duration::from_millis(40))
        .stall_dequeue(13, Duration::from_millis(60));
    println!("chaos drill with {config:?}");
    println!(
        "armed faults: panic@batch2, panic@batch3, kill@batch6, delay@batch9, stall@dequeue13\n"
    );
    let server = Arc::new(InferenceServer::start_with_faults(pipeline, config, plan)?);

    thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = Arc::clone(&server);
            let traffic = Arc::clone(&traffic);
            scope.spawn(move || {
                let mut verdicts = 0usize;
                let mut errors = 0usize;
                let mut hung = 0usize;
                for i in 0..REQUESTS_PER_CLIENT {
                    let mut image = traffic[(client + i) % traffic.len()].clone();
                    // Every 12th request is adversarially malformed.
                    if i % 12 == 5 {
                        image.as_mut_slice()[0] = f32::NAN;
                    }
                    let threat = ThreatModel::ALL[i % ThreatModel::ALL.len()];
                    // A mix of generous and deliberately tight
                    // deadlines; the tight ones expire behind the
                    // injected delays/stalls, busy workers, or the
                    // default 500 µs linger hold.
                    let deadline = match i % 8 {
                        0 => Some(Duration::from_millis(250)),
                        4 => Some(Duration::from_micros(500)),
                        _ => None,
                    };
                    match server.submit_with_deadline(image, threat, deadline) {
                        Ok(handle) => match handle.wait_timeout(Duration::from_secs(30)) {
                            Some(Ok(_)) => verdicts += 1,
                            Some(Err(_)) => errors += 1,
                            None => hung += 1, // invariant violation
                        },
                        Err(ServeError::InvalidInput { .. })
                        | Err(ServeError::Overloaded { .. }) => errors += 1,
                        Err(error) => {
                            println!("client {client}: unexpected submit error: {error}");
                            errors += 1;
                        }
                    }
                }
                println!(
                    "client {client}: {verdicts} verdicts, {errors} typed errors, {hung} hangs"
                );
                assert_eq!(hung, 0, "client {client} observed a hung handle");
            });
        }
    });

    let server = Arc::into_inner(server).expect("all clients joined");
    let report = server.shutdown();
    let resolved = report.requests_completed + report.requests_failed;
    println!(
        "\ninvariant: {resolved}/{} accepted requests resolved (+{} rejected at admission)",
        report.requests_submitted,
        report.requests_rejected + report.requests_invalid,
    );
    assert_eq!(resolved, report.requests_submitted, "no request may hang");
    println!("\n{}", report.render());
    println!("json:\n{}", report.to_json());
    Ok(())
}
