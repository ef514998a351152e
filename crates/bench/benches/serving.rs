//! Serving-path throughput: the dynamic-batching engine's raison
//! d'être is that one batched forward beats N single-image forwards.
//! Three rungs, all measured in images/second:
//!
//! 1. `classify_loop`  — the pre-serving baseline: call
//!    [`InferencePipeline::classify`] once per image.
//! 2. `classify_batch` — the batched pipeline path on a pre-stacked
//!    `[N, C, H, W]` tensor (what a server worker executes per batch).
//! 3. `server_end_to_end` — submit → queue → worker → response for a
//!    burst of images through the full [`InferenceServer`].

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use fademl::setup::{ExperimentSetup, SetupProfile};
use fademl::{InferencePipeline, ThreatModel};
use fademl_filters::FilterSpec;
use fademl_serve::{InferenceServer, ServerConfig};
use fademl_tensor::Tensor;

fn bench_serving(c: &mut Criterion) {
    let prepared = ExperimentSetup::profile(SetupProfile::Smoke)
        .prepare()
        .expect("victim trains");
    let pipeline = InferencePipeline::new(prepared.model.clone(), FilterSpec::Lap { np: 32 })
        .expect("pipeline builds");
    let threat = ThreatModel::III;

    let mut group = c.benchmark_group("serving_throughput");
    for batch in [1usize, 8, 32] {
        let images: Vec<Tensor> = (0..batch)
            .map(|i| {
                prepared
                    .test
                    .sample(i % prepared.test.len())
                    .expect("sample")
                    .0
            })
            .collect();
        let stacked = Tensor::stack(&images).expect("stacks");
        group.throughput(Throughput::Elements(batch as u64));

        group.bench_with_input(
            BenchmarkId::new("classify_loop", batch),
            &images,
            |b, images| {
                b.iter(|| {
                    for image in images {
                        black_box(
                            pipeline
                                .classify(black_box(image), threat)
                                .expect("classifies"),
                        );
                    }
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("classify_batch", batch),
            &stacked,
            |b, stacked| {
                b.iter(|| {
                    black_box(
                        pipeline
                            .classify_batch(black_box(stacked), threat)
                            .expect("classifies"),
                    )
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("server_end_to_end", batch),
            &images,
            |b, images| {
                let config = ServerConfig {
                    queue_capacity: 256,
                    max_batch_size: batch.max(2),
                    linger_us: 200,
                    workers: 1,
                    ..ServerConfig::default()
                };
                let server =
                    InferenceServer::start(pipeline.clone(), config).expect("server starts");
                b.iter(|| {
                    let handles: Vec<_> = images
                        .iter()
                        .map(|image| {
                            server
                                .submit(black_box(image.clone()), threat)
                                .expect("queue sized for burst")
                        })
                        .collect();
                    for handle in handles {
                        black_box(handle.wait().expect("worker answers"));
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
