//! Monitor throughput: one simulated day pushed through the sharded
//! service end-to-end (ingest → shard workers → merger) one batch per
//! window, at several shard counts, against the single-threaded extractor
//! baseline.

use atypical::online::OnlineExtractor;
use cps_core::{Params, RecordBatch};
use cps_monitor::{MonitorConfig, MonitorService};
use cps_sim::{Scale, SimConfig, TrafficSim};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

fn bench_monitor_throughput(c: &mut Criterion) {
    let sim = TrafficSim::new(SimConfig::new(Scale::Small, 7));
    let mut records = sim.atypical_day(0);
    records.sort_by_key(|r| (r.window, r.sensor));
    let batches: Vec<RecordBatch> = records
        .chunk_by(|a, b| a.window == b.window)
        .map(RecordBatch::from_records)
        .collect();
    let network = Arc::new(sim.network().clone());
    let spec = sim.config().spec;
    let params = Params::paper_defaults();

    let mut group = c.benchmark_group("monitor_throughput");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.sample_size(10);

    group.bench_function("single_extractor", |b| {
        b.iter(|| {
            let mut extractor = OnlineExtractor::new(&network, params, spec);
            for &r in &records {
                extractor.push(r).expect("window-ordered feed");
            }
            black_box(extractor.finish())
        })
    });

    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded_service", shards),
            &shards,
            |b, &shards| {
                let config = MonitorConfig {
                    shards,
                    params,
                    spec,
                    ..MonitorConfig::default()
                };
                b.iter(|| {
                    let mut service =
                        MonitorService::start(&config, network.clone()).expect("service starts");
                    for batch in &batches {
                        service.ingest_batch(batch).expect("window-ordered feed");
                    }
                    black_box(service.finish())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_monitor_throughput);
criterion_main!(benches);
