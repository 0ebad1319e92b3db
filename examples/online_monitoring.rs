//! Live operations-room view, scaled out: the sharded monitoring service
//! consumes a day of readings, reconciles events across shard boundaries,
//! and answers red-zone-guided significance queries while ingesting —
//! no end-of-day batch.
//!
//! ```text
//! cargo run --release --example online_monitoring
//! ```

use cps_core::record::AtypicalCriterion;
use cps_core::{AtypicalRecord, RecordBatch};
use cps_monitor::{MonitorConfig, MonitorService};
use cps_sim::{Scale, SimConfig, TrafficSim};
use std::sync::Arc;

fn main() {
    let sim = TrafficSim::new(SimConfig::new(Scale::Tiny, 42));
    let spec = sim.config().spec;
    let criterion = sim.criterion();
    let config = MonitorConfig {
        shards: 4,
        spec,
        ..MonitorConfig::default()
    };

    // One day of readings arriving in window order (the live feed).
    let mut feed = sim.generate_day(0).raw;
    feed.sort_unstable_by_key(|r| (r.window, r.sensor));

    let network = Arc::new(sim.network().clone());
    let mut service = MonitorService::start(&config, network).expect("service starts");
    let handle = service.handle();
    println!(
        "monitoring with {} shards ({} boundary sensors)",
        config.shards,
        service.shard_map().boundary_sensor_count()
    );

    // One batch per window, as a live collector would hand them over.
    let mut reported = 0;
    for readings in feed.chunk_by(|a, b| a.window == b.window) {
        let window = readings[0].window;
        let mut batch = RecordBatch::new();
        for reading in readings {
            if let Some(severity) = criterion.classify(reading) {
                batch.push(AtypicalRecord::new(reading.sensor, window, severity));
            }
        }
        if batch.is_empty() {
            // Quiet windows still move the shard clocks forward so open
            // events seal on time.
            service
                .advance_to(window)
                .expect("advance on a healthy service");
        } else {
            service
                .ingest_batch(&batch)
                .expect("feed is window-ordered");
        }

        // Surface newly reconciled micro-clusters as they finalize.
        let finalized = handle.metrics().micro_clusters;
        if finalized > reported {
            println!(
                "[{}] {} atypical event(s) on the board",
                spec.clock_label(window),
                finalized
            );
            reported = finalized;
        }
    }

    // End of day: drain the pipeline, then query like an analyst would.
    let metrics = service.finish();
    println!("\n{metrics}\n");

    let result = handle.read_view().query_guided(0, 1).expect("guided query");
    println!(
        "guided day query: {} of {} micro-clusters survived {} red regions",
        result.input_clusters, result.candidate_clusters, result.num_red_regions
    );
    for cluster in result.significant() {
        println!("  significant: {}", cluster.describe(spec));
    }
}
