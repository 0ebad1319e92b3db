//! Reference computations the workloads' outputs are checked against.
//! Everything here runs untimed.

use crate::feed::{Deployment, LifetimeFeed};
use atypical::online::OnlineExtractor;
use atypical::AtypicalCluster;
use cps_monitor::MonitorHandle;
use cps_testkit::canonicalize;
use std::time::Instant;

/// The feed's micro-clusters from one single-threaded `OnlineExtractor`,
/// in seal order, and the seconds `apply_batch` + `finish` took — the
/// single-threaded baseline of the service's job.
pub fn reference_micros(
    dep: &Deployment,
    feed: &LifetimeFeed,
) -> Result<(Vec<AtypicalCluster>, f64), String> {
    let begin = Instant::now();
    let mut extractor = OnlineExtractor::new(&dep.network, dep.params, dep.spec);
    for batch in &feed.batches {
        extractor
            .apply_batch(batch)
            .map_err(|e| format!("reference extractor: record out of order at {}", e.record))?;
    }
    let micros = extractor.finish();
    Ok((micros, begin.elapsed().as_secs_f64()))
}

/// Every micro-cluster a quiescent service holds: live days from the
/// pinned snapshot, sealed days from its store.
pub fn service_micros(handle: &MonitorHandle) -> Result<Vec<AtypicalCluster>, String> {
    let view = handle.read_view();
    let mut micros = view.live_micro_clusters();
    for &day in view.snapshot().persisted_days.iter() {
        let sealed = view
            .micro_clusters_for_day(day)
            .map_err(|e| format!("loading sealed day {day}: {e}"))?;
        micros.extend(sealed.iter().cloned());
    }
    Ok(micros)
}

/// Equal as multisets of `(SF, TF)`; ids are admission-order artifacts.
pub fn same_clusters(a: &[AtypicalCluster], b: &[AtypicalCluster]) -> bool {
    canonicalize(a) == canonicalize(b)
}

/// Collects named checks; the run is correct when none failed.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub passed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }
}
