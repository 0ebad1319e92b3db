//! Spans recorded by the benchmark around every call into the program,
//! and the sampler that watches the service's threads from outside.
//!
//! Spans stay in memory and are written to `bench/out/trace-<workload>.json`
//! when the run ends; end-to-end numbers are always taken with tracing off.

use crate::host;
use cps_monitor::MonitorHandle;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Index of a span in its tracer; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    /// Lifetime or query number: spans of one request share it.
    request: u64,
}

/// In-memory span store; a mutex because `serve-mixed` records from its
/// producer and its reader thread (uncontended otherwise).
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<Vec<Sample>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn start(&self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no tracer user panics while recording");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (spans.len() - 1) as SpanId
    }

    /// Closes `id` and returns its duration in seconds.
    pub fn end(&self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no tracer user panics while recording");
        let span = &mut spans[id as usize];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Keeps one lifetime's sampler series for the trace document.
    pub fn add_samples(&self, samples: &[Sample]) {
        self.samples
            .lock()
            .expect("no tracer user panics while recording")
            .extend_from_slice(samples);
    }

    /// Per span name: count, total seconds, and self seconds (a span's
    /// duration minus the part its child spans cover).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self
            .spans
            .lock()
            .expect("no tracer user panics while recording");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, &children) in spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total as f64 * 1e-9;
            entry.2 += total.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// The trace document: host stamp, per-name summary, sampler series,
    /// and every span.
    pub fn to_json(&self, workload: &str, stamp: Value) -> Value {
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (count, total_s, self_s))| {
                let row = Value::Object(vec![
                    ("count".into(), Value::U64(count)),
                    ("total_s".into(), Value::F64(total_s)),
                    ("self_s".into(), Value::F64(self_s)),
                ]);
                (name.to_string(), row)
            })
            .collect();
        let spans = self
            .spans
            .lock()
            .expect("no tracer user panics while recording");
        let spans = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = if s.parent == NO_PARENT {
                    Value::Null
                } else {
                    Value::U64(s.parent.into())
                };
                Value::Object(vec![
                    ("id".into(), Value::U64(id as u64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    ("parent".into(), parent),
                    ("request".into(), Value::U64(s.request)),
                ])
            })
            .collect();
        let samples = self
            .samples
            .lock()
            .expect("no tracer user panics while recording");
        let samples = samples
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("request".into(), Value::U64(s.request)),
                    ("t_s".into(), Value::F64(s.t_s)),
                    ("shard_cpu_s".into(), Value::F64(s.shard_cpu_s)),
                    ("merger_cpu_s".into(), Value::F64(s.merger_cpu_s)),
                    ("events_sealed".into(), Value::U64(s.events_sealed)),
                    ("queue_depth".into(), Value::U64(s.queue_depth)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("host".into(), stamp),
            ("summary".into(), Value::Object(summary)),
            ("samples".into(), Value::Array(samples)),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

/// Runs `f` under a span when tracing is on, bare otherwise.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: SpanId,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let id = t.start(name, parent, request);
            let out = f();
            t.end(id);
            out
        }
    }
}

/// One 100 ms observation of a running service.
#[derive(Clone, Copy)]
pub struct Sample {
    pub request: u64,
    /// Seconds since the sampler started (just after `start` returned).
    pub t_s: f64,
    /// CPU seconds of all `cps-monitor-shard-N` threads so far.
    pub shard_cpu_s: f64,
    /// CPU seconds of the `cps-monitor-merger` thread so far.
    pub merger_cpu_s: f64,
    pub events_sealed: u64,
    /// Deepest shard channel at this instant.
    pub queue_depth: u64,
}

const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// Samples one service lifetime from its own thread until stopped. The
/// service's threads are found by name in `/proc/self/task` (`comm` keeps
/// 15 characters: `cps-monitor-sha…`, `cps-monitor-mer…`); a thread's last
/// reading before it exits stands for its total, at most one period short.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<Sample>>,
}

impl Sampler {
    pub fn start(handle: MonitorHandle, request: u64) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let thread = std::thread::Builder::new()
            .name("bench-sampler".into())
            .spawn(move || {
                let origin = Instant::now();
                let mut per_thread: BTreeMap<u64, (bool, f64)> = BTreeMap::new();
                let mut samples = Vec::new();
                loop {
                    let done = stopped.load(Ordering::SeqCst);
                    for (tid, name, cpu) in host::threads_cpu() {
                        if name.starts_with("cps-monitor-sha") {
                            per_thread.insert(tid, (false, cpu));
                        } else if name.starts_with("cps-monitor-mer") {
                            per_thread.insert(tid, (true, cpu));
                        }
                    }
                    let cpu_of = |merger: bool| {
                        per_thread
                            .values()
                            .filter(|v| v.0 == merger)
                            .map(|v| v.1)
                            .sum()
                    };
                    let metrics = handle.metrics();
                    samples.push(Sample {
                        request,
                        t_s: origin.elapsed().as_secs_f64(),
                        shard_cpu_s: cpu_of(false),
                        merger_cpu_s: cpu_of(true),
                        events_sealed: metrics.events_sealed,
                        queue_depth: metrics.queue_depths.iter().copied().max().unwrap_or(0) as u64,
                    });
                    if done {
                        return samples;
                    }
                    std::thread::sleep(SAMPLE_EVERY);
                }
            })
            .expect("spawning the sampler thread");
        Self { stop, thread }
    }

    /// Takes one last sample and returns the series.
    pub fn finish(self) -> Vec<Sample> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("the sampler does not panic")
    }
}

/// Wall time per sealed event over the last tenth of a lifetime's sealed
/// events divided by the same over the first tenth, read off the sampled
/// `events_sealed` curve by linear interpolation. 1 means ingest cost is
/// linear in stream length; `NaN` when the curve has too few points.
pub fn late_to_early_cost_ratio(samples: &[Sample]) -> f64 {
    let total = samples.last().map_or(0, |s| s.events_sealed) as f64;
    if samples.len() < 3 || total <= 0.0 {
        return f64::NAN;
    }
    let time_at = |events: f64| {
        let mut prev = (0.0, 0.0);
        for s in samples {
            let point = (s.events_sealed as f64, s.t_s);
            if point.0 >= events {
                if point.0 == prev.0 {
                    return point.1;
                }
                return prev.1 + (point.1 - prev.1) * (events - prev.0) / (point.0 - prev.0);
            }
            prev = point;
        }
        prev.1
    };
    let early = time_at(0.1 * total) - time_at(0.0);
    let late = time_at(total) - time_at(0.9 * total);
    if early > 0.0 {
        late / early
    } else {
        f64::NAN
    }
}
