//! The four workloads and what they share: sizes, set-up, the repeat loop.
//!
//! Every workload has the same shape, so that every one measures every
//! metric on its own input: set-up, an *ingest part* (one pass = the
//! workload's service lifetimes over its feed), then the *query probe*
//! ([`probe`]) against the quiescent service the first pass left behind.
//! On the three ingest workloads the passes repeat until `--seconds` are
//! spent and the probe has a fixed size; on `cold-range` the one ingest is
//! set-up and the probe's rounds repeat instead.

pub mod backfill;
pub mod cold;
pub mod probe;
pub mod serve;
pub mod stream;

use crate::catalog::{Metrics, Workload};
use crate::feed::Deployment;
use crate::oracle::Checks;
use crate::service::Pass;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workdir::WorkRoot;
use cps_core::AtypicalRecord;
use std::time::Instant;

/// Input size of a run. `Full` is the size the workloads are defined at
/// and the only one the driver measures; `Smoke` serves `--smoke`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// Times the feed is generated in a full-size set-up; `setup_s` reports
/// the median, as the acceptance contract asks ("set up several times in a
/// run and report the median"), so one slow pass does not pass for a
/// regression.
const SETUP_REPEATS: usize = 3;

pub struct Ctx<'a> {
    pub dep: &'a Deployment,
    pub seed: u64,
    pub size: Size,
    /// Measuring time. Inputs are sized, not timed: a pass or a round
    /// always completes, and whole ones repeat until this much time is
    /// spent.
    pub seconds: f64,
    /// Spans and samples are recorded here when set; a traced run
    /// alternates passes with and without it and takes timings only from
    /// the ones without.
    pub tracer: Option<&'a Tracer>,
    pub work: &'a WorkRoot,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Records offered plus queries issued.
    pub attempted: u64,
    /// Records not ingested plus queries that returned `Err`.
    pub failed: u64,
    pub checks: Checks,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

pub fn run(workload: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        Workload::BackfillDurable => backfill::run(ctx),
        Workload::StreamLong => stream::run(ctx),
        Workload::ServeMixed => serve::run(ctx),
        Workload::ColdRange => cold::run(ctx),
    }
}

/// The set-up every workload shares: generates the seed's feed of `n_days`
/// — [`SETUP_REPEATS`] times at full size, keeping the median time — and
/// has `build` cut it into the workload's batches. Reports the generator's
/// and the batch builder's rates; returns what `build` made and the
/// seconds both steps took.
pub fn set_up<T>(
    ctx: &Ctx,
    n_days: u32,
    metrics: &mut Metrics,
    build: impl FnOnce(&[Vec<AtypicalRecord>]) -> T,
) -> (T, f64) {
    let repeats = ctx.size.pick(SETUP_REPEATS, 1);
    let mut times = Vec::with_capacity(repeats);
    let mut days = Vec::new();
    for _ in 0..repeats {
        drop(std::mem::take(&mut days));
        let begin = Instant::now();
        days = ctx.dep.feed(ctx.seed, n_days);
        times.push(begin.elapsed().as_secs_f64());
    }
    let records: usize = days.iter().map(Vec::len).sum();
    let gen_s = median(&times);
    let begin = Instant::now();
    let built = build(&days);
    let build_s = begin.elapsed().as_secs_f64();
    metrics.put(
        "cps-sim.gen_rec_per_s",
        records as f64 / gen_s,
        repeats as u64,
    );
    metrics.put(
        "cps-core.batch_build_ns_per_rec",
        build_s * 1e9 / records as f64,
        1,
    );
    (built, gen_s + build_s)
}

/// The passes of a run's ingest part, with tracing off and on.
pub struct Passes<P> {
    pub plain: Vec<P>,
    pub traced: Vec<P>,
}

/// Repeats `pass` after `first` — the run's first pass, made with tracing
/// off and already released — until the passes' own time adds up to
/// `ctx.seconds` and `min_plain` passes have run with tracing off. A traced
/// run follows every plain pass with a traced one, so that the host's drift
/// falls on both alike; `bench.trace_overhead_ratio` divides the one by the
/// other. Each pass is released before the next starts: only numbers
/// accumulate.
pub fn repeat_passes<P: Pass>(
    ctx: &Ctx,
    first: P,
    min_plain: usize,
    mut pass: impl FnMut(Option<&Tracer>, usize) -> Result<P, String>,
) -> Result<Passes<P>, String> {
    let mut spent = first.wall_s();
    let mut passes = Passes {
        plain: vec![first],
        traced: Vec::new(),
    };
    loop {
        if let Some(tracer) = ctx.tracer {
            let mut p = pass(Some(tracer), passes.traced.len())?;
            p.release();
            spent += p.wall_s();
            passes.traced.push(p);
        }
        if spent >= ctx.seconds && passes.plain.len() >= min_plain {
            return Ok(passes);
        }
        let mut p = pass(None, passes.plain.len())?;
        p.release();
        spent += p.wall_s();
        passes.plain.push(p);
    }
}
