//! The monitor's benchmark. One command runs one workload from a seed,
//! prints every metric by name with its unit, checks the outputs against
//! an oracle and reports operations attempted and failed; the last line of
//! standard output is the result as one JSON object. See `bench/README.md`.

mod catalog;
mod feed;
mod host;
mod oracle;
mod repeat;
mod replay;
mod service;
mod stats;
mod trace;
mod workdir;
mod workloads;

use catalog::{MetricDef, Workload, END_TO_END, PER_LAYER};
use feed::Deployment;
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workdir::WorkRoot;
use workloads::{Ctx, Outcome, Size};

/// `run_seconds` of `BENCHMARK.json` and the default of `--seconds`.
const RUN_SECONDS: u64 = 10;
/// `--smoke` must finish all four workloads within this.
const SMOKE_LIMIT_S: f64 = 15.0;

const USAGE: &str =
    "usage: bench --workload <backfill-durable|stream-long|serve-mixed|cold-range> --seed <n>
             [--seconds <s>] [--trace [0|1]] [--work-dir <dir>]
       bench --smoke [--seed <n>]          all four at 30-day size; validates BENCHMARK.json
       bench --repeat-check [--seed <n>]   two sets of runs must agree within the bounds
       bench --print-manifest              BENCHMARK.json as the catalog defines it";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    smoke: bool,
    repeat_check: bool,
    print_manifest: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        work_dir: host::out_dir().join("run"),
        smoke: false,
        repeat_check: false,
        print_manifest: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value(arg)?;
                out.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => out.seed = value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value(arg)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--work-dir" => out.work_dir = PathBuf::from(value(arg)?),
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => out.smoke = true,
            "--repeat-check" => out.repeat_check = true,
            "--print-manifest" => out.print_manifest = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|args| {
        if args.print_manifest {
            println!(
                "{}",
                serde_json::to_string_pretty(&catalog::manifest(RUN_SECONDS))
                    .expect("the manifest serializes")
            );
            Ok(())
        } else if args.smoke {
            smoke(&args)
        } else if args.repeat_check {
            repeat::check(args.seed, args.seconds)
        } else {
            let workload = args
                .workload
                .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
            run_workload(workload, &args)
        }
    });
    if let Err(e) = outcome {
        eprintln!("bench: {e}");
        std::process::exit(1);
    }
}

/// One full-size run of `workload`.
fn run_workload(workload: Workload, args: &Args) -> Result<(), String> {
    let work = WorkRoot::new(&args.work_dir)?;
    let stamp = host::stamp(args.seed, work.path());
    println!(
        "# {} seed {} trace {}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "# host {}",
        serde_json::to_string(&stamp).expect("the stamp serializes")
    );

    let dep = Deployment::new();
    let tracer = args.trace.then(Tracer::new);
    let begin = Instant::now();
    let outcome = workloads::run(
        workload,
        &Ctx {
            dep: &dep,
            seed: args.seed,
            size: Size::Full,
            seconds: args.seconds,
            tracer: tracer.as_ref(),
            work: &work,
        },
    )?;
    if let Some(tracer) = &tracer {
        let out = host::out_dir();
        let path = out.join(format!("trace-{}.json", workload.name()));
        std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
        let doc = serde_json::to_string(&tracer.to_json(workload.name(), stamp))
            .expect("the trace serializes");
        std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# trace written to {}", path.display());
    }
    println!("# the run took {:.1} s", begin.elapsed().as_secs_f64());
    // End-to-end metrics untraced, per-layer metrics traced.
    report(&outcome, if args.trace { PER_LAYER } else { END_TO_END })
}

/// Prints the named metrics, the oracle's verdict and the result line;
/// fails the command when an output was wrong or a metric is missing.
fn report(total: &Outcome, wanted: &[MetricDef]) -> Result<(), String> {
    for note in &total.notes {
        println!("# {note}");
    }
    for d in wanted {
        match total.metrics.get(d.name) {
            Some(m) => {
                let n = if m.samples > 0 {
                    format!("  (n={})", m.samples)
                } else {
                    String::new()
                };
                println!(
                    "{:<48} {:>16.4} {:<6} {} is better{n}",
                    d.name,
                    m.value,
                    d.unit,
                    if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    }
                );
            }
            None => println!("{:<48} missing", d.name),
        }
    }
    println!(
        "ops_attempted {}  ops_failed {}  oracle checks passed {}",
        total.attempted, total.failed, total.checks.passed
    );
    for failure in &total.checks.failures {
        println!("ORACLE MISMATCH: {failure}");
    }
    let missing: Vec<&str> = wanted
        .iter()
        .filter(|d| {
            total
                .metrics
                .get(d.name)
                .is_none_or(|m| !m.value.is_finite())
        })
        .map(|d| d.name)
        .collect();
    if !total.checks.failures.is_empty() {
        return Err(format!(
            "{} oracle check(s) failed",
            total.checks.failures.len()
        ));
    }
    if !missing.is_empty() {
        return Err(format!("no value for {missing:?}"));
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(true)),
        ("attempted".into(), Value::U64(total.attempted)),
        ("failed".into(), Value::U64(total.failed)),
        ("metrics".into(), total.metrics.to_json(wanted)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("the result serializes")
    );
    Ok(())
}

/// All four workloads at 30-day size, plus the checks
/// that `BENCHMARK.json` is what the catalog says and fits the contract.
fn smoke(args: &Args) -> Result<(), String> {
    let begin = Instant::now();
    check_manifest()?;
    let work = WorkRoot::new(&args.work_dir)?;
    let dep = Deployment::new();
    for workload in Workload::ALL {
        let started = Instant::now();
        // A traced run times its untraced passes too, so one run yields
        // both the end-to-end and the per-layer metrics.
        let tracer = Tracer::new();
        let ctx = Ctx {
            dep: &dep,
            seed: args.seed,
            size: Size::Smoke,
            seconds: 0.0,
            tracer: Some(&tracer),
            work: &work,
        };
        let out = workloads::run(workload, &ctx)?;
        if !out.checks.failures.is_empty() {
            return Err(format!(
                "{}: oracle mismatch: {:?}",
                workload.name(),
                out.checks.failures
            ));
        }
        if out.failed != 0 {
            return Err(format!(
                "{}: {} of {} operations failed",
                workload.name(),
                out.failed,
                out.attempted
            ));
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let value = out.metrics.get(d.name).map(|m| m.value);
            if !value.is_some_and(|v| v.is_finite() && v >= 0.0) {
                return Err(format!(
                    "{}: metric {} came out as {value:?}",
                    workload.name(),
                    d.name
                ));
            }
        }
        println!(
            "smoke {:<17} ok: {} ops, {} oracle checks, {:.1} s",
            workload.name(),
            out.attempted,
            out.checks.passed,
            started.elapsed().as_secs_f64()
        );
    }
    let took = begin.elapsed().as_secs_f64();
    println!("smoke passed in {took:.1} s");
    if took > SMOKE_LIMIT_S {
        return Err(format!(
            "--smoke took {took:.1} s, over its {SMOKE_LIMIT_S} s limit"
        ));
    }
    Ok(())
}

/// `BENCHMARK.json` at the root of the checkout must equal the catalog's
/// manifest and respect the contract's limits.
fn check_manifest() -> Result<(), String> {
    let path = host::repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let found: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if found != catalog::manifest(RUN_SECONDS) {
        return Err(
            "BENCHMARK.json differs from the catalog; regenerate it with --print-manifest".into(),
        );
    }
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    };
    let mut seen = std::collections::BTreeSet::new();
    for name in Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
    {
        if !name_ok(name) || !seen.insert(name) {
            return Err(format!("name {name:?} is malformed or used twice"));
        }
    }
    for d in END_TO_END.iter().chain(PER_LAYER) {
        if d.unit.is_empty() || d.unit.len() > 16 {
            return Err(format!("metric {} has a bad unit", d.name));
        }
    }
    if END_TO_END.len() > 16 || PER_LAYER.len() > 128 || Workload::ALL.len() != 4 {
        return Err("too many metrics or not four workloads".into());
    }
    if END_TO_END
        .iter()
        .any(|d| !d.bound.is_some_and(|b| b > 0.0 && b <= 0.25))
    {
        return Err("every end-to-end metric needs a bound in (0, 0.25]".into());
    }
    if Workload::ALL
        .iter()
        .any(|w| w.why().len() > 200 || w.why().contains('\n'))
    {
        return Err("a workload's why is over 200 characters or more than one line".into());
    }
    Ok(())
}
