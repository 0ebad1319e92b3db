//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [OPTIONS] <COMMAND>
//!
//! Commands:
//!   settings         Figure 14: datasets and parameters
//!   fig15 | fig16    Figures 15/16: construction time and model size
//!   fig17            Figure 17: query time and input clusters
//!   fig18            Figure 18: precision/recall vs range
//!   fig19            Figure 19: precision/recall vs δs
//!   fig20            Figure 20: #clusters vs δt and δd
//!   fig21            Figure 21: severity of significant clusters vs δsim × g
//!   ablate           Red-zone and retrieval ablations
//!   integrate        Naive vs indexed integration perf trajectory
//!   forest           Parallel forest construction: thread sweep + bit-identity
//!   all              Everything above (except the two perf sweeps)
//!
//! Options:
//!   --scale <tiny|small|medium|paper>   deployment scale (default tiny)
//!   --source <traffic|audit|infrastructure|battlefield>
//!                                       event-source domain for the `forest`
//!                                       sweep (default traffic; the figure
//!                                       commands reproduce the paper's traffic
//!                                       evaluation and reject other domains)
//!   --seed <u64>                        generator seed (default 42)
//!   --datasets <k>                      datasets for fig15/16 (default 12)
//!   --days <n>                          days per dataset (default 30)
//!   --out <dir>                         results directory (default results/)
//!   --sizes <n,n,...>                   `integrate` input sizes (default 1000,5000,20000)
//!   --threads <n,n,...>                 `forest` thread sweep (default 1,2,4,8)
//!   --iters <n>                         `integrate`/`forest` reps (default 3)
//!   --bench-out <file>                  sweep artifact (default BENCH_integrate.json
//!                                       or BENCH_forest.json by command)
//! ```
//!
//! The monitor's ingest, recovery and serving performance is measured by
//! the stand-alone benchmark under `bench/` (see `bench/README.md`).

use cps_bench::figs;
use cps_bench::{ReproConfig, Table, Workbench};
use cps_core::Params;
use cps_sim::{Domain, Scale};
use std::process::ExitCode;

struct Args {
    command: String,
    scale: Scale,
    source: Domain,
    seed: u64,
    datasets: u32,
    days: u32,
    out: String,
    sizes: Vec<usize>,
    threads: Vec<usize>,
    iters: u32,
    bench_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        scale: Scale::Tiny,
        source: Domain::Traffic,
        seed: 42,
        datasets: 12,
        days: 30,
        out: "results".to_string(),
        sizes: vec![1_000, 5_000, 20_000],
        threads: vec![1, 2, 4, 8],
        iters: 3,
        bench_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = grab("--scale")?;
                args.scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale '{v}'"))?;
            }
            "--source" => {
                let v = grab("--source")?;
                args.source = Domain::parse(&v).ok_or_else(|| format!("unknown source '{v}'"))?;
            }
            "--seed" => args.seed = grab("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--datasets" => {
                args.datasets = grab("--datasets")?.parse().map_err(|e| format!("{e}"))?
            }
            "--days" => args.days = grab("--days")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => args.out = grab("--out")?,
            "--sizes" => {
                args.sizes = grab("--sizes")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("--sizes: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if args.sizes.is_empty() {
                    return Err("--sizes needs at least one size".to_string());
                }
            }
            "--threads" => {
                args.threads = grab("--threads")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("--threads: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if args.threads.is_empty() || args.threads.contains(&0) {
                    return Err("--threads needs positive thread counts".to_string());
                }
            }
            "--iters" => args.iters = grab("--iters")?.parse().map_err(|e| format!("{e}"))?,
            "--bench-out" => args.bench_out = Some(grab("--bench-out")?),
            cmd if !cmd.starts_with('-') && args.command.is_empty() => {
                args.command = cmd.to_string();
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.command.is_empty() {
        return Err("no command given".to_string());
    }
    Ok(args)
}

fn emit(tables: Vec<Table>, out_dir: &std::path::Path, slug_prefix: &str) {
    for (i, table) in tables.iter().enumerate() {
        table.print();
        let slug = if tables.len() == 1 {
            slug_prefix.to_string()
        } else {
            format!("{slug_prefix}-{}", (b'a' + i as u8) as char)
        };
        if let Err(e) = table.save_json(out_dir, &slug) {
            eprintln!("warning: could not save {slug}.json: {e}");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\nusage: repro [--scale S] [--source D] [--seed N] [--datasets K] [--days N] [--out DIR] [--sizes N,N] [--threads N,N] [--iters N] [--bench-out FILE] <settings|fig15|fig16|fig17|fig18|fig19|fig20|fig21|ablate|predict|context|integrate|forest|all>");
            return ExitCode::FAILURE;
        }
    };

    // `integrate` and `forest` need no workbench (their inputs are
    // synthetic): run them before the expensive dataset preparation.
    if args.command == "integrate" {
        let config = cps_bench::integrate_bench::IntegrateBenchConfig {
            sizes: args.sizes.clone(),
            iters: args.iters,
            seed: args.seed,
        };
        let results = cps_bench::integrate_bench::run(&config);
        let out = args.bench_out.as_deref().unwrap_or("BENCH_integrate.json");
        let path = std::path::Path::new(out);
        if let Err(e) = cps_bench::integrate_bench::save_json(&results, &config, path) {
            eprintln!("error saving {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        return ExitCode::SUCCESS;
    }
    if args.command == "forest" {
        let config = cps_bench::forest_bench::ForestBenchConfig {
            scale: args.scale,
            source: args.source,
            seed: args.seed,
            days: args.days,
            threads: args.threads.clone(),
            iters: args.iters,
        };
        let results = cps_bench::forest_bench::run(&config);
        let out = args.bench_out.as_deref().unwrap_or("BENCH_forest.json");
        let path = std::path::Path::new(out);
        if let Err(e) = cps_bench::forest_bench::save_json(&results, &config, path) {
            eprintln!("error saving {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        return ExitCode::SUCCESS;
    }
    // The figure commands reproduce the paper's traffic evaluation; a
    // non-traffic --source would silently measure the wrong workload.
    if args.source != Domain::Traffic {
        eprintln!(
            "error: --source {} only applies to the forest sweep; the figure commands are \
             traffic-only",
            args.source
        );
        return ExitCode::FAILURE;
    }

    let mut config = ReproConfig::new(args.scale, args.seed);
    config.n_datasets = args.datasets;
    config.days_per_dataset = args.days;
    config.out_dir = args.out.clone().into();
    let out_dir = config.out_dir.clone();

    let wb = match Workbench::prepare(config) {
        Ok(wb) => wb,
        Err(e) => {
            eprintln!("error preparing workbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let params = Params::paper_defaults();

    let run = |name: &str| -> Result<(), cps_core::CpsError> {
        match name {
            "settings" => emit(figs::settings::run(&wb), &out_dir, "fig14"),
            "diag" => emit(figs::diag::run(&wb, &params)?, &out_dir, "diag"),
            "fig15" | "fig16" => emit(
                figs::construction::run(&wb, args.datasets, &params)?,
                &out_dir,
                "fig15-16",
            ),
            "fig17" => emit(figs::query_cost::run(&wb, &params, 3)?, &out_dir, "fig17"),
            "fig18" => emit(
                figs::effectiveness::run_vs_range(&wb, &params)?,
                &out_dir,
                "fig18",
            ),
            "fig19" => emit(
                figs::effectiveness::run_vs_delta_s(&wb, &params)?,
                &out_dir,
                "fig19",
            ),
            "fig20" => emit(figs::cluster_counts::run(&wb, &params)?, &out_dir, "fig20"),
            "fig21" => emit(figs::balance::run(&wb, &params)?, &out_dir, "fig21"),
            "predict" => emit(figs::prediction::run(&wb, &params)?, &out_dir, "predict"),
            "context" => emit(figs::context::run(&wb, &params)?, &out_dir, "context"),
            "ablate" => {
                emit(
                    figs::ablation::run_redzone(&wb, &params)?,
                    &out_dir,
                    "ablate-redzone",
                );
                emit(
                    figs::ablation::run_retrieval(&wb, &params)?,
                    &out_dir,
                    "ablate-retrieval",
                );
            }
            other => {
                eprintln!("unknown command '{other}'");
                std::process::exit(2);
            }
        }
        Ok(())
    };

    let result = if args.command == "all" {
        [
            "settings", "fig15", "fig17", "fig18", "fig19", "fig20", "fig21", "ablate", "predict",
            "context",
        ]
        .iter()
        .try_for_each(|c| run(c))
    } else {
        run(&args.command)
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
