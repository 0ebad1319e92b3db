//! `--repeat-check`: every workload in two independent sets of runs of the
//! same code on the same seed. Prints, per end-to-end metric, both sets'
//! medians, their quartile spreads and the relative difference; fails when
//! a metric's medians differ by more than its bound or an exact count
//! differs at all.

use crate::catalog::{Workload, END_TO_END, EXACT_COUNTS};
use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// Untraced runs per set and workload; each set adds one traced run.
const RUNS_PER_SET: usize = 5;

type Values = BTreeMap<String, f64>;

/// Runs this binary once and returns the metrics of its result line.
fn run_once(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) failed:\n{stdout}{}",
            workload.name(),
            u8::from(trace),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("a run printed nothing")?;
    let result: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let fields = result
        .as_object()
        .ok_or("the result line is not an object")?;
    let failed = serde::get_field(fields, "failed");
    if *failed != Value::U64(0) {
        return Err(format!("{}: ops_failed is {failed:?}", workload.name()));
    }
    let metrics = serde::get_field(fields, "metrics")
        .as_object()
        .ok_or("no metrics in the result line")?;
    metrics
        .iter()
        .map(|(name, cell)| {
            let value = match cell.as_object().map(|c| serde::get_field(c, "value")) {
                Some(Value::F64(v)) => *v,
                Some(Value::U64(v)) => *v as f64,
                other => return Err(format!("metric {name} has value {other:?}")),
            };
            Ok((name.clone(), value))
        })
        .collect()
}

/// One set's runs of one workload.
#[derive(Default)]
struct Set {
    untraced: Vec<Values>,
    traced: Values,
}

pub fn check(seed: u64, seconds: f64) -> Result<(), String> {
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        // The sets' runs alternate, so that the host's drift from minute
        // to minute falls on both alike.
        let (mut a, mut b) = (Set::default(), Set::default());
        for i in 0..RUNS_PER_SET {
            eprintln!("{}: untraced run {i} of each set", workload.name());
            a.untraced.push(run_once(workload, seed, seconds, false)?);
            b.untraced.push(run_once(workload, seed, seconds, false)?);
        }
        eprintln!("{}: traced run of each set", workload.name());
        a.traced = run_once(workload, seed, seconds, true)?;
        b.traced = run_once(workload, seed, seconds, true)?;

        println!(
            "\n{} (seed {seed}, {RUNS_PER_SET} runs per set)",
            workload.name()
        );
        println!(
            "{:<26} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}",
            "metric", "median A", "IQR/med", "median B", "IQR/med", "diff", "bound"
        );
        for d in END_TO_END {
            let column = |set: &Set| set.untraced.iter().map(|v| v[d.name]).collect::<Vec<f64>>();
            let (va, vb) = (column(&a), column(&b));
            let (ma, mb) = (median(&va), median(&vb));
            let spread = |v: &[f64], m: f64| {
                let (q1, q3) = quartiles(v);
                (q3 - q1) / m
            };
            let diff = (mb - ma).abs() / ma;
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            println!(
                "{:<26} {ma:>14.4} {:>8.4} {mb:>14.4} {:>8.4} {diff:>8.4} {bound:>6.2}",
                d.name,
                spread(&va, ma),
                spread(&vb, mb)
            );
            if diff > bound {
                problems.push(format!(
                    "{}: {} differs by {diff:.4} between the sets, over its bound {bound}",
                    workload.name(),
                    d.name
                ));
            }
        }
        for name in EXACT_COUNTS {
            if a.traced[*name] != b.traced[*name] {
                problems.push(format!(
                    "{}: exact count {name} is {} in one traced run and {} in the other",
                    workload.name(),
                    a.traced[*name],
                    b.traced[*name]
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("\nrepeat check passed: both sets agree within the bounds and every exact count repeats");
        Ok(())
    } else {
        Err(format!("repeat check failed:\n  {}", problems.join("\n  ")))
    }
}
