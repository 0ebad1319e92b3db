//! Host stamp and the `/proc` readers behind the memory and CPU metrics.

use serde::Value;
use std::path::{Path, PathBuf};

/// The benchmark's own directory, `bench/` of the checkout it was built
/// in. Everything the benchmark reads or writes is found from here, not
/// from the working directory.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `bench/out/`: trace files and, unless `--work-dir` says otherwise, the
/// WAL and snapshot scratch directories.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// The checkout's root, which holds `BENCHMARK.json`.
pub fn repo_root() -> &'static Path {
    bench_dir()
        .parent()
        .expect("the benchmark package sits inside the repository")
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux clock ids of the scheduler's exact per-process and per-thread
/// run time. `/proc/*/stat` would give the same in 10 ms ticks charged by
/// sampling, which misreads threads that wake thousands of times a second.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark builds for),
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// CPU seconds this process has used so far, exited threads included.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// `(tid, name, cpu seconds)` of every live thread of this process, from
/// the scheduler's run-time counter in `/proc/self/task/<tid>/schedstat`.
pub fn threads_cpu() -> Vec<(u64, String, f64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|entry| {
            let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
            let dir = entry.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            let schedstat = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            let run_ns: f64 = schedstat.split_whitespace().next()?.parse().ok()?;
            Some((tid, name.trim().to_string(), run_ns * 1e-9))
        })
        .collect()
}

/// Filesystem type holding `path`: the longest mount point that prefixes it.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_owned());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

/// Commit the working tree is at, read from `.git` without spawning git;
/// `"unknown"` outside a repository (the acceptance checkout is not one).
fn git_revision() -> String {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// What every output is stamped with, so numbers are never read without
/// the machine and build that produced them.
pub fn stamp(seed: u64, work_dir: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Object(vec![
        ("nproc".into(), Value::U64(nproc)),
        ("build_profile".into(), Value::Str(profile.into())),
        ("git_revision".into(), Value::Str(git_revision())),
        ("seed".into(), Value::U64(seed)),
        (
            "work_dir_filesystem".into(),
            Value::Str(filesystem_of(work_dir)),
        ),
        (
            "fsync_policy".into(),
            Value::Str("group, 256 appends per fsync".into()),
        ),
    ])
}
