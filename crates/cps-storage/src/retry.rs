//! Budgeted retry with exponential backoff around the [`Io`] seam.
//!
//! Production storage paths treat every I/O error as fatal, but a real
//! deployment sees *transient* faults — an overloaded disk returning
//! `EIO`, an NFS blip, a throttled block device — that succeed on retry.
//! [`RetryIo`] wraps any [`IoBackend`] (including the fault-injecting
//! backend in `cps-testkit`, which is how the retry path is proven) and
//! re-issues failed operations under a bounded budget:
//!
//! * **Classification** — [`is_transient`] sorts errors by
//!   [`io::ErrorKind`]. Structural errors (`NotFound`,
//!   `PermissionDenied`, `InvalidData`, `UnexpectedEof`,
//!   `AlreadyExists`, `InvalidInput`, `Unsupported`) are *permanent* and
//!   propagate immediately; everything else (including the `Other` kind
//!   injected faults carry) is presumed transient and retried.
//! * **Budget** — at most [`RetryPolicy::max_attempts`] attempts per
//!   operation (1 = no retry). Exhausting the budget returns the last
//!   error unchanged, so callers see the exact typed failure they would
//!   see without the wrapper — never a panic or a silent skip.
//! * **Backoff** — attempt `k` sleeps
//!   `min(base_delay_ms << (k-1), max_delay_ms)` plus a deterministic
//!   jitter drawn from a seeded splitmix64 stream, so two runs with the
//!   same seed back off identically (the chaos harness depends on this).
//!
//! **Retry safety.** A retried `create` truncates, `rename`/
//! `create_dir_all`/`remove_file` are idempotent (a retried
//! `remove_file` may race its own success and see `NotFound`, which is
//! treated as done), and `sync` is idempotent. A failed *mid-file write*
//! is the one hazard: the wrapper re-issues the same buffer, which is
//! correct when a failed write wrote nothing — true of the injected
//! faults (they fail before any byte lands) and of whole-buffer kernel
//! writes; callers with partial-write semantics should keep retry
//! disabled on that path. Shared [`RetryStats`] counters account every
//! retry and every exhausted budget.

use crate::io::{Io, IoBackend, IoRead, IoWrite};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Retry budget and backoff shape for a [`RetryIo`] wrapper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, the first included (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single backoff sleep, in milliseconds.
    pub max_delay_ms: u64,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries: every error propagates on first failure.
    pub fn disabled() -> Self {
        Self {
            max_attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
            jitter_seed: 0,
        }
    }

    /// Whether this policy ever retries.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Backoff (without jitter) before retry number `retry` (1-based).
    fn backoff_ms(&self, retry: u32) -> u64 {
        let shifted = self
            .base_delay_ms
            .checked_shl(retry.saturating_sub(1))
            .unwrap_or(u64::MAX);
        shifted.min(self.max_delay_ms)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Shared accounting of a [`RetryIo`] wrapper. Cheap to clone the `Arc`
/// into a metrics snapshotter.
#[derive(Debug, Default)]
pub struct RetryStats {
    /// Operations re-issued after a transient failure.
    pub io_retries: AtomicU64,
    /// Operations whose transient failures outlived the whole budget
    /// (the last error propagated to the caller).
    pub retries_exhausted: AtomicU64,
}

/// Whether an I/O error is worth retrying. Structural errors are
/// permanent; everything else — notably the `Other` kind that injected
/// faults and most device-level errors carry — is presumed transient.
pub fn is_transient(e: &io::Error) -> bool {
    !matches!(
        e.kind(),
        io::ErrorKind::NotFound
            | io::ErrorKind::PermissionDenied
            | io::ErrorKind::InvalidData
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::AlreadyExists
            | io::ErrorKind::InvalidInput
            | io::ErrorKind::Unsupported
    )
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The shared core of a retry wrapper: policy, counters, jitter stream.
#[derive(Debug)]
struct RetryCore {
    policy: RetryPolicy,
    stats: Arc<RetryStats>,
    jitter: Mutex<u64>,
}

impl RetryCore {
    /// Runs `op` under the budget, sleeping between attempts.
    fn run<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let attempts = self.policy.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && attempt < attempts => {
                    self.stats.io_retries.fetch_add(1, Ordering::Relaxed);
                    let base = self.policy.backoff_ms(attempt);
                    let jitter = if base > 0 {
                        let mut state = self.jitter.lock().expect("jitter lock");
                        splitmix64(&mut state) % (base / 2 + 1)
                    } else {
                        0
                    };
                    if base + jitter > 0 {
                        std::thread::sleep(Duration::from_millis(base + jitter));
                    }
                    attempt += 1;
                }
                Err(e) => {
                    if is_transient(&e) && attempts > 1 {
                        self.stats.retries_exhausted.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// An [`IoBackend`] decorator retrying transient failures of the inner
/// backend — including per-`write`/`sync`/`read` operations on the file
/// handles it returns — under one shared [`RetryPolicy`].
pub struct RetryIo {
    inner: Io,
    core: Arc<RetryCore>,
}

impl RetryIo {
    /// Wraps `inner` under `policy`, returning the wrapped handle and the
    /// shared retry counters. A disabled policy still wraps (the loop
    /// runs exactly once), so callers can wire configuration uniformly.
    pub fn wrap(inner: Io, policy: RetryPolicy) -> (Io, Arc<RetryStats>) {
        let stats = Arc::new(RetryStats::default());
        let core = Arc::new(RetryCore {
            policy,
            stats: stats.clone(),
            jitter: Mutex::new(policy.jitter_seed),
        });
        let io = Io::new(Arc::new(RetryIo { inner, core }));
        (io, stats)
    }
}

impl IoBackend for RetryIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoWrite>> {
        // A failed create left no handle; re-creating truncates, so the
        // retried attempt starts from the same empty file.
        let w = self.core.run(|| self.inner.create(path))?;
        Ok(Box::new(RetryWrite {
            inner: w,
            core: self.core.clone(),
        }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn IoRead>> {
        let r = self.core.run(|| self.inner.open(path))?;
        Ok(Box::new(RetryRead {
            inner: r,
            core: self.core.clone(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.core.run(|| self.inner.rename(from, to))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.core.run(|| self.inner.create_dir_all(path))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        // A retry can race this call's own earlier success: the file
        // being gone is the goal, not a failure.
        match self.core.run(|| self.inner.remove_file(path)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }
}

/// Write handle issued by [`RetryIo`]: retries `write` and `sync`.
struct RetryWrite {
    inner: Box<dyn IoWrite>,
    core: Arc<RetryCore>,
}

impl Write for RetryWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let inner = &mut self.inner;
        self.core.run(|| inner.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.core.run(|| inner.flush())
    }
}

impl IoWrite for RetryWrite {
    fn sync(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.core.run(|| inner.sync())
    }
}

/// Read handle issued by [`RetryIo`]: retries each `read` call.
struct RetryRead {
    inner: Box<dyn IoRead>,
    core: Arc<RetryCore>,
}

impl Read for RetryRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let inner = &mut self.inner;
        self.core.run(|| inner.read(buf))
    }
}

impl IoRead for RetryRead {}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::ScratchDir;
    use std::sync::atomic::AtomicU32;

    /// A backend that fails its first `fail_ops` gated operations with
    /// `kind`, then delegates to the real filesystem. Operation counting
    /// covers backend calls and per-handle write/sync/read calls — the
    /// same grain `cps-testkit`'s fault backend uses.
    struct Flaky {
        real: Io,
        remaining: Arc<AtomicU32>,
        kind: io::ErrorKind,
    }

    impl Flaky {
        fn io(fail_ops: u32, kind: io::ErrorKind) -> (Io, Arc<AtomicU32>) {
            let remaining = Arc::new(AtomicU32::new(fail_ops));
            let backend = Flaky {
                real: Io::real(),
                remaining: remaining.clone(),
                kind,
            };
            (Io::new(Arc::new(backend)), remaining)
        }

        fn gate(&self) -> io::Result<()> {
            let mut left = self.remaining.load(Ordering::SeqCst);
            while left > 0 {
                match self.remaining.compare_exchange(
                    left,
                    left - 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => return Err(io::Error::new(self.kind, "planted fault")),
                    Err(now) => left = now,
                }
            }
            Ok(())
        }
    }

    struct FlakyWrite {
        inner: Box<dyn IoWrite>,
        remaining: Arc<AtomicU32>,
        kind: io::ErrorKind,
    }

    impl FlakyWrite {
        fn gate(&self) -> io::Result<()> {
            let mut left = self.remaining.load(Ordering::SeqCst);
            while left > 0 {
                match self.remaining.compare_exchange(
                    left,
                    left - 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => return Err(io::Error::new(self.kind, "planted fault")),
                    Err(now) => left = now,
                }
            }
            Ok(())
        }
    }

    impl Write for FlakyWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.gate()?;
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl IoWrite for FlakyWrite {
        fn sync(&mut self) -> io::Result<()> {
            self.gate()?;
            self.inner.sync()
        }
    }

    impl IoBackend for Flaky {
        fn create(&self, path: &Path) -> io::Result<Box<dyn IoWrite>> {
            self.gate()?;
            Ok(Box::new(FlakyWrite {
                inner: self.real.create(path)?,
                remaining: self.remaining.clone(),
                kind: self.kind,
            }))
        }

        fn open(&self, path: &Path) -> io::Result<Box<dyn IoRead>> {
            self.gate()?;
            self.real.open(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.gate()?;
            self.real.rename(from, to)
        }

        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            self.gate()?;
            self.real.create_dir_all(path)
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.gate()?;
            self.real.remove_file(path)
        }
    }

    fn fast(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay_ms: 0,
            max_delay_ms: 0,
            jitter_seed: 7,
        }
    }

    #[test]
    fn transient_faults_under_budget_succeed_and_are_counted() {
        let (flaky, _) = Flaky::io(3, io::ErrorKind::Other);
        let (io, stats) = RetryIo::wrap(flaky, fast(8));
        let dir = ScratchDir::new("retry");
        let path = dir.join("under-budget.bin");
        let mut w = io.create(&path).unwrap();
        w.write_all(b"payload").unwrap();
        w.sync().unwrap();
        drop(w);
        assert_eq!(io.read_to_vec(&path).unwrap(), b"payload");
        assert_eq!(stats.io_retries.load(Ordering::SeqCst), 3);
        assert_eq!(stats.retries_exhausted.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn budget_exhaustion_propagates_the_error() {
        let (flaky, remaining) = Flaky::io(10, io::ErrorKind::Other);
        let (io, stats) = RetryIo::wrap(flaky, fast(3));
        let dir = ScratchDir::new("retry");
        let err = io.create(&dir.join("exhausted.bin")).err().expect("fails");
        assert!(is_transient(&err));
        assert_eq!(stats.io_retries.load(Ordering::SeqCst), 2);
        assert_eq!(stats.retries_exhausted.load(Ordering::SeqCst), 1);
        // Only the budgeted attempts were consumed.
        assert_eq!(remaining.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let (flaky, remaining) = Flaky::io(5, io::ErrorKind::PermissionDenied);
        let (io, stats) = RetryIo::wrap(flaky, fast(8));
        let dir = ScratchDir::new("retry");
        let err = io.create(&dir.join("permanent.bin")).err().expect("fails");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(stats.io_retries.load(Ordering::SeqCst), 0);
        assert_eq!(stats.retries_exhausted.load(Ordering::SeqCst), 0);
        assert_eq!(remaining.load(Ordering::SeqCst), 4, "one attempt only");
    }

    #[test]
    fn missing_file_on_retried_remove_is_success() {
        let (io, stats) = RetryIo::wrap(Io::real(), fast(4));
        let dir = ScratchDir::new("retry");
        assert!(io.remove_file(&dir.join("never-existed.bin")).is_ok());
        assert_eq!(stats.io_retries.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn disabled_policy_is_transparent() {
        let (flaky, _) = Flaky::io(1, io::ErrorKind::Other);
        let (io, stats) = RetryIo::wrap(flaky, RetryPolicy::disabled());
        let dir = ScratchDir::new("retry");
        assert!(io.create(&dir.join("disabled.bin")).is_err());
        assert_eq!(stats.io_retries.load(Ordering::SeqCst), 0);
        assert_eq!(stats.retries_exhausted.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn backoff_is_capped_and_grows() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 2,
            max_delay_ms: 9,
            jitter_seed: 0,
        };
        assert_eq!(p.backoff_ms(1), 2);
        assert_eq!(p.backoff_ms(2), 4);
        assert_eq!(p.backoff_ms(3), 8);
        assert_eq!(p.backoff_ms(4), 9, "capped");
        assert_eq!(p.backoff_ms(63), 9, "shift overflow saturates to cap");
    }
}
