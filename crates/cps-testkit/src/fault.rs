//! A fault-injecting [`IoBackend`].
//!
//! [`FaultIo`] wraps the real filesystem, numbers every backend operation
//! (create, open, each write, sync, rename, …), and executes a queue of
//! [`FaultPlan`]s: at the N-th operation it can fail with an I/O error,
//! tear a write after a chosen byte count, crash (that op and every later
//! one fails), or add latency. Each plan fires once, at its own op index,
//! so a composed chaos scenario can plant an EIO burst *and* a scatter of
//! latency faults in one backend. Because the op sequence of a
//! deterministic workload is itself deterministic, a test can first run
//! clean to record the op log, then re-run the workload once per op with
//! a fault planted there — an exhaustive fault-point sweep, no sampling.
//!
//! ## Crash simulation
//!
//! Writes go through to the real files, so after the workload dies the
//! test calls [`FaultIo::simulate_crash`] to produce the post-power-cut
//! disk state: every tracked file is truncated to its *durable* length.
//! Under [`DurabilityMode::WriteThrough`] (default) every written byte is
//! durable immediately — the surviving state is exactly "all completed
//! ops, plus the torn prefix of a torn write". Under
//! [`DurabilityMode::CappedSync`] the backend *lies*: `sync` reports
//! success but only the first `cap` bytes of the file are actually
//! durable. Crashing after the commit rename then yields a visible but
//! truncated file — the rename-reordered-before-flush corruption that
//! atomic-write protocols must detect, not silently accept. Metadata
//! operations (rename, mkdir) are treated as durable once they return.

use cps_storage::{Io, IoBackend, IoRead, IoWrite};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// What happens at the planned operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an injected I/O error; later operations
    /// proceed (a transient EIO).
    Error,
    /// The operation does nothing and fails, and every later operation
    /// fails too: a power cut at an op boundary.
    Crash,
    /// For a write: the first `keep` bytes land, then the backend crashes.
    /// For any other op: equivalent to [`FaultKind::Crash`].
    Torn {
        /// Bytes of the write that reach the file before the crash.
        keep: usize,
    },
    /// The operation succeeds after a delay (a slow disk, not a failure).
    Latency {
        /// Delay in milliseconds.
        millis: u64,
    },
}

/// One planted fault: `kind` fires at the `at_op`-th backend operation
/// (0-based, in the order [`FaultIo`] numbers them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Operation index the fault fires at.
    pub at_op: u64,
    /// The fault to inject there.
    pub kind: FaultKind,
}

/// How written bytes become durable (what a crash preserves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Every written byte is durable the moment the write returns.
    WriteThrough,
    /// `sync` reports success but only the first `cap` bytes of each file
    /// are actually durable — a lying fsync.
    CappedSync {
        /// Per-file durable-byte cap.
        cap: u64,
    },
}

/// The kind of one logged backend operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// File creation (truncating).
    Create,
    /// File open for reading.
    Open,
    /// One `read` call.
    Read,
    /// One logical write of `len` bytes.
    Write {
        /// Bytes in the write.
        len: usize,
    },
    /// An fsync.
    Sync,
    /// An atomic rename to `to`.
    Rename {
        /// Destination path.
        to: PathBuf,
    },
    /// Directory creation.
    CreateDirAll,
    /// File removal (WAL segment truncation after a checkpoint).
    Remove,
}

/// One entry of the op log.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Operation index (the value a [`FaultPlan::at_op`] targets).
    pub index: u64,
    /// What the operation was.
    pub op: OpKind,
    /// File the operation touched.
    pub path: PathBuf,
}

#[derive(Default)]
struct FileState {
    written: u64,
    durable: u64,
}

struct State {
    next_op: u64,
    plans: Vec<FaultPlan>,
    mode: DurabilityMode,
    crashed: bool,
    files: HashMap<PathBuf, FileState>,
    log: Vec<OpRecord>,
}

enum Decision {
    Proceed,
    Torn(usize),
}

fn injected(idx: u64, what: &str) -> io::Error {
    io::Error::other(format!("injected fault at op {idx}: {what}"))
}

fn offline() -> io::Error {
    io::Error::other("simulated crash: backend offline")
}

/// The fault-injecting backend. Cloning shares the op counter, plan, and
/// file-durability tracking.
#[derive(Clone)]
pub struct FaultIo {
    state: Arc<Mutex<State>>,
}

impl Default for FaultIo {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultIo {
    /// A backend with no planned fault and write-through durability.
    pub fn new() -> Self {
        Self {
            state: Arc::new(Mutex::new(State {
                next_op: 0,
                plans: Vec::new(),
                mode: DurabilityMode::WriteThrough,
                crashed: false,
                files: HashMap::new(),
                log: Vec::new(),
            })),
        }
    }

    /// A backend that fires `plan`.
    pub fn with_plan(plan: FaultPlan) -> Self {
        let io = Self::new();
        io.set_plan(Some(plan));
        io
    }

    /// Replaces the whole plan queue with zero or one fault.
    pub fn set_plan(&self, plan: Option<FaultPlan>) {
        self.state.lock().unwrap().plans = plan.into_iter().collect();
    }

    /// Replaces the whole plan queue. Plans may target any mix of op
    /// indices; each fires once when its index is reached.
    pub fn set_plans(&self, plans: Vec<FaultPlan>) {
        self.state.lock().unwrap().plans = plans;
    }

    /// Appends one fault to the plan queue.
    pub fn push_plan(&self, plan: FaultPlan) {
        self.state.lock().unwrap().plans.push(plan);
    }

    /// Number of planted faults that have not fired yet.
    pub fn pending_plans(&self) -> usize {
        self.state.lock().unwrap().plans.len()
    }

    /// Sets the durability mode (see [`DurabilityMode`]).
    pub fn set_mode(&self, mode: DurabilityMode) {
        self.state.lock().unwrap().mode = mode;
    }

    /// An [`Io`] handle backed by this fault injector.
    pub fn io(&self) -> Io {
        Io::new(Arc::new(self.clone()))
    }

    /// Number of operations issued so far.
    pub fn op_count(&self) -> u64 {
        self.state.lock().unwrap().next_op
    }

    /// Copy of the op log (for enumerating fault points).
    pub fn ops(&self) -> Vec<OpRecord> {
        self.state.lock().unwrap().log.clone()
    }

    /// Whether a crash fault has fired (or [`Self::simulate_crash`] ran).
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Produces the post-crash disk state: every tracked file is truncated
    /// to its durable length, and the backend goes offline. Files the
    /// workload created but whose durable length is 0 are left as empty
    /// files (their directory entry may survive a real crash; readers must
    /// treat them as corrupt or absent either way).
    pub fn simulate_crash(&self) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        state.crashed = true;
        for (path, file) in &state.files {
            if path.exists() {
                let f = std::fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(file.durable)?;
            }
        }
        Ok(())
    }

    /// Numbers the operation, logs it, and applies the plan. `Ok(Torn(k))`
    /// is only returned for write ops; for anything else a torn plan acts
    /// as a crash.
    fn gate(&self, op: OpKind, path: &Path) -> io::Result<Decision> {
        let is_write = matches!(op, OpKind::Write { .. });
        let mut state = self.state.lock().unwrap();
        if state.crashed {
            return Err(offline());
        }
        let idx = state.next_op;
        state.next_op += 1;
        state.log.push(OpRecord {
            index: idx,
            op,
            path: path.to_owned(),
        });
        let Some(hit) = state.plans.iter().position(|p| p.at_op == idx) else {
            return Ok(Decision::Proceed);
        };
        let plan = state.plans.remove(hit);
        match plan.kind {
            FaultKind::Error => Err(injected(idx, "I/O error")),
            FaultKind::Crash => {
                state.crashed = true;
                Err(injected(idx, "crash"))
            }
            FaultKind::Torn { keep } if is_write => {
                state.crashed = true;
                Ok(Decision::Torn(keep))
            }
            FaultKind::Torn { .. } => {
                state.crashed = true;
                Err(injected(idx, "crash (torn plan on non-write op)"))
            }
            FaultKind::Latency { millis } => {
                drop(state);
                std::thread::sleep(std::time::Duration::from_millis(millis));
                Ok(Decision::Proceed)
            }
        }
    }

    fn note_written(&self, path: &Path, n: u64) {
        let mut state = self.state.lock().unwrap();
        let mode = state.mode;
        let file = state.files.entry(path.to_owned()).or_default();
        file.written += n;
        if matches!(mode, DurabilityMode::WriteThrough) {
            file.durable = file.written;
        }
    }

    fn note_synced(&self, path: &Path) {
        let mut state = self.state.lock().unwrap();
        let mode = state.mode;
        let file = state.files.entry(path.to_owned()).or_default();
        file.durable = match mode {
            DurabilityMode::WriteThrough => file.written,
            DurabilityMode::CappedSync { cap } => file.written.min(cap),
        };
    }

    fn note_renamed(&self, from: &Path, to: &Path) {
        let mut state = self.state.lock().unwrap();
        if let Some(file) = state.files.remove(from) {
            state.files.insert(to.to_owned(), file);
        }
    }
}

struct FaultWrite {
    io: FaultIo,
    path: PathBuf,
    file: File,
}

impl Write for FaultWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.io.gate(OpKind::Write { len: buf.len() }, &self.path)? {
            Decision::Proceed => {
                self.file.write_all(buf)?;
                self.io.note_written(&self.path, buf.len() as u64);
                Ok(buf.len())
            }
            Decision::Torn(keep) => {
                let keep = keep.min(buf.len());
                self.file.write_all(&buf[..keep])?;
                self.io.note_written(&self.path, keep as u64);
                Err(io::Error::other(format!(
                    "injected fault: write torn after {keep} of {} bytes",
                    buf.len()
                )))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Not a numbered op: flush has no durability effect here.
        self.file.flush()
    }
}

impl IoWrite for FaultWrite {
    fn sync(&mut self) -> io::Result<()> {
        self.io.gate(OpKind::Sync, &self.path)?;
        self.file.sync_all()?;
        self.io.note_synced(&self.path);
        Ok(())
    }
}

struct FaultRead {
    io: FaultIo,
    path: PathBuf,
    file: File,
}

impl Read for FaultRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.io.gate(OpKind::Read, &self.path)?;
        self.file.read(buf)
    }
}

impl IoRead for FaultRead {}

impl IoBackend for FaultIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn IoWrite>> {
        self.gate(OpKind::Create, path)?;
        let file = File::create(path)?;
        self.state
            .lock()
            .unwrap()
            .files
            .insert(path.to_owned(), FileState::default());
        Ok(Box::new(FaultWrite {
            io: self.clone(),
            path: path.to_owned(),
            file,
        }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn IoRead>> {
        self.gate(OpKind::Open, path)?;
        let file = File::open(path)?;
        Ok(Box::new(FaultRead {
            io: self.clone(),
            path: path.to_owned(),
            file,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate(OpKind::Rename { to: to.to_owned() }, from)?;
        std::fs::rename(from, to)?;
        self.note_renamed(from, to);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.gate(OpKind::CreateDirAll, path)?;
        std::fs::create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.gate(OpKind::Remove, path)?;
        std::fs::remove_file(path)?;
        // A removed file has no durable bytes to preserve at crash time.
        self.state.lock().unwrap().files.remove(path);
        Ok(())
    }
}

/// One planted fault case produced by a [`CrashPlan`].
pub struct CrashCase {
    /// Human-readable description for assertion messages.
    pub label: String,
    /// Operation index the fault fires at.
    pub at_op: u64,
    /// The recorded operation at that index.
    pub op: OpKind,
    /// For torn cases: how many bytes of the write survive.
    pub keep: Option<usize>,
    /// A fresh backend with the fault planted, ready to re-run the
    /// workload under.
    pub fault: FaultIo,
}

/// Enumerates fault points for a deterministic workload.
///
/// The op sequence of a deterministic workload is itself deterministic,
/// so a sweep records one clean run and then re-runs the workload once
/// per planted fault:
///
/// ```ignore
/// let plan = CrashPlan::record(|io| workload(io));
/// for case in plan.crash_cases() {
///     workload_expecting_failure(&case.fault.io());
///     case.fault.simulate_crash().unwrap();
///     check_recovery(&case.label);
/// }
/// ```
pub struct CrashPlan {
    ops: Vec<OpRecord>,
}

impl CrashPlan {
    /// Runs `workload` once under a clean fault backend and records its
    /// op log. The workload must succeed (panics otherwise): a sweep over
    /// a failing baseline proves nothing.
    pub fn record(workload: impl FnOnce(&Io)) -> Self {
        let fault = FaultIo::new();
        workload(&fault.io());
        assert!(
            !fault.crashed(),
            "CrashPlan baseline run crashed; sweep would be meaningless"
        );
        Self { ops: fault.ops() }
    }

    /// The recorded op log.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Number of recorded operations (= number of crash cases).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the workload performed no backend operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// One case per recorded op: a power cut at that op boundary (the op
    /// itself does not happen).
    pub fn crash_cases(&self) -> impl Iterator<Item = CrashCase> + '_ {
        self.ops.iter().map(|rec| CrashCase {
            label: format!(
                "crash at op {} ({:?} on {})",
                rec.index,
                rec.op,
                rec.path.display()
            ),
            at_op: rec.index,
            op: rec.op.clone(),
            keep: None,
            fault: FaultIo::with_plan(FaultPlan {
                at_op: rec.index,
                kind: FaultKind::Crash,
            }),
        })
    }

    /// One case per byte boundary of each write op matched by `select`:
    /// the write lands its first `keep` bytes, then the backend crashes.
    /// `keep` ranges over `0..len` (a full write is the clean case, not a
    /// fault). Pass `|_| true` to sweep every write.
    pub fn torn_cases<'a>(
        &'a self,
        select: impl Fn(&OpRecord) -> bool + 'a,
    ) -> impl Iterator<Item = CrashCase> + 'a {
        self.ops
            .iter()
            .filter_map(move |rec| match rec.op {
                OpKind::Write { len } if select(rec) => Some((rec, len)),
                _ => None,
            })
            .flat_map(|(rec, len)| {
                (0..len).map(move |keep| CrashCase {
                    label: format!(
                        "torn write at op {} after {keep}/{len} bytes ({})",
                        rec.index,
                        rec.path.display()
                    ),
                    at_op: rec.index,
                    op: rec.op.clone(),
                    keep: Some(keep),
                    fault: FaultIo::with_plan(FaultPlan {
                        at_op: rec.index,
                        kind: FaultKind::Torn { keep },
                    }),
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::ScratchDir;

    /// The canonical workload: create, two writes, sync, rename.
    fn workload(io: &Io, dir: &Path) -> io::Result<()> {
        let staged = dir.join("file.tmp");
        let final_path = dir.join("file.bin");
        let mut w = io.create(&staged)?;
        w.write_all(b"aaaa")?;
        w.write_all(b"bbbb")?;
        w.sync()?;
        drop(w);
        io.rename(&staged, &final_path)
    }

    #[test]
    fn clean_run_logs_every_op() {
        let dir = ScratchDir::new("log");
        let fault = FaultIo::new();
        workload(&fault.io(), &dir).unwrap();
        let ops: Vec<OpKind> = fault.ops().into_iter().map(|o| o.op).collect();
        assert_eq!(ops.len(), 5, "{ops:?}");
        assert!(matches!(ops[0], OpKind::Create));
        assert_eq!(ops[1], OpKind::Write { len: 4 });
        assert_eq!(ops[2], OpKind::Write { len: 4 });
        assert!(matches!(ops[3], OpKind::Sync));
        assert!(matches!(ops[4], OpKind::Rename { .. }));
        assert_eq!(std::fs::read(dir.join("file.bin")).unwrap(), b"aaaabbbb");
    }

    #[test]
    fn crash_fails_the_op_and_everything_after() {
        let dir = ScratchDir::new("crash");
        let fault = FaultIo::with_plan(FaultPlan {
            at_op: 2,
            kind: FaultKind::Crash,
        });
        let err = workload(&fault.io(), &dir).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(fault.crashed());
        // Only the first write survives; the rename never happened.
        fault.simulate_crash().unwrap();
        assert!(!dir.join("file.bin").exists());
        assert_eq!(std::fs::read(dir.join("file.tmp")).unwrap(), b"aaaa");
        // Backend is offline now.
        assert!(fault.io().create(&dir.join("x")).is_err());
    }

    #[test]
    fn torn_write_keeps_a_prefix() {
        let dir = ScratchDir::new("torn");
        let fault = FaultIo::with_plan(FaultPlan {
            at_op: 2,
            kind: FaultKind::Torn { keep: 1 },
        });
        let err = workload(&fault.io(), &dir).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        fault.simulate_crash().unwrap();
        assert_eq!(std::fs::read(dir.join("file.tmp")).unwrap(), b"aaaab");
    }

    #[test]
    fn transient_error_does_not_crash_the_backend() {
        let dir = ScratchDir::new("eio");
        let fault = FaultIo::with_plan(FaultPlan {
            at_op: 1,
            kind: FaultKind::Error,
        });
        let io = fault.io();
        assert!(workload(&io, &dir).is_err());
        assert!(!fault.crashed());
        // A retry of the whole workload succeeds (plan already consumed).
        workload(&io, &dir).unwrap();
        assert_eq!(std::fs::read(dir.join("file.bin")).unwrap(), b"aaaabbbb");
    }

    #[test]
    fn plan_queue_fires_each_fault_once_at_its_own_op() {
        let dir = ScratchDir::new("queue");
        let fault = FaultIo::new();
        fault.set_plans(vec![
            FaultPlan {
                at_op: 1,
                kind: FaultKind::Error,
            },
            FaultPlan {
                at_op: 3,
                kind: FaultKind::Error,
            },
            FaultPlan {
                at_op: 4,
                kind: FaultKind::Latency { millis: 1 },
            },
        ]);
        let io = fault.io();
        // Op 1 (first write) fails; the backend stays online.
        assert!(workload(&io, &dir).is_err());
        assert!(!fault.crashed());
        assert_eq!(fault.pending_plans(), 2);
        // The rerun starts at op 2: create(2), write(3, fails again).
        assert!(workload(&io, &dir).is_err());
        assert_eq!(fault.pending_plans(), 1);
        // Third run: create(4, delayed), writes, sync, rename — succeeds.
        workload(&io, &dir).unwrap();
        assert_eq!(fault.pending_plans(), 0);
        assert_eq!(std::fs::read(dir.join("file.bin")).unwrap(), b"aaaabbbb");
    }

    #[test]
    fn lying_sync_loses_the_tail_across_rename() {
        let dir = ScratchDir::new("lying");
        let fault = FaultIo::new();
        fault.set_mode(DurabilityMode::CappedSync { cap: 6 });
        workload(&fault.io(), &dir).unwrap();
        // The workload believes everything landed...
        assert_eq!(std::fs::read(dir.join("file.bin")).unwrap(), b"aaaabbbb");
        // ...but a crash reveals only 6 durable bytes behind the rename.
        fault.simulate_crash().unwrap();
        assert_eq!(std::fs::read(dir.join("file.bin")).unwrap(), b"aaaabb");
    }

    #[test]
    fn latency_delays_but_succeeds() {
        let dir = ScratchDir::new("latency");
        let fault = FaultIo::with_plan(FaultPlan {
            at_op: 1,
            kind: FaultKind::Latency { millis: 30 },
        });
        let started = std::time::Instant::now();
        workload(&fault.io(), &dir).unwrap();
        assert!(started.elapsed() >= std::time::Duration::from_millis(30));
        assert_eq!(std::fs::read(dir.join("file.bin")).unwrap(), b"aaaabbbb");
    }
}
