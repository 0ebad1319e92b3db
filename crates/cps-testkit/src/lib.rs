//! # cps-testkit
//!
//! Deterministic fault-injection and crash-recovery harness for the
//! atypical-cps workspace.
//!
//! The paper's guarantees are algebraic — micro-cluster merge is
//! commutative and associative (Property 3), red-zone totals are
//! distributive (Properties 4–5) — so correctness under faults is
//! checkable *by equivalence*: any recovered or degraded run must produce
//! clusters identical (or a verified prefix/accounted difference) to a
//! clean batch run. This crate supplies the machinery:
//!
//! * [`fault`] — a [`cps_storage::IoBackend`] that injects EIO, torn
//!   writes, crashes, and latency at the N-th I/O operation, records an
//!   op log for exhaustive fault-point sweeps, and can simulate the
//!   on-disk state after a power cut (including a lying-`fsync` mode),
//! * [`seed`] — seeded-run harness: every randomized fault test prints
//!   `CPS_FAULT_SEED=<seed>` on failure and is reproducible from it,
//! * [`canonical`] — order-free cluster-set form for equivalence checks,
//! * [`fixtures`] — shared simulated deployments and temp directories,
//! * [`mod@reference`] — the batch recomputation every guided read-path
//!   answer is compared against.
//!
//! The injection seams live in the production crates (`cps-storage::Io`,
//! `cps_monitor::FaultConfig`); this crate only drives them, so the
//! tests exercise the real write and ingest paths byte for byte.
//!
//! The [`conformance`] module extends the same discipline across event
//! domains: every registered `cps_sim::Source` is held to one invariant
//! matrix (Properties 2–5, cube-vs-clusters, indexed-vs-naive and
//! parallel bit-identity, batched-ingest and serve differentials).
//!
//! The [`chaos`] module composes the fault axes — injected I/O faults,
//! worker kills, drop bursts, junk feeds, deadline-bounded reader
//! storms — into seeded multi-fault scenarios asserting liveness, exact
//! record accounting, and bounded staleness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod canonical;
pub mod chaos;
pub mod conformance;
pub mod fault;
pub mod fixtures;
pub mod reference;
pub mod seed;

pub use canonical::{canonicalize, Canonical};
pub use chaos::{
    expected_admission, junk_feed, run_chaos, AdmissionExpectation, ChaosReport, ChaosScenario,
    JunkFeed,
};
pub use conformance::{registry, ConformanceCase};
pub use fault::{
    CrashCase, CrashPlan, DurabilityMode, FaultIo, FaultKind, FaultPlan, OpKind, OpRecord,
};
pub use reference::reference_guided;
pub use seed::{run_seeded, seed_for};
