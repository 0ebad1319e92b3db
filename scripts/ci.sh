#!/usr/bin/env bash
# Local CI gate: format, lints, tests, fault suite. Run from anywhere in
# the repo.
#
# Budget knobs:
#   PROPTEST_CASES  cases per property (default here: 16 for a fast gate;
#                   unset it to use each test's own count)
#   CI_FUZZ=1       soak mode: 256 cases per property
set -euo pipefail
cd "$(dirname "$0")/.."

# Property-test budget: small by default so the gate stays fast, large
# under CI_FUZZ=1. An explicit PROPTEST_CASES always wins.
if [[ -z "${PROPTEST_CASES:-}" ]]; then
  if [[ "${CI_FUZZ:-0}" == "1" ]]; then
    export PROPTEST_CASES=256
  else
    export PROPTEST_CASES=16
  fi
fi
echo "==> PROPTEST_CASES=${PROPTEST_CASES}"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# No unsafe code: every library crate forbids it, and this also covers
# binaries, tests and examples.
echo "==> no unsafe code"
if git grep -nw unsafe -- crates tests examples; then
  echo "unsafe code found above" >&2
  exit 1
fi

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links must resolve: a renamed or deleted item fails here
# instead of leaving a dangling link.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# --no-fail-fast: one red target must never hide the targets behind it.
echo "==> cargo test --workspace --no-fail-fast -q"
cargo test --workspace --no-fail-fast -q

# The fault-injection and crash-recovery suite once more under a fixed
# seed, so the exact sweep CI certifies is reproducible on any machine
# with `CPS_FAULT_SEED=42 cargo test -p cps-testkit`.
echo "==> CPS_FAULT_SEED=42 cargo test -p cps-testkit -q"
CPS_FAULT_SEED=42 cargo test -p cps-testkit -q

# Crash-recovery gate for the durable monitor under the same fixed seed:
# the exhaustive every-op-boundary crash sweeps (one record per call AND
# multi-record batches, including torn batch frames at every byte), the
# every-byte flip and truncation fuzz of checkpoint.ck and of sealed and
# final WAL segments, plus the WAL-format fuzz (torn frames at every byte
# of representative appends, tail repair, segment rotation edge cases in
# cps-storage's wal unit tests).
echo "==> CPS_FAULT_SEED=42 monitor crash-recovery sweeps"
CPS_FAULT_SEED=42 cargo test -q -p cps-testkit --test monitor_recovery
CPS_FAULT_SEED=42 cargo test -q -p cps-storage wal

# Batched-ingest differential gate: every swept batch size (one record
# per call included) × shard count must equal one in-order extractor, and
# a WAL restart must resume bit-identically; the adaptive rebalancer
# must be output-transparent under seeded skew, worker kills, and
# restart-from-checkpoint.
echo "==> CPS_FAULT_SEED=42 batched ingest differential + rebalance suites"
CPS_FAULT_SEED=42 cargo test -q -p cps-monitor --test ingest_batch_differential
CPS_FAULT_SEED=42 cargo test -q -p cps-testkit --test rebalance_equivalence

# Parallel-engine matrix: the bit-identity differential suites once more
# with the thread sweep pinned to the sequential path and to a fixed
# parallel width, so CI certifies both ends of the knob regardless of what
# CPS_PAR_THREADS a developer machine defaults to.
for width in 1 4; do
  echo "==> CPS_PAR_THREADS=${width} par-matrix differential suites"
  CPS_PAR_THREADS=${width} cargo test -q -p atypical \
    --test par_differential --test property3_permutation
  CPS_PAR_THREADS=${width} cargo test -q -p cps-testkit --test par_matrix
done

# Cross-domain source conformance: every registered event-source domain
# (traffic, audit, infrastructure, battlefield) through the full
# invariant matrix — deterministic day generation, Properties 2–5,
# cube-vs-forest equality, indexed-vs-naive bit-identity, parallel
# bit-identity at both ends of the thread knob, batched-ingest and
# serve-path differentials — plus the per-domain statistical-profile
# bands, all under the fixed seed so the certified sweep reproduces
# anywhere.
echo "==> CPS_FAULT_SEED=42 cross-domain source conformance + profiles"
for width in 1 4; do
  CPS_FAULT_SEED=42 CPS_PAR_THREADS=${width} cargo test -q -p cps-testkit \
    --test source_conformance
done
CPS_FAULT_SEED=42 cargo test -q -p cps-testkit --test domain_profiles

# Columnar segment gate: the zone-map soundness property suite (pushdown
# == full-decode-then-filter, with chunks actually skipped), the
# byte-flip / truncation corruption sweeps over representative segments
# written by the forest store, the one-version table over all four
# persistent formats (partition, cluster segment, WAL segment,
# checkpoint: a future version is a typed mismatch naming the file, and
# `recover` reports it), and the forest-store crash sweeps — all under
# the fixed seed so the certified sweep reproduces anywhere.
echo "==> CPS_FAULT_SEED=42 segment differential + corruption sweeps"
CPS_FAULT_SEED=42 cargo test -q -p cps-testkit \
  --test segment_pushdown --test segment_corruption \
  --test format_versions --test store_migration --test crash_recovery_forest

# Degraded-operation gate under the same fixed seed: the composed chaos
# matrix (junk feed + transient-EIO burst + WAL latency + worker kill +
# drop burst + reader storm, across shard counts, WAL on/off, and one
# composed scenario per registered domain — every run must terminate,
# account every record exactly, and keep lossless cells canonically
# equal to the fault-free twin), the transient-retry byte-identity and
# budget-exhaustion suite, the deadline-bounded query smoke (degraded
# answers carry truthful staleness stamps, overruns bounded by one
# storage read), and the seeded conservation property suite.
echo "==> CPS_FAULT_SEED=42 chaos matrix + retry + deadline + conservation"
CPS_FAULT_SEED=42 cargo test -q -p cps-testkit \
  --test chaos_matrix --test retry_io --test conservation

# Integration bench smoke: tiny sizes, one iteration. The command itself
# asserts the naive and indexed strategies produce identical macro-cluster
# sets, so this gates the indexed hot path end to end. Writes to results/
# (not the repo-root BENCH_integrate.json, which is the committed
# full-scale perf-trajectory artifact from `repro integrate` in release).
echo "==> repro integrate (smoke)"
cargo run -q -p cps-bench --bin repro -- integrate \
  --sizes 150,400,800 --iters 1 --bench-out results/BENCH_integrate_smoke.json
test -s results/BENCH_integrate_smoke.json

# Forest bench smoke: a short thread sweep in debug. The run itself
# asserts every thread count reproduces the sequential build bit-for-bit
# (fingerprints include merge ids and stats), so this gates the whole
# parallel construction engine end to end.
echo "==> repro forest (smoke)"
cargo run -q -p cps-bench --bin repro -- forest \
  --days 8 --threads 1,4 --iters 1 --bench-out results/BENCH_forest_smoke.json
test -s results/BENCH_forest_smoke.json

# Serving-layer concurrency gate: the seeded stress suite (readers racing
# ingest, day seals, and checkpoints — every pinned snapshot checked for
# torn-publication invariants and for sealed days already on disk) plus
# the quiescent differential suite (ReadView == cached == cache-off ==
# the testkit's batch reference, including the recovered-service initial
# view), a few times so the scheduler gets chances to
# interleave differently on small hosts.
echo "==> serving-layer stress + differential suites"
for _ in 1 2 3; do
  cargo test -q -p cps-monitor --test serving_stress
done
cargo test -q -p cps-monitor --test serving_differential

# The monitor's benchmark at smoke size: all four workloads with their
# oracles — record conservation, service micro-clusters == one
# OnlineExtractor, recovered == clean, cached == uncached, query_guided ==
# the batch reference, and micro_clusters_for_day == ForestStore::load —
# plus BENCHMARK.json checked against the catalog. The diff afterwards
# fails CI when an API change breaks or rewrites bench/ (the benchmark's
# own directory and manifest are never regenerated by a build).
echo "==> bench/smoke.sh"
bench/smoke.sh
git diff --exit-code -- bench BENCHMARK.json

echo "CI green."
