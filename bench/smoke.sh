#!/usr/bin/env bash
# Builds the benchmark offline and runs it at smoke size: all four
# workloads over 30-day feeds with their oracles, every metric checked for
# a finite value, and BENCHMARK.json checked against the catalog and the
# contract's limits. Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- --smoke "$@"
