//! The cross-domain conformance matrix: every registered event-source
//! domain (`Domain::ALL` — traffic, audit, infrastructure, battlefield)
//! is held to the identical invariant suite via
//! `cps_testkit::conformance`. One test per invariant family, each
//! iterating the whole registry, so a failure names the domain and the
//! broken claim directly. Seeded through the testkit harness; rerun a
//! failure with `CPS_FAULT_SEED=<seed>`.

use cps_testkit::conformance::{
    check_batched_ingest, check_cube_vs_clusters, check_day_determinism, check_guided_query,
    check_indexed_vs_naive, check_parallel_bit_identity, check_partition_merge, check_serve_paths,
    check_stored_equivalence, registry,
};
use cps_testkit::run_seeded;

/// Whole days per domain feed — enough for multi-day query ranges and
/// mid-run day seals while keeping the 8 × 4 matrix fast.
const DAYS: u32 = 3;

#[test]
fn every_domain_generates_deterministic_days() {
    run_seeded("every_domain_generates_deterministic_days", |seed| {
        for case in &registry(seed, DAYS) {
            check_day_determinism(case);
        }
    });
}

#[test]
fn every_domain_satisfies_partition_merge_properties() {
    run_seeded(
        "every_domain_satisfies_partition_merge_properties",
        |seed| {
            for case in &registry(seed, DAYS) {
                check_partition_merge(case);
            }
        },
    );
}

#[test]
fn every_domain_guided_query_keeps_significant_clusters() {
    run_seeded(
        "every_domain_guided_query_keeps_significant_clusters",
        |seed| {
            for case in &registry(seed, DAYS) {
                check_guided_query(case);
            }
        },
    );
}

#[test]
fn every_domain_cube_agrees_with_forest() {
    run_seeded("every_domain_cube_agrees_with_forest", |seed| {
        for case in &registry(seed, DAYS) {
            check_cube_vs_clusters(case);
        }
    });
}

#[test]
fn every_domain_indexed_integration_is_bit_identical() {
    run_seeded(
        "every_domain_indexed_integration_is_bit_identical",
        |seed| {
            for case in &registry(seed, DAYS) {
                check_indexed_vs_naive(case);
            }
        },
    );
}

#[test]
fn every_domain_is_bit_identical_across_parallelism() {
    run_seeded("every_domain_is_bit_identical_across_parallelism", |seed| {
        for case in &registry(seed, DAYS) {
            check_parallel_bit_identity(case);
        }
    });
}

#[test]
fn every_domain_batched_ingest_matches_oracle() {
    run_seeded("every_domain_batched_ingest_matches_oracle", |seed| {
        for case in &registry(seed, DAYS) {
            check_batched_ingest(case);
        }
    });
}

#[test]
fn every_domain_serve_paths_agree_at_quiescence() {
    run_seeded("every_domain_serve_paths_agree_at_quiescence", |seed| {
        for case in &registry(seed, DAYS) {
            check_serve_paths(case);
        }
    });
}

#[test]
fn every_domain_agrees_across_storage_backends() {
    run_seeded("every_domain_agrees_across_storage_backends", |seed| {
        for case in &registry(seed, DAYS) {
            check_stored_equivalence(case);
        }
    });
}
