//! # cps-bench
//!
//! The reproduction harness: one module per figure of the paper's
//! evaluation (§V). The `repro` binary drives them
//! (`repro all`, `repro fig17`, …). The monitor's performance is measured
//! by the stand-alone benchmark under `bench/`, not here.
//!
//! | module | paper figure |
//! |---|---|
//! | [`figs::settings`] | Fig. 14 — datasets & parameters |
//! | [`figs::construction`] | Fig. 15 — construction time, Fig. 16 — model size |
//! | [`figs::query_cost`] | Fig. 17 — query time and input clusters |
//! | [`figs::effectiveness`] | Fig. 18 — P/R vs range, Fig. 19 — P/R vs δs |
//! | [`figs::cluster_counts`] | Fig. 20 — #clusters vs δt and δd |
//! | [`figs::balance`] | Fig. 21 — severity of significant clusters vs δsim × g |
//! | [`figs::ablation`] | §V-B text — red-zone filter rate; grid-size ablation |

#![forbid(unsafe_code)]
#![warn(clippy::all)]

pub mod figs;
pub mod forest_bench;
pub mod integrate_bench;
pub mod table;
pub mod workbench;

pub use table::Table;
pub use workbench::{ReproConfig, Workbench};
