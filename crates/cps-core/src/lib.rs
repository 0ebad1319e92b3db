//! # cps-core
//!
//! Core vocabulary types shared by every crate in the *atypical-cps* workspace,
//! a reproduction of Tang et al., *"Multidimensional Analysis of Atypical
//! Events in Cyber-Physical Data"* (ICDE 2012).
//!
//! A cyber-physical system (CPS) is modelled here as a set of fixed
//! [`SensorId`]s that emit one [`RawRecord`] per [`TimeWindow`]. A
//! pre-processing step (the paper's *PR* stage) selects the **atypical**
//! records — windows whose reading violates the application's atypical
//! criterion — and converts each into an [`AtypicalRecord`]
//! `(sensor, window, severity)`, where [`Severity`] is the *atypical
//! duration* inside that window.
//!
//! The crate also defines:
//!
//! * [`Params`] — the five tunables of the paper (`δd`, `δt`, `δs`, `δsim`
//!   and the balance function `g`),
//! * [`BalanceFunction`] — the `g` of Equations (3)/(4),
//! * the measure-classification traits of Gray et al.'s data-cube taxonomy
//!   ([`measure`]), used by the paper's Properties 1, 2 and 4,
//! * a fast non-cryptographic hasher ([`fx`]) used for the hot
//!   sensor/window maps,
//! * [`ScratchDir`] — the one unique-temp-directory helper every test,
//!   example and bench run in the workspace uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod fx;
pub mod ids;
pub mod measure;
pub mod params;
pub mod record;
pub mod scratch;
pub mod severity;
pub mod time;

pub use error::{CpsError, Result};
pub use ids::{ClusterId, DatasetId, RegionId, SensorId};
pub use params::{BalanceFunction, Params};
pub use record::{AtypicalRecord, RawRecord, RecordBatch};
pub use scratch::ScratchDir;
pub use severity::Severity;
pub use time::{TimeRange, TimeWindow, WindowSpec};
