//! # cps-sim
//!
//! Synthetic CPS workload generators — one per event-source **domain**,
//! all behind the [`Source`] trait.
//!
//! The paper's algorithms consume nothing but atypical records
//! `(sensor, window, severity)` plus a sensor topology, so the generator
//! layer is pluggable: a [`Source`] is any deterministic generator of
//! daily raw readings over a road-network topology, and every registered
//! domain is held to the identical invariant matrix by the cross-domain
//! conformance suite in cps-testkit. Day `d` is always generated from
//! `hash(seed, d)` ([`source::day_stream_rng`]) so archives are
//! reproducible and order-independent — the determinism contract the
//! monitor's `--recover` replay feed depends on.
//!
//! ## Domain catalog
//!
//! | [`Domain`] | module | sensors are | atypical when |
//! |------------|--------|-------------|---------------|
//! | `traffic` | [`traffic`] | freeway loop detectors | mean speed < 40 mph |
//! | `audit` | [`audit`] | cloud service actors | API success level < 40 |
//! | `infrastructure` | [`infra`] | pumps/valves/circuits | operating margin < 40 |
//! | `battlefield` | [`battlefield`] | acoustic field sensors | quietness < 40 |
//!
//! **Traffic** (the paper's evaluation domain) substitutes the twelve
//! months of PeMS loop-detector data (LA/Ventura, ~4,000 sensors, 428 M
//! records, 54 GB) with a generator reproducing the statistical
//! structure the algorithms are sensitive to: congestion events that
//! seed at recurring hotspots, diffuse along the road graph, peak and
//! dissolve; AM/PM rush-hour seasonality (the Figure 7 scenario);
//! heavy-tailed event sizes so only 0.1–0.5 % of integrated
//! macro-clusters are *significant*; 2–5 % atypical records overall
//! (Figure 14); and weather/accident context streams for §V-D.
//!
//! **Audit** generates a cloud security audit stream: actors-as-sensors
//! grouped into teams and regions, hot-actor incident skew, bursty
//! error-rate anomalies on the security-log diurnal/weekly curve, a
//! curated event catalog for context labels, and recurring region-wide
//! platform outages as the significant structure.
//!
//! **Infrastructure** generates plant telemetry: pump/valve/power-circuit
//! chains crossing at site centers, *coordinated discontinuities* (sharp
//! simultaneous steps across co-located devices), a recurring peak-load
//! power sag at the main plant, and heatwave day labels.
//!
//! **Battlefield** exercises the pipeline on moving events: intrusions
//! that walk across an acoustic sensor lattice instead of growing and
//! shrinking in place (§I, §VII of the paper).
//!
//! ## Quickstart, per domain
//!
//! ```no_run
//! use cps_sim::{build_source, Domain, Scale, SimConfig, SourceConfig};
//!
//! // Traffic is the default domain:
//! let traffic = build_source(SimConfig::new(Scale::Tiny, 42));
//! let day = traffic.generate_day(0);
//! assert_eq!(day.raw.len(), traffic.network().num_sensors() * 288);
//!
//! // Any other registered domain, by name or enum:
//! let audit = build_source(SimConfig::new(Scale::Tiny, 42).with_domain(Domain::Audit));
//! let records = audit.atypical_day(0); // pre-processed (s, t, f(s,t))
//!
//! // Per-domain knobs ride in the `[source]` config section:
//! let mut knobs = SourceConfig::for_domain(Domain::Audit);
//! knobs.hot_actor_share = 0.8;
//! let skewed = build_source(SimConfig::new(Scale::Tiny, 42).with_source(knobs));
//! # let _ = (day, records, skewed);
//! ```
//!
//! Adding a domain: implement [`Source`], add a [`Domain`] variant and a
//! [`build_source`] arm — the conformance suite picks it up from
//! [`Domain::ALL`] and holds it to the full proof matrix (Properties
//! 2–5, cube-vs-clusters, indexed-vs-naive and parallel bit-identity,
//! batched-ingest and serve differentials) for free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod audit;
pub mod battlefield;
pub mod config;
pub mod context;
pub mod events;
pub mod infra;
pub mod network;
pub mod source;
pub mod traffic;

pub use audit::AuditSim;
pub use battlefield::BattlefieldSim;
pub use config::{Scale, SimConfig, SourceConfig};
pub use context::{Accident, Weather, WeatherDay};
pub use events::{EventTemplate, PlannedEvent};
pub use infra::InfraSim;
pub use source::{
    build_source, load_context_events, ContextEvent, ContextKind, Domain, Source, SourceDay,
};
pub use traffic::{GeneratedDay, TrafficSim};
