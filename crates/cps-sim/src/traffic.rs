//! The traffic generator: plans events per day and renders raw readings.

use crate::config::SimConfig;
use crate::context::{Accident, Weather, WeatherDay};
use crate::events::{hop_distances, EventCause, EventTemplate, PlannedEvent};
use crate::network::build_network;
use cps_core::fx::FxHashMap;
use cps_core::record::{AtypicalCriterion, SpeedThreshold};
use cps_core::{AtypicalRecord, DatasetId, RawRecord, Result, SensorId, TimeWindow};
use cps_geo::RoadNetwork;
use cps_storage::{DatasetMeta, DatasetStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Daily period a hotspot is active in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Period {
    /// Morning rush (seeds 07:00–09:30).
    Am,
    /// Evening rush (seeds 16:00–19:30).
    Pm,
}

/// A recurring congestion site.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Hotspot {
    /// Seed sensor of the recurring events.
    pub sensor: SensorId,
    /// Rush period it fires in.
    pub period: Period,
    /// Strength multiplier on event duration (heterogeneous corridors:
    /// some always make the significant list, some are borderline).
    pub strength: f64,
    /// First day the corridor is active (construction seasons, demand
    /// shifts: corridors are not eternal, which is why a fixed-`δs`
    /// threshold admits fewer clusters as the query range grows).
    pub active_from_day: u32,
    /// Days the corridor stays active.
    pub active_days: u32,
    /// Major corridors jam hard enough to clear Definition 5's
    /// N-proportional bar by themselves; minors only shape the trivia.
    pub major: bool,
    /// Pre-sized diffusion radius (majors only; 0 for minors).
    pub radius_hops: u32,
    /// Pre-sized typical event duration in windows (majors only).
    pub duration_base: u32,
}

/// Everything generated for one day.
#[derive(Clone, Debug)]
pub struct GeneratedDay {
    /// Global day index.
    pub day: u32,
    /// Raw readings: one per (sensor, window).
    pub raw: Vec<RawRecord>,
    /// The day's weather.
    pub weather: WeatherDay,
    /// Accident reports.
    pub accidents: Vec<Accident>,
    /// Events that were planned (ground truth for diagnostics).
    pub planned: Vec<PlannedEvent>,
}

/// A minor recurring congestion site: a merge ramp, lane drop or similar
/// that blips most days around the same time — individually trivial, but
/// the reason most micro-clusters are noise from the analyst's viewpoint.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BackgroundSite {
    /// Location of the recurring blips.
    pub sensor: SensorId,
    /// Preferred minute-of-day the blip starts around.
    pub minute_of_day: u32,
    /// Daily firing probability (before the rate multiplier).
    pub fire_prob: f64,
}

/// Deterministic traffic simulator over a fixed network.
pub struct TrafficSim {
    config: SimConfig,
    network: RoadNetwork,
    hotspots: Vec<Hotspot>,
    background_sites: Vec<BackgroundSite>,
    /// The hot-region sensor set (empty when skew is off): the
    /// `hot_region_ratio` fraction of sensors nearest the deployment
    /// center, so the region is spatially compact.
    hot_sensors: Vec<SensorId>,
}

impl TrafficSim {
    /// Builds the network and picks the recurring hotspots.
    pub fn new(config: SimConfig) -> Self {
        let network = build_network(config.scale, config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x686f_7473_706f_7473);
        // Major corridors live in the metropolitan core (the inner ~half of
        // the extent) — the periphery only sees minor recurring blips, so
        // most micro-clusters end up far from any significant cluster,
        // which is what gives the red-zone filter its ~80 % prune rate.
        let bbox = network.bbox();
        let core = cps_geo::BoundingBox::new(
            bbox.min_lat + 0.18 * (bbox.max_lat - bbox.min_lat),
            bbox.min_lon + 0.18 * (bbox.max_lon - bbox.min_lon),
            bbox.max_lat - 0.18 * (bbox.max_lat - bbox.min_lat),
            bbox.max_lon - 0.18 * (bbox.max_lon - bbox.min_lon),
        );
        // Corridors seed near interchanges (sensors with 3+ road
        // neighbours): real recurring jams radiate from junctions, and the
        // multi-armed reach is what lets a compact corridor cover enough
        // sensors to matter against the N-proportional threshold.
        let core_sensors: Vec<SensorId> = network
            .sensors()
            .iter()
            .filter(|s| core.contains(s.location) && network.road_neighbors(s.id).len() >= 3)
            .map(|s| s.id)
            .collect();
        let n_hotspots = (network.num_sensors() / 55).max(4);
        let mut hotspots: Vec<Hotspot> = Vec::with_capacity(n_hotspots);
        // Keep same-period corridors spatially separated so each stays a
        // distinct cluster (two corridors that touch and jam at the same
        // hours are, analytically, one corridor).
        let min_separation_miles = 15.0;
        let mut attempts = 0;
        while hotspots.len() < n_hotspots && attempts < 20 * n_hotspots {
            attempts += 1;
            let sensor = if core_sensors.is_empty() {
                SensorId::new(rng.gen_range(0..network.num_sensors() as u32))
            } else {
                core_sensors[rng.gen_range(0..core_sensors.len())]
            };
            let period = if hotspots.len().is_multiple_of(2) {
                Period::Am
            } else {
                Period::Pm
            };
            let clash = hotspots.iter().any(|h| {
                h.period == period
                    && network.distance_miles(h.sensor, sensor) < min_separation_miles
            });
            if clash {
                continue;
            }
            // Tiering: two eternal major corridors (one AM, one PM) so
            // every analysis window sees significant structure; a few
            // seasonal majors that come and go (which is what makes
            // significant clusters scarcer as the query range grows); and a
            // tail of minor corridors that populate the trivia.
            let horizon = config.n_datasets * config.days_per_dataset;
            let idx = hotspots.len();
            let (major, strength, active_from_day, active_days) = if idx < 2 {
                (true, rng.gen_range(2.2..2.7), 0, horizon.max(250))
            } else if idx < 5 {
                // Seasonal majors are biased toward the start of the
                // archive so the evaluation's 7–84-day query windows see
                // their rise and fall.
                (
                    true,
                    rng.gen_range(1.8..2.4),
                    rng.gen_range(0..(horizon / 4).max(1)),
                    rng.gen_range(21..=90),
                )
            } else {
                (
                    false,
                    rng.gen_range(0.5..1.9),
                    rng.gen_range(0..horizon.saturating_sub(20).max(1)),
                    rng.gen_range(30..=200),
                )
            };
            // Self-calibrate each major against the deployment: pick the
            // smallest (radius, duration) whose expected severity clears
            // Definition 5's day bar by the corridor's strength-derived
            // margin, assuming ~3.6 atypical minutes per affected
            // sensor-window. This keeps the significant-cluster structure
            // scale-invariant without blowing the 2–5 % atypical budget.
            let (radius_hops, duration_base) = if major {
                let spacing = config.scale.sensor_spacing_miles();
                // Eternal majors are sized comfortably above the day bar;
                // seasonal majors straddle it, so beforehand pruning (Pru)
                // loses some of their days and can miss them entirely.
                let margin = if idx < 2 { 0.85 } else { 0.75 };
                let target_min = 14.4 * network.num_sensors() as f64 * (margin * strength);
                let mut radius = (3.3 / spacing).round().max(3.0) as u32;
                let max_radius = (14.0 / spacing) as u32;
                loop {
                    let star = hop_distances(&network, sensor, radius).len() as f64;
                    let dur = target_min / (star * 3.6);
                    if dur <= 190.0 || radius >= max_radius {
                        break (radius, dur.min(200.0).ceil() as u32);
                    }
                    radius += 2;
                }
            } else {
                (0, 0)
            };
            hotspots.push(Hotspot {
                sensor,
                period,
                strength,
                active_from_day,
                active_days,
                major,
                radius_hops,
                duration_base,
            });
        }
        let n_sites = (network.num_sensors() / 4).max(8);
        let background_sites: Vec<BackgroundSite> = (0..n_sites)
            .map(|_| BackgroundSite {
                sensor: SensorId::new(rng.gen_range(0..network.num_sensors() as u32)),
                minute_of_day: rng.gen_range(360..1320), // 06:00–22:00
                fire_prob: rng.gen_range(0.03..0.25),
            })
            .collect();
        // Deterministic (no RNG draws): the nearest-to-center sensors by
        // squared coordinate distance, so enabling skew cannot perturb the
        // hotspot/background streams above.
        let hot_sensors = if config.hot_region_ratio > 0.0 {
            let k = ((network.num_sensors() as f64 * config.hot_region_ratio).ceil() as usize)
                .clamp(1, network.num_sensors());
            let bbox = network.bbox();
            let (clat, clon) = (
                (bbox.min_lat + bbox.max_lat) / 2.0,
                (bbox.min_lon + bbox.max_lon) / 2.0,
            );
            let mut by_distance: Vec<(f64, SensorId)> = network
                .sensors()
                .iter()
                .map(|s| {
                    let (dlat, dlon) = (s.location.lat - clat, s.location.lon - clon);
                    (dlat * dlat + dlon * dlon, s.id)
                })
                .collect();
            by_distance.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then_with(|| a.1.cmp(&b.1)));
            by_distance.truncate(k);
            by_distance.into_iter().map(|(_, id)| id).collect()
        } else {
            Vec::new()
        };
        Self {
            config,
            network,
            hotspots,
            background_sites,
            hot_sensors,
        }
    }

    /// The underlying road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.network
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The recurring hotspots.
    pub fn hotspots(&self) -> &[Hotspot] {
        &self.hotspots
    }

    /// The minor recurring background sites.
    pub fn background_sites(&self) -> &[BackgroundSite] {
        &self.background_sites
    }

    /// The hot-region sensors (empty when `hot_region_ratio` is 0).
    pub fn hot_sensors(&self) -> &[SensorId] {
        &self.hot_sensors
    }

    /// The congestion criterion matching the generator's speed model.
    pub fn criterion(&self) -> SpeedThreshold {
        SpeedThreshold {
            threshold_mph: self.config.congestion_threshold_mph,
            spec: self.config.spec,
        }
    }

    fn day_rng(&self, day: u32) -> StdRng {
        // Mix day into the seed so each day is independent of generation
        // order (splitmix-style finalizer).
        let mut z = self
            .config
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(day) + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Separate stream for the hot-region skew: the base day's draws are
    /// untouched whether or not skew is on.
    fn hot_rng(&self, day: u32) -> StdRng {
        let mut z = (self.config.seed ^ 0x686f_745f_7265_6769)
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(day) + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Separate stream for the diurnal burst curve, for the same reason.
    fn burst_rng(&self, day: u32) -> StdRng {
        let mut z = (self.config.seed ^ 0x6275_7273_745f_6376)
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(day) + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Generates one day of readings, events and context, deterministically.
    pub fn generate_day(&self, day: u32) -> GeneratedDay {
        let mut rng = self.day_rng(day);
        let spec = self.config.spec;
        let wpd = spec.windows_per_day();
        let day_start = day * wpd;
        let weekend = spec.is_weekend(TimeWindow::new(day_start));

        let weather = {
            let x: f64 = rng.gen();
            if x < 0.70 {
                Weather::Clear
            } else if x < 0.95 {
                Weather::Rain
            } else {
                Weather::Storm
            }
        };

        let mut planned = Vec::new();
        let mut accidents = Vec::new();

        // Recurring hotspots.
        let base_prob = if weekend {
            self.config.hotspot_weekend_prob
        } else {
            self.config.hotspot_weekday_prob
        };
        let fire_prob = (base_prob * weather.event_rate_multiplier()).min(0.95);
        for (i, h) in self.hotspots.iter().enumerate() {
            let active = day >= h.active_from_day && day < h.active_from_day + h.active_days;
            if !active || rng.gen::<f64>() >= fire_prob {
                continue;
            }
            let minute = match h.period {
                Period::Am => rng.gen_range(420..=570),  // 07:00–09:30
                Period::Pm => rng.gen_range(960..=1170), // 16:00–19:30
            };
            // Majors replay their pre-calibrated (radius, duration) with
            // daily jitter; minors are transient strength-scaled blips.
            let spacing = self.config.scale.sensor_spacing_miles();
            let (duration, radius, intensity, sustain) = if h.major {
                // Eternal majors (first two) jam consistently; seasonal
                // majors alternate light and heavy days — their aggregate
                // clears Definition 5 while many individual days do not,
                // which is exactly the cluster shape beforehand pruning
                // (Pru) cannot reconstruct.
                let jitter = if i < 2 {
                    rng.gen_range(0.7..1.35)
                } else if rng.gen::<f64>() < 0.5 {
                    0.5 * rng.gen_range(0.85..1.15)
                } else {
                    1.6 * rng.gen_range(0.85..1.15)
                };
                let mut d = f64::from(h.duration_base) * jitter;
                if rng.gen::<f64>() < 0.15 {
                    d *= 1.5; // occasional monster jam
                }
                (
                    d,
                    rng.gen_range(h.radius_hops..=h.radius_hops + 2),
                    rng.gen_range(0.93..0.99),
                    0.85,
                )
            } else {
                let lo = ((1.2 + 0.8 * h.strength) / spacing).round().max(2.0) as u32;
                (
                    rng.gen_range(30..=110) as f64 * h.strength,
                    rng.gen_range(lo..=lo + 2),
                    rng.gen_range(0.8..0.95),
                    0.5,
                )
            };
            let duration = duration * weather.duration_multiplier();
            planned.push(PlannedEvent {
                template: self.clamped_template(
                    h.sensor,
                    day_start + minute / spec.window_minutes,
                    duration as u32,
                    radius,
                    intensity,
                    sustain,
                    day_start + wpd,
                ),
                cause: EventCause::Hotspot(i as u32),
            });
        }

        // Minor recurring background sites: individually trivial blips
        // around a site-specific clock time.
        for site in &self.background_sites {
            let p = (site.fire_prob * self.config.background_rate).min(0.9);
            if rng.gen::<f64>() >= p {
                continue;
            }
            let minute = (site.minute_of_day as i64 + rng.gen_range(-25..=25)).max(0) as u32;
            let start = (day_start + minute / spec.window_minutes).min(day_start + wpd - 4);
            planned.push(PlannedEvent {
                template: self.clamped_template(
                    site.sensor,
                    start,
                    rng.gen_range(2..=6),
                    rng.gen_range(1..=3),
                    rng.gen_range(0.45..0.8),
                    0.2,
                    day_start + wpd,
                ),
                cause: EventCause::Background,
            });
        }

        // Accidents.
        let lambda = self.network.num_sensors() as f64 / 400.0 * self.config.accident_rate;
        for _ in 0..poisson(&mut rng, lambda) {
            let sensor = SensorId::new(rng.gen_range(0..self.network.num_sensors() as u32));
            let start = day_start + rng.gen_range(0..wpd.saturating_sub(24));
            let grade = rng.gen_range(1..=3u8);
            accidents.push(Accident {
                sensor,
                window: TimeWindow::new(start),
                grade,
            });
            planned.push(PlannedEvent {
                template: self.clamped_template(
                    sensor,
                    start,
                    rng.gen_range(6..=18) * u32::from(grade),
                    1 + u32::from(grade),
                    0.75 + 0.08 * f64::from(grade),
                    0.3,
                    day_start + wpd,
                ),
                cause: EventCause::Accident,
            });
        }

        // Hot-region skew (off by default): extra transient events seeded
        // inside the compact hot set, from a dedicated RNG stream. With
        // the mode off this block draws nothing, so the default archive
        // is bit-identical to one generated before the knob existed.
        if !self.hot_sensors.is_empty() && self.config.hot_region_share > 0.0 {
            let mut hot_rng = self.hot_rng(day);
            let extra =
                ((planned.len() as f64 * self.config.hot_region_share).ceil() as usize).max(1);
            for _ in 0..extra {
                let sensor = self.hot_sensors[hot_rng.gen_range(0..self.hot_sensors.len())];
                let minute = hot_rng.gen_range(300..1380); // 05:00–23:00
                let start = (day_start + minute / spec.window_minutes).min(day_start + wpd - 4);
                planned.push(PlannedEvent {
                    template: self.clamped_template(
                        sensor,
                        start,
                        hot_rng.gen_range(4..=12),
                        hot_rng.gen_range(1..=3),
                        hot_rng.gen_range(0.6..0.9),
                        0.35,
                        day_start + wpd,
                    ),
                    cause: EventCause::HotRegion,
                });
            }
        }

        // Diurnal burst curve (off by default): extra transient events
        // whose hourly Poisson rate follows the weekday/peak-hour shape
        // ported from security-log traffic — weekday baseline, quieter
        // weekends, a 09:00–16:00 business-hours peak. Like the
        // hot-region skew it draws from a dedicated stream, so enabling
        // it only appends events to an otherwise unchanged day.
        if self.config.burst_rate > 0.0 {
            let mut burst_rng = self.burst_rng(day);
            let day_mult = burst_day_multiplier(day);
            for hour in 0..24u32 {
                let lambda = self.config.burst_rate * day_mult * burst_hour_multiplier(hour);
                for _ in 0..poisson(&mut burst_rng, lambda) {
                    let sensor =
                        SensorId::new(burst_rng.gen_range(0..self.network.num_sensors() as u32));
                    let minute = hour * 60 + burst_rng.gen_range(0..60);
                    let start = (day_start + minute / spec.window_minutes).min(day_start + wpd - 4);
                    planned.push(PlannedEvent {
                        template: self.clamped_template(
                            sensor,
                            start,
                            burst_rng.gen_range(3..=10),
                            burst_rng.gen_range(1..=2),
                            burst_rng.gen_range(0.55..0.85),
                            0.3,
                            day_start + wpd,
                        ),
                        cause: EventCause::Burst,
                    });
                }
            }
        }

        // Overlay event impacts (max wins where events overlap).
        let mut impact: FxHashMap<(SensorId, TimeWindow), f64> = FxHashMap::default();
        for ev in &planned {
            for (key, v) in ev.template.impact(&self.network) {
                let slot = impact.entry(key).or_insert(0.0);
                if v > *slot {
                    *slot = v;
                }
            }
        }

        // Render raw readings: every sensor reports every window.
        let threshold = f64::from(self.config.congestion_threshold_mph);
        let freeflow = f64::from(self.config.freeflow_mph);
        let n_sensors = self.network.num_sensors() as u32;
        let mut raw = Vec::with_capacity((n_sensors * wpd) as usize);
        for sensor_raw in 0..n_sensors {
            let sensor = SensorId::new(sensor_raw);
            for w in day_start..day_start + wpd {
                let window = TimeWindow::new(w);
                let speed = if let Some(&i) = impact.get(&(sensor, window)) {
                    // Congested: speed proportional to (1 − intensity) of the
                    // threshold, with jitter.
                    (threshold * (1.0 - i) * rng.gen_range(0.88..1.02)).max(2.0)
                } else if rng.gen::<f64>() < self.config.noise_dip_prob {
                    // Isolated sensor glitch / brief slowdown.
                    rng.gen_range(0.55..0.97) * threshold
                } else {
                    (freeflow + rng.gen_range(-7.0..7.0)).max(threshold + 2.0)
                };
                let congestion = ((threshold - speed) / threshold).clamp(0.0, 1.0);
                let flow =
                    (40.0 + 80.0 * (1.0 - congestion) + rng.gen_range(-8.0..8.0)).max(1.0) as u16;
                let occupancy =
                    ((120.0 + 700.0 * congestion) * rng.gen_range(0.9..1.1)).min(1000.0) as u16;
                raw.push(RawRecord::new(
                    sensor,
                    window,
                    speed as f32,
                    flow,
                    occupancy,
                ));
            }
        }

        GeneratedDay {
            day,
            raw,
            weather: WeatherDay { day, weather },
            accidents,
            planned,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn clamped_template(
        &self,
        sensor: SensorId,
        start: u32,
        duration: u32,
        radius: u32,
        intensity: f64,
        sustain: f64,
        day_end: u32,
    ) -> EventTemplate {
        let duration = duration.clamp(2, day_end.saturating_sub(start).max(2));
        EventTemplate {
            seed_sensor: sensor,
            start_window: TimeWindow::new(start),
            duration_windows: duration,
            peak_radius_hops: radius,
            peak_intensity: intensity,
            sustain,
        }
    }

    /// Generates and pre-processes one day directly to atypical records
    /// (in-memory path used by tests and Criterion benches).
    pub fn atypical_day(&self, day: u32) -> Vec<AtypicalRecord> {
        let generated = self.generate_day(day);
        let criterion = self.criterion();
        generated
            .raw
            .iter()
            .filter_map(|r| {
                criterion
                    .classify(r)
                    .map(|sev| AtypicalRecord::new(r.sensor, r.window, sev))
            })
            .collect()
    }

    /// Renders the whole archive to a [`DatasetStore`]: raw and atypical
    /// partitions per day plus catalog metadata and context logs.
    pub fn write_store(&self, root: &Path) -> Result<DatasetStore> {
        let mut store = DatasetStore::create(root, self.config.spec)?;
        let criterion = self.criterion();
        for m in 0..self.config.n_datasets {
            let id = DatasetId::new(m + 1);
            let first_day = m * self.config.days_per_dataset;
            let mut n_raw = 0u64;
            let mut n_atypical = 0u64;
            let mut weather_log = Vec::new();
            let mut accident_log = Vec::new();
            for local in 0..self.config.days_per_dataset {
                let day = first_day + local;
                let generated = self.generate_day(day);
                let mut rw = store.raw_writer(id, local)?;
                let mut aw = store.atypical_writer(id, local)?;
                for r in &generated.raw {
                    rw.write_raw(r)?;
                    if let Some(sev) = criterion.classify(r) {
                        aw.write_atypical(&AtypicalRecord::new(r.sensor, r.window, sev))?;
                    }
                }
                n_raw += rw.finish()?;
                n_atypical += aw.finish()?;
                weather_log.push(generated.weather);
                accident_log.extend(generated.accidents);
            }
            store.register_dataset(DatasetMeta {
                id,
                name: format!("Month {}", m + 1),
                first_day,
                n_days: self.config.days_per_dataset,
                n_sensors: self.network.num_sensors() as u32,
                n_raw_records: n_raw,
                n_atypical_records: n_atypical,
            })?;
            let context = ContextLog {
                weather: weather_log,
                accidents: accident_log,
            };
            let text = serde_json::to_string(&context).expect("context log serializes");
            std::fs::write(root.join(format!("context-{id}.json")), text)?;
        }
        Ok(store)
    }
}

impl crate::source::Source for TrafficSim {
    fn domain(&self) -> crate::source::Domain {
        crate::source::Domain::Traffic
    }

    fn config(&self) -> &SimConfig {
        &self.config
    }

    fn network(&self) -> &RoadNetwork {
        &self.network
    }

    fn criterion(&self) -> SpeedThreshold {
        TrafficSim::criterion(self)
    }

    /// The inherent [`TrafficSim::generate_day`] converted to the
    /// domain-agnostic form: the weather becomes a day-level context
    /// label, accidents become point annotations. The raw readings are
    /// bit-identical to the inherent path.
    fn generate_day(&self, day: u32) -> crate::source::SourceDay {
        use crate::source::{ContextEvent, ContextKind};
        let generated = TrafficSim::generate_day(self, day);
        let day_start = day * self.config.spec.windows_per_day();
        let mut context = vec![ContextEvent {
            kind: ContextKind::Day,
            sensor: SensorId::new(0),
            window: TimeWindow::new(day_start),
            grade: match generated.weather.weather {
                Weather::Clear => 1,
                Weather::Rain => 2,
                Weather::Storm => 3,
            },
            label: format!("Weather:{}", generated.weather.weather.label()),
        }];
        context.extend(generated.accidents.iter().map(|a| ContextEvent {
            kind: ContextKind::Point,
            sensor: a.sensor,
            window: a.window,
            grade: a.grade,
            label: "Accident".to_string(),
        }));
        crate::source::SourceDay {
            day,
            raw: generated.raw,
            context,
        }
    }

    /// Keeps the traffic-specific store layout (per-dataset
    /// [`ContextLog`] files) that the figure reproductions consume.
    fn write_store(&self, root: &Path) -> Result<DatasetStore> {
        TrafficSim::write_store(self, root)
    }
}

/// Persisted per-dataset context log.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ContextLog {
    /// One entry per day.
    pub weather: Vec<WeatherDay>,
    /// All accident reports in the dataset.
    pub accidents: Vec<Accident>,
}

impl ContextLog {
    /// Loads the context log for a dataset from a store root.
    pub fn load(root: &Path, id: DatasetId) -> Result<ContextLog> {
        let text = std::fs::read_to_string(root.join(format!("context-{id}.json")))?;
        serde_json::from_str(&text)
            .map_err(|e| cps_core::CpsError::corrupt("context log", e.to_string()))
    }
}

/// Weekly multiplier of the burst-rate curve for a global day index
/// (day 0 is a Monday, matching [`cps_core::WindowSpec`]'s epoch):
/// weekdays carry the full rate, weekends 60 % of it.
pub fn burst_day_multiplier(day: u32) -> f64 {
    if day % 7 >= 5 {
        0.6
    } else {
        1.0
    }
}

/// Diurnal multiplier of the burst-rate curve: the 09:00–15:59
/// business-hours peak runs 40 % hot, every other hour at baseline.
pub fn burst_hour_multiplier(hour: u32) -> f64 {
    if (9..16).contains(&hour) {
        1.4
    } else {
        1.0
    }
}

/// Knuth Poisson sampler (fine for the small rates used here).
fn poisson(rng: &mut StdRng, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // safety valve; unreachable for sane λ
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use cps_core::ScratchDir;

    fn sim() -> TrafficSim {
        TrafficSim::new(SimConfig::new(Scale::Tiny, 42))
    }

    #[test]
    fn day_generation_is_deterministic() {
        let s = sim();
        let a = s.generate_day(3);
        let b = s.generate_day(3);
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.planned, b.planned);
        assert_eq!(a.weather, b.weather);
    }

    #[test]
    fn every_sensor_reports_every_window() {
        let s = sim();
        let day = s.generate_day(0);
        let expected = s.network().num_sensors() * s.config().spec.windows_per_day() as usize;
        assert_eq!(day.raw.len(), expected);
    }

    #[test]
    fn atypical_fraction_in_paper_band() {
        let s = sim();
        let mut raw = 0usize;
        let mut atypical = 0usize;
        for day in 0..5 {
            let g = s.generate_day(day);
            raw += g.raw.len();
            atypical += s.atypical_day(day).len();
        }
        let frac = atypical as f64 / raw as f64;
        // Figure 14 reports ~2.3 % to ~4 %; allow a wider tolerance band
        // (the tiny test network concentrates the corridors).
        assert!(
            (0.01..=0.12).contains(&frac),
            "atypical fraction {frac:.4} outside band"
        );
    }

    #[test]
    fn weekdays_are_busier_than_weekends() {
        let s = sim();
        // Days 0–4 are weekdays, 5–6 weekend (epoch is a Monday).
        let weekday: usize = (0..5).map(|d| s.atypical_day(d).len()).sum();
        let weekend: usize = (5..7).map(|d| s.atypical_day(d).len()).sum();
        let weekday_rate = weekday as f64 / 5.0;
        let weekend_rate = weekend as f64 / 2.0;
        assert!(
            weekday_rate > weekend_rate,
            "weekday {weekday_rate} vs weekend {weekend_rate}"
        );
    }

    #[test]
    fn hotspots_recur_across_weekdays() {
        let s = sim();
        let hotspot = s.hotspots()[0].sensor;
        let days_fired = (0..10)
            .filter(|&d| {
                s.generate_day(d)
                    .planned
                    .iter()
                    .any(|e| e.cause == EventCause::Hotspot(0) && e.template.seed_sensor == hotspot)
            })
            .count();
        assert!(days_fired >= 4, "hotspot fired only {days_fired}/10 days");
    }

    #[test]
    fn am_hotspots_seed_in_the_morning() {
        let s = sim();
        let spec = s.config().spec;
        for day in 0..10 {
            for ev in s.generate_day(day).planned {
                if let EventCause::Hotspot(i) = ev.cause {
                    let hour = spec.hour_of_day(ev.template.start_window);
                    match s.hotspots()[i as usize].period {
                        Period::Am => assert!((7..=9).contains(&hour), "AM at {hour}h"),
                        Period::Pm => assert!((16..=19).contains(&hour), "PM at {hour}h"),
                    }
                }
            }
        }
    }

    #[test]
    fn events_make_congested_sensors_slow() {
        let s = sim();
        let g = s.generate_day(0);
        let Some(ev) = g.planned.first() else {
            return;
        };
        let peak =
            TimeWindow::new(ev.template.start_window.raw() + ev.template.duration_windows / 2);
        let seed_speed = g
            .raw
            .iter()
            .find(|r| r.sensor == ev.template.seed_sensor && r.window == peak)
            .unwrap()
            .speed_mph;
        assert!(
            seed_speed < s.config().congestion_threshold_mph,
            "seed at peak must be congested, got {seed_speed}"
        );
    }

    #[test]
    fn write_store_roundtrip() {
        let root = ScratchDir::new("sim-store");
        let config = SimConfig::new(Scale::Tiny, 7)
            .with_datasets(2)
            .with_days_per_dataset(3);
        let s = TrafficSim::new(config);
        let store = s.write_store(&root).unwrap();
        assert_eq!(store.catalog().datasets.len(), 2);
        assert_eq!(store.catalog().total_days(), 6);
        assert!(store.catalog().total_atypical_records() > 0);
        // Atypical partitions decode to the same records as the in-memory path.
        let stats = cps_storage::IoStats::shared();
        let from_disk: Vec<AtypicalRecord> = store
            .scan_atypical(DatasetId::new(1), stats)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let in_memory: Vec<AtypicalRecord> = (0..3).flat_map(|d| s.atypical_day(d)).collect();
        assert_eq!(from_disk, in_memory);
        // Context logs exist and parse.
        let ctx = ContextLog::load(&root, DatasetId::new(1)).unwrap();
        assert_eq!(ctx.weather.len(), 3);
    }

    #[test]
    fn zero_hot_region_is_bit_identical_to_default() {
        let plain = TrafficSim::new(SimConfig::new(Scale::Tiny, 42));
        let zeroed = TrafficSim::new(SimConfig::new(Scale::Tiny, 42).with_hot_region(0.0, 0.0));
        assert!(zeroed.hot_sensors().is_empty());
        for day in 0..3 {
            let a = plain.generate_day(day);
            let b = zeroed.generate_day(day);
            assert_eq!(a.raw, b.raw);
            assert_eq!(a.planned, b.planned);
        }
    }

    #[test]
    fn hot_region_skew_concentrates_events() {
        let config = SimConfig::new(Scale::Tiny, 42).with_hot_region(0.15, 0.8);
        let s = TrafficSim::new(config);
        let hot: std::collections::HashSet<SensorId> = s.hot_sensors().iter().copied().collect();
        assert!(!hot.is_empty());
        assert!(hot.len() <= (s.network().num_sensors() as f64 * 0.15).ceil() as usize);
        let (mut injected, mut in_hot) = (0usize, 0usize);
        for day in 0..5 {
            for ev in s.generate_day(day).planned {
                if ev.cause == EventCause::HotRegion {
                    injected += 1;
                    if hot.contains(&ev.template.seed_sensor) {
                        in_hot += 1;
                    }
                }
            }
        }
        assert!(injected > 0, "skew mode planned no extra events");
        assert_eq!(
            in_hot, injected,
            "every injected event seeds in the hot set"
        );
    }

    #[test]
    fn hot_region_leaves_base_planned_events_unchanged() {
        let plain = TrafficSim::new(SimConfig::new(Scale::Tiny, 42));
        let skewed = TrafficSim::new(SimConfig::new(Scale::Tiny, 42).with_hot_region(0.2, 0.5));
        for day in 0..3 {
            let base = plain.generate_day(day).planned;
            let with_skew: Vec<PlannedEvent> = skewed
                .generate_day(day)
                .planned
                .into_iter()
                .filter(|e| e.cause != EventCause::HotRegion)
                .collect();
            assert_eq!(base, with_skew, "skew only appends events");
        }
    }

    #[test]
    fn zero_burst_rate_is_bit_identical_to_default() {
        let plain = TrafficSim::new(SimConfig::new(Scale::Tiny, 42));
        let zeroed = TrafficSim::new(SimConfig::new(Scale::Tiny, 42).with_burst_rate(0.0));
        for day in 0..3 {
            let a = plain.generate_day(day);
            let b = zeroed.generate_day(day);
            assert_eq!(a.raw, b.raw);
            assert_eq!(a.planned, b.planned);
        }
    }

    #[test]
    fn burst_curve_leaves_base_planned_events_unchanged() {
        let plain = TrafficSim::new(SimConfig::new(Scale::Tiny, 42));
        let bursty = TrafficSim::new(SimConfig::new(Scale::Tiny, 42).with_burst_rate(2.0));
        for day in 0..3 {
            let base = plain.generate_day(day).planned;
            let with_bursts: Vec<PlannedEvent> = bursty
                .generate_day(day)
                .planned
                .into_iter()
                .filter(|e| e.cause != EventCause::Burst)
                .collect();
            assert_eq!(base, with_bursts, "the curve only appends events");
        }
    }

    /// The curve's rate integral: over two weeks, the planned burst-event
    /// count must match `rate × Σ_days day_mult × Σ_hours hour_mult`
    /// analytically (within Poisson noise), the weekend days must run at
    /// 60 % of the weekday rate, and the 09:00–16:00 peak must hold its
    /// `7×1.4 / 26.8` share of each day's mass.
    #[test]
    fn burst_curve_rate_integral_matches_expected_counts() {
        let rate = 3.0;
        let s = TrafficSim::new(SimConfig::new(Scale::Tiny, 42).with_burst_rate(rate));
        let spec = s.config().spec;
        let days = 14u32;
        let hours_integral: f64 = (0..24).map(burst_hour_multiplier).sum(); // 26.8
        assert!((hours_integral - 26.8).abs() < 1e-9);

        let (mut total, mut weekday, mut weekend, mut peak) = (0usize, 0usize, 0usize, 0usize);
        for day in 0..days {
            for ev in s.generate_day(day).planned {
                if ev.cause != EventCause::Burst {
                    continue;
                }
                total += 1;
                if burst_day_multiplier(day) < 1.0 {
                    weekend += 1;
                } else {
                    weekday += 1;
                }
                if (9..16).contains(&spec.hour_of_day(ev.template.start_window)) {
                    peak += 1;
                }
            }
        }
        let expected: f64 = (0..days)
            .map(|d| rate * burst_day_multiplier(d) * hours_integral)
            .sum();
        // 14 days at rate 3 expect ~997 events, σ ≈ 32: ±10 % is > 3σ.
        assert!(
            (total as f64 - expected).abs() <= 0.10 * expected,
            "integral off: {total} events vs expected {expected:.0}"
        );
        // 10 weekdays at full rate vs 4 weekend days at 0.6.
        let ratio = (weekend as f64 / 4.0) / (weekday as f64 / 10.0);
        assert!(
            (0.45..=0.75).contains(&ratio),
            "weekend/weekday rate ratio {ratio:.2} outside the 0.6 curve"
        );
        // Peak share of a day's mass: 7×1.4 / 26.8 ≈ 36.6 %.
        let peak_share = peak as f64 / total as f64;
        assert!(
            (0.30..=0.44).contains(&peak_share),
            "peak-hour share {peak_share:.3} off the curve"
        );
    }

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 2000;
        let total: u32 = (0..n).map(|_| poisson(&mut rng, 3.0)).sum();
        let mean = f64::from(total) / f64::from(n);
        assert!((2.7..3.3).contains(&mean), "mean {mean}");
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }
}
