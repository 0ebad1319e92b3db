//! Monitor configuration, loadable from a small TOML subset.
//!
//! The accepted grammar is flat `key = value` lines under optional
//! `[section]` headers — enough for deployment configs without an external
//! TOML dependency. Every key is declared once, in `KEYS`:
//!
//! ```toml
//! shards = 4
//! channel_capacity = 4096
//! overflow = "block"          # or "drop"
//! delta_t_minutes = 15        # seal policy: gap after which events seal
//! min_event_records = 2       # seal policy: trust filter
//! delta_d_miles = 1.5         # δd: distance within which records relate
//! delta_s = 0.05              # δs: significance threshold (Definition 5)
//! delta_sim = 0.5             # δsim: macro-cluster merge threshold
//! parallelism = 0             # forest-snapshot workers: 0 = all cores,
//!                             # 1 = sequential; output identical either way
//! window_minutes = 5          # window length; must divide 60
//! red_cell_miles = 2.0
//! snapshot_dir = "/var/lib/cps-monitor"   # day buckets, written as columnar .acs
//! rebalance_interval_records = 0  # adaptive shard rebalancing: records
//!                                 # between load checks; 0 = off (default)
//! rebalance_skew = 1.5            # rebalance when max/mean shard load
//!                                 # exceeds this ratio (must be > 1)
//!
//! [replay]
//! scale = "small"
//! seed = 42
//! days = 1
//!
//! [source]
//! domain = "traffic"          # "traffic" | "audit" | "infrastructure"
//!                             # | "battlefield"
//! # Audit-only knobs:
//! actor_count = 0             # 0 = derive from the scale
//! hot_actor_ratio = 0.12
//! hot_actor_share = 0.6
//! incident_rate = 1.0
//! # Infrastructure-only knobs:
//! sites = 0                   # 0 = derive from the scale
//! fault_rate = 1.0
//! cascade_share = 0.8
//!
//! [admission]
//! shed = false                # overload shedding: on a full shard
//!                             # channel, shed (oldest-window-first) and
//!                             # count instead of blocking; never silent
//! quarantine = false          # divert malformed / out-of-order /
//!                             # duplicate records to the dead-letter
//!                             # buffer instead of failing ingest
//! order_tolerance_windows = 0 # regressions of at most this many windows
//!                             # keep the typed error (a feed bug);
//!                             # anything older is diverted
//! dedup = false               # divert same-(sensor, window) repeats
//!                             # within the current window
//! quarantine_capacity = 4096  # dead-letter buffer entries kept for
//!                             # inspection (counters are never capped)
//!
//! [durability]
//! wal_dir = "/var/lib/cps-monitor/wal"
//! fsync = "group"             # "always" | "never" | "group"
//! group_commit_records = 256  # fsync cadence under "group"
//! checkpoint_interval_records = 50000   # 0 = never checkpoint
//! respawn_budget = 3          # worker respawns per shard; 0 = off
//! segment_bytes = 4194304     # WAL segment rotation size
//! retry_attempts = 1          # I/O attempts per op (1 = no retry)
//! retry_base_ms = 1           # backoff before the first retry
//! retry_max_ms = 100          # backoff ceiling per sleep
//! retry_jitter_seed = 0       # deterministic backoff jitter stream
//!
//! [serving]
//! publish_every_clusters = 1  # snapshot cadence in finalized clusters
//! publish_every_windows = 1   # snapshot cadence in window advances
//! cache_capacity = 4096       # result-cache entries
//! ```

use cps_core::{Params, WindowSpec};
use cps_sim::{Domain, SourceConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// What `ingest_batch` does when a shard's channel is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the producer until the worker catches up (backpressure).
    Block,
    /// Drop the shard's sub-batch and count its records in the metrics.
    Drop,
}

/// Kill one shard's worker thread after it has processed a fixed number
/// of records (deterministic: the count is per-shard, not global). The
/// count is per worker incarnation: with supervision on, each respawned
/// worker dies again after `after_records` more records, so a long
/// enough feed deterministically exhausts any respawn budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerKill {
    /// Shard whose worker dies.
    pub shard: usize,
    /// Records the worker processes before exiting.
    pub after_records: u64,
}

/// Deterministically drop a contiguous burst of ingested records,
/// regardless of channel occupancy — simulates a sustained overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DropBurst {
    /// Zero-based index (in ingest order) of the first dropped record.
    pub at_record: u64,
    /// Number of consecutive records dropped.
    pub len: u64,
}

/// Deterministic fault hooks for the test harness.
///
/// Defaults to no faults and is not part of the TOML config surface: the
/// hooks exist so `cps-testkit` can exercise worker death, drop
/// accounting, and scheduling perturbation without nondeterministic
/// thread timing. Production configs never set these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Kill one worker mid-stream.
    pub kill_worker: Option<WorkerKill>,
    /// Drop a contiguous burst of records at ingest.
    pub drop_burst: Option<DropBurst>,
    /// Seed for per-worker scheduling jitter (tiny random sleeps) so a
    /// seeded test can perturb worker/merger interleaving reproducibly.
    pub jitter_seed: Option<u64>,
}

/// Ingest admission control: overload shedding and the quarantine
/// (dead-letter) channel. Both default off — the monitor then keeps its
/// strict fail-fast behavior. Nothing here is ever silent: every shed or
/// diverted record is counted, so
/// `ingested + shed + quarantined == offered` holds exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Shed instead of blocking when a shard channel is full (requires
    /// `overflow = "block"`): the oldest-window records of the pending
    /// sub-batch are dropped first and counted per shard.
    pub shed: bool,
    /// Divert malformed (unknown sensor), out-of-order-beyond-tolerance,
    /// and (with [`Self::dedup`]) duplicate records into the dead-letter
    /// buffer with a typed reason, instead of failing ingest.
    pub quarantine: bool,
    /// A window regression of at most this many windows keeps the
    /// existing typed `OutOfOrder` error (inside the tolerance the feed
    /// promised, a regression is an upstream bug worth failing fast on);
    /// older records are presumed stale replays and diverted. Only
    /// meaningful with [`Self::quarantine`] on.
    pub order_tolerance_windows: u32,
    /// Divert a second record for the same `(sensor, window)` arriving
    /// within the current window. Requires [`Self::quarantine`].
    pub dedup: bool,
    /// Dead-letter entries retained for inspection; older entries are
    /// evicted (their counters remain — accounting is never capped).
    pub quarantine_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            shed: false,
            quarantine: false,
            order_tolerance_windows: 0,
            dedup: false,
            quarantine_capacity: 4096,
        }
    }
}

impl AdmissionConfig {
    fn validate(&self) -> Result<(), String> {
        if self.quarantine_capacity == 0 {
            return Err("admission.quarantine_capacity must be at least 1".to_string());
        }
        if !self.quarantine {
            if self.order_tolerance_windows > 0 {
                return Err(
                    "admission.order_tolerance_windows requires admission.quarantine".to_string(),
                );
            }
            if self.dedup {
                return Err("admission.dedup requires admission.quarantine".to_string());
            }
        }
        Ok(())
    }
}

/// When WAL appends reach durable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync every append — no accepted record is ever lost, slowest.
    Always,
    /// Never fsync — the OS decides; a power cut may lose the unsynced
    /// tail (a process crash loses nothing).
    Never,
    /// Group commit: fsync every
    /// [`DurabilityConfig::group_commit_records`] appends.
    Group,
}

/// Durability knobs: the ingest WAL, periodic checkpoints, and shard
/// worker supervision. All default off (`wal_dir = None`) — the monitor
/// then behaves exactly as before this subsystem existed.
#[derive(Clone, Debug, PartialEq)]
pub struct DurabilityConfig {
    /// Root directory for per-shard WAL segments and the checkpoint
    /// document; `None` disables the whole subsystem.
    pub wal_dir: Option<PathBuf>,
    /// When appends are fsynced.
    pub fsync: FsyncPolicy,
    /// Appends per fsync under [`FsyncPolicy::Group`].
    pub group_commit_records: u64,
    /// Ingested records between checkpoints; `0` = never checkpoint
    /// (recovery then replays the whole WAL).
    pub checkpoint_interval_records: u64,
    /// How many times a dead shard worker is respawned from checkpoint +
    /// WAL replay before the shard is declared permanently failed;
    /// `0` disables supervision (a dead worker stays dead).
    pub respawn_budget: u32,
    /// WAL segment rotation size in bytes.
    pub segment_bytes: u64,
    /// I/O attempts per durable operation before the error propagates;
    /// `1` (the default) disables retries entirely. Transient faults
    /// (spurious `EIO`, interrupted syscalls) are retried with
    /// exponential backoff; permanent faults (missing files, bad data,
    /// permissions) always propagate immediately.
    pub retry_attempts: u32,
    /// Backoff before the first retry, in milliseconds; doubles per
    /// retry up to [`Self::retry_max_ms`].
    pub retry_base_ms: u64,
    /// Ceiling on a single backoff sleep, in milliseconds.
    pub retry_max_ms: u64,
    /// Seed of the deterministic jitter stream added to each backoff
    /// sleep, so seeded tests reproduce retry timing exactly.
    pub retry_jitter_seed: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            wal_dir: None,
            fsync: FsyncPolicy::Group,
            group_commit_records: 256,
            checkpoint_interval_records: 0,
            respawn_budget: 0,
            segment_bytes: 4 << 20,
            retry_attempts: 1,
            retry_base_ms: 1,
            retry_max_ms: 100,
            retry_jitter_seed: 0,
        }
    }
}

impl DurabilityConfig {
    /// Whether the WAL subsystem is on.
    pub fn enabled(&self) -> bool {
        self.wal_dir.is_some()
    }

    /// The [`cps_storage::RetryPolicy`] these knobs describe.
    pub fn retry_policy(&self) -> cps_storage::RetryPolicy {
        cps_storage::RetryPolicy {
            max_attempts: self.retry_attempts,
            base_delay_ms: self.retry_base_ms,
            max_delay_ms: self.retry_max_ms,
            jitter_seed: self.retry_jitter_seed,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.wal_dir.is_none() {
            if self.checkpoint_interval_records > 0 {
                return Err(
                    "durability.checkpoint_interval_records requires durability.wal_dir"
                        .to_string(),
                );
            }
            if self.respawn_budget > 0 {
                return Err("durability.respawn_budget requires durability.wal_dir".to_string());
            }
        }
        if self.fsync == FsyncPolicy::Group && self.group_commit_records == 0 {
            return Err(
                "durability.group_commit_records must be positive under fsync = \"group\""
                    .to_string(),
            );
        }
        if self.segment_bytes < 1024 {
            return Err("durability.segment_bytes must be at least 1024".to_string());
        }
        if self.retry_attempts == 0 {
            return Err("durability.retry_attempts must be at least 1 (1 = no retry)".to_string());
        }
        if self.retry_base_ms > self.retry_max_ms {
            return Err("durability.retry_base_ms must not exceed retry_max_ms".to_string());
        }
        Ok(())
    }
}

/// Snapshot-publication and result-cache knobs of the serving layer
/// (`cps-serve`). Publication is always on — the cadences only bound how
/// stale a pinned [`cps_serve::ReadView`] can be relative to the merger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServingConfig {
    /// Publish after this many finalized micro-clusters (≥ 1; 1 = every
    /// admission, the freshest reads).
    pub publish_every_clusters: u64,
    /// Publish after the global clock advances this many windows (≥ 1),
    /// so quiet periods still refresh readers.
    pub publish_every_windows: u32,
    /// Result-cache entries (≥ 1).
    pub cache_capacity: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            publish_every_clusters: 1,
            publish_every_windows: 1,
            cache_capacity: 4096,
        }
    }
}

impl ServingConfig {
    fn validate(&self) -> Result<(), String> {
        if self.publish_every_clusters == 0 {
            return Err("serving.publish_every_clusters must be at least 1".to_string());
        }
        if self.publish_every_windows == 0 {
            return Err("serving.publish_every_windows must be at least 1".to_string());
        }
        if self.cache_capacity == 0 {
            return Err("serving.cache_capacity must be at least 1".to_string());
        }
        Ok(())
    }
}

/// Replay source for the binary and benchmarks: a simulated deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayConfig {
    /// `cps-sim` scale name (`tiny`/`small`/`medium`/`paper`).
    pub scale: String,
    /// Simulation seed.
    pub seed: u64,
    /// Days to replay.
    pub days: u32,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            scale: "small".to_string(),
            seed: 42,
            days: 1,
        }
    }
}

/// Full service configuration.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Number of spatial shards (worker threads).
    pub shards: usize,
    /// Bounded capacity of each shard's record channel.
    pub channel_capacity: usize,
    /// Behavior when a shard channel is full.
    pub overflow: OverflowPolicy,
    /// Extraction parameters (δd/δt/δs/δsim, seal policy).
    pub params: Params,
    /// Time discretization of the deployment.
    pub spec: WindowSpec,
    /// Grid cell size for the incrementally maintained red zones.
    pub red_cell_miles: f64,
    /// Where completed day buckets are persisted; `None` disables
    /// persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Adaptive shard rebalancing: ingest re-checks the observed
    /// per-shard load every this many records and migrates hot spatial
    /// slices between shards when the skew gate fires. `0` (the default)
    /// disables rebalancing — the shard map is then fixed for the run.
    pub rebalance_interval_records: u64,
    /// Skew gate: rebalance only when the hottest shard's load exceeds
    /// `rebalance_skew ×` the mean shard load. Must be greater than 1.
    pub rebalance_skew: f64,
    /// Replay source used by the `cps-monitor` binary.
    pub replay: ReplayConfig,
    /// Event-source domain and per-domain knobs for the replay feed
    /// (the `[source]` section); defaults to the traffic domain.
    pub source: SourceConfig,
    /// Overload shedding and quarantine knobs (default: both off).
    pub admission: AdmissionConfig,
    /// WAL, checkpoint, and supervision knobs (default: all off).
    pub durability: DurabilityConfig,
    /// Snapshot-publication cadence and result-cache knobs.
    pub serving: ServingConfig,
    /// Deterministic fault hooks; always [`FaultConfig::default`] (no
    /// faults) outside the test harness.
    pub faults: FaultConfig,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            channel_capacity: 4096,
            overflow: OverflowPolicy::Block,
            params: Params::paper_defaults(),
            spec: WindowSpec::PEMS,
            red_cell_miles: 2.0,
            snapshot_dir: None,
            rebalance_interval_records: 0,
            rebalance_skew: 1.5,
            replay: ReplayConfig::default(),
            source: SourceConfig::default(),
            admission: AdmissionConfig::default(),
            durability: DurabilityConfig::default(),
            serving: ServingConfig::default(),
            faults: FaultConfig::default(),
        }
    }
}

impl MonitorConfig {
    /// Parses the TOML subset described in the module docs, starting from
    /// defaults so every key is optional.
    pub fn from_toml_str(text: &str) -> Result<Self, String> {
        let mut config = MonitorConfig::default();
        for (name, value) in &parse_flat_toml(text)? {
            let key = KEYS
                .iter()
                .find(|k| k.name == name)
                .ok_or_else(|| format!("unknown configuration key {name:?}"))?;
            (key.set)(&mut config, value).map_err(|e| format!("{name}: {e}"))?;
        }
        config.validate()?;
        Ok(config)
    }

    /// Loads and parses a config file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_toml_str(&text)
    }

    /// Renders the config in the accepted TOML subset, such that
    /// `from_toml_str(c.to_toml())` reproduces `c` (modulo the fault
    /// hooks, which have no TOML surface).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let mut section = "";
        for key in KEYS {
            let (key_section, name) = key.name.rsplit_once('.').unwrap_or(("", key.name));
            if key_section != section {
                section = key_section;
                out.push_str(&format!("\n[{section}]\n"));
            }
            if let Some(value) = (key.get)(self) {
                out.push_str(&format!("{name} = {value}\n"));
            }
        }
        out
    }

    /// Checks cross-field invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shards must be at least 1".to_string());
        }
        if self.shards > u16::MAX as usize {
            return Err("shards must fit in u16".to_string());
        }
        if self.channel_capacity == 0 {
            return Err("channel_capacity must be at least 1".to_string());
        }
        if self.red_cell_miles <= 0.0 || self.red_cell_miles.is_nan() {
            return Err("red_cell_miles must be positive".to_string());
        }
        if self.rebalance_interval_records > 0
            && (self.rebalance_skew <= 1.0 || self.rebalance_skew.is_nan())
        {
            return Err("rebalance_skew must be greater than 1".to_string());
        }
        self.admission.validate()?;
        if self.admission.shed && self.overflow != OverflowPolicy::Block {
            return Err(
                "admission.shed requires overflow = \"block\" (under \"drop\" the channel \
                 already sheds, via records_dropped)"
                    .to_string(),
            );
        }
        self.durability.validate()?;
        self.serving.validate()?;
        self.source.validate()?;
        if let Some(kill) = self.faults.kill_worker {
            if kill.shard >= self.shards {
                return Err(format!(
                    "faults.kill_worker: shard {} out of range (shards = {})",
                    kill.shard, self.shards
                ));
            }
        }
        self.params.validate()
    }
}

/// One TOML key: its name (`section.key` outside the top level) and how it
/// reads and writes its [`MonitorConfig`] field.
struct Key {
    name: &'static str,
    /// The rendered value; `None` leaves the key out (an unset path).
    get: fn(&MonitorConfig) -> Option<String>,
    set: fn(&mut MonitorConfig, &TomlValue) -> Result<(), String>,
}

/// Declares [`KEYS`]: each entry names a key once, with the field it sets.
/// The field's type ([`TomlField`]) parses, range-checks and renders it.
macro_rules! keys {
    ($($name:literal => $($field:ident).+,)*) => {
        const KEYS: &[Key] = &[$(Key {
            name: $name,
            get: |c| c.$($field).+.render(),
            set: |c, v| {
                c.$($field).+ = TomlField::parse(v)?;
                Ok(())
            },
        },)*];
    };
}

// Every key, in `to_toml` order; sections must stay contiguous.
keys! {
    "shards" => shards,
    "channel_capacity" => channel_capacity,
    "overflow" => overflow,
    "delta_t_minutes" => params.delta_t_minutes,
    "min_event_records" => params.min_event_records,
    "delta_d_miles" => params.delta_d_miles,
    "delta_s" => params.delta_s,
    "delta_sim" => params.delta_sim,
    "parallelism" => params.parallelism,
    "window_minutes" => spec,
    "red_cell_miles" => red_cell_miles,
    "snapshot_dir" => snapshot_dir,
    "rebalance_interval_records" => rebalance_interval_records,
    "rebalance_skew" => rebalance_skew,
    "replay.scale" => replay.scale,
    "replay.seed" => replay.seed,
    "replay.days" => replay.days,
    "source.domain" => source.domain,
    "source.actor_count" => source.actor_count,
    "source.hot_actor_ratio" => source.hot_actor_ratio,
    "source.hot_actor_share" => source.hot_actor_share,
    "source.incident_rate" => source.incident_rate,
    "source.sites" => source.sites,
    "source.fault_rate" => source.fault_rate,
    "source.cascade_share" => source.cascade_share,
    "admission.shed" => admission.shed,
    "admission.quarantine" => admission.quarantine,
    "admission.order_tolerance_windows" => admission.order_tolerance_windows,
    "admission.dedup" => admission.dedup,
    "admission.quarantine_capacity" => admission.quarantine_capacity,
    "durability.wal_dir" => durability.wal_dir,
    "durability.fsync" => durability.fsync,
    "durability.group_commit_records" => durability.group_commit_records,
    "durability.checkpoint_interval_records" => durability.checkpoint_interval_records,
    "durability.respawn_budget" => durability.respawn_budget,
    "durability.segment_bytes" => durability.segment_bytes,
    "durability.retry_attempts" => durability.retry_attempts,
    "durability.retry_base_ms" => durability.retry_base_ms,
    "durability.retry_max_ms" => durability.retry_max_ms,
    "durability.retry_jitter_seed" => durability.retry_jitter_seed,
    "serving.publish_every_clusters" => serving.publish_every_clusters,
    "serving.publish_every_windows" => serving.publish_every_windows,
    "serving.cache_capacity" => serving.cache_capacity,
}

/// A field type a TOML key can set: parsed with range checks, rendered
/// back so that parsing the rendering reproduces the value.
trait TomlField: Sized {
    fn parse(value: &TomlValue) -> Result<Self, String>;
    fn render(&self) -> Option<String>;
}

macro_rules! integer_fields {
    ($($int:ty),*) => {$(
        impl TomlField for $int {
            fn parse(value: &TomlValue) -> Result<Self, String> {
                match value {
                    TomlValue::Int(n) => <$int>::try_from(*n)
                        .map_err(|_| format!("{n} is out of range 0..={}", <$int>::MAX)),
                    other => Err(format!("expected a non-negative integer, got {other:?}")),
                }
            }
            fn render(&self) -> Option<String> {
                Some(self.to_string())
            }
        }
    )*};
}
integer_fields!(u32, u64, usize);

impl TomlField for f64 {
    fn parse(value: &TomlValue) -> Result<Self, String> {
        match value {
            TomlValue::Float(x) => Ok(*x),
            TomlValue::Int(n) => Ok(*n as f64),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }
    fn render(&self) -> Option<String> {
        Some(self.to_string())
    }
}

impl TomlField for bool {
    fn parse(value: &TomlValue) -> Result<Self, String> {
        match value {
            TomlValue::Bool(b) => Ok(*b),
            other => Err(format!("expected true or false, got {other:?}")),
        }
    }
    fn render(&self) -> Option<String> {
        Some(self.to_string())
    }
}

impl TomlField for String {
    fn parse(value: &TomlValue) -> Result<Self, String> {
        value.as_str().map(str::to_string)
    }
    fn render(&self) -> Option<String> {
        Some(format!("\"{self}\""))
    }
}

/// A path key: set means `Some`, and an unset path is left out.
impl TomlField for Option<PathBuf> {
    fn parse(value: &TomlValue) -> Result<Self, String> {
        value.as_str().map(|s| Some(PathBuf::from(s)))
    }
    fn render(&self) -> Option<String> {
        self.as_ref().map(|dir| format!("\"{}\"", dir.display()))
    }
}

/// `window_minutes`: a window length that divides the hour.
impl TomlField for WindowSpec {
    fn parse(value: &TomlValue) -> Result<Self, String> {
        let minutes = u32::parse(value)?;
        if minutes == 0 || 60 % minutes != 0 {
            return Err(format!("{minutes} minutes does not divide an hour"));
        }
        Ok(WindowSpec::new(minutes))
    }
    fn render(&self) -> Option<String> {
        self.window_minutes.render()
    }
}

impl TomlField for Domain {
    fn parse(value: &TomlValue) -> Result<Self, String> {
        let name = value.as_str()?;
        Domain::parse(name).ok_or_else(|| format!("unknown domain {name:?}"))
    }
    fn render(&self) -> Option<String> {
        Some(format!("\"{}\"", self.name()))
    }
}

/// Policy keys: one of a fixed set of names per enum.
macro_rules! policy_fields {
    ($($policy:ident { $($name:literal => $variant:ident,)* })*) => {$(
        impl TomlField for $policy {
            fn parse(value: &TomlValue) -> Result<Self, String> {
                match value.as_str()? {
                    $($name => Ok(Self::$variant),)*
                    other => Err(format!("unknown policy {other:?}")),
                }
            }
            fn render(&self) -> Option<String> {
                let name = match self {
                    $(Self::$variant => $name,)*
                };
                Some(format!("\"{name}\""))
            }
        }
    )*};
}
policy_fields! {
    OverflowPolicy { "block" => Block, "drop" => Drop, }
    FsyncPolicy { "always" => Always, "never" => Never, "group" => Group, }
}

/// One parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
enum TomlValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl TomlValue {
    fn as_str(&self) -> Result<&str, String> {
        match self {
            TomlValue::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }
}

/// Parses `key = value` lines with optional `[section]` headers into
/// `section.key`-prefixed entries. Comments (`#`) and blank lines are
/// skipped.
fn parse_flat_toml(text: &str) -> Result<BTreeMap<String, TomlValue>, String> {
    let mut entries = BTreeMap::new();
    let mut section = String::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("line {}: bad section name {name:?}", lineno + 1));
            }
            section = name.to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `key = value`", lineno + 1));
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("line {}: bad key {key:?}", lineno + 1));
        }
        let full_key = if section.is_empty() {
            key.to_string()
        } else {
            format!("{section}.{key}")
        };
        let value = parse_value(value.trim())
            .ok_or_else(|| format!("line {}: bad value for {key:?}", lineno + 1))?;
        if entries.insert(full_key.clone(), value).is_some() {
            return Err(format!("line {}: duplicate key {full_key:?}", lineno + 1));
        }
    }
    Ok(entries)
}

/// Drops a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str) -> Option<TomlValue> {
    if let Some(inner) = text.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
        // Basic strings without escapes cover paths and policy names.
        if inner.contains('"') || inner.contains('\\') {
            return None;
        }
        return Some(TomlValue::Str(inner.to_string()));
    }
    match text {
        "true" => return Some(TomlValue::Bool(true)),
        "false" => return Some(TomlValue::Bool(false)),
        _ => {}
    }
    if let Ok(n) = text.parse::<i64>() {
        return Some(TomlValue::Int(n));
    }
    if let Ok(x) = text.parse::<f64>() {
        return Some(TomlValue::Float(x));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        MonitorConfig::default().validate().unwrap();
    }

    #[test]
    fn full_config_parses() {
        let config = MonitorConfig::from_toml_str(
            r#"
            # deployment
            shards = 8
            channel_capacity = 512     # per shard
            overflow = "drop"
            delta_t_minutes = 20
            min_event_records = 3
            parallelism = 2
            red_cell_miles = 1.5
            snapshot_dir = "/tmp/monitor # not a comment"

            [replay]
            scale = "tiny"
            seed = 7
            days = 2
            "#,
        )
        .unwrap();
        assert_eq!(config.shards, 8);
        assert_eq!(config.channel_capacity, 512);
        assert_eq!(config.overflow, OverflowPolicy::Drop);
        assert_eq!(config.params.delta_t_minutes, 20);
        assert_eq!(config.params.min_event_records, 3);
        assert_eq!(config.params.parallelism, 2);
        assert_eq!(config.red_cell_miles, 1.5);
        assert_eq!(
            config.snapshot_dir.as_deref(),
            Some(std::path::Path::new("/tmp/monitor # not a comment"))
        );
        assert_eq!(config.replay.scale, "tiny");
        assert_eq!(config.replay.seed, 7);
        assert_eq!(config.replay.days, 2);
    }

    #[test]
    fn empty_config_is_defaults() {
        let config = MonitorConfig::from_toml_str("").unwrap();
        assert_eq!(config.shards, MonitorConfig::default().shards);
        assert_eq!(config.overflow, OverflowPolicy::Block);
    }

    #[test]
    fn durability_section_parses() {
        let config = MonitorConfig::from_toml_str(
            r#"
            [durability]
            wal_dir = "/tmp/monitor-wal"
            fsync = "always"
            group_commit_records = 64
            checkpoint_interval_records = 1000
            respawn_budget = 2
            segment_bytes = 65536
            "#,
        )
        .unwrap();
        let d = &config.durability;
        assert_eq!(
            d.wal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/monitor-wal"))
        );
        assert_eq!(d.fsync, FsyncPolicy::Always);
        assert_eq!(d.group_commit_records, 64);
        assert_eq!(d.checkpoint_interval_records, 1000);
        assert_eq!(d.respawn_budget, 2);
        assert_eq!(d.segment_bytes, 65536);
        assert!(d.enabled());
        assert!(!MonitorConfig::default().durability.enabled());
    }

    #[test]
    fn nonsensical_durability_combinations_are_rejected() {
        // Checkpoints and supervision both need a WAL to replay from.
        let err = MonitorConfig::from_toml_str("[durability]\ncheckpoint_interval_records = 100")
            .unwrap_err();
        assert!(err.contains("wal_dir"), "{err}");
        let err = MonitorConfig::from_toml_str("[durability]\nrespawn_budget = 1").unwrap_err();
        assert!(err.contains("wal_dir"), "{err}");
        // Group commit with a zero cadence would never fsync.
        let err = MonitorConfig::from_toml_str(
            "[durability]\nwal_dir = \"/tmp/x\"\nfsync = \"group\"\ngroup_commit_records = 0",
        )
        .unwrap_err();
        assert!(err.contains("group_commit_records"), "{err}");
        // Degenerate segments would rotate on every append.
        let err =
            MonitorConfig::from_toml_str("[durability]\nwal_dir = \"/tmp/x\"\nsegment_bytes = 10")
                .unwrap_err();
        assert!(err.contains("segment_bytes"), "{err}");
        // Unknown fsync policy.
        assert!(MonitorConfig::from_toml_str(
            "[durability]\nwal_dir = \"/tmp/x\"\nfsync = \"maybe\""
        )
        .is_err());
    }

    #[test]
    fn admission_section_parses() {
        let config = MonitorConfig::from_toml_str(
            r#"
            [admission]
            shed = true
            quarantine = true
            order_tolerance_windows = 2
            dedup = true
            quarantine_capacity = 64
            "#,
        )
        .unwrap();
        let a = &config.admission;
        assert!(a.shed);
        assert!(a.quarantine);
        assert_eq!(a.order_tolerance_windows, 2);
        assert!(a.dedup);
        assert_eq!(a.quarantine_capacity, 64);
        // Off by default: the monitor keeps its strict fail-fast behavior.
        let default = AdmissionConfig::default();
        assert!(!default.shed && !default.quarantine && !default.dedup);
        assert_eq!(MonitorConfig::default().admission, default);
    }

    #[test]
    fn nonsensical_admission_combinations_are_rejected() {
        // Tolerance and dedup only mean anything with quarantine on.
        let err =
            MonitorConfig::from_toml_str("[admission]\norder_tolerance_windows = 3").unwrap_err();
        assert!(err.contains("quarantine"), "{err}");
        let err = MonitorConfig::from_toml_str("[admission]\ndedup = true").unwrap_err();
        assert!(err.contains("quarantine"), "{err}");
        // A zero-capacity dead-letter buffer could never be inspected.
        let err =
            MonitorConfig::from_toml_str("[admission]\nquarantine = true\nquarantine_capacity = 0")
                .unwrap_err();
        assert!(err.contains("quarantine_capacity"), "{err}");
        // Shedding augments backpressure; under Drop it is double-counting.
        let err = MonitorConfig::from_toml_str("overflow = \"drop\"\n[admission]\nshed = true")
            .unwrap_err();
        assert!(err.contains("shed"), "{err}");
    }

    #[test]
    fn durability_retry_knobs_parse_and_validate() {
        let config = MonitorConfig::from_toml_str(
            r#"
            [durability]
            retry_attempts = 5
            retry_base_ms = 2
            retry_max_ms = 50
            retry_jitter_seed = 9
            "#,
        )
        .unwrap();
        let policy = config.durability.retry_policy();
        assert_eq!(policy.max_attempts, 5);
        assert_eq!(policy.base_delay_ms, 2);
        assert_eq!(policy.max_delay_ms, 50);
        assert_eq!(policy.jitter_seed, 9);
        // The default policy performs no retries at all.
        assert_eq!(
            MonitorConfig::default()
                .durability
                .retry_policy()
                .max_attempts,
            1
        );
        // Zero attempts would mean "never even try".
        let err = MonitorConfig::from_toml_str("[durability]\nretry_attempts = 0").unwrap_err();
        assert!(err.contains("retry_attempts"), "{err}");
        // An inverted backoff range is a typo, not a clamp.
        let err =
            MonitorConfig::from_toml_str("[durability]\nretry_base_ms = 200\nretry_max_ms = 100")
                .unwrap_err();
        assert!(err.contains("retry_base_ms"), "{err}");
    }

    #[test]
    fn serving_section_parses() {
        let config = MonitorConfig::from_toml_str(
            r#"
            [serving]
            publish_every_clusters = 16
            publish_every_windows = 4
            cache_capacity = 128
            "#,
        )
        .unwrap();
        let s = &config.serving;
        assert_eq!(s.publish_every_clusters, 16);
        assert_eq!(s.publish_every_windows, 4);
        assert_eq!(s.cache_capacity, 128);
        assert_eq!(MonitorConfig::default().serving, ServingConfig::default());
    }

    #[test]
    fn degenerate_serving_knobs_are_rejected() {
        for bad in [
            "[serving]\npublish_every_clusters = 0",
            "[serving]\npublish_every_windows = 0",
            "[serving]\ncache_capacity = 0",
        ] {
            let err = MonitorConfig::from_toml_str(bad).unwrap_err();
            assert!(err.contains("serving."), "{err}");
        }
    }

    #[test]
    fn source_section_parses() {
        let config = MonitorConfig::from_toml_str(
            r#"
            [source]
            domain = "audit"
            actor_count = 500
            hot_actor_ratio = 0.2
            hot_actor_share = 0.9
            incident_rate = 2.5
            "#,
        )
        .unwrap();
        let s = &config.source;
        assert_eq!(s.domain, Domain::Audit);
        assert_eq!(s.actor_count, 500);
        assert_eq!(s.hot_actor_ratio, 0.2);
        assert_eq!(s.hot_actor_share, 0.9);
        assert_eq!(s.incident_rate, 2.5);
        // The infra knobs stay at their defaults.
        assert_eq!(s.sites, SourceConfig::default().sites);
        // Default configs select the traffic domain.
        assert_eq!(MonitorConfig::default().source, SourceConfig::default());
        // The infra alias parses too.
        let config = MonitorConfig::from_toml_str("[source]\ndomain = \"infra\"").unwrap();
        assert_eq!(config.source.domain, Domain::Infrastructure);
    }

    #[test]
    fn unknown_source_domain_is_rejected() {
        let err = MonitorConfig::from_toml_str("[source]\ndomain = \"weather\"").unwrap_err();
        assert!(err.contains("unknown domain"), "{err}");
        assert!(err.contains("weather"), "{err}");
    }

    #[test]
    fn source_knobs_for_the_wrong_domain_are_rejected() {
        // Audit knobs under a non-audit domain are typos, not no-ops.
        let err = MonitorConfig::from_toml_str("[source]\nhot_actor_share = 0.9").unwrap_err();
        assert!(err.contains("only applies to the audit domain"), "{err}");
        let err =
            MonitorConfig::from_toml_str("[source]\ndomain = \"infrastructure\"\nactor_count = 10")
                .unwrap_err();
        assert!(err.contains("only applies to the audit domain"), "{err}");
        // And infra knobs under a non-infra domain likewise.
        let err =
            MonitorConfig::from_toml_str("[source]\ndomain = \"audit\"\nsites = 4").unwrap_err();
        assert!(
            err.contains("only applies to the infrastructure domain"),
            "{err}"
        );
        // Out-of-range ratios are rejected for the right domain too.
        let err =
            MonitorConfig::from_toml_str("[source]\ndomain = \"audit\"\nhot_actor_share = 1.5")
                .unwrap_err();
        assert!(err.contains("hot_actor_share"), "{err}");
    }

    #[test]
    fn source_section_roundtrips() {
        let mut config = MonitorConfig {
            source: SourceConfig::for_domain(Domain::Infrastructure),
            ..MonitorConfig::default()
        };
        config.source.sites = 6;
        config.source.fault_rate = 1.75;
        config.source.cascade_share = 0.5;
        let reparsed = MonitorConfig::from_toml_str(&config.to_toml()).unwrap();
        assert_eq!(reparsed.source, config.source);
        // Defaults round-trip too (traffic, all knobs default).
        let default = MonitorConfig::default();
        let reparsed = MonitorConfig::from_toml_str(&default.to_toml()).unwrap();
        assert_eq!(reparsed.source, default.source);
    }

    #[test]
    fn rebalance_knobs_parse_and_validate() {
        let config =
            MonitorConfig::from_toml_str("rebalance_interval_records = 5000\nrebalance_skew = 2.5")
                .unwrap();
        assert_eq!(config.rebalance_interval_records, 5000);
        assert_eq!(config.rebalance_skew, 2.5);
        // Off by default.
        assert_eq!(MonitorConfig::default().rebalance_interval_records, 0);
        // A skew gate at or below 1 would rebalance on every check.
        let err =
            MonitorConfig::from_toml_str("rebalance_interval_records = 100\nrebalance_skew = 1.0")
                .unwrap_err();
        assert!(err.contains("rebalance_skew"), "{err}");
        // The skew value is unchecked while rebalancing is off.
        MonitorConfig::from_toml_str("rebalance_skew = 0.5").unwrap();
    }

    #[test]
    fn toml_roundtrip_preserves_config() {
        let mut config = MonitorConfig {
            shards: 3,
            overflow: OverflowPolicy::Drop,
            snapshot_dir: Some(PathBuf::from("/tmp/snap")),
            ..MonitorConfig::default()
        };
        config.durability.wal_dir = Some(PathBuf::from("/tmp/wal"));
        config.durability.fsync = FsyncPolicy::Never;
        config.durability.checkpoint_interval_records = 500;
        config.durability.respawn_budget = 4;
        config.rebalance_interval_records = 2500;
        config.rebalance_skew = 1.75;
        config.serving.publish_every_clusters = 32;
        config.serving.cache_capacity = 77;
        config.admission.quarantine = true;
        config.admission.order_tolerance_windows = 4;
        config.admission.dedup = true;
        config.admission.quarantine_capacity = 128;
        config.admission.shed = true;
        config.overflow = OverflowPolicy::Block;
        config.durability.retry_attempts = 6;
        config.durability.retry_base_ms = 3;
        config.durability.retry_max_ms = 40;
        config.durability.retry_jitter_seed = 11;
        let reparsed = MonitorConfig::from_toml_str(&config.to_toml()).unwrap();
        assert_eq!(reparsed.shards, config.shards);
        assert_eq!(reparsed.admission, config.admission);
        assert_eq!(reparsed.overflow, config.overflow);
        assert_eq!(reparsed.snapshot_dir, config.snapshot_dir);
        assert_eq!(reparsed.durability, config.durability);
        assert_eq!(reparsed.serving, config.serving);
        assert_eq!(reparsed.replay, config.replay);
        assert_eq!(reparsed.source, config.source);
        assert_eq!(
            reparsed.rebalance_interval_records,
            config.rebalance_interval_records
        );
        assert_eq!(reparsed.rebalance_skew, config.rebalance_skew);
        assert_eq!(reparsed.spec, config.spec);
        // Defaults round-trip too (durability disabled).
        let default = MonitorConfig::default();
        let reparsed = MonitorConfig::from_toml_str(&default.to_toml()).unwrap();
        assert_eq!(reparsed.durability, default.durability);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(MonitorConfig::from_toml_str("shards = 0").is_err());
        assert!(MonitorConfig::from_toml_str("shards = -3").is_err());
        assert!(MonitorConfig::from_toml_str("overflow = \"explode\"").is_err());
        assert!(MonitorConfig::from_toml_str("mystery_key = 1").is_err());
        assert!(MonitorConfig::from_toml_str("shards 4").is_err());
        assert!(MonitorConfig::from_toml_str("shards = 2\nshards = 3").is_err());
        assert!(MonitorConfig::from_toml_str("[re play]\nscale = \"tiny\"").is_err());
        // A window length that does not divide the hour is an error, not
        // a panic.
        for bad in ["window_minutes = 7", "window_minutes = 0"] {
            let err = MonitorConfig::from_toml_str(bad).unwrap_err();
            assert!(err.contains("window_minutes"), "{err}");
        }
        // 2^32 + 15 must not truncate to 15 in a u32 field. Each key gets
        // the context that would make 15 valid.
        for (context, key) in [
            ("", "delta_t_minutes"),
            ("", "window_minutes"),
            ("", "min_event_records"),
            ("[replay]\n", "days"),
            (
                "[admission]\nquarantine = true\n",
                "order_tolerance_windows",
            ),
            ("[durability]\nwal_dir = \"/tmp/x\"\n", "respawn_budget"),
            ("[durability]\n", "retry_attempts"),
            ("[serving]\n", "publish_every_windows"),
            ("[source]\ndomain = \"audit\"\n", "actor_count"),
            ("[source]\ndomain = \"infrastructure\"\n", "sites"),
        ] {
            let text = format!("{context}{key} = 4294967311");
            let err = MonitorConfig::from_toml_str(&text).unwrap_err();
            assert!(
                err.contains(key) && err.contains("out of range"),
                "{text}: {err}"
            );
            let fits = format!("{context}{key} = 15");
            MonitorConfig::from_toml_str(&fits).unwrap();
        }
    }

    /// Every key set away from its default survives a render → parse →
    /// render round trip byte for byte. The audit and infrastructure
    /// knobs exclude each other, so each domain gets one config.
    #[test]
    fn every_key_roundtrips() {
        let mut config = MonitorConfig {
            shards: 3,
            channel_capacity: 17,
            overflow: OverflowPolicy::Block,
            spec: WindowSpec::new(15),
            red_cell_miles: 1.25,
            snapshot_dir: Some(PathBuf::from("/srv/snap")),
            rebalance_interval_records: 900,
            rebalance_skew: 1.75,
            replay: ReplayConfig {
                scale: "tiny".to_string(),
                seed: 9,
                days: 3,
            },
            admission: AdmissionConfig {
                shed: true,
                quarantine: true,
                order_tolerance_windows: 2,
                dedup: true,
                quarantine_capacity: 33,
            },
            durability: DurabilityConfig {
                wal_dir: Some(PathBuf::from("/srv/wal")),
                fsync: FsyncPolicy::Always,
                group_commit_records: 5,
                checkpoint_interval_records: 700,
                respawn_budget: 2,
                segment_bytes: 8192,
                retry_attempts: 4,
                retry_base_ms: 3,
                retry_max_ms: 30,
                retry_jitter_seed: 11,
            },
            serving: ServingConfig {
                publish_every_clusters: 6,
                publish_every_windows: 7,
                cache_capacity: 99,
            },
            ..MonitorConfig::default()
        };
        config.params.delta_t_minutes = 20;
        config.params.min_event_records = 3;
        config.params.delta_d_miles = 2.25;
        config.params.delta_s = 0.07;
        config.params.delta_sim = 0.35;
        config.params.parallelism = 2;
        let mut audit = SourceConfig::for_domain(Domain::Audit);
        audit.actor_count = 40;
        audit.hot_actor_ratio = 0.2;
        audit.hot_actor_share = 0.7;
        audit.incident_rate = 1.5;
        let mut infra = SourceConfig::for_domain(Domain::Infrastructure);
        infra.sites = 6;
        infra.fault_rate = 1.75;
        infra.cascade_share = 0.5;
        // Shedding needs `overflow = "block"`, so "drop" gets its own config.
        let mut configs = vec![MonitorConfig {
            overflow: OverflowPolicy::Drop,
            ..MonitorConfig::default()
        }];
        for source in [audit, infra] {
            config.source = source;
            configs.push(config.clone());
        }
        let default = MonitorConfig::default().to_toml();
        let mut changed = std::collections::BTreeSet::new();
        for config in &configs {
            let text = config.to_toml();
            let reparsed = MonitorConfig::from_toml_str(&text).unwrap();
            assert_eq!(reparsed.to_toml(), text);
            let mut section = "";
            for line in text.lines() {
                if let Some(name) = line.strip_prefix('[') {
                    section = name.trim_end_matches(']');
                } else if !line.is_empty() && !default.lines().any(|d| d == line) {
                    let key = line.split(" = ").next().unwrap();
                    changed.insert(format!("{section}.{key}"));
                }
            }
        }
        assert_eq!(KEYS.len(), 43, "no key added or removed");
        assert_eq!(
            changed.len(),
            KEYS.len(),
            "keys left at default: {changed:?}"
        );
    }
}
