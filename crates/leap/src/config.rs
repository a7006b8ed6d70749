//! Simulation configuration.
//!
//! [`SimConfig`] is plain, copyable data: every knob of one simulation run.
//! Construct it through [`SimConfig::builder`], which validates the
//! combination at [`build`](crate::SimConfigBuilder::build) time, or start
//! from one of the canonical presets ([`SimConfig::linux_defaults`],
//! [`SimConfig::leap_defaults`]) and refine via
//! [`SimConfig::to_builder`]. (The legacy `with_*` copy-setters, deprecated
//! since 0.2.0, were removed in 0.4.0.)

use crate::builder::SimConfigBuilder;
use crate::error::ConfigError;
pub use leap_eviction::EvictionPolicy;
use leap_prefetcher::PrefetcherKind;
use leap_remote::{BackendKind, FaultSpec, RecoveryPolicy};
use leap_sim_core::json::{flat_json_pairs, FlatJsonError};
use leap_sim_core::Nanos;
use serde::{Deserialize, Serialize};

/// Which data path serves cache misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataPathKind {
    /// The default Linux block-layer path (§2.2, Figure 1).
    LinuxDefault,
    /// Leap's lean path that bypasses the block layer (§4.4).
    Leap,
}

impl DataPathKind {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            DataPathKind::LinuxDefault => "linux-default",
            DataPathKind::Leap => "leap",
        }
    }

    /// The inverse of [`DataPathKind::label`], used when parsing serialized
    /// configurations.
    pub(crate) fn from_label(label: &str) -> Option<Self> {
        [DataPathKind::LinuxDefault, DataPathKind::Leap]
            .into_iter()
            .find(|k| k.label() == label)
    }
}

/// How a multi-process replay ([`crate::Simulator::run_multi`]) is executed.
///
/// Both modes run the *same* per-core code: each core shard replays its
/// core's slice of the time-sliced schedule in [`crate::sched`] to
/// completion, and the per-core event buffers are merged by `(core, seq)`
/// afterwards. They produce bit-identical [`crate::RunResult`]s for a given
/// seed and differ only in where the shards run:
///
/// - [`ReplayMode::Serial`] runs the core shards one after another, in core
///   order, on the calling thread. This is the default.
/// - [`ReplayMode::Threaded`] runs one OS thread per core shard (the shards
///   share no mutable state). Wall-clock time scales with host cores;
///   simulated results do not change.
///
/// Front-ends without per-core shard state (the VFS simulator, the VMM
/// without per-process isolation) replay as one worker stepped in the
/// scheduler's global interleaving, regardless of the configured mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplayMode {
    /// The calling thread runs the core shards one after another.
    Serial,
    /// One OS thread per core shard, merged deterministically after the join.
    Threaded,
}

impl ReplayMode {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ReplayMode::Serial => "serial",
            ReplayMode::Threaded => "threaded",
        }
    }

    /// The inverse of [`ReplayMode::label`], used when parsing serialized
    /// configurations.
    pub(crate) fn from_label(label: &str) -> Option<Self> {
        [ReplayMode::Serial, ReplayMode::Threaded]
            .into_iter()
            .find(|k| k.label() == label)
    }
}

/// Full configuration of one simulation run.
///
/// The two canonical configurations are [`SimConfig::linux_defaults`] (the
/// baseline the paper calls "D-VMM": Linux data path, Read-Ahead prefetcher,
/// lazy eviction) and [`SimConfig::leap_defaults`] ("D-VMM+Leap": lean data
/// path, majority-trend prefetcher, eager eviction). Every field can be
/// overridden to build the ablations in Figures 8–10 and 12; use
/// [`SimConfig::builder`] / [`SimConfig::to_builder`] so invalid
/// combinations are rejected with a [`ConfigError`] instead of surfacing as
/// nonsense results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The prefetching algorithm.
    pub prefetcher: PrefetcherKind,
    /// The data path used on prefetch-cache misses.
    pub data_path: DataPathKind,
    /// The slower tier backing swapped-out pages.
    pub backend: BackendKind,
    /// The prefetch-cache eviction policy.
    pub eviction: EvictionPolicy,
    /// Local memory limit as a fraction of the working set (the paper's
    /// 100 % / 50 % / 25 % configurations).
    pub memory_fraction: f64,
    /// Prefetch-cache capacity in pages; `u64::MAX` means unbounded
    /// (Figure 12 constrains this).
    pub prefetch_cache_pages: u64,
    /// `Hsize`: access-history length for Leap's prefetcher.
    pub history_size: usize,
    /// `PWsize_max`: maximum prefetch window.
    pub max_prefetch_window: usize,
    /// Number of CPU cores (per-core RDMA dispatch queues; also the number
    /// of run queues and swap/cache shards of a scheduled multi-process
    /// replay).
    pub cores: usize,
    /// Scheduler time slice of a multi-process replay
    /// ([`crate::Simulator::run_multi`]): a process runs on its core for one
    /// quantum of simulated time before the next process in that core's run
    /// queue is switched in.
    pub sched_quantum: Nanos,
    /// Simulated cost of one context switch (register/TLB state plus the
    /// scheduler's own bookkeeping), charged whenever a core's run queue
    /// rotates. Defaults to `crate::sched::CONTEXT_SWITCH` (2 µs).
    pub context_switch_cost: Nanos,
    /// How multi-process replays execute: the core shards one after another
    /// on the calling thread ([`ReplayMode::Serial`], the default) or one OS
    /// thread per core shard ([`ReplayMode::Threaded`]). Simulated results
    /// are bit-identical either way.
    pub replay_mode: ReplayMode,
    /// When several processes run, whether each gets its own isolated
    /// prefetcher state (Leap) or they share one (Linux's shared swap path).
    pub per_process_isolation: bool,
    /// In-flight budget of the per-shard async I/O pipeline
    /// ([`crate::AsyncPipeline`]): how many asynchronous remote requests
    /// (prefetch reads, write-backs) may be outstanding before a submitter
    /// stalls. `usize::MAX` (the default) models unbounded asynchrony — the
    /// legacy free-overlap accounting, bit-for-bit; `1` disables asynchrony
    /// entirely, billing every async I/O synchronously. Validated nonzero.
    pub async_depth: usize,
    /// RNG seed; equal seeds reproduce runs exactly.
    pub seed: u64,
    /// Overrides the backend's 4 KB read latency with a constant (for
    /// what-if studies against hypothetical devices); `None` keeps the
    /// paper-calibrated distribution.
    pub backend_read_latency: Option<Nanos>,
    /// Overrides the backend's 4 KB write latency with a constant; `None`
    /// keeps the paper-calibrated distribution.
    pub backend_write_latency: Option<Nanos>,
    /// Fault-injection spec for the remote tier
    /// ([`FaultSpec::none`] by default, a healthy fabric). Expanded into a
    /// concrete [`leap_remote::FaultPlan`] from `(seed, fault)` when the
    /// data path is built; set via
    /// [`fault_plan`](crate::SimConfigBuilder::fault_plan).
    pub fault: FaultSpec,
    /// Request-recovery policy for the remote tier
    /// ([`RecoveryPolicy::none`] by default: no deadlines, no hedging —
    /// byte-identical to a build without the recovery layer). Installed on
    /// the lean data path's host agent when active; set via
    /// [`recovery_policy`](crate::SimConfigBuilder::recovery_policy).
    pub recovery: RecoveryPolicy,
}

/// Upper bound accepted for [`SimConfig::context_switch_cost`]. Real context
/// switches cost single-digit microseconds; anything beyond 100 ms is almost
/// certainly a unit mistake (ns vs ms), so validation rejects it.
pub(crate) const MAX_CONTEXT_SWITCH: Nanos = Nanos::from_millis(100);

impl SimConfig {
    /// Starts a validated builder from [`SimConfig::default`]
    /// (= [`SimConfig::leap_defaults`]).
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Starts a validated builder from this configuration.
    pub fn to_builder(self) -> SimConfigBuilder {
        SimConfigBuilder::from_config(self)
    }

    /// The baseline configuration: Linux data path, Read-Ahead prefetching,
    /// lazy eviction, no per-process isolation.
    pub fn linux_defaults() -> Self {
        SimConfig {
            prefetcher: PrefetcherKind::ReadAhead,
            data_path: DataPathKind::LinuxDefault,
            backend: BackendKind::Rdma,
            eviction: EvictionPolicy::Lazy,
            memory_fraction: 0.5,
            prefetch_cache_pages: u64::MAX,
            history_size: 32,
            max_prefetch_window: 8,
            cores: 8,
            sched_quantum: Nanos::from_millis(1),
            context_switch_cost: crate::sched::CONTEXT_SWITCH,
            replay_mode: ReplayMode::Serial,
            per_process_isolation: false,
            async_depth: usize::MAX,
            seed: 42,
            backend_read_latency: None,
            backend_write_latency: None,
            fault: FaultSpec::none(),
            recovery: RecoveryPolicy::none(),
        }
    }

    /// The full Leap configuration: lean data path, majority-trend
    /// prefetcher, eager eviction, per-process isolation.
    pub fn leap_defaults() -> Self {
        SimConfig {
            prefetcher: PrefetcherKind::Leap,
            data_path: DataPathKind::Leap,
            eviction: EvictionPolicy::Eager,
            per_process_isolation: true,
            ..SimConfig::linux_defaults()
        }
    }

    /// Paging to a local disk instead of remote memory (the "Disk" bars in
    /// Figure 11), using the default Linux machinery.
    pub fn disk_defaults(backend: BackendKind) -> Self {
        SimConfig {
            backend,
            ..SimConfig::linux_defaults()
        }
    }

    /// Validates this configuration (the same checks
    /// [`SimConfigBuilder::build`] runs).
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if !(self.memory_fraction > 0.0 && self.memory_fraction <= 1.0) {
            return Err(ConfigError::MemoryFractionOutOfRange(self.memory_fraction));
        }
        if self.history_size == 0 {
            return Err(ConfigError::ZeroHistorySize);
        }
        if self.max_prefetch_window == 0 {
            return Err(ConfigError::ZeroPrefetchWindow);
        }
        if self.cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if self.sched_quantum == Nanos::ZERO {
            return Err(ConfigError::ZeroQuantum);
        }
        if self.context_switch_cost > MAX_CONTEXT_SWITCH {
            return Err(ConfigError::ContextSwitchTooLarge {
                cost: self.context_switch_cost,
                max: MAX_CONTEXT_SWITCH,
            });
        }
        if self.prefetch_cache_pages == 0 {
            return Err(ConfigError::ZeroPrefetchCache);
        }
        if self.async_depth == 0 {
            return Err(ConfigError::ZeroAsyncDepth);
        }
        if self.prefetch_cache_pages != u64::MAX
            && self.prefetch_cache_pages < self.max_prefetch_window as u64
        {
            return Err(ConfigError::CacheSmallerThanWindow {
                cache_pages: self.prefetch_cache_pages,
                window: self.max_prefetch_window,
            });
        }
        if self.backend_read_latency == Some(Nanos::ZERO) {
            return Err(ConfigError::ZeroBackendLatency { which: "read" });
        }
        if self.backend_write_latency == Some(Nanos::ZERO) {
            return Err(ConfigError::ZeroBackendLatency { which: "write" });
        }
        self.fault
            .validate()
            .map_err(|reason| ConfigError::InvalidFaultSpec { reason })?;
        self.recovery
            .validate()
            .map_err(|reason| ConfigError::InvalidRecoveryPolicy { reason })?;
        Ok(())
    }

    /// A short label of the configuration for report rows, e.g.
    /// `"leap/Leap/eager @50%"`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{} @{:.0}%",
            self.data_path.label(),
            self.prefetcher.label(),
            self.eviction.label(),
            self.memory_fraction * 100.0
        )
    }

    /// Serializes the configuration to a flat JSON object.
    ///
    /// The format is stable and explicit (no serde involvement — see
    /// `vendor/README.md`): enum fields use their `label()` strings, latency
    /// overrides serialize as nanoseconds or `null`.
    pub fn to_json(&self) -> String {
        fn opt_nanos(v: Option<Nanos>) -> String {
            match v {
                Some(n) => n.as_nanos().to_string(),
                None => "null".to_string(),
            }
        }
        format!(
            concat!(
                "{{",
                "\"prefetcher\":\"{}\",",
                "\"data_path\":\"{}\",",
                "\"backend\":\"{}\",",
                "\"eviction\":\"{}\",",
                "\"memory_fraction\":{},",
                "\"prefetch_cache_pages\":{},",
                "\"history_size\":{},",
                "\"max_prefetch_window\":{},",
                "\"cores\":{},",
                "\"sched_quantum_ns\":{},",
                "\"context_switch_ns\":{},",
                "\"replay_mode\":\"{}\",",
                "\"per_process_isolation\":{},",
                "\"async_depth\":{},",
                "\"seed\":{},",
                "\"backend_read_latency_ns\":{},",
                "\"backend_write_latency_ns\":{},",
                "{},",
                "{}",
                "}}"
            ),
            self.prefetcher.label(),
            self.data_path.label(),
            self.backend.label(),
            self.eviction.label(),
            self.memory_fraction,
            self.prefetch_cache_pages,
            self.history_size,
            self.max_prefetch_window,
            self.cores,
            self.sched_quantum.as_nanos(),
            self.context_switch_cost.as_nanos(),
            self.replay_mode.label(),
            self.per_process_isolation,
            self.async_depth,
            self.seed,
            opt_nanos(self.backend_read_latency),
            opt_nanos(self.backend_write_latency),
            self.fault.to_json_fields(),
            self.recovery.to_json_fields(),
        )
    }

    /// Parses a configuration previously produced by [`SimConfig::to_json`]
    /// and validates it.
    ///
    /// Unknown keys are rejected; missing keys fall back to
    /// [`SimConfig::linux_defaults`] so the format can grow fields without
    /// breaking stored configs.
    pub fn from_json(text: &str) -> Result<Self, ConfigError> {
        let mut config = SimConfig::linux_defaults();
        let pairs = flat_json_pairs(text).map_err(|e| {
            ConfigError::Parse(match e {
                FlatJsonError::NotAnObject => "expected a JSON object".into(),
                FlatJsonError::MalformedPair(pair) => format!("expected key:value, got {pair:?}"),
                FlatJsonError::UnquotedKey(key) => format!("unquoted key {key:?}"),
            })
        })?;
        for (key, value) in pairs {
            match key {
                "prefetcher" => {
                    config.prefetcher =
                        PrefetcherKind::from_label(parse_str(value)?).ok_or_else(|| {
                            ConfigError::UnknownComponent {
                                role: "prefetcher",
                                name: value.trim_matches('"').to_string(),
                            }
                        })?
                }
                "data_path" => {
                    config.data_path =
                        DataPathKind::from_label(parse_str(value)?).ok_or_else(|| {
                            ConfigError::UnknownComponent {
                                role: "data-path",
                                name: value.trim_matches('"').to_string(),
                            }
                        })?
                }
                "backend" => {
                    config.backend =
                        BackendKind::from_label(parse_str(value)?).ok_or_else(|| {
                            ConfigError::UnknownComponent {
                                role: "backend",
                                name: value.trim_matches('"').to_string(),
                            }
                        })?
                }
                "eviction" => {
                    config.eviction =
                        EvictionPolicy::from_label(parse_str(value)?).ok_or_else(|| {
                            ConfigError::UnknownComponent {
                                role: "eviction",
                                name: value.trim_matches('"').to_string(),
                            }
                        })?
                }
                "memory_fraction" => config.memory_fraction = parse_num::<f64>(value)?,
                "prefetch_cache_pages" => config.prefetch_cache_pages = parse_num::<u64>(value)?,
                "history_size" => config.history_size = parse_num::<usize>(value)?,
                "max_prefetch_window" => config.max_prefetch_window = parse_num::<usize>(value)?,
                "cores" => config.cores = parse_num::<usize>(value)?,
                "sched_quantum_ns" => {
                    config.sched_quantum = Nanos::from_nanos(parse_num::<u64>(value)?)
                }
                "context_switch_ns" => {
                    config.context_switch_cost = Nanos::from_nanos(parse_num::<u64>(value)?)
                }
                "replay_mode" => {
                    config.replay_mode =
                        ReplayMode::from_label(parse_str(value)?).ok_or_else(|| {
                            ConfigError::UnknownComponent {
                                role: "replay-mode",
                                name: value.trim_matches('"').to_string(),
                            }
                        })?
                }
                "per_process_isolation" => config.per_process_isolation = parse_bool(value)?,
                "async_depth" => config.async_depth = parse_num::<usize>(value)?,
                "seed" => config.seed = parse_num::<u64>(value)?,
                "backend_read_latency_ns" => {
                    config.backend_read_latency = parse_opt_nanos(value)?;
                }
                "backend_write_latency_ns" => {
                    config.backend_write_latency = parse_opt_nanos(value)?;
                }
                other => {
                    // `fault_*` / `recovery_*` keys are parsed by their
                    // specs, so each schema lives in one place
                    // (crates/remote).
                    let consumed = config
                        .fault
                        .apply_json_field(other, value)
                        .map_err(|e| ConfigError::Parse(e.to_string()))?
                        || config
                            .recovery
                            .apply_json_field(other, value)
                            .map_err(ConfigError::Parse)?;
                    if !consumed {
                        return Err(ConfigError::Parse(format!("unknown key {other:?}")));
                    }
                }
            }
        }
        config.validate()?;
        Ok(config)
    }
}

fn parse_str(value: &str) -> Result<&str, ConfigError> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| ConfigError::Parse(format!("expected a string, got {value}")))
}

fn parse_num<T: std::str::FromStr>(value: &str) -> Result<T, ConfigError> {
    value
        .parse::<T>()
        .map_err(|_| ConfigError::Parse(format!("expected a number, got {value}")))
}

fn parse_bool(value: &str) -> Result<bool, ConfigError> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(ConfigError::Parse(format!("expected a bool, got {other}"))),
    }
}

fn parse_opt_nanos(value: &str) -> Result<Option<Nanos>, ConfigError> {
    if value == "null" {
        Ok(None)
    } else {
        Ok(Some(Nanos::from_nanos(parse_num::<u64>(value)?)))
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::leap_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Valid JSON with every fault and recovery key active: the text the
    /// mutation property corrupts.
    fn storm_jsons() -> [String; 2] {
        let config = SimConfig::leap_defaults()
            .to_builder()
            .fault_plan(FaultSpec::canonical_partition_storm())
            .recovery_policy(RecoveryPolicy::tail_tolerant())
            .build()
            .unwrap();
        let jsons = [config.to_json(), config.fault.to_json()];
        assert_eq!(SimConfig::from_json(&jsons[0]), Ok(config));
        assert_eq!(FaultSpec::from_json(&jsons[1]), Ok(config.fault));
        jsons
    }

    /// Both parsers must return `Ok` or a typed error, never panic.
    fn parse_both(bytes: &[u8]) {
        let text = String::from_utf8_lossy(bytes);
        let _ = SimConfig::from_json(&text);
        let _ = FaultSpec::from_json(&text);
    }

    proptest! {
        #[test]
        fn from_json_never_panics_on_arbitrary_bytes(
            bytes in collection::vec(any::<u8>(), 0..256),
        ) {
            parse_both(&bytes);
            // Inside braces the bytes get past the object check.
            parse_both(&[b"{".as_slice(), &bytes, b"}"].concat());
        }

        #[test]
        fn from_json_never_panics_on_mutated_or_truncated_json(
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            for json in storm_jsons() {
                let mut mutated = json.clone().into_bytes();
                let i = at % mutated.len();
                mutated[i] = byte;
                parse_both(&mutated);
                parse_both(&json.as_bytes()[..i]);
            }
        }

        /// Both parsers read one grammar: a key that is unquoted or quoted
        /// on one side only is a typed error from each, whichever key it is.
        #[test]
        fn both_parsers_reject_unquoted_and_half_quoted_keys(
            at in any::<usize>(),
            quoting in 0usize..3,
        ) {
            for json in storm_jsons() {
                let pairs = flat_json_pairs(&json).unwrap();
                let target = at % pairs.len();
                let body: Vec<String> = pairs
                    .iter()
                    .enumerate()
                    .map(|(i, (key, value))| match (i == target, quoting) {
                        (false, _) => format!("\"{key}\":{value}"),
                        (true, 0) => format!("{key}:{value}"),
                        (true, 1) => format!("\"{key}:{value}"),
                        (true, _) => format!("{key}\":{value}"),
                    })
                    .collect();
                let text = format!("{{{}}}", body.join(","));
                prop_assert!(matches!(SimConfig::from_json(&text), Err(ConfigError::Parse(_))));
                prop_assert!(matches!(
                    FaultSpec::from_json(&text),
                    Err(leap_remote::FaultJsonError::MalformedPair(_))
                ));
            }
        }
    }

    #[test]
    fn canonical_configs_differ_where_expected() {
        let linux = SimConfig::linux_defaults();
        let leap = SimConfig::leap_defaults();
        assert_eq!(linux.prefetcher, PrefetcherKind::ReadAhead);
        assert_eq!(leap.prefetcher, PrefetcherKind::Leap);
        assert_eq!(linux.data_path, DataPathKind::LinuxDefault);
        assert_eq!(leap.data_path, DataPathKind::Leap);
        assert_eq!(linux.eviction, EvictionPolicy::Lazy);
        assert_eq!(leap.eviction, EvictionPolicy::Eager);
        assert!(!linux.per_process_isolation);
        assert!(leap.per_process_isolation);
        // Shared knobs stay identical so comparisons are apples-to-apples.
        assert_eq!(linux.memory_fraction, leap.memory_fraction);
        assert_eq!(linux.history_size, leap.history_size);
    }

    #[test]
    fn labels_are_informative() {
        let label = SimConfig::builder()
            .memory_fraction(0.5)
            .build()
            .unwrap()
            .label();
        assert!(label.contains("leap"));
        assert!(label.contains("50%"));
        assert_eq!(DataPathKind::LinuxDefault.label(), "linux-default");
        assert_eq!(EvictionPolicy::Eager.label(), "eager");
    }

    #[test]
    fn disk_defaults_use_requested_backend() {
        let config = SimConfig::disk_defaults(BackendKind::Hdd);
        assert_eq!(config.backend, BackendKind::Hdd);
        assert_eq!(config.data_path, DataPathKind::LinuxDefault);
    }

    #[test]
    fn label_round_trips() {
        for kind in [DataPathKind::LinuxDefault, DataPathKind::Leap] {
            assert_eq!(DataPathKind::from_label(kind.label()), Some(kind));
        }
        for policy in [EvictionPolicy::Lazy, EvictionPolicy::Eager] {
            assert_eq!(EvictionPolicy::from_label(policy.label()), Some(policy));
        }
        assert_eq!(DataPathKind::from_label("bogus"), None);
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let config = SimConfig::builder()
            .prefetcher(PrefetcherKind::Stride)
            .data_path(DataPathKind::LinuxDefault)
            .backend(BackendKind::Ssd)
            .eviction(EvictionPolicy::Lazy)
            .memory_fraction(0.25)
            .prefetch_cache_pages(512)
            .history_size(16)
            .max_prefetch_window(4)
            .cores(12)
            .sched_quantum(Nanos::from_micros(333))
            .context_switch_cost(Nanos::from_micros(5))
            .replay_mode(ReplayMode::Threaded)
            .per_process_isolation(true)
            .async_depth(6)
            .seed(1234)
            .backend_read_latency(Nanos::from_micros(7))
            .build()
            .unwrap();
        let json = config.to_json();
        let parsed = SimConfig::from_json(&json).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn json_round_trip_of_defaults() {
        for config in [SimConfig::linux_defaults(), SimConfig::leap_defaults()] {
            let parsed = SimConfig::from_json(&config.to_json()).unwrap();
            assert_eq!(parsed, config);
        }
    }

    #[test]
    fn fault_spec_rides_the_config_json() {
        let config = SimConfig::leap_defaults()
            .to_builder()
            .fault_plan(FaultSpec::canonical_storm())
            .build()
            .unwrap();
        assert!(config.fault.is_active());
        let parsed = SimConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(parsed, config);
        assert_eq!(parsed.fault, FaultSpec::canonical_storm());
        // Old configs without fault keys still parse, defaulting to healthy.
        let healthy = SimConfig::from_json(&SimConfig::linux_defaults().to_json()).unwrap();
        assert_eq!(healthy.fault, FaultSpec::none());
    }

    #[test]
    fn recovery_policy_rides_the_config_json() {
        let config = SimConfig::leap_defaults()
            .to_builder()
            .recovery_policy(RecoveryPolicy::tail_tolerant())
            .build()
            .unwrap();
        assert!(config.recovery.is_active());
        let parsed = SimConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(parsed, config);
        assert_eq!(parsed.recovery, RecoveryPolicy::tail_tolerant());
        // Old configs without recovery keys still parse, defaulting to off.
        let quiet = SimConfig::from_json(&SimConfig::linux_defaults().to_json()).unwrap();
        assert_eq!(quiet.recovery, RecoveryPolicy::none());
    }

    #[test]
    fn invalid_recovery_policy_is_rejected_at_validation() {
        let mut bad = RecoveryPolicy::none();
        bad.max_retries = 3; // retries without a deadline can never trigger
        let err = SimConfig::leap_defaults()
            .to_builder()
            .recovery_policy(bad)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidRecoveryPolicy { .. }));
        assert!(err.to_string().contains("recovery"));
    }

    #[test]
    fn unknown_fault_keys_surface_the_typed_error_text() {
        let err = SimConfig::from_json("{\"fault_warp_drive\":1}").unwrap_err();
        let ConfigError::Parse(msg) = &err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert!(msg.contains("fault_warp_drive"), "got {msg:?}");
        // A bad value on a known fault key is also a parse error, carrying
        // the key and the offending value from the typed remote-tier error.
        let err = SimConfig::from_json("{\"fault_latency_spikes\":\"lots\"}").unwrap_err();
        let ConfigError::Parse(msg) = &err else {
            panic!("expected a parse error, got {err:?}");
        };
        assert!(
            msg.contains("fault_latency_spikes") && msg.contains("lots"),
            "got {msg:?}"
        );
    }

    #[test]
    fn invalid_fault_spec_is_rejected_at_validation() {
        let mut bad = FaultSpec::canonical_storm();
        bad.horizon = bad.start;
        let err = SimConfig::leap_defaults()
            .to_builder()
            .fault_plan(bad)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidFaultSpec { .. }));
        assert!(err.to_string().contains("fault"));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(matches!(
            SimConfig::from_json("not json"),
            Err(ConfigError::Parse(_))
        ));
        assert!(matches!(
            SimConfig::from_json("{\"bogus_key\":1}"),
            Err(ConfigError::Parse(_))
        ));
        // Every label-valued key names its role and echoes the bad label.
        for (key, role) in [
            ("prefetcher", "prefetcher"),
            ("data_path", "data-path"),
            ("backend", "backend"),
            ("eviction", "eviction"),
            ("replay_mode", "replay-mode"),
        ] {
            let err = SimConfig::from_json(&format!("{{\"{key}\":\"Quantum\"}}")).unwrap_err();
            assert_eq!(
                err,
                ConfigError::UnknownComponent {
                    role,
                    name: "Quantum".into()
                },
                "{key}"
            );
            assert_eq!(err.to_string(), format!("unknown {role} \"Quantum\""));
        }
        // Parsed configs are validated like built ones.
        assert!(matches!(
            SimConfig::from_json("{\"cores\":0}"),
            Err(ConfigError::ZeroCores)
        ));
        assert!(matches!(
            SimConfig::from_json("{\"sched_quantum_ns\":0}"),
            Err(ConfigError::ZeroQuantum)
        ));
        assert!(matches!(
            SimConfig::from_json("{\"async_depth\":0}"),
            Err(ConfigError::ZeroAsyncDepth)
        ));
    }
}
