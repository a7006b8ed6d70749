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
pub use leap_mem::EvictionPolicy;
use leap_prefetcher::PrefetcherKind;
use leap_remote::{BackendKind, FaultSpec, RecoveryPolicy};
use leap_sim_core::Nanos;

/// Which data path serves cache misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
            replay_mode: ReplayMode::Serial,
            per_process_isolation: false,
            async_depth: usize::MAX,
            seed: 42,
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
        self.fault
            .validate()
            .map_err(|reason| ConfigError::InvalidFaultSpec { reason })?;
        self.recovery
            .validate()
            .map_err(|reason| ConfigError::InvalidRecoveryPolicy { reason })?;
        if self.recovery.is_active() && self.data_path == DataPathKind::LinuxDefault {
            return Err(ConfigError::RecoveryOnLegacyPath);
        }
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
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::leap_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
