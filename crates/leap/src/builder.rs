//! The validated configuration builder.
//!
//! [`SimConfigBuilder`] replaces the old ad-hoc `with_*` copy-setters:
//! every knob has a setter, and [`SimConfigBuilder::build`] validates the
//! combination, returning `Result<SimConfig, ConfigError>` instead of
//! silently clamping or letting nonsense configurations produce nonsense
//! results. A third-party prefetcher is injected with
//! [`SimConfigBuilder::custom_prefetcher`]; [`SimConfigBuilder::build_setup`]
//! then yields a [`SimSetup`] from which simulators are constructed.

use crate::components::{PrefetcherFactory, ResolvedComponents};
use crate::config::{DataPathKind, EvictionPolicy, ReplayMode, SimConfig};
use crate::error::ConfigError;
use crate::vfs::VfsSimulator;
use crate::vmm::VmmSimulator;
use leap_prefetcher::PrefetcherKind;
use leap_remote::BackendKind;
use leap_sim_core::Nanos;
use std::sync::Arc;

/// Builder for [`SimConfig`] with validation at [`build`] time.
///
/// [`build`]: SimConfigBuilder::build
///
/// # Examples
///
/// ```
/// use leap::prelude::*;
///
/// let config = SimConfig::builder()
///     .memory_fraction(0.5)
///     .history_size(64)
///     .max_prefetch_window(16)
///     .cores(16)
///     .seed(7)
///     .build()
///     .expect("a valid configuration");
/// assert_eq!(config.history_size, 64);
///
/// // Invalid combinations are rejected with the offending knob:
/// let err = SimConfig::builder().memory_fraction(1.5).build().unwrap_err();
/// assert!(matches!(err, ConfigError::MemoryFractionOutOfRange(_)));
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
    prefetcher_override: Option<Arc<dyn PrefetcherFactory>>,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder::from_config(SimConfig::default())
    }
}

impl SimConfigBuilder {
    /// Starts from an existing configuration.
    pub(crate) fn from_config(config: SimConfig) -> Self {
        SimConfigBuilder {
            config,
            prefetcher_override: None,
        }
    }

    /// Selects a built-in prefetching algorithm.
    pub fn prefetcher(mut self, kind: PrefetcherKind) -> Self {
        self.config.prefetcher = kind;
        self.prefetcher_override = None;
        self
    }

    /// Selects the data path.
    pub fn data_path(mut self, kind: DataPathKind) -> Self {
        self.config.data_path = kind;
        self
    }

    /// Selects the backing store.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.config.backend = kind;
        self
    }

    /// Selects the eviction policy.
    pub fn eviction(mut self, policy: EvictionPolicy) -> Self {
        self.config.eviction = policy;
        self
    }

    /// Sets the local memory limit as a fraction of the working set.
    /// Validated to lie in `(0, 1]` at build time.
    pub fn memory_fraction(mut self, fraction: f64) -> Self {
        self.config.memory_fraction = fraction;
        self
    }

    /// Sets the prefetch-cache capacity in pages (`u64::MAX` = unbounded).
    pub fn prefetch_cache_pages(mut self, pages: u64) -> Self {
        self.config.prefetch_cache_pages = pages;
        self
    }

    /// Sets `Hsize`, the access-history length. Validated nonzero.
    pub fn history_size(mut self, size: usize) -> Self {
        self.config.history_size = size;
        self
    }

    /// Sets `PWsize_max`, the maximum prefetch window. Validated nonzero.
    pub fn max_prefetch_window(mut self, window: usize) -> Self {
        self.config.max_prefetch_window = window;
        self
    }

    /// Sets the number of CPU cores (per-core dispatch queues). Validated
    /// nonzero.
    pub fn cores(mut self, cores: usize) -> Self {
        self.config.cores = cores;
        self
    }

    /// Sets the scheduler time slice used by multi-process replays
    /// ([`crate::Simulator::run_multi`]). Validated nonzero.
    ///
    /// # Examples
    ///
    /// ```
    /// use leap::prelude::*;
    /// use leap_sim_core::Nanos;
    ///
    /// // Two processes time-shared on 2 cores with a 200 µs quantum.
    /// let traces = vec![
    ///     leap_workloads::sequential_trace(2 * leap_sim_core::units::MIB, 1),
    ///     leap_workloads::stride_trace(2 * leap_sim_core::units::MIB, 10, 1),
    /// ];
    /// let sim = SimConfig::builder()
    ///     .cores(2)
    ///     .sched_quantum(Nanos::from_micros(200))
    ///     .seed(7)
    ///     .build_vmm()?;
    /// let result = sim.run_multi(&traces);
    /// assert_eq!(result.total_accesses, 1024);
    /// # Ok::<(), leap::ConfigError>(())
    /// ```
    pub fn sched_quantum(mut self, quantum: Nanos) -> Self {
        self.config.sched_quantum = quantum;
        self
    }

    /// Selects how multi-process replays execute: the core shards one after
    /// another on the calling thread ([`ReplayMode::Serial`], the default)
    /// or one OS thread per core shard ([`ReplayMode::Threaded`]). Simulated results are bit-identical in
    /// both modes; only wall-clock time differs.
    pub fn replay_mode(mut self, mode: ReplayMode) -> Self {
        self.config.replay_mode = mode;
        self
    }

    /// Sets per-process prefetcher isolation.
    pub fn per_process_isolation(mut self, isolated: bool) -> Self {
        self.config.per_process_isolation = isolated;
        self
    }

    /// Sets the in-flight budget of the per-shard async I/O pipeline
    /// ([`crate::AsyncPipeline`]). Validated nonzero.
    ///
    /// `usize::MAX` (the default) keeps the legacy free-overlap accounting:
    /// asynchronous prefetch reads and write-backs never stall the faulting
    /// access. Finite depths bound the asynchrony; depth 1 bills every async
    /// I/O synchronously.
    ///
    /// # Examples
    ///
    /// ```
    /// use leap::prelude::*;
    ///
    /// let config = SimConfig::builder().async_depth(8).build()?;
    /// assert_eq!(config.async_depth, 8);
    /// let err = SimConfig::builder().async_depth(0).build().unwrap_err();
    /// assert!(matches!(err, ConfigError::ZeroAsyncDepth));
    /// # Ok::<(), leap::ConfigError>(())
    /// ```
    pub fn async_depth(mut self, depth: usize) -> Self {
        self.config.async_depth = depth;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Installs a fault-injection spec for the remote tier. The spec is
    /// expanded into a concrete [`leap_remote::FaultPlan`] from
    /// `(seed, spec)` when the data path is built, so the same seed always
    /// schedules the same faults in either replay mode. Validated for
    /// consistency at build time; [`FaultSpec::none`] (the default) keeps
    /// the fabric healthy.
    ///
    /// [`FaultSpec::none`]: leap_remote::FaultSpec::none
    pub fn fault_plan(mut self, spec: leap_remote::FaultSpec) -> Self {
        self.config.fault = spec;
        self
    }

    /// Installs a request-recovery policy for the remote tier: virtual-time
    /// deadlines with retry/backoff, hedged reads, and fail-fast rerouting
    /// around link partitions. Recovery draws from its own salted RNG stream
    /// (`seed ^ RECOVERY_SALT`), so enabling it never perturbs the fault
    /// schedule or the workload; [`RecoveryPolicy::none`] (the default)
    /// keeps runs byte-identical to a build without the layer. Validated
    /// for consistency at build time.
    ///
    /// Only the lean data path has a recovery layer: an active policy with
    /// [`DataPathKind::LinuxDefault`] fails to build with
    /// [`ConfigError::RecoveryOnLegacyPath`] rather than run without it.
    ///
    /// [`RecoveryPolicy::none`]: leap_remote::RecoveryPolicy::none
    pub fn recovery_policy(mut self, policy: leap_remote::RecoveryPolicy) -> Self {
        self.config.recovery = policy;
        self
    }

    /// Injects a custom prefetcher factory in place of the built-in
    /// [`SimConfig::prefetcher`]. One instance is built per process under
    /// per-process isolation.
    pub fn custom_prefetcher(mut self, factory: impl PrefetcherFactory + 'static) -> Self {
        self.prefetcher_override = Some(Arc::new(factory));
        self
    }

    /// Validates and returns the plain-data configuration.
    ///
    /// A custom prefetcher is *not* carried by [`SimConfig`] (it stays
    /// plain `Copy` data), so calling `build` while one is pending
    /// returns [`ConfigError::ComponentsRequireSetup`] instead of silently
    /// dropping it; use [`SimConfigBuilder::build_setup`] (or
    /// [`SimConfigBuilder::build_vmm`]) when a custom prefetcher is in play.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.config.validate()?;
        if self.prefetcher_override.is_some() {
            return Err(ConfigError::ComponentsRequireSetup);
        }
        Ok(self.config)
    }

    /// Validates the configuration and resolves its components, returning a
    /// [`SimSetup`] from which simulators are constructed.
    pub fn build_setup(self) -> Result<SimSetup, ConfigError> {
        self.config.validate()?;
        let mut components = ResolvedComponents::builtin_for(&self.config);
        if let Some(factory) = self.prefetcher_override {
            components.prefetcher = factory;
        }
        Ok(SimSetup {
            config: self.config,
            components,
        })
    }

    /// Shorthand for `build_setup()?.vmm()`.
    pub fn build_vmm(self) -> Result<VmmSimulator, ConfigError> {
        Ok(self.build_setup()?.vmm())
    }
}

/// A validated configuration plus its resolved components, ready to
/// construct simulators.
///
/// Cheap to clone (components are shared factories), so one setup can spawn
/// many simulator instances for repeated runs.
#[derive(Debug, Clone)]
pub struct SimSetup {
    /// The validated plain-data configuration.
    pub config: SimConfig,
    components: ResolvedComponents,
}

impl SimSetup {
    /// Resolves a plain configuration against the built-in components.
    ///
    /// Fails only if `config` itself is invalid — enum-selected components
    /// always resolve.
    pub(crate) fn from_config(config: SimConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(SimSetup {
            components: ResolvedComponents::builtin_for(&config),
            config,
        })
    }

    /// The resolved components.
    pub(crate) fn components(&self) -> &ResolvedComponents {
        &self.components
    }

    /// The run label (component names + memory fraction).
    pub fn label(&self) -> String {
        self.components.label(&self.config)
    }

    /// Constructs a disaggregated-VMM simulator from this setup.
    pub fn vmm(&self) -> VmmSimulator {
        VmmSimulator::from_setup(self)
    }

    /// Constructs a disaggregated-VFS simulator from this setup.
    pub fn vfs(&self) -> VfsSimulator {
        VfsSimulator::from_setup(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_knob() {
        let config = SimConfig::builder()
            .prefetcher(PrefetcherKind::Stride)
            .data_path(DataPathKind::LinuxDefault)
            .backend(BackendKind::Hdd)
            .eviction(EvictionPolicy::Lazy)
            .memory_fraction(0.25)
            .prefetch_cache_pages(256)
            .history_size(16)
            .max_prefetch_window(4)
            .cores(4)
            .sched_quantum(Nanos::from_micros(750))
            .per_process_isolation(false)
            .async_depth(16)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(config.prefetcher, PrefetcherKind::Stride);
        assert_eq!(config.data_path, DataPathKind::LinuxDefault);
        assert_eq!(config.backend, BackendKind::Hdd);
        assert_eq!(config.eviction, EvictionPolicy::Lazy);
        assert_eq!(config.memory_fraction, 0.25);
        assert_eq!(config.prefetch_cache_pages, 256);
        assert_eq!(config.history_size, 16);
        assert_eq!(config.max_prefetch_window, 4);
        assert_eq!(config.cores, 4);
        assert_eq!(config.sched_quantum, Nanos::from_micros(750));
        assert!(!config.per_process_isolation);
        assert_eq!(config.async_depth, 16);
        assert_eq!(config.seed, 99);
    }

    #[test]
    fn every_invalid_knob_gets_its_own_error() {
        assert!(matches!(
            SimConfig::builder().memory_fraction(0.0).build(),
            Err(ConfigError::MemoryFractionOutOfRange(_))
        ));
        assert!(matches!(
            SimConfig::builder().memory_fraction(f64::NAN).build(),
            Err(ConfigError::MemoryFractionOutOfRange(_))
        ));
        assert!(matches!(
            SimConfig::builder().history_size(0).build(),
            Err(ConfigError::ZeroHistorySize)
        ));
        assert!(matches!(
            SimConfig::builder().max_prefetch_window(0).build(),
            Err(ConfigError::ZeroPrefetchWindow)
        ));
        assert!(matches!(
            SimConfig::builder().cores(0).build(),
            Err(ConfigError::ZeroCores)
        ));
        assert!(matches!(
            SimConfig::builder().sched_quantum(Nanos::ZERO).build(),
            Err(ConfigError::ZeroQuantum)
        ));
        assert!(matches!(
            SimConfig::builder().prefetch_cache_pages(0).build(),
            Err(ConfigError::ZeroPrefetchCache)
        ));
        assert!(matches!(
            SimConfig::builder().async_depth(0).build(),
            Err(ConfigError::ZeroAsyncDepth)
        ));
        assert!(matches!(
            SimConfig::builder()
                .prefetch_cache_pages(4)
                .max_prefetch_window(8)
                .build(),
            Err(ConfigError::CacheSmallerThanWindow {
                cache_pages: 4,
                window: 8
            })
        ));
    }

    #[test]
    fn plain_build_rejects_pending_component_selections() {
        #[derive(Debug)]
        struct Fixed;
        impl crate::components::PrefetcherFactory for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn build(&self, config: &SimConfig) -> Box<dyn leap_prefetcher::Prefetcher> {
                crate::components::build_prefetcher(PrefetcherKind::None, 1, config.cores)
            }
        }
        // A pending custom factory cannot ride in plain SimConfig data, so
        // build() errors instead of silently dropping it...
        assert!(matches!(
            SimConfig::builder().custom_prefetcher(Fixed).build(),
            Err(ConfigError::ComponentsRequireSetup)
        ));
        // ...while build_setup() carries it through.
        let setup = SimConfig::builder()
            .custom_prefetcher(Fixed)
            .build_setup()
            .unwrap();
        assert_eq!(setup.components().prefetcher.name(), "fixed");
    }

    #[test]
    fn setup_label_matches_config_label_for_builtins() {
        let prefetchers = [
            PrefetcherKind::None,
            PrefetcherKind::NextNLine,
            PrefetcherKind::Stride,
            PrefetcherKind::ReadAhead,
            PrefetcherKind::Leap,
        ];
        for prefetcher in prefetchers {
            for data_path in [DataPathKind::LinuxDefault, DataPathKind::Leap] {
                for eviction in [EvictionPolicy::Lazy, EvictionPolicy::Eager] {
                    let setup = SimConfig::builder()
                        .prefetcher(prefetcher)
                        .data_path(data_path)
                        .eviction(eviction)
                        .build_setup()
                        .unwrap();
                    assert_eq!(setup.label(), setup.config.label());
                }
            }
        }
    }

    #[test]
    fn invalid_configs_cannot_become_setups() {
        let mut config = SimConfig::leap_defaults();
        config.cores = 0;
        assert!(matches!(
            SimSetup::from_config(config),
            Err(ConfigError::ZeroCores)
        ));
    }
}
