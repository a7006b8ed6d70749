//! Configuration errors.

use std::fmt;

/// Why a [`crate::SimConfig`] failed to validate.
///
/// Produced by [`crate::SimConfigBuilder::build`]. Each variant names the
/// offending knob so experiment scripts can report actionable errors instead
/// of panicking deep inside a run.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `memory_fraction` must lie in `(0, 1]`.
    MemoryFractionOutOfRange(f64),
    /// `history_size` (the paper's `Hsize`) must be nonzero.
    ZeroHistorySize,
    /// `max_prefetch_window` (the paper's `PWsize_max`) must be nonzero.
    ZeroPrefetchWindow,
    /// `cores` must be nonzero (there is at least one dispatch queue).
    ZeroCores,
    /// `sched_quantum` must be nonzero: a zero-length time slice would make
    /// the multi-process scheduler context-switch after every access without
    /// any process ever making progress within a slice.
    ZeroQuantum,
    /// `prefetch_cache_pages` must be nonzero; a zero-capacity cache would
    /// silently disable prefetching while the prefetcher still pays for it.
    ZeroPrefetchCache,
    /// `async_depth` must be nonzero: a zero in-flight budget could never
    /// admit a request. Depth 1 is the synchronous-billing degenerate case;
    /// `usize::MAX` (the default) is unbounded asynchrony.
    ZeroAsyncDepth,
    /// A bounded prefetch cache must hold at least one full prefetch window,
    /// otherwise every prefetch batch evicts its own earlier pages before
    /// they can be consumed and the eviction policy degenerates to thrash.
    CacheSmallerThanWindow {
        /// Configured cache capacity in pages.
        cache_pages: u64,
        /// Configured maximum prefetch window.
        window: usize,
    },
    /// [`crate::SimConfigBuilder::build`] was called while a custom
    /// prefetcher is pending. Plain [`crate::SimConfig`] cannot carry it; use
    /// [`crate::SimConfigBuilder::build_setup`] (or
    /// [`crate::SimConfigBuilder::build_vmm`]) so the prefetcher is honoured
    /// instead of dropped.
    ComponentsRequireSetup,
    /// The fault-injection spec is inconsistent (see
    /// [`leap_remote::FaultSpec::validate`]).
    InvalidFaultSpec {
        /// What the fault spec got wrong.
        reason: &'static str,
    },
    /// The recovery policy is inconsistent (see
    /// [`leap_remote::RecoveryPolicy::validate`]).
    InvalidRecoveryPolicy {
        /// What the recovery policy got wrong.
        reason: &'static str,
    },
    /// An active recovery policy was paired with
    /// [`crate::DataPathKind::LinuxDefault`]. The block-layer path has no
    /// recovery layer, so its deadlines, retries and hedges would silently
    /// never run.
    RecoveryOnLegacyPath,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MemoryFractionOutOfRange(v) => {
                write!(f, "memory_fraction must be in (0, 1], got {v}")
            }
            ConfigError::ZeroHistorySize => write!(f, "history_size must be nonzero"),
            ConfigError::ZeroPrefetchWindow => write!(f, "max_prefetch_window must be nonzero"),
            ConfigError::ZeroCores => write!(f, "cores must be nonzero"),
            ConfigError::ZeroQuantum => write!(f, "sched_quantum must be nonzero"),
            ConfigError::ZeroPrefetchCache => write!(f, "prefetch_cache_pages must be nonzero"),
            ConfigError::ZeroAsyncDepth => write!(f, "async_depth must be nonzero"),
            ConfigError::CacheSmallerThanWindow {
                cache_pages,
                window,
            } => write!(
                f,
                "prefetch cache of {cache_pages} pages cannot hold one \
                 max_prefetch_window of {window} pages"
            ),
            ConfigError::ComponentsRequireSetup => write!(
                f,
                "a custom prefetcher is pending; build_setup() \
                 (or build_vmm()) must be used so it is not dropped"
            ),
            ConfigError::InvalidFaultSpec { reason } => {
                write!(f, "invalid fault spec: {reason}")
            }
            ConfigError::InvalidRecoveryPolicy { reason } => {
                write!(f, "invalid recovery policy: {reason}")
            }
            ConfigError::RecoveryOnLegacyPath => write!(f, "recovery needs the lean data path"),
        }
    }
}

impl std::error::Error for ConfigError {}
