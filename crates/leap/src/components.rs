//! Simulator components: the prefetcher plug-in point and the built-ins.
//!
//! The paper's claim is that Leap is a *composition* of three separable
//! mechanisms — the majority-trend prefetcher, the lean data path, and eager
//! eviction. The data path and the eviction policy are closed choices, one
//! enum each ([`DataPathKind::build`], and the
//! [`EvictionPolicy`](crate::EvictionPolicy) each swap
//! cache shard follows). The
//! prefetcher is the one open role: a [`PrefetcherFactory`] defined outside
//! this crate — an oracle or 3PO-style programmed prefetch policy, a Markov
//! delta model — is injected with
//! [`crate::SimConfigBuilder::custom_prefetcher`]. A factory (rather than an
//! instance) is what plugs in because per-process isolation (§4.1) needs one
//! fresh prefetcher per process; `KindPrefetcherFactory` wraps the
//! built-in [`PrefetcherKind`]s.
//!
//! The built-ins honour every relevant [`SimConfig`] knob: history and
//! window sizes for prefetchers, core count and backend for data paths.

use crate::config::{DataPathKind, SimConfig};
use leap_datapath::{DataPath, LeanDataPath, LegacyDataPath};
use leap_prefetcher::{
    LeapConfig, LeapPrefetcher, NextNLinePrefetcher, NoPrefetcher, Prefetcher, PrefetcherKind,
    ReadAheadPrefetcher, StridePrefetcher,
};
use leap_remote::{HostAgent, HostAgentConfig, RemoteCluster};
use leap_sim_core::DetRng;
use std::fmt;
use std::sync::Arc;

/// Builds prefetcher instances for a configuration.
///
/// One instance is requested per process under per-process isolation, so
/// implementations must return fresh, independent state on every call.
pub trait PrefetcherFactory: fmt::Debug + Send + Sync {
    /// The component name used in report labels.
    fn name(&self) -> &'static str;

    /// Builds one prefetcher instance for `config`.
    fn build(&self, config: &SimConfig) -> Box<dyn Prefetcher>;
}

/// Built-in prefetcher factory wrapping a [`PrefetcherKind`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct KindPrefetcherFactory(pub PrefetcherKind);

impl PrefetcherFactory for KindPrefetcherFactory {
    fn name(&self) -> &'static str {
        self.0.label()
    }

    fn build(&self, config: &SimConfig) -> Box<dyn Prefetcher> {
        build_prefetcher(self.0, config.history_size, config.max_prefetch_window)
    }
}

/// Builds a prefetcher instance of the given kind.
///
/// `history_size` and `max_window` only affect the Leap prefetcher; the
/// baselines use `max_window` as their aggressiveness bound.
pub fn build_prefetcher(
    kind: PrefetcherKind,
    history_size: usize,
    max_window: usize,
) -> Box<dyn Prefetcher> {
    match kind {
        PrefetcherKind::None => Box::new(NoPrefetcher),
        PrefetcherKind::NextNLine => Box::new(NextNLinePrefetcher::new(max_window.max(1))),
        PrefetcherKind::Stride => Box::new(StridePrefetcher::new(max_window.max(1))),
        PrefetcherKind::ReadAhead => Box::new(ReadAheadPrefetcher::new(max_window.max(1))),
        PrefetcherKind::Leap => Box::new(LeapPrefetcher::new(LeapConfig {
            history_size: history_size.max(1),
            n_split: 4,
            max_prefetch_window: max_window.max(1),
        })),
    }
}

impl DataPathKind {
    /// Builds the data path serving cache misses for `config`. Randomness
    /// comes only from `rng`, so runs stay deterministic for a seed.
    pub fn build(self, config: &SimConfig, rng: &mut DetRng) -> Box<dyn DataPath> {
        let mut path: Box<dyn DataPath> = match self {
            DataPathKind::LinuxDefault => Box::new(LegacyDataPath::new(config.backend, rng.fork())),
            DataPathKind::Leap => {
                let agent = HostAgent::new(
                    HostAgentConfig {
                        cores: config.cores,
                        backend: config.backend,
                        ..HostAgentConfig::default()
                    },
                    RemoteCluster::homogeneous(4, 256),
                    rng.fork(),
                );
                Box::new(LeanDataPath::new(agent, rng.fork()))
            }
        };
        path.install_faults(config.seed, &config.fault, config.recovery);
        path
    }
}

/// The components a simulator run uses: the prefetcher factory (a built-in
/// or a [`crate::SimConfigBuilder::custom_prefetcher`] injection) and the
/// data path. Produced by [`crate::SimConfigBuilder::build_setup`]; plain
/// configs resolve to the built-ins.
#[derive(Debug, Clone)]
pub struct ResolvedComponents {
    /// Prefetcher factory (one instance built per process under isolation).
    pub prefetcher: Arc<dyn PrefetcherFactory>,
    /// The data path, always the configuration's own.
    pub data_path: DataPathKind,
}

impl ResolvedComponents {
    /// The built-in components a plain [`SimConfig`] selects via its enums.
    pub fn builtin_for(config: &SimConfig) -> Self {
        ResolvedComponents {
            prefetcher: Arc::new(KindPrefetcherFactory(config.prefetcher)),
            data_path: config.data_path,
        }
    }

    /// A `data-path/prefetcher/eviction @fraction%` label; identical to
    /// [`SimConfig::label`] unless a custom prefetcher is in play.
    pub fn label(&self, config: &SimConfig) -> String {
        format!(
            "{}/{}/{} @{:.0}%",
            config.data_path.label(),
            self.prefetcher.name(),
            config.eviction.label(),
            config.memory_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_components_build_their_kind() {
        let config = SimConfig::leap_defaults();
        let prefetcher = ResolvedComponents::builtin_for(&config)
            .prefetcher
            .build(&config);
        assert_eq!(prefetcher.name(), "Leap");
    }
}
