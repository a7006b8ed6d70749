//! Leap: prefetching and a lean data path for disaggregated remote memory.
//!
//! This crate is the core library of the reproduction of *Effectively
//! Prefetching Remote Memory with Leap* (USENIX ATC 2020). It composes the
//! substrate crates — memory management (`leap-mem`), remote memory
//! (`leap-remote`), data paths (`leap-datapath`), prefetchers
//! (`leap-prefetcher`), eviction policies (`leap-eviction`), workloads
//! (`leap-workloads`) and metrics (`leap-metrics`) — into two front-ends
//! behind one [`Simulator`] trait:
//!
//! - [`vmm::VmmSimulator`]: disaggregated virtual memory management
//!   (Infiniswap-style remote paging), the configuration most of the paper's
//!   evaluation uses.
//! - [`vfs::VfsSimulator`]: disaggregated VFS (Remote-Regions-style remote
//!   file access).
//!
//! Both are driven by [`leap_workloads::AccessTrace`]s and produce a
//! [`result::RunResult`] with the latency distributions, cache statistics,
//! prefetch effectiveness, and completion time / throughput numbers the
//! paper's figures report. Every replay goes through one driver
//! ([`parallel`]) under the deterministic scheduler in [`sched`], and a
//! [`session::Session`] runs the same replays with [`session::Observer`]
//! hooks attached, handing them one [`session::FaultEvent`] per access.
//!
//! A single-process replay ([`session::Simulator::run`]) is the unsplit
//! simulator on a one-core schedule. Multi-process replays
//! ([`session::Simulator::run_multi`]) time-share the processes over
//! [`SimConfig::cores`] cores: the front-end splits into per-core shard
//! workers where its state allows (the VMM with per-process isolation
//! shards its swap space, prefetch cache, eviction state, and prefetcher
//! trends per core) or into one worker spanning every core where it does
//! not. Every [`session::FaultEvent`] carries the core it ran on and a
//! per-core dense `seq`, so per-core streams (Figure 13 scale-up curves)
//! come straight out of the observer API.
//!
//! # Quick start
//!
//! Configurations are built with the validated [`SimConfig::builder`]
//! (invalid combinations return a [`ConfigError`] at
//! [`SimConfigBuilder::build`] time):
//!
//! ```
//! use leap::prelude::*;
//! use leap_sim_core::units::MIB;
//!
//! // A Stride-10 microbenchmark over 8 MiB with 50 % local memory.
//! let trace = leap_workloads::stride_trace(8 * MIB, 10, 2);
//! let config = SimConfig::builder()
//!     .memory_fraction(0.5)
//!     .seed(7)
//!     .build()
//!     .expect("valid configuration");
//! let result = VmmSimulator::new(config).run(&trace);
//! assert!(result.remote_accesses() > 0);
//! // The Leap configuration serves most remote accesses from the prefetch cache.
//! assert!(result.cache_stats.hit_ratio() > 0.5);
//! ```
//!
//! # Plugging in a prefetcher
//!
//! Of the three mechanisms the paper composes, the data path and the
//! eviction policy are closed enum choices ([`DataPathKind`],
//! [`EvictionPolicy`]). The prefetcher is open: implement
//! [`components::PrefetcherFactory`] outside this crate and inject it with
//! [`SimConfigBuilder::custom_prefetcher`]; it gets per-process isolation
//! like the built-in [`leap_prefetcher::PrefetcherKind`]s.

#![warn(missing_docs)]

pub mod builder;
pub mod components;
pub mod config;
mod engine;
pub mod error;
pub mod parallel;
pub mod pipeline;
pub mod recorder;
pub mod result;
pub mod sched;
pub mod session;
mod slots;
pub mod stage_timing;
pub mod tracker;
pub mod vfs;
pub mod vmm;

pub use builder::{SimConfigBuilder, SimSetup};
pub use components::{PrefetcherFactory, ResolvedComponents};
pub use config::{DataPathKind, EvictionPolicy, ReplayMode, SimConfig};
pub use error::ConfigError;
pub use pipeline::{AsyncPipeline, IoKind};
pub use recorder::TraceRecorder;
pub use result::RunResult;
pub use sched::CoreScheduler;
pub use session::{
    AccessOutcome, CoreActivity, EventLog, FaultEvent, HistogramObserver, Observer, OutcomeCounts,
    Session, Simulator,
};
pub use tracker::PageAccessTracker;
pub use vfs::VfsSimulator;
pub use vmm::VmmSimulator;

pub use leap_remote::{
    FaultInjectionStats, FaultJsonError, FaultPlan, FaultSpec, RecoveryPolicy, RecoveryStats,
    TenantRecovery,
};

/// Commonly used items, re-exported for examples and experiment binaries.
pub mod prelude {
    pub use crate::builder::{SimConfigBuilder, SimSetup};
    pub use crate::components::PrefetcherFactory;
    pub use crate::config::{DataPathKind, EvictionPolicy, ReplayMode, SimConfig};
    pub use crate::error::ConfigError;
    pub use crate::pipeline::{AsyncPipeline, IoKind};
    pub use crate::recorder::TraceRecorder;
    pub use crate::result::RunResult;
    pub use crate::sched::CoreScheduler;
    pub use crate::session::{
        AccessOutcome, CoreActivity, EventLog, FaultEvent, HistogramObserver, Observer,
        OutcomeCounts, Session, Simulator,
    };
    pub use crate::tracker::PageAccessTracker;
    pub use crate::vfs::VfsSimulator;
    pub use crate::vmm::VmmSimulator;
    pub use leap_prefetcher::PrefetcherKind;
    pub use leap_remote::{
        BackendKind, FaultInjectionStats, FaultJsonError, FaultPlan, FaultSpec, RecoveryPolicy,
        RecoveryStats, TenantRecovery,
    };
    pub use leap_sim_core::Nanos;
    pub use leap_workloads::{AppKind, AppModel};
}
