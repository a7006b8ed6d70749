//! Umbrella crate for the Leap reproduction workspace.
//!
//! `leap-repro` re-exports the workspace crates so the examples and the
//! cross-crate integration tests can depend on a single package. The actual
//! functionality lives in:
//!
//! - [`leap`] — the core library (fault engine, VMM/VFS front-ends).
//! - [`leap_prefetcher`] — the majority-trend prefetcher and baselines.
//! - [`leap_mem`], [`leap_remote`], [`leap_datapath`] — the substrates
//!   (the swap cache in `leap_mem` carries its own eviction rules).
//! - [`leap_service`] — the multi-tenant far-memory paging service
//!   (admission, budgets, per-tenant QoS).
//! - [`leap_workloads`] — trace generators.
//! - [`leap_metrics`] — histograms, counters, and text tables.
//! - [`leap_sim_core`] — clock, RNG, latency samplers.
//!
//! The README below is included verbatim so its examples compile and run
//! under `cargo test --doc` and cannot rot.
#![doc = include_str!("../README.md")]

pub use leap;
pub use leap_datapath;
pub use leap_mem;
pub use leap_metrics;
pub use leap_prefetcher;
pub use leap_remote;
pub use leap_service;
pub use leap_sim_core;
pub use leap_workloads;

/// Convenience prelude mirroring [`leap::prelude`].
pub mod prelude {
    pub use leap::prelude::*;
}
