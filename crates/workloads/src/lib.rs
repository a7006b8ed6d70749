//! Workload and application trace generators.
//!
//! The paper evaluates Leap on two microbenchmarks (Sequential and Stride-10)
//! and four real applications (PowerGraph on a Twitter-like graph, NumPy
//! matrix multiplication, VoltDB running TPC-C, and Memcached under a
//! Facebook-style key-value workload). We cannot run those applications, but
//! the prefetcher only ever observes their *page access streams*; this crate
//! generates synthetic traces that reproduce the access-pattern mixes the
//! paper reports (Figure 3) and the working-set sizes it lists (§5.3).
//!
//! - [`trace`]: the [`AccessTrace`] type (a sequence of page accesses with a
//!   per-access compute cost).
//! - [`micro`]: Sequential and Stride-K microbenchmark generators.
//! - [`apps`]: the four application models.
//! - [`classify`]: the window-pattern classifier used to regenerate Figure 3.
//! - [`ingest`]: trace ingestion from recorded fault logs (DAMON region
//!   samples and perf-script page faults) — real applications as a workload
//!   source, without porting them.

pub mod apps;
pub mod classify;
pub mod ingest;
pub mod micro;
pub mod trace;

pub use apps::{AppKind, AppModel};
pub use classify::{classify_windows, PatternMode};
pub use ingest::{IngestError, IngestedLog, LogFormat};
pub use micro::{sequential_trace, stride_trace};
pub use trace::{Access, AccessTrace};
