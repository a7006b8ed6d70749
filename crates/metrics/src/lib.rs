//! Metrics and reporting for the Leap reproduction.
//!
//! Every experiment in the paper reports one of a small set of quantities:
//! latency distributions (medians, 99th percentiles, CDFs/CCDFs), cache
//! counters (adds, hits, misses, pollution), prefetch effectiveness
//! (accuracy, coverage, timeliness — §3.1), and application-level completion
//! time or throughput. This crate collects them:
//!
//! - [`histogram::LatencyHistogram`]: percentile queries over latency
//!   samples.
//! - [`cache_stats::CacheStats`]: cache adds/hits/misses/evictions and
//!   pollution accounting.
//! - [`prefetch_stats::PrefetchStats`]: accuracy, coverage, and timeliness.
//! - [`outcome_stats::PrefetchOutcomes`]: covered vs. wasted prefetches,
//!   with the checksummed per-shard ledger the arena's golden suite pins.
//! - [`report`]: plain-text table rendering used by the experiment binaries.

pub mod cache_stats;
pub mod histogram;
pub(crate) mod outcome_stats;
pub mod prefetch_stats;
pub mod report;

pub use cache_stats::CacheStats;
pub use histogram::LatencyHistogram;
pub use outcome_stats::PrefetchOutcomes;
pub use prefetch_stats::PrefetchStats;
pub use report::TextTable;
