//! Results of a simulation run.

use crate::pipeline::PipelineStats;
use leap_metrics::{CacheStats, LatencyHistogram, PrefetchOutcomes, PrefetchStats};
use leap_remote::{FaultInjectionStats, RecoveryStats, TenantRecovery};
use leap_sim_core::Nanos;
use std::collections::BTreeMap;

/// Everything a run produces: latency distributions, cache and prefetch
/// statistics, and the application-level completion time.
///
/// Which fields matter depends on the experiment: Figures 2/7/8a read the
/// remote-access latency distribution, Figure 9 reads the cache statistics,
/// Figure 10 reads accuracy/coverage/timeliness, Figures 11–13 read
/// completion time and throughput, and Figure 4 reads the lazy-eviction wait
/// distribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Label of the configuration that produced the result.
    pub config_label: String,
    /// Name of the workload trace.
    pub workload: String,
    /// End-to-end completion time (compute + memory stalls).
    pub completion_time: Nanos,
    /// Total accesses replayed.
    pub total_accesses: u64,
    /// Accesses that touched a non-resident, previously swapped-out page
    /// (the paper's "remote page accesses").
    pub remote_accesses: u64,
    /// First-touch (demand-zero) minor faults.
    pub first_touch_faults: u64,
    /// Latency distribution of remote page accesses (cache hits and misses).
    pub remote_access_latency: LatencyHistogram,
    /// Latency distribution of every access, including local hits.
    pub access_latency: LatencyHistogram,
    /// Cache behaviour counters.
    pub cache_stats: CacheStats,
    /// Prefetch accuracy / coverage / timeliness.
    pub prefetch_stats: PrefetchStats,
    /// Prefetch outcome classification: every prefetched page is *covered*
    /// (demanded before eviction) or *wasted* (evicted unused, or still
    /// unconsumed when the run sealed), with an order-sensitive per-shard
    /// FNV checksum merged commutatively across shards.
    pub prefetch_outcomes: PrefetchOutcomes,
    /// Time consumed prefetched pages waited in the cache after their first
    /// hit before the lazy reclaimer freed them (Figure 4); empty under eager
    /// eviction.
    pub eviction_wait: LatencyHistogram,
    /// Time spent waiting for page allocation (reclaim scans) on the fault
    /// path.
    pub allocation_wait: LatencyHistogram,
    /// Pages written back to the slower tier (swap-outs).
    pub pages_swapped_out: u64,
    /// Async request/completion pipeline counters (prefetch reads,
    /// write-backs, budget stall); merged across shards.
    pub pipeline: PipelineStats,
    /// Fault-injection accounting: requests hit by latency spikes, degraded
    /// bandwidth or reconnect storms, machines failed, slabs re-replicated,
    /// and an order-sensitive per-shard checksum merged commutatively across
    /// shards. Quiet (all-zero) when no fault plan was installed.
    pub fault_stats: FaultInjectionStats,
    /// Swap-outs attributed per tenant (`pid.0` → pages evicted from that
    /// tenant's residency), keyed with a `BTreeMap` so iteration — and
    /// therefore any report built from it — is deterministic.
    pub tenant_evictions: BTreeMap<u32, u64>,
    /// Request-recovery accounting: deadline timeouts, retries, hedged
    /// reads issued/won/wasted, degraded (disk-path) reads, partition
    /// fail-fasts, and a commutative checksum merged across shards. Quiet
    /// (all-zero) when no recovery policy was installed.
    pub recovery_stats: RecoveryStats,
    /// Recovery actions attributed per tenant (`pid.0` → that tenant's
    /// retries, hedge wins, and degraded reads); empty for untagged runs.
    pub tenant_recovery: BTreeMap<u32, TenantRecovery>,
}

impl RunResult {
    /// Remote page accesses observed (cache hits + misses).
    pub fn remote_accesses(&self) -> u64 {
        self.remote_accesses
    }

    /// Completion time in seconds.
    pub fn completion_seconds(&self) -> f64 {
        self.completion_time.as_secs_f64()
    }

    /// Throughput in accesses per second of completion time.
    ///
    /// The paper reports VoltDB in transactions/s and Memcached in
    /// operations/s; both are proportional to accesses per second for a fixed
    /// trace, so ratios between configurations are preserved.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        let secs = self.completion_seconds();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_accesses as f64 / secs
    }

    /// Median remote-access latency.
    pub fn median_remote_latency(&mut self) -> Nanos {
        self.remote_access_latency.median()
    }

    /// 99th-percentile remote-access latency.
    pub fn p99_remote_latency(&mut self) -> Nanos {
        self.remote_access_latency.percentile(99.0)
    }

    /// The fraction of remote accesses served by the prefetch/swap cache.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache_stats.hit_ratio()
    }

    /// Folds one per-core shard worker's partial result into this aggregate.
    ///
    /// Counters add, histograms concatenate in call order; callers must fold
    /// shards in ascending core order so aggregation is deterministic
    /// regardless of replay mode. `completion_time` is *not* touched — the
    /// makespan comes from the scheduler, not from any single shard.
    pub(crate) fn absorb_shard(&mut self, shard: RunResult) {
        self.total_accesses += shard.total_accesses;
        self.remote_accesses += shard.remote_accesses;
        self.first_touch_faults += shard.first_touch_faults;
        self.pages_swapped_out += shard.pages_swapped_out;
        self.remote_access_latency
            .merge(&shard.remote_access_latency);
        self.access_latency.merge(&shard.access_latency);
        self.cache_stats.merge(&shard.cache_stats);
        self.prefetch_stats.merge(&shard.prefetch_stats);
        self.prefetch_outcomes.merge(&shard.prefetch_outcomes);
        self.eviction_wait.merge(&shard.eviction_wait);
        self.allocation_wait.merge(&shard.allocation_wait);
        self.pipeline.merge(&shard.pipeline);
        self.fault_stats.merge(&shard.fault_stats);
        for (pid, pages) in shard.tenant_evictions {
            *self.tenant_evictions.entry(pid).or_insert(0) += pages;
        }
        self.recovery_stats.merge(&shard.recovery_stats);
        for (pid, ledger) in shard.tenant_recovery {
            self.tenant_recovery.entry(pid).or_default().merge(&ledger);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_result_is_empty() {
        let r = RunResult::default();
        assert_eq!(r.remote_accesses(), 0);
        assert_eq!(r.throughput_ops_per_sec(), 0.0);
        assert_eq!(r.completion_seconds(), 0.0);
    }

    #[test]
    fn throughput_uses_completion_time() {
        let r = RunResult {
            total_accesses: 1_000,
            completion_time: Nanos::from_secs(2),
            ..RunResult::default()
        };
        assert!((r.throughput_ops_per_sec() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn latency_accessors_read_the_histogram() {
        let mut r = RunResult::default();
        for us in [1u64, 2, 3, 4, 100] {
            r.remote_access_latency.record(Nanos::from_micros(us));
        }
        assert_eq!(r.median_remote_latency(), Nanos::from_micros(3));
        assert_eq!(r.p99_remote_latency(), Nanos::from_micros(100));
    }
}
