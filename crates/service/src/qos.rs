//! Per-tenant QoS accounting.
//!
//! [`TenantQos`] is a [`leap::Observer`] that splits one multi-tenant
//! replay's fault-event stream per process and distils each tenant's
//! service quality: paging throughput, fault-latency percentiles, cache hit
//! ratio — plus two checksums that pin determinism:
//!
//! - the **behavior checksum** folds what happened (page, read/write,
//!   outcome, prefetches issued, core) in per-tenant delivery order but
//!   ignores *when*, so it is invariant across async depths as long as the
//!   engine made the same decisions;
//! - the **timing checksum** additionally folds each event's latency and
//!   completion instant, so it pins bit-identical timing across
//!   [`leap::ReplayMode`]s for one configuration.

use leap::{AccessOutcome, FaultEvent, Observer, RunResult, TenantRecovery};
use leap_mem::CacheOrigin;
use leap_metrics::LatencyHistogram;
use leap_sim_core::hash::{checksum_fold, CHECKSUM_SEED};
use leap_sim_core::Nanos;
use std::collections::BTreeMap;

fn outcome_word(outcome: AccessOutcome) -> u64 {
    match outcome {
        AccessOutcome::LocalHit => 0,
        AccessOutcome::MinorFault => 1,
        AccessOutcome::CacheHit {
            origin: CacheOrigin::Prefetch,
        } => 2,
        AccessOutcome::CacheHit {
            origin: CacheOrigin::Demand,
        } => 3,
        AccessOutcome::RemoteFetch => 4,
        AccessOutcome::BufferedWrite => 5,
    }
}

/// Running accumulators for one tenant (one pid).
#[derive(Debug, Default)]
struct TenantAccum {
    accesses: u64,
    remote_accesses: u64,
    cache_hits: u64,
    fault_latency: LatencyHistogram,
    behavior_checksum: u64,
    timing_checksum: u64,
}

/// One tenant's finished QoS numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQosReport {
    /// The pid the tenant ran as in this wave.
    pub pid: u32,
    /// Accesses the tenant replayed.
    pub accesses: u64,
    /// Remote page accesses (cache hits + misses).
    pub remote_accesses: u64,
    /// Remote accesses served from the swap/prefetch cache.
    pub cache_hits: u64,
    /// Fraction of remote accesses served from the cache.
    pub hit_ratio: f64,
    /// Median remote-fault latency.
    pub p50_fault_latency: Nanos,
    /// 99th-percentile remote-fault latency.
    pub p99_fault_latency: Nanos,
    /// Pages the tenant touched per second of the wave's makespan.
    pub pages_per_sec: f64,
    /// Order-sensitive checksum over *what* the tenant's events did
    /// (latency-blind; equal across async depths for identical decisions).
    pub behavior_checksum: u64,
    /// Checksum over the full events including latency and completion
    /// times (equal across replay modes for one configuration).
    pub timing_checksum: u64,
    /// Recovery actions the remote tier took on this tenant's behalf
    /// (retries, hedge wins, degraded reads); all-zero when no recovery
    /// policy was installed or nothing went wrong for this tenant.
    pub recovery: TenantRecovery,
}

/// Observer splitting a multi-tenant replay's event stream per tenant. One
/// instance observes one wave; [`TenantQos::into_reports`] finishes it.
#[derive(Debug, Default)]
pub struct TenantQos {
    tenants: BTreeMap<u32, TenantAccum>,
    makespan: Nanos,
    recovery: BTreeMap<u32, TenantRecovery>,
}

impl TenantQos {
    /// An empty accumulator.
    pub fn new() -> Self {
        TenantQos::default()
    }

    /// The wave's makespan as reported by the finished run (zero until
    /// [`Observer::on_complete`] fires).
    pub fn makespan(&self) -> Nanos {
        self.makespan
    }

    /// Finishes accounting: one report per observed pid, in pid order.
    pub fn into_reports(self) -> Vec<TenantQosReport> {
        let secs = self.makespan.as_secs_f64();
        let recovery = self.recovery;
        self.tenants
            .into_iter()
            .map(|(pid, mut acc)| {
                let hit_ratio = if acc.remote_accesses > 0 {
                    acc.cache_hits as f64 / acc.remote_accesses as f64
                } else {
                    0.0
                };
                let pages_per_sec = if secs > 0.0 {
                    acc.accesses as f64 / secs
                } else {
                    0.0
                };
                TenantQosReport {
                    pid,
                    accesses: acc.accesses,
                    remote_accesses: acc.remote_accesses,
                    cache_hits: acc.cache_hits,
                    hit_ratio,
                    p50_fault_latency: acc.fault_latency.median(),
                    p99_fault_latency: acc.fault_latency.percentile(99.0),
                    pages_per_sec,
                    behavior_checksum: acc.behavior_checksum,
                    timing_checksum: acc.timing_checksum,
                    recovery: recovery.get(&pid).copied().unwrap_or_default(),
                }
            })
            .collect()
    }
}

impl Observer for TenantQos {
    fn on_event(&mut self, event: &FaultEvent) {
        let acc = self
            .tenants
            .entry(event.pid.0)
            .or_insert_with(|| TenantAccum {
                behavior_checksum: CHECKSUM_SEED,
                timing_checksum: CHECKSUM_SEED,
                ..TenantAccum::default()
            });
        acc.accesses += 1;
        if event.outcome.is_remote() {
            acc.remote_accesses += 1;
            acc.fault_latency.record(event.latency);
        }
        if matches!(event.outcome, AccessOutcome::CacheHit { .. }) {
            acc.cache_hits += 1;
        }
        let mut word = event.page;
        word = checksum_fold(word, u64::from(event.is_write));
        word = checksum_fold(word, outcome_word(event.outcome));
        word = checksum_fold(word, u64::from(event.prefetches_issued));
        word = checksum_fold(word, event.core as u64);
        acc.behavior_checksum = checksum_fold(acc.behavior_checksum, word);
        let mut timed = checksum_fold(word, event.latency.as_nanos());
        timed = checksum_fold(timed, event.completed_at.as_nanos());
        acc.timing_checksum = checksum_fold(acc.timing_checksum, timed);
    }

    fn on_complete(&mut self, result: &RunResult) {
        self.makespan = result.completion_time;
        self.recovery = result.tenant_recovery.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_mem::Pid;

    fn event(pid: u32, page: u64, outcome: AccessOutcome, latency: u64) -> FaultEvent {
        FaultEvent {
            seq: 0,
            pid: Pid(pid),
            core: 0,
            page,
            is_write: false,
            compute: Nanos::ZERO,
            outcome,
            latency: Nanos(latency),
            completed_at: Nanos(latency),
            prefetches_issued: 0,
        }
    }

    #[test]
    fn splits_streams_per_tenant() {
        let mut qos = TenantQos::new();
        qos.on_event(&event(1, 10, AccessOutcome::RemoteFetch, 5_000));
        qos.on_event(&event(2, 20, AccessOutcome::LocalHit, 100));
        qos.on_event(&event(
            1,
            11,
            AccessOutcome::CacheHit {
                origin: CacheOrigin::Prefetch,
            },
            700,
        ));
        let done = RunResult {
            completion_time: Nanos::from_secs(1),
            ..RunResult::default()
        };
        qos.on_complete(&done);
        let reports = qos.into_reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].pid, 1);
        assert_eq!(reports[0].accesses, 2);
        assert_eq!(reports[0].remote_accesses, 2);
        assert_eq!(reports[0].cache_hits, 1);
        assert!((reports[0].hit_ratio - 0.5).abs() < 1e-12);
        assert_eq!(reports[1].pid, 2);
        assert_eq!(reports[1].remote_accesses, 0);
    }

    #[test]
    fn behavior_checksum_ignores_timing_but_timing_checksum_does_not() {
        let fast = event(1, 10, AccessOutcome::RemoteFetch, 1_000);
        let mut slow = fast;
        slow.latency = Nanos(9_000);
        slow.completed_at = Nanos(9_000);

        let mut a = TenantQos::new();
        a.on_event(&fast);
        let mut b = TenantQos::new();
        b.on_event(&slow);
        let ra = a.into_reports();
        let rb = b.into_reports();
        assert_eq!(ra[0].behavior_checksum, rb[0].behavior_checksum);
        assert_ne!(ra[0].timing_checksum, rb[0].timing_checksum);
    }
}
