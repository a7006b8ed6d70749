//! Leap's lean data path.
//!
//! On a cache miss, Leap bypasses the block layer entirely: the request goes
//! from the fault handler through the (cheap) prefetcher logic to the remote
//! I/O interface, which looks up the slab/slot and posts the RDMA operation
//! on the issuing core's dispatch queue (§4.2, §4.4). The only software costs
//! left are the cache lookup, the prefetcher, the slot lookup, and the MMU
//! update — which is why a miss lands within a few µs of the raw RDMA time
//! (Figure 6).

use crate::stages::{DataPath, PathLatency, Stage, CACHE_LOOKUP, MMU_UPDATE};
use leap_remote::{
    FaultInjectionStats, FaultSpec, HostAgent, HostAgentConfig, RecoveryPolicy, RemoteCluster,
    RemoteIoKind,
};
use leap_sim_core::{DetRng, Nanos, TableLatency};

/// Median cost of the prefetcher (trend detection + candidate generation).
/// The paper's ~400-line kernel prefetcher costs well under a µs per fault
/// even at Hsize = 32 (§3.3).
const PREFETCHER: Nanos = Nanos(350);
/// Median cost of the remote I/O interface (slot lookup + RDMA post).
const REMOTE_INTERFACE: Nanos = Nanos(600);
/// Log-space sigma for the software stages (small: these are short,
/// predictable code paths).
const SOFTWARE_SIGMA: f64 = 0.2;

/// Leap's lean data path over a remote-memory [`HostAgent`].
///
/// # Examples
///
/// ```
/// use leap_datapath::{DataPath, LeanDataPath};
/// use leap_sim_core::{DetRng, Nanos};
///
/// let mut path = LeanDataPath::with_default_cluster(DetRng::seed_from(3));
/// let breakdown = path.read_page(42, 0, Nanos::ZERO);
/// // No block-layer stages on the lean path.
/// assert!(breakdown.stage_total(leap_datapath::Stage::BioPreparation).is_zero());
/// ```
#[derive(Debug)]
pub struct LeanDataPath {
    agent: HostAgent,
    prefetcher_sampler: TableLatency,
    interface_sampler: TableLatency,
    rng: DetRng,
}

impl LeanDataPath {
    /// Creates a lean path over an existing host agent.
    pub fn new(agent: HostAgent, mut rng: DetRng) -> Self {
        let local_rng = rng.fork();
        // The software-stage log-normals are folded into quantile tables at
        // construction: one RNG draw + a linear interpolation per sample on
        // the hot path instead of Box–Muller + exp.
        LeanDataPath {
            prefetcher_sampler: TableLatency::from_lognormal(
                PREFETCHER,
                SOFTWARE_SIGMA,
                Nanos::from_nanos(100),
            ),
            interface_sampler: TableLatency::from_lognormal(
                REMOTE_INTERFACE,
                SOFTWARE_SIGMA,
                Nanos::from_nanos(200),
            ),
            agent,
            rng: local_rng,
        }
    }

    /// Creates a lean path over a small default cluster (4 machines × 64
    /// slabs, RDMA backend, replication 2).
    pub fn with_default_cluster(mut rng: DetRng) -> Self {
        let agent_rng = rng.fork();
        let agent = HostAgent::new(
            HostAgentConfig::default(),
            RemoteCluster::homogeneous(4, 64),
            agent_rng,
        );
        LeanDataPath::new(agent, rng)
    }

    fn serve(
        &mut self,
        kind: RemoteIoKind,
        page_offset: u64,
        core: usize,
        now: Nanos,
    ) -> PathLatency {
        let mut breakdown = PathLatency::new();
        breakdown.push(Stage::CacheLookup, CACHE_LOOKUP);
        breakdown.push(
            Stage::Prefetcher,
            self.prefetcher_sampler.sample(&mut self.rng),
        );
        breakdown.push(
            Stage::RemoteInterface,
            self.interface_sampler.sample(&mut self.rng),
        );
        match self.agent.remote_io(kind, page_offset, core, now) {
            Some(result) => {
                breakdown.push(Stage::Dispatch, result.queueing_delay);
                breakdown.push(Stage::DeviceTransfer, result.transport_latency);
            }
            None => {
                // Out of remote capacity: model the fallback to a local SSD
                // swap device, which is what Infiniswap-style systems do.
                breakdown.push(
                    Stage::DeviceTransfer,
                    leap_remote::BackendKind::Ssd.nominal_latency(),
                );
            }
        }
        if kind == RemoteIoKind::Read {
            breakdown.push(Stage::MmuUpdate, MMU_UPDATE);
        }
        breakdown
    }
}

impl DataPath for LeanDataPath {
    fn read_page(&mut self, page_offset: u64, core: usize, now: Nanos) -> PathLatency {
        self.serve(RemoteIoKind::Read, page_offset, core, now)
    }

    fn write_page(&mut self, page_offset: u64, core: usize, now: Nanos) -> PathLatency {
        self.serve(RemoteIoKind::Write, page_offset, core, now)
    }

    fn name(&self) -> &'static str {
        "leap"
    }

    fn install_faults(&mut self, seed: u64, spec: &FaultSpec, recovery: RecoveryPolicy) {
        self.agent.install_faults(seed, spec, recovery);
    }

    fn fault_stats(&self) -> FaultInjectionStats {
        self.agent.fault_stats()
    }

    fn recovery_stats(&self) -> leap_remote::RecoveryStats {
        self.agent.recovery_stats()
    }

    fn tenant_recovery(&self) -> Vec<(u32, leap_remote::TenantRecovery)> {
        self.agent.tenant_recovery()
    }

    fn set_active_tenant(&mut self, tenant: u32) {
        self.agent.set_active_tenant(tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legacy::LegacyDataPath;
    use leap_remote::BackendKind;

    fn mean_total_us(path: &mut dyn DataPath, n: usize) -> f64 {
        // Space requests out (one every 20 µs) so the per-core dispatch
        // queues drain between them; the tests below measure the per-request
        // path cost, not queueing under saturation.
        (0..n)
            .map(|i| {
                let now = Nanos::from_micros(20 * i as u64);
                path.read_page(i as u64, i % 8, now).total().as_micros_f64()
            })
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn lean_path_read_is_single_digit_microseconds() {
        let mut path = LeanDataPath::with_default_cluster(DetRng::seed_from(1));
        let mean = mean_total_us(&mut path, 10_000);
        assert!(
            (5.0..12.0).contains(&mean),
            "mean lean-path latency {mean} µs outside expected band"
        );
    }

    #[test]
    fn lean_path_is_much_faster_than_legacy_on_rdma() {
        let mut lean = LeanDataPath::with_default_cluster(DetRng::seed_from(2));
        let mut legacy = LegacyDataPath::new(BackendKind::Rdma, DetRng::seed_from(2));
        let lean_mean = mean_total_us(&mut lean, 5_000);
        let legacy_mean = mean_total_us(&mut legacy, 5_000);
        assert!(
            legacy_mean > 3.0 * lean_mean,
            "legacy {legacy_mean} µs vs lean {lean_mean} µs: expected ≥3× gap"
        );
    }

    #[test]
    fn lean_path_skips_block_layer_stages() {
        let mut path = LeanDataPath::with_default_cluster(DetRng::seed_from(3));
        let b = path.read_page(0, 0, Nanos::ZERO);
        assert!(b.stage_total(Stage::BioPreparation).is_zero());
        assert!(b.stage_total(Stage::QueueingAndBatching).is_zero());
        assert!(!b.stage_total(Stage::Prefetcher).is_zero());
        assert!(!b.stage_total(Stage::RemoteInterface).is_zero());
        assert!(!b.stage_total(Stage::DeviceTransfer).is_zero());
    }

    #[test]
    fn writes_skip_the_mmu_update() {
        let mut path = LeanDataPath::with_default_cluster(DetRng::seed_from(4));
        let b = path.write_page(7, 0, Nanos::ZERO);
        assert!(b.stage_total(Stage::MmuUpdate).is_zero());
    }

    #[test]
    fn concurrent_cores_spread_over_dispatch_queues() {
        let mut path = LeanDataPath::with_default_cluster(DetRng::seed_from(5));
        // Many back-to-back requests all at t=0 from the same core pile up;
        // spreading over cores does not.
        let mut same_core_total = Nanos::ZERO;
        for i in 0..32u64 {
            same_core_total += path.read_page(i, 0, Nanos::ZERO).total();
        }
        let mut spread = LeanDataPath::with_default_cluster(DetRng::seed_from(5));
        let mut spread_total = Nanos::ZERO;
        for i in 0..32u64 {
            spread_total += spread.read_page(i, i as usize, Nanos::ZERO).total();
        }
        assert!(same_core_total > spread_total);
    }

    #[test]
    fn name_is_stable() {
        let path = LeanDataPath::with_default_cluster(DetRng::seed_from(0));
        assert_eq!(path.name(), "leap");
    }

    #[test]
    fn read_span_matches_per_read_loop_stage_by_stage() {
        // Under a partition storm with tail-tolerant recovery every request
        // can fail over, retry or hedge. The span's per-read totals and its
        // per-stage aggregate (what Figure 1/7 style reports read) must
        // equal the per-read loop's, stage by stage.
        let build = || {
            let mut path = LeanDataPath::with_default_cluster(DetRng::seed_from(31));
            path.install_faults(
                31,
                &FaultSpec::canonical_partition_storm(),
                RecoveryPolicy::tail_tolerant(),
            );
            path
        };
        let mut span_path = build();
        let mut loop_path = build();
        let mut span_totals = Vec::new();
        for step in 0..80u64 {
            let now = Nanos::from_micros(step * 9);
            let core = (step % 4) as usize;
            let pages: Vec<u64> = (0..(step % 6)).map(|i| step * 13 + i).collect();
            span_totals.clear();
            let aggregate = span_path.read_span(&pages, core, now, &mut span_totals);
            let mut stage_sums = [Nanos::ZERO; Stage::ALL.len()];
            for (i, &page) in pages.iter().enumerate() {
                let b = loop_path.read_page(page, core, now);
                assert_eq!(span_totals[i], b.total(), "step {step} page {i}");
                for stage in Stage::ALL {
                    stage_sums[stage.index()] += b.stage_total(stage);
                }
            }
            for stage in Stage::ALL {
                assert_eq!(
                    aggregate.stage_total(stage),
                    stage_sums[stage.index()],
                    "step {step} stage {stage}"
                );
            }
        }
        assert_eq!(
            span_path.recovery_stats(),
            loop_path.recovery_stats(),
            "recovery accounting must agree between span and loop"
        );
        assert!(
            !span_path.recovery_stats().is_quiet(),
            "the storm must actually exercise recovery"
        );
    }
}
