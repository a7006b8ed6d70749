//! The legacy, block-layer-based data path.
//!
//! This models the default Linux path a swapped page travels on a cache miss:
//! a bio is built, plugged/merged/sorted in the request queue, dispatched by
//! the I/O scheduler, and finally served by the device. The stage costs are
//! calibrated to the averages in the paper's Figure 1 (~0.27 µs cache lookup,
//! ~10 µs request preparation, ~21.9 µs queueing/batching/dispatch, ~2.1 µs
//! MMU work), with heavy-tailed variance: the paper notes the preparation and
//! batching stages vary enough to pull the average far from the median.

use crate::stages::{DataPath, PathLatency, Stage, CACHE_LOOKUP, MMU_UPDATE};
use leap_remote::{
    BackendKind, Device, FaultInjectionStats, FaultSpec, RecoveryPolicy, RemoteIoKind,
};
use leap_sim_core::{DetRng, Nanos, TableLatency};

/// Median bio construction / request preparation cost (10.04 µs).
const BIO_PREPARATION: Nanos = Nanos(10_040);
/// Median plugging + merging + sorting + staging cost. Figure 1 folds
/// queueing, merging, sorting, staging and dispatch into ~21.88 µs; we split
/// it 80/20 between this stage and [`DISPATCH`].
const QUEUEING_BATCHING: Nanos = Nanos(17_500);
/// Median I/O scheduler dispatch cost (4.38 µs).
const DISPATCH: Nanos = Nanos(4_380);
/// Log-space sigma applied to the block-layer stages (they are the variable
/// ones).
const BLOCK_LAYER_SIGMA: f64 = 0.6;

/// The default Linux-style data path over a given backing device.
///
/// # Examples
///
/// ```
/// use leap_datapath::{DataPath, LegacyDataPath};
/// use leap_remote::BackendKind;
/// use leap_sim_core::{DetRng, Nanos};
///
/// let mut path = LegacyDataPath::new(BackendKind::Rdma, DetRng::seed_from(7));
/// let breakdown = path.read_page(42, 0, Nanos::ZERO);
/// // The block-layer overhead dominates the RDMA transfer.
/// assert!(breakdown.total() > Nanos::from_micros(10));
/// ```
#[derive(Debug)]
pub struct LegacyDataPath {
    bio_sampler: TableLatency,
    queue_sampler: TableLatency,
    dispatch_sampler: TableLatency,
    /// The backing device and its service queues: a spinning disk or SSD
    /// serialises requests on a single queue, while RDMA NICs expose
    /// per-core queues. Demand misses, prefetch reads, and write-backs all
    /// occupy the same device, so aggressive prefetching pays for its I/O
    /// bandwidth here. The legacy path has no remote cluster, so of an
    /// installed fault plan only the epoch faults — latency spikes, degraded
    /// bandwidth, reconnect storms — apply; machine failures do not.
    device: Device,
    rng: DetRng,
}

impl LegacyDataPath {
    /// Creates a legacy path over the given backend.
    pub fn new(backend: BackendKind, rng: DetRng) -> Self {
        // One request stream for block devices, multi-queue for RDMA.
        let queues = match backend {
            BackendKind::Hdd | BackendKind::Ssd => 1,
            BackendKind::Rdma => 8,
        };
        // The block-layer log-normals are folded into quantile tables at
        // construction: one RNG draw + a linear interpolation per sample.
        LegacyDataPath {
            bio_sampler: TableLatency::from_lognormal(
                BIO_PREPARATION,
                BLOCK_LAYER_SIGMA,
                Nanos::from_nanos(500),
            ),
            queue_sampler: TableLatency::from_lognormal(
                QUEUEING_BATCHING,
                BLOCK_LAYER_SIGMA,
                Nanos::from_micros(1),
            ),
            dispatch_sampler: TableLatency::from_lognormal(
                DISPATCH,
                BLOCK_LAYER_SIGMA,
                Nanos::from_nanos(500),
            ),
            device: Device::new(backend, queues),
            rng,
        }
    }

    /// One request through the block layer and the device. Reads and writes
    /// draw in the same order (the three block-layer stages, then the device
    /// transfer); only a read pays the MMU update that maps the page.
    fn serve(&mut self, kind: RemoteIoKind, core: usize, now: Nanos) -> PathLatency {
        let mut breakdown = PathLatency::new();
        breakdown.push(Stage::CacheLookup, CACHE_LOOKUP);
        breakdown.push(
            Stage::BioPreparation,
            self.bio_sampler.sample(&mut self.rng),
        );
        breakdown.push(
            Stage::QueueingAndBatching,
            self.queue_sampler.sample(&mut self.rng),
        );
        breakdown.push(Stage::Dispatch, self.dispatch_sampler.sample(&mut self.rng));
        let (transfer, _) = self.device.transfer(kind, &mut self.rng, now);
        let queueing_delay = self.device.dispatch(core, now, transfer);
        breakdown.push(Stage::QueueingAndBatching, queueing_delay);
        breakdown.push(Stage::DeviceTransfer, transfer);
        if kind == RemoteIoKind::Read {
            breakdown.push(Stage::MmuUpdate, MMU_UPDATE);
        }
        breakdown
    }
}

impl DataPath for LegacyDataPath {
    fn read_page(&mut self, _page_offset: u64, core: usize, now: Nanos) -> PathLatency {
        self.serve(RemoteIoKind::Read, core, now)
    }

    fn write_page(&mut self, _page_offset: u64, core: usize, now: Nanos) -> PathLatency {
        self.serve(RemoteIoKind::Write, core, now)
    }

    fn name(&self) -> &'static str {
        "linux-default"
    }

    /// Installs the epoch faults of `(seed, spec)`; the block-layer path
    /// has no remote cluster to fail or partition, and no recovery layer,
    /// so `recovery` must be inactive (`SimConfig` validation rejects an
    /// active one for this path).
    fn install_faults(&mut self, seed: u64, spec: &FaultSpec, recovery: RecoveryPolicy) {
        debug_assert!(!recovery.is_active(), "no recovery on the block path");
        self.device.install_epoch_faults(seed, spec);
    }

    fn fault_stats(&self) -> FaultInjectionStats {
        self.device.fault_stats()
    }

    fn set_active_tenant(&mut self, tenant: u32) {
        self.device.set_active_tenant(tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_total_us(path: &mut LegacyDataPath, n: usize) -> f64 {
        // Space requests out so the device queue drains between them; these
        // tests measure the per-request path cost, not saturation behaviour.
        (0..n)
            .map(|i| {
                let now = Nanos::from_millis(5 * i as u64);
                path.read_page(i as u64, 0, now).total().as_micros_f64()
            })
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn rdma_read_averages_around_forty_microseconds() {
        // §2.2: an average 4 KB remote page access takes close to 40 µs on
        // the default path even though the RDMA op itself is ~4.3 µs.
        let mut path = LegacyDataPath::new(BackendKind::Rdma, DetRng::seed_from(5));
        let mean = mean_total_us(&mut path, 20_000);
        assert!(
            (30.0..55.0).contains(&mean),
            "mean legacy RDMA latency {mean} µs outside the expected band"
        );
    }

    #[test]
    fn hdd_read_averages_above_hundred_microseconds() {
        // Figure 2: disk paging on the default path averages ~125 µs.
        let mut path = LegacyDataPath::new(BackendKind::Hdd, DetRng::seed_from(5));
        let mean = mean_total_us(&mut path, 10_000);
        assert!(mean > 100.0, "mean legacy HDD latency {mean} µs too low");
    }

    #[test]
    fn block_layer_overhead_dominates_rdma_transfer() {
        let mut path = LegacyDataPath::new(BackendKind::Rdma, DetRng::seed_from(11));
        let mut block = 0.0;
        let mut device = 0.0;
        for i in 0..5_000u64 {
            let b = path.read_page(i, 0, Nanos::ZERO);
            block += (b.stage_total(Stage::BioPreparation)
                + b.stage_total(Stage::QueueingAndBatching)
                + b.stage_total(Stage::Dispatch))
            .as_micros_f64();
            device += b.stage_total(Stage::DeviceTransfer).as_micros_f64();
        }
        assert!(
            block > 3.0 * device,
            "block layer {block} not dominating device {device}"
        );
    }

    #[test]
    fn breakdown_contains_expected_stages() {
        let mut path = LegacyDataPath::new(BackendKind::Ssd, DetRng::seed_from(1));
        let b = path.read_page(0, 0, Nanos::ZERO);
        for stage in [
            Stage::CacheLookup,
            Stage::BioPreparation,
            Stage::QueueingAndBatching,
            Stage::Dispatch,
            Stage::DeviceTransfer,
            Stage::MmuUpdate,
        ] {
            assert!(
                !b.stage_total(stage).is_zero(),
                "stage {stage} missing from breakdown"
            );
        }
        // The legacy path never uses Leap's stages.
        assert!(b.stage_total(Stage::Prefetcher).is_zero());
        assert!(b.stage_total(Stage::RemoteInterface).is_zero());
    }

    #[test]
    fn writes_skip_the_mmu_update() {
        let mut path = LegacyDataPath::new(BackendKind::Rdma, DetRng::seed_from(2));
        let b = path.write_page(0, 0, Nanos::ZERO);
        assert!(b.stage_total(Stage::MmuUpdate).is_zero());
        assert!(!b.stage_total(Stage::DeviceTransfer).is_zero());
    }

    #[test]
    fn name_is_stable() {
        let path = LegacyDataPath::new(BackendKind::Rdma, DetRng::seed_from(0));
        assert_eq!(path.name(), "linux-default");
    }

    #[test]
    fn empty_fault_plan_reproduces_healthy_breakdowns() {
        let mut healthy = LegacyDataPath::new(BackendKind::Rdma, DetRng::seed_from(21));
        let mut faulted = LegacyDataPath::new(BackendKind::Rdma, DetRng::seed_from(21));
        faulted.install_faults(21, &FaultSpec::none(), RecoveryPolicy::none());
        for i in 0..200u64 {
            let now = Nanos::from_micros(3 * i);
            assert_eq!(healthy.read_page(i, 0, now), faulted.read_page(i, 0, now));
        }
        assert!(faulted.fault_stats().is_quiet());
    }

    #[test]
    fn latency_spikes_stretch_the_device_transfer() {
        let spec = FaultSpec {
            latency_spikes: 1,
            spike_multiplier_milli: 4000,
            epoch: Nanos::from_millis(100),
            start: Nanos::ZERO,
            horizon: Nanos::from_millis(1),
            ..FaultSpec::none()
        };
        let mut healthy = LegacyDataPath::new(BackendKind::Rdma, DetRng::seed_from(33));
        let mut faulted = LegacyDataPath::new(BackendKind::Rdma, DetRng::seed_from(33));
        faulted.install_faults(9, &spec, RecoveryPolicy::none());
        // Sample inside the spike epoch: the faulted path's device transfer
        // must be exactly 4x the healthy one while software stages match.
        let now = Nanos::from_millis(50);
        let h = healthy.read_page(0, 0, now);
        let f = faulted.read_page(0, 0, now);
        assert_eq!(
            f.stage_total(Stage::DeviceTransfer).as_nanos(),
            h.stage_total(Stage::DeviceTransfer).as_nanos() * 4
        );
        assert_eq!(
            f.stage_total(Stage::BioPreparation),
            h.stage_total(Stage::BioPreparation)
        );
        assert_eq!(faulted.fault_stats().spiked_requests, 1);
        assert!(!faulted.fault_stats().is_quiet());
    }
}
