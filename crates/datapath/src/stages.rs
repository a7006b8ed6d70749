//! Named data-path stages and latency breakdowns.

use leap_sim_core::Nanos;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::AddAssign;

/// A software or hardware stage a page request may pass through.
///
/// The set mirrors Figure 1 of the paper: the cache lookup and MMU work are
/// common to both paths; the bio/queueing/batching stages exist only on the
/// legacy block-layer path; the device/transport stage is where the HDD, SSD,
/// or RDMA access happens; Leap adds its own (much cheaper) prefetcher and
/// remote-interface stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Page-cache (swap cache / VFS cache) lookup.
    CacheLookup,
    /// MMU/page-table work to map the page once its data is available.
    MmuUpdate,
    /// Building the bio / block request (legacy path only).
    BioPreparation,
    /// Plugging, merging, sorting and staging in the request queue
    /// (legacy path only).
    QueueingAndBatching,
    /// I/O scheduler dispatch to the device driver (legacy path only).
    Dispatch,
    /// The device or network transfer itself (HDD/SSD/RDMA).
    DeviceTransfer,
    /// Leap's prefetcher (trend detection + candidate generation).
    Prefetcher,
    /// Leap's remote I/O interface (slot lookup + RDMA post).
    RemoteInterface,
}

impl Stage {
    /// All stages, in rough pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::CacheLookup,
        Stage::Prefetcher,
        Stage::BioPreparation,
        Stage::QueueingAndBatching,
        Stage::Dispatch,
        Stage::RemoteInterface,
        Stage::DeviceTransfer,
        Stage::MmuUpdate,
    ];

    /// Dense index of this stage in [`Stage::ALL`] (pipeline order), used
    /// for fixed-size per-stage accumulators.
    pub const fn index(self) -> usize {
        match self {
            Stage::CacheLookup => 0,
            Stage::Prefetcher => 1,
            Stage::BioPreparation => 2,
            Stage::QueueingAndBatching => 3,
            Stage::Dispatch => 4,
            Stage::RemoteInterface => 5,
            Stage::DeviceTransfer => 6,
            Stage::MmuUpdate => 7,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::CacheLookup => "cache lookup",
            Stage::MmuUpdate => "MMU update",
            Stage::BioPreparation => "bio preparation",
            Stage::QueueingAndBatching => "queueing+batching",
            Stage::Dispatch => "dispatch",
            Stage::DeviceTransfer => "device transfer",
            Stage::Prefetcher => "prefetcher",
            Stage::RemoteInterface => "remote interface",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One stage's contribution to a request's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageLatency {
    /// Which stage.
    pub stage: Stage,
    /// How long the request spent in it.
    pub latency: Nanos,
}

/// The latency breakdown of one page request through a data path, or the
/// per-stage sums over a span of them.
///
/// One saturating accumulator per [`Stage`], indexed by [`Stage::index`]: a
/// stage recorded twice (the legacy path charges queueing both in the block
/// layer and on the device queue) accumulates, and a breakdown is a fixed
/// 64-byte value, so building one per remote access, prefetch and
/// write-back never touches the heap.
///
/// # Examples
///
/// ```
/// use leap_datapath::{PathLatency, Stage};
/// use leap_sim_core::Nanos;
///
/// let mut span = PathLatency::new();
/// let mut read = PathLatency::new();
/// read.push(Stage::DeviceTransfer, Nanos::from_micros(4));
/// read.push(Stage::CacheLookup, Nanos::from_nanos(270));
/// span += read;
/// span += read;
/// assert_eq!(span.stage_total(Stage::DeviceTransfer), Nanos::from_micros(8));
/// assert_eq!(span.total(), Nanos::from_nanos(8_540));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathLatency {
    stages: [Nanos; Stage::ALL.len()],
}

impl PathLatency {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        PathLatency::default()
    }

    /// Adds a stage's latency to that stage's running sum.
    #[inline]
    pub fn push(&mut self, stage: Stage, latency: Nanos) {
        let slot = &mut self.stages[stage.index()];
        *slot = slot.saturating_add(latency);
    }

    /// Total end-to-end latency.
    pub fn total(&self) -> Nanos {
        self.stages.iter().copied().sum()
    }

    /// Latency attributed to one stage (summed over repeats).
    pub fn stage_total(&self, stage: Stage) -> Nanos {
        self.stages[stage.index()]
    }

    /// Iterates over the stages with non-zero latency, in [`Stage::ALL`]
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = StageLatency> + '_ {
        Stage::ALL
            .into_iter()
            .map(|stage| StageLatency {
                stage,
                latency: self.stages[stage.index()],
            })
            .filter(|entry| !entry.latency.is_zero())
    }
}

impl AddAssign for PathLatency {
    /// Element-wise saturating sum: folds one request's breakdown into a
    /// span's aggregate.
    fn add_assign(&mut self, rhs: PathLatency) {
        for (sum, latency) in self.stages.iter_mut().zip(rhs.stages) {
            *sum = sum.saturating_add(latency);
        }
    }
}

/// A data path that can serve a page read request and report its breakdown.
///
/// `core` identifies the CPU issuing the request (used for per-core dispatch
/// queues); `page_offset` is the swap-slot/remote offset of the page; `now`
/// is the current simulated time.
pub trait DataPath: Send + std::fmt::Debug {
    /// Serves a single 4 KB page read, returning its latency breakdown.
    fn read_page(&mut self, page_offset: u64, core: usize, now: Nanos) -> PathLatency;

    /// Serves a single 4 KB page write, returning its latency breakdown.
    fn write_page(&mut self, page_offset: u64, core: usize, now: Nanos) -> PathLatency;

    /// Serves a whole span of page reads issued together — same core, same
    /// instant, as when an admitted prefetch span goes out — pushing each
    /// read's end-to-end total onto `totals` (one entry per page, in order)
    /// and returning the aggregate breakdown with per-stage sums over the
    /// span.
    ///
    /// This is a provided loop over [`DataPath::read_page`], and both data
    /// paths use it as is: a span issues exactly the per-page requests, in
    /// order.
    fn read_span(
        &mut self,
        pages: &[u64],
        core: usize,
        now: Nanos,
        totals: &mut Vec<Nanos>,
    ) -> PathLatency {
        let mut aggregate = PathLatency::new();
        for &page in pages {
            let breakdown = self.read_page(page, core, now);
            totals.push(breakdown.total());
            aggregate += breakdown;
        }
        aggregate
    }

    /// A short name for reports ("linux-default" or "leap").
    fn name(&self) -> &'static str;

    /// Fault-injection accounting for this path. Paths without a fault
    /// layer report the quiet default (no faults observed).
    fn fault_stats(&self) -> leap_remote::FaultInjectionStats {
        leap_remote::FaultInjectionStats::default()
    }

    /// Recovery accounting for this path. Paths without a recovery layer
    /// report the quiet default (no recovery action taken).
    fn recovery_stats(&self) -> leap_remote::RecoveryStats {
        leap_remote::RecoveryStats::default()
    }

    /// Per-tenant recovery ledgers, sorted by tenant id. Empty for paths
    /// without a recovery layer or for untagged traffic.
    fn tenant_recovery(&self) -> Vec<(u32, leap_remote::TenantRecovery)> {
        Vec::new()
    }

    /// Tags subsequent accesses with the issuing tenant (`0` = untagged).
    /// The engine calls this before every access; paths without
    /// tenant-aware fault/recovery layers ignore it.
    fn set_active_tenant(&mut self, _tenant: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_stages() {
        let mut p = PathLatency::new();
        p.push(Stage::CacheLookup, Nanos::from_nanos(270));
        p.push(Stage::DeviceTransfer, Nanos::from_micros(4));
        p.push(Stage::MmuUpdate, Nanos::from_micros(2));
        assert_eq!(p.total(), Nanos::from_nanos(270 + 4_000 + 2_000));
        assert_eq!(p.iter().count(), 3);
    }

    #[test]
    fn stage_total_sums_repeats() {
        let mut p = PathLatency::new();
        p.push(Stage::DeviceTransfer, Nanos::from_micros(4));
        p.push(Stage::DeviceTransfer, Nanos::from_micros(6));
        assert_eq!(p.stage_total(Stage::DeviceTransfer), Nanos::from_micros(10));
        assert_eq!(p.stage_total(Stage::CacheLookup), Nanos::ZERO);
    }

    #[test]
    fn empty_breakdown() {
        let p = PathLatency::new();
        assert_eq!(p.iter().next(), None);
        assert_eq!(p.total(), Nanos::ZERO);
    }

    #[test]
    fn repeated_stages_accumulate_and_iterate_in_pipeline_order() {
        // Pushed out of pipeline order, with the legacy path's repeated
        // queueing stage and a zero-latency stage that must not show up.
        let mut p = PathLatency::new();
        p.push(Stage::MmuUpdate, Nanos::from_nanos(5));
        p.push(Stage::QueueingAndBatching, Nanos::from_nanos(30));
        p.push(Stage::Dispatch, Nanos::ZERO);
        p.push(Stage::CacheLookup, Nanos::from_nanos(1));
        p.push(Stage::QueueingAndBatching, Nanos::from_nanos(12));
        let entries: Vec<(Stage, u64)> =
            p.iter().map(|e| (e.stage, e.latency.as_nanos())).collect();
        assert_eq!(
            entries,
            vec![
                (Stage::CacheLookup, 1),
                (Stage::QueueingAndBatching, 42),
                (Stage::MmuUpdate, 5),
            ]
        );
        assert_eq!(p.total(), Nanos::from_nanos(48));
    }

    #[test]
    fn index_matches_position_in_all() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i, "{stage}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Stage::ALL.len());
    }
}
