//! The disaggregated-VFS front-end (Remote-Regions-style remote file access).
//!
//! Instead of faulting on anonymous memory, a VFS workload issues explicit
//! file reads and writes at page granularity. Reads are looked up in the VFS
//! page cache first; misses traverse the configured data path to the remote
//! file, and the prefetcher brings neighbouring file pages into the cache.
//! Writes go to the cache and are written back asynchronously. The paper uses
//! this front-end for the Figure 2/7 "D-VFS" latency curves: 1 GB of remote
//! writes followed by 1 GB of remote reads under Sequential and Stride-10
//! patterns.
//!
//! Like the VMM front-end, all cross-cutting machinery lives in the shared
//! engine core; this file models only the VFS cache budget and the
//! read/buffered-write split.

use crate::builder::SimSetup;
use crate::config::SimConfig;
use crate::engine::EngineCore;
use crate::result::RunResult;
use crate::sched::CoreScheduler;
use crate::session::{AccessOutcome, FaultEvent, Simulator};
use leap_mem::{MemoryLimit, Pid, SwapSlot};
use leap_prefetcher::PageAddr;
use leap_sim_core::units::PAGE_SIZE;
use leap_sim_core::Nanos;
use leap_workloads::{Access, AccessTrace};

/// Latency of a VFS cache hit (page already cached locally).
const VFS_CACHE_HIT: Nanos = Nanos(800);
/// Cost of looking up the VFS cache before going remote.
const VFS_CACHE_LOOKUP: Nanos = Nanos(270);
/// Software cost of accepting a buffered write into the cache.
const BUFFERED_WRITE: Nanos = Nanos(900);

/// The disaggregated-VFS simulator.
///
/// # Examples
///
/// ```
/// use leap::prelude::*;
/// use leap_sim_core::units::MIB;
///
/// let trace = leap_workloads::sequential_trace(4 * MIB, 1);
/// let result = VfsSimulator::new(SimConfig::leap_defaults()).run(&trace);
/// assert_eq!(result.total_accesses, trace.len() as u64);
/// ```
#[derive(Debug)]
pub struct VfsSimulator {
    engine: EngineCore,
    /// Reusable span scratch (prefetch candidates as swap slots), so reads
    /// never allocate for admission.
    span_slots: Vec<SwapSlot>,
    /// Owner pids running parallel to `span_slots` (all the reading pid:
    /// the VFS caches file pages for whoever read them).
    span_pids: Vec<Pid>,
    /// Replays prefetch admission per candidate instead of per span — the
    /// historical sequencing kept as the reference the span-equivalence
    /// test pins the new path against.
    #[cfg(test)]
    per_candidate_reference: bool,
}

impl VfsSimulator {
    /// Creates a VFS simulator for the given configuration with the built-in
    /// components its enums select.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`SimConfig::validate`]); use
    /// [`SimConfig::builder`] to surface the error instead.
    pub fn new(config: SimConfig) -> Self {
        let setup = SimSetup::from_config(config).expect("invalid SimConfig");
        VfsSimulator::from_setup(&setup)
    }

    /// Creates a simulator from a resolved setup (possibly carrying custom
    /// registry components).
    pub fn from_setup(setup: &SimSetup) -> Self {
        VfsSimulator {
            engine: EngineCore::new(setup, 0xF5),
            span_slots: Vec::new(),
            span_pids: Vec::new(),
            #[cfg(test)]
            per_candidate_reference: false,
        }
    }

    /// A buffered write: lands in the cache and is written back off the
    /// critical path.
    fn buffered_write(&mut self, pid: Pid, page: u64) -> Nanos {
        let slot = SwapSlot(page);
        self.ensure_cache_room(slot);
        self.engine.insert_demand(slot, pid);
        let _ = self.engine.write_remote(page);
        BUFFERED_WRITE
    }

    /// A file read: cache hit or remote fetch plus prefetching. Returns the
    /// latency, outcome, and prefetches issued.
    fn read(&mut self, pid: Pid, page: u64) -> (Nanos, AccessOutcome, u32) {
        let slot = SwapSlot(page);
        self.engine.result.prefetch_stats.record_request();

        if let Some(entry) = self.engine.cache_hit(pid, slot) {
            return (
                VFS_CACHE_HIT,
                AccessOutcome::CacheHit {
                    origin: entry.origin,
                },
                0,
            );
        }

        self.engine.result.cache_stats.record_miss();
        let breakdown = self.engine.read_remote(page);
        let latency = VFS_CACHE_LOOKUP.saturating_add(breakdown.total());

        // Cache the demand-fetched page.
        self.ensure_cache_room(slot);
        self.engine.insert_demand(slot, pid);

        // Prefetch neighbouring file pages, admitted span-at-a-time: the
        // engine probes presence, makes room (under the file-cache budget —
        // `EngineCore::make_cache_space_at` is budget-aware), issues the
        // reads, and inserts, batching the bookkeeping whenever the whole
        // span fits without eviction.
        let decision = self.engine.prefetch_decision(pid, PageAddr(page));
        #[cfg(test)]
        if self.per_candidate_reference {
            let issued = self.admit_per_candidate(pid, &decision);
            return (latency, AccessOutcome::RemoteFetch, issued);
        }
        self.span_slots.clear();
        self.span_slots
            .extend(decision.iter().map(|c| SwapSlot(c.0)));
        self.span_pids.clear();
        self.span_pids.resize(self.span_slots.len(), pid);
        let issued = self
            .engine
            .admit_prefetch_span(&self.span_slots, &self.span_pids);
        (latency, AccessOutcome::RemoteFetch, issued)
    }

    /// The historical per-candidate admission loop (probe, make room, read,
    /// insert — one page at a time). Kept only as the reference the
    /// `span_admission_matches_per_candidate_reference` test replays against
    /// the span-batched path.
    #[cfg(test)]
    fn admit_per_candidate(
        &mut self,
        pid: Pid,
        decision: &leap_prefetcher::PrefetchDecision,
    ) -> u32 {
        let mut issued = 0u32;
        // Like the span path, the reference draws one core per non-empty
        // candidate list and issues every read from it.
        let mut span_core: Option<usize> = None;
        for candidate in decision.iter() {
            let core = match span_core {
                Some(core) => core,
                None => {
                    let core = self.engine.next_core();
                    span_core = Some(core);
                    core
                }
            };
            let cslot = SwapSlot(candidate.0);
            if self.engine.cache.contains(cslot) {
                continue;
            }
            self.ensure_cache_room(cslot);
            let _ = self.engine.read_remote_span(&[candidate.0], core);
            if self.engine.insert_prefetched(cslot, pid) {
                issued += 1;
            }
        }
        issued
    }

    /// Frees cache space for `slot` when the local file-cache budget or the
    /// configured prefetch cache capacity is exhausted (both live in the
    /// engine; see [`EngineCore::make_cache_space_at`]).
    fn ensure_cache_room(&mut self, slot: SwapSlot) {
        let shard = self.engine.cache.shard_of(slot);
        self.engine.make_cache_space_at(shard);
    }
}

impl Simulator for VfsSimulator {
    fn config(&self) -> &SimConfig {
        &self.engine.config
    }

    fn label(&self) -> &str {
        &self.engine.label
    }

    fn prepare(&mut self, traces: &[AccessTrace]) {
        // The local VFS cache is limited to `memory_fraction` of the total
        // working set, matching how the paper constrains the VMM experiments.
        let total_ws: u64 = traces.iter().map(|t| t.working_set_pages()).sum();
        let budget =
            MemoryLimit::fraction_of(total_ws * PAGE_SIZE, self.engine.config.memory_fraction);
        self.engine.set_cache_budget(budget.limit_pages());
        self.engine
            .stamp_run(format!("vfs-{}", EngineCore::workload_name(traces)));
    }

    /// One worker spanning every core: the VFS keeps one shared cache (its
    /// budget models one file cache, not per-core swap regions), so it
    /// cannot be split per core, but it still gets per-core trend state and
    /// per-core clocks from the engine.
    fn into_workers(mut self, traces: &[AccessTrace], _sched: &CoreScheduler) -> Vec<Self> {
        self.prepare(traces);
        self.engine.enter_scheduled_mode(1, u64::MAX);
        vec![self]
    }

    fn enter_core(&mut self, core: usize, now: Nanos) {
        self.engine.enter_core(core, now);
    }

    fn now(&self) -> Nanos {
        self.engine.clock.now()
    }

    fn step_access(&mut self, pid: Pid, access: Access) -> FaultEvent {
        self.engine.begin_access(&access);
        let (latency, outcome, prefetches_issued) = if access.is_write {
            (
                self.buffered_write(pid, access.page),
                AccessOutcome::BufferedWrite,
                0,
            )
        } else {
            self.read(pid, access.page)
        };
        // The paper's D-VFS curves count every file access as a remote
        // access (the file itself lives remotely).
        self.engine.result.remote_accesses += 1;
        self.engine
            .complete_access(pid, access, outcome, latency, prefetches_issued)
    }

    fn into_result(self) -> RunResult {
        self.engine.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvictionPolicy;
    use leap_sim_core::units::MIB;
    use leap_workloads::{sequential_trace, stride_trace};

    fn leap_at(fraction: f64) -> SimConfig {
        SimConfig::builder()
            .memory_fraction(fraction)
            .build()
            .unwrap()
    }

    #[test]
    fn sequential_reads_mostly_hit_after_warmup() {
        let trace = sequential_trace(4 * MIB, 1);
        let result = VfsSimulator::new(SimConfig::leap_defaults()).run(&trace);
        assert_eq!(result.total_accesses, 1024);
        assert!(
            result.cache_stats.hit_ratio() > 0.6,
            "hit ratio {}",
            result.cache_stats.hit_ratio()
        );
    }

    #[test]
    fn leap_improves_stride_latency_over_default_vfs() {
        let trace = stride_trace(4 * MIB, 10, 1);
        let mut default = VfsSimulator::new(SimConfig::linux_defaults()).run(&trace);
        let mut leap = VfsSimulator::new(SimConfig::leap_defaults()).run(&trace);
        assert!(
            default.median_remote_latency() > leap.median_remote_latency(),
            "default {} vs leap {}",
            default.median_remote_latency(),
            leap.median_remote_latency()
        );
        assert!(default.completion_time > leap.completion_time);
    }

    #[test]
    fn writes_are_buffered_and_cheap() {
        let accesses = (0..256u64)
            .map(|p| Access::write(p, Nanos::ZERO))
            .collect::<Vec<_>>();
        let trace = AccessTrace::new("writes", accesses);
        let mut result = VfsSimulator::new(SimConfig::leap_defaults()).run(&trace);
        assert_eq!(result.total_accesses, 256);
        // Buffered writes do not traverse the read path.
        assert!(result.median_remote_latency() < Nanos::from_micros(5));
    }

    #[test]
    fn write_then_read_hits_the_cache() {
        // Write a small region, then read it back: reads of recently written
        // pages are served from the VFS cache.
        let mut accesses: Vec<Access> = (0..64u64).map(|p| Access::write(p, Nanos::ZERO)).collect();
        accesses.extend((0..64u64).map(|p| Access::read(p, Nanos::ZERO)));
        let trace = AccessTrace::new("write-read", accesses);
        let result = VfsSimulator::new(leap_at(1.0)).run(&trace);
        assert!(result.cache_stats.demand_hits() >= 32);
    }

    #[test]
    fn constrained_cache_still_completes() {
        let trace = stride_trace(4 * MIB, 10, 1);
        let config = SimConfig::builder()
            .memory_fraction(0.25)
            .prefetch_cache_pages(32)
            .build()
            .unwrap();
        let result = VfsSimulator::new(config).run(&trace);
        assert_eq!(result.total_accesses, 1024);
        assert!(result.cache_stats.evictions() > 0);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let trace = stride_trace(2 * MIB, 10, 1);
        let config = SimConfig::builder().seed(5).build().unwrap();
        let a = VfsSimulator::new(config).run(&trace);
        let b = VfsSimulator::new(config).run(&trace);
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.cache_stats, b.cache_stats);
    }

    /// The span-batched prefetch admission must be observably identical to
    /// the historical per-candidate loop: every counter, every latency
    /// distribution, across budgets and eviction pressure.
    #[test]
    fn span_admission_matches_per_candidate_reference() {
        use leap_sim_core::units::KIB;
        use leap_workloads::{AppKind, AppModel};

        let mut workloads = vec![
            stride_trace(4 * MIB, 10, 1),
            sequential_trace(4 * MIB, 2),
            AppModel::new(AppKind::PowerGraph, 17)
                .with_working_set(2 * MIB)
                .with_accesses(3_000)
                .generate(),
        ];
        // A write-heavy mix exercises the buffered-write room-making too.
        let mut mixed: Vec<Access> = (0..256u64).map(|p| Access::write(p, Nanos::ZERO)).collect();
        mixed.extend((0..512u64).map(|p| Access::read(p, Nanos::from_nanos(120))));
        workloads.push(AccessTrace::new("mixed", mixed));

        let configs = vec![
            SimConfig::leap_defaults(),
            SimConfig::linux_defaults(),
            leap_at(0.25),
            leap_at(1.0),
            // A tightly bounded prefetch cache forces the careful
            // (eviction-interleaved) admission path.
            SimConfig::builder()
                .memory_fraction(0.5)
                .prefetch_cache_pages(32)
                .build()
                .unwrap(),
            SimConfig::builder()
                .eviction(EvictionPolicy::Lazy)
                .memory_fraction(0.5)
                .build()
                .unwrap(),
            // A tiny working-set fraction keeps the budget, not the shard
            // capacity, the binding constraint.
            SimConfig::builder()
                .memory_fraction(0.5)
                .prefetch_cache_pages(16 * KIB)
                .build()
                .unwrap(),
        ];

        for trace in &workloads {
            for config in &configs {
                let mut span = VfsSimulator::new(*config).run(trace);
                let mut reference = {
                    let mut sim = VfsSimulator::new(*config);
                    sim.per_candidate_reference = true;
                    sim.run(trace)
                };
                assert_eq!(
                    span.completion_time,
                    reference.completion_time,
                    "completion diverged: {} under {}",
                    trace.name(),
                    config.label()
                );
                assert_eq!(span.total_accesses, reference.total_accesses);
                assert_eq!(span.remote_accesses, reference.remote_accesses);
                assert_eq!(span.cache_stats, reference.cache_stats);
                assert_eq!(
                    span.prefetch_stats.pages_prefetched(),
                    reference.prefetch_stats.pages_prefetched()
                );
                assert_eq!(
                    span.prefetch_stats.prefetch_hits(),
                    reference.prefetch_stats.prefetch_hits()
                );
                assert_eq!(
                    span.access_latency.sorted_samples(),
                    reference.access_latency.sorted_samples()
                );
                assert_eq!(
                    span.remote_access_latency.sorted_samples(),
                    reference.remote_access_latency.sorted_samples()
                );
                assert_eq!(
                    span.eviction_wait.sorted_samples(),
                    reference.eviction_wait.sorted_samples()
                );
            }
        }
    }

    #[test]
    fn lazy_vfs_still_works() {
        let trace = stride_trace(2 * MIB, 10, 1);
        let config = SimConfig::builder()
            .eviction(EvictionPolicy::Lazy)
            .memory_fraction(0.5)
            .build()
            .unwrap();
        let result = VfsSimulator::new(config).run(&trace);
        assert_eq!(result.total_accesses, trace.len() as u64);
    }
}
