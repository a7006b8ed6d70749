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
//! engine core; this file models only the VFS cache budget (the capacity of
//! the VFS's one cache shard) and the read/buffered-write split.

use crate::builder::SimSetup;
use crate::config::SimConfig;
use crate::engine::EngineCore;
use crate::result::RunResult;
use crate::sched::CoreScheduler;
use crate::session::{AccessOutcome, FaultEvent, Simulator};
use leap_mem::{MemoryLimit, Pid, ShardedSwapCache, SwapSlot};
use leap_prefetcher::PageAddr;
use leap_sim_core::units::PAGE_SIZE;
use leap_sim_core::Nanos;
use leap_workloads::{Access, AccessTrace};

/// Latency of a VFS cache hit (page already cached locally).
const VFS_CACHE_HIT: Nanos = Nanos(800);
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
}

impl VfsSimulator {
    /// Creates a VFS simulator for the given configuration with the built-in
    /// components its enums select.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see `SimConfig::validate`); use
    /// [`SimConfig::builder`] to surface the error instead.
    pub fn new(config: SimConfig) -> Self {
        let setup = SimSetup::from_config(config).expect("invalid SimConfig");
        VfsSimulator::from_setup(&setup)
    }

    /// Creates a simulator from a resolved setup (possibly carrying a custom
    /// prefetcher).
    pub(crate) fn from_setup(setup: &SimSetup) -> Self {
        VfsSimulator {
            engine: EngineCore::new(setup, 0xF5),
            span_slots: Vec::new(),
            span_pids: Vec::new(),
        }
    }

    /// A buffered write: lands in the cache and is written back off the
    /// critical path.
    fn buffered_write(&mut self, pid: Pid, page: u64) -> Nanos {
        let slot = SwapSlot(page);
        self.ensure_cache_room();
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
        // The path's breakdown starts with the VFS cache lookup.
        let latency = self.engine.read_remote(page).total();

        // Cache the demand-fetched page.
        self.ensure_cache_room();
        self.engine.insert_demand(slot, pid);

        // Prefetch neighbouring file pages: per candidate, the engine
        // probes presence, makes room (the cache's capacity is the
        // file-cache budget), issues the read, and inserts.
        let decision = self.engine.prefetch_decision(pid, PageAddr(page));
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

    /// Frees room in the VFS's one cache shard when it is full: at the
    /// smaller of the local file-cache budget and the configured prefetch
    /// cache capacity (see [`Simulator::prepare`]).
    fn ensure_cache_room(&mut self) {
        self.engine.make_cache_space_at(0);
    }
}

impl Simulator for VfsSimulator {
    fn config(&self) -> &SimConfig {
        &self.engine.config
    }

    fn label(&self) -> &str {
        &self.engine.label
    }

    /// Sizes the VFS's one cache shard: the local file cache is limited to
    /// `memory_fraction` of the total working set, matching how the paper
    /// constrains the VMM experiments, and never holds more than the
    /// configured prefetch cache capacity.
    fn prepare(&mut self, traces: &[AccessTrace]) {
        let config = self.engine.config;
        let total_ws: u64 = traces.iter().map(|t| t.working_set_pages()).sum();
        let budget = MemoryLimit::fraction_of(total_ws * PAGE_SIZE, config.memory_fraction);
        let capacity = budget.limit_pages().min(config.prefetch_cache_pages);
        self.engine.cache = ShardedSwapCache::single(capacity, config.eviction);
        self.engine
            .stamp_run(format!("vfs-{}", EngineCore::workload_name(traces)));
    }

    /// One worker spanning every core: the VFS keeps one shared cache (its
    /// budget models one file cache, not per-core swap regions), so it
    /// cannot be split per core, but it still gets per-core trend state and
    /// per-core clocks from the engine. The one shard keeps the capacity
    /// [`Simulator::prepare`] gave it.
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
        self.engine.begin_access(pid, &access);
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
    use leap_datapath::Stage;
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

    #[test]
    fn a_read_miss_costs_exactly_its_path_breakdown() {
        // The path's breakdown already holds the VFS cache lookup
        // (`Stage::CacheLookup`); the read must not pay it a second time.
        // Two simulators in the same state: one serves a read miss, the
        // other issues the same remote read directly.
        for config in [SimConfig::linux_defaults(), SimConfig::leap_defaults()] {
            let mut vfs = VfsSimulator::new(config);
            let mut reference = VfsSimulator::new(config);
            let breakdown = reference.engine.read_remote(7);
            assert!(!breakdown.stage_total(Stage::CacheLookup).is_zero());
            let (latency, outcome, _) = vfs.read(Pid(1), 7);
            assert_eq!(outcome, AccessOutcome::RemoteFetch);
            assert_eq!(latency, breakdown.total(), "{:?}", config.data_path);
        }
    }

    /// The most pages a budget of `memory_fraction` of `traces`' working
    /// set and the configured prefetch cache capacity allow together.
    fn cache_bound(config: SimConfig, traces: &[AccessTrace]) -> u64 {
        let working_set: u64 = traces.iter().map(|t| t.working_set_pages()).sum();
        MemoryLimit::fraction_of(working_set * PAGE_SIZE, config.memory_fraction)
            .limit_pages()
            .min(config.prefetch_cache_pages)
    }

    #[test]
    fn the_cache_never_outgrows_the_smaller_of_its_capacity_and_budget() {
        let mut write_read: Vec<Access> =
            (0..512u64).map(|p| Access::write(p, Nanos::ZERO)).collect();
        write_read.extend((0..512u64).map(|p| Access::read(p, Nanos::ZERO)));
        let traces = [
            stride_trace(2 * MIB, 10, 1),
            sequential_trace(MIB, 1),
            AccessTrace::new("write-read", write_read),
        ];
        // The first setting binds at the prefetch cache's capacity, the
        // second at the file-cache budget.
        for (fraction, cache_pages) in [(0.5, 32), (0.05, u64::MAX)] {
            let config = SimConfig::builder()
                .memory_fraction(fraction)
                .prefetch_cache_pages(cache_pages)
                .cores(2)
                .build()
                .unwrap();

            // A single run: the unsplit simulator, prepared for one trace.
            let single = &traces[..1];
            let bound = cache_bound(config, single);
            let mut vfs = VfsSimulator::new(config);
            vfs.prepare(single);
            let mut peak = 0;
            for &access in single[0].accesses() {
                vfs.step_access(Pid(1), access);
                assert!(vfs.engine.cache.len() <= bound, "single run over {bound}");
                peak = peak.max(vfs.engine.cache.len());
            }
            assert_eq!(peak, bound, "the single run never filled its cache");

            // A multi-process run, driven as the scheduled replay drives it.
            let bound = cache_bound(config, &traces);
            let lens: Vec<usize> = traces.iter().map(|t| t.len()).collect();
            let mut sched =
                CoreScheduler::new(&lens, config.cores, config.sched_quantum, config.seed);
            let mut workers = VfsSimulator::new(config).into_workers(&traces, &sched);
            let vfs = &mut workers[0];
            let mut peak = 0;
            while let Some(slot) = sched.next_slot() {
                vfs.enter_core(slot.core, slot.now);
                let access = traces[slot.process].accesses()[slot.access_index];
                vfs.step_access(Pid(slot.process as u32 + 1), access);
                sched.completed(&slot, vfs.now());
                assert!(vfs.engine.cache.len() <= bound, "multi run over {bound}");
                peak = peak.max(vfs.engine.cache.len());
            }
            assert_eq!(peak, bound, "the multi-process run never filled its cache");
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
