//! The disaggregated-VMM front-end.
//!
//! [`VmmSimulator`] replays page-granular access traces against a model of
//! the Linux paging machinery backed by remote memory (or a local disk):
//! per-process page tables, a cgroup-style resident-memory limit, the shared
//! swap space, the swap/prefetch cache, a prefetcher, an eviction policy, and
//! one of the data paths. The cross-cutting machinery (clock, cache,
//! tracker, eviction bookkeeping, result accumulation) lives in the shared
//! engine core; this file models only what is VMM-specific — page tables,
//! the swap space, and cgroup limits.
//!
//! ## What happens on an access
//!
//! 1. The process "computes" for the access's compute cost.
//! 2. If the page is resident, the access costs a local DRAM reference.
//! 3. If the page has never been touched, it is a demand-zero minor fault:
//!    charge a page to the process's budget (evicting under memory
//!    pressure) and map it.
//! 4. Otherwise the page is swapped out — a *remote page access*:
//!    - a swap-cache hit costs the cache lookup plus the MMU update; under
//!      Leap's eager policy the cache entry is freed immediately;
//!    - a miss goes down the configured data path (legacy block layer or
//!      Leap's lean path) to the backend, then the prefetcher is consulted
//!      and its candidates are read asynchronously into the cache.
//! 5. Newly resident pages may push the process over its memory limit, in
//!    which case the least recently used resident pages are swapped out
//!    (write-back modelled asynchronously) and, under the lazy policy, the
//!    reclaimer's scan time is charged as allocation wait.

use crate::builder::SimSetup;
use crate::config::SimConfig;
use crate::engine::EngineCore;
use crate::result::RunResult;
use crate::sched::CoreScheduler;
use crate::session::{AccessOutcome, FaultEvent, Simulator};
use crate::slots::{pid_slot, Slots};
use leap_mem::{
    EvictionPolicy, MemoryLimit, PageState, PageTable, Pid, ShardedSwap, SwapSlot, VirtPage,
};
use leap_prefetcher::PageAddr;
use leap_sim_core::hash::FxHashMap;
use leap_sim_core::units::PAGE_SIZE;
use leap_sim_core::Nanos;
use leap_workloads::{Access, AccessTrace};

/// Latency of a local DRAM access (page already resident and mapped).
const LOCAL_ACCESS: Nanos = Nanos(100);
/// Cost of a demand-zero minor fault (allocate + zero + map).
const MINOR_FAULT: Nanos = Nanos(1_500);
/// Cost of looking up the swap cache on the fault path.
const CACHE_LOOKUP: Nanos = Nanos(270);
/// Cost of mapping a page that is already present in the swap cache (no I/O,
/// no new frame: just the PTE update and bookkeeping).
const FAST_MAP: Nanos = Nanos(400);
/// Fixed software cost of swapping one page out (allocating the slot,
/// unmapping, queueing the write-back, which itself completes asynchronously).
const SWAP_OUT_OVERHEAD: Nanos = Nanos(1_000);
/// Total swap-slot capacity; large enough to never be the binding
/// constraint even though freed slots are never reused, halved so per-shard
/// region arithmetic cannot overflow.
const SWAP_CAPACITY: u64 = u64::MAX / 2;

/// The disaggregated-VMM simulator.
///
/// See the crate-level example for typical usage; drive it through the
/// [`Simulator`] trait (`run`, `run_prepopulated`, `run_multi`), or with
/// observers attached through a [`crate::Session`].
#[derive(Debug)]
pub struct VmmSimulator {
    engine: EngineCore,
    /// Per-process page tables, each carrying its process's resident LRU,
    /// indexed by pid.
    /// The process's cgroup-style memory budget lives in the engine's
    /// tenant ledger ([`EngineCore::set_tenant_limit`]), not here, so
    /// eviction accounting is enforced where evictions are booked.
    page_tables: Slots<PageTable>,
    swap: ShardedSwap,
    /// Reusable scratch for prefetch admission: the kept candidates' swap
    /// slots and their owners' pids. Allocated once; the fault hot path
    /// never grows them past the first few faults.
    span_slots: Vec<SwapSlot>,
    span_pids: Vec<Pid>,
    /// Explicit per-tenant budget overrides (`pid.0` → resident pages),
    /// taking precedence over the `memory_fraction`-derived limit when the
    /// process registers. Set by the service layer's admission control.
    tenant_budget_pages: FxHashMap<u32, u64>,
    /// When set, scheduled multi-process replays prepopulate each process's
    /// working set (address order, metrics discarded) before the measured
    /// run, like [`Simulator::run_prepopulated`] does for single traces.
    /// See [`VmmSimulator::set_prepopulate_multi`].
    prepopulate_multi: bool,
}

impl VmmSimulator {
    /// Creates a simulator for the given configuration with the built-in
    /// components its enums select.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see `SimConfig::validate`); use
    /// [`SimConfig::builder`] to surface the error instead.
    pub fn new(config: SimConfig) -> Self {
        let setup = SimSetup::from_config(config).expect("invalid SimConfig");
        VmmSimulator::from_setup(&setup)
    }

    /// Creates a simulator from a resolved setup (possibly carrying a custom
    /// prefetcher).
    pub(crate) fn from_setup(setup: &SimSetup) -> Self {
        // The swap space starts unsharded (one region); a scheduled
        // multi-core replay reshards it in `into_workers`.
        VmmSimulator::with_parts(
            EngineCore::new(setup, 0),
            ShardedSwap::new(1, SWAP_CAPACITY),
            FxHashMap::default(),
            false,
        )
    }

    /// A simulator over `engine` and `swap` with no process registered yet.
    fn with_parts(
        engine: EngineCore,
        swap: ShardedSwap,
        tenant_budget_pages: FxHashMap<u32, u64>,
        prepopulate_multi: bool,
    ) -> Self {
        VmmSimulator {
            engine,
            page_tables: Slots::default(),
            swap,
            span_slots: Vec::new(),
            span_pids: Vec::new(),
            tenant_budget_pages,
            prepopulate_multi,
        }
    }

    /// Makes every scheduled multi-process replay start from a prepopulated
    /// working set: each registered process's distinct pages are touched
    /// once in address order (allocation/initialisation phase, metrics
    /// discarded) before the measured accesses run.
    ///
    /// Prepopulation fixes the swap-slot layout to the address order — cold
    /// pages spill to swap in sorted page order, so a process's slot numbers
    /// follow its page ranks. That is the paper's microbenchmark methodology
    /// ([`Simulator::run_prepopulated`]) extended to scheduled
    /// multi-process runs, and it is what lets offline-trained prefetchers
    /// (whose models are learned in page space) see the same delta structure
    /// in the slot-addressed fault stream they are consulted with.
    ///
    /// The prepopulation happens inside replay-worker construction
    /// ([`Simulator::into_workers`]), so Serial and Threaded replays observe
    /// bit-identical state.
    pub fn set_prepopulate_multi(&mut self, on: bool) {
        self.prepopulate_multi = on;
    }

    /// Overrides the resident-memory budget of process `pid` to `pages`
    /// pages, replacing the `memory_fraction`-derived default when the
    /// process registers (before the run starts). This is how the service
    /// layer's admission control gives each tenant its admitted budget.
    pub fn set_tenant_budget_pages(&mut self, pid: Pid, pages: u64) {
        self.tenant_budget_pages.insert(pid.0, pages);
    }

    fn register_process(&mut self, pid: Pid, working_set_pages: u64) {
        let limit = match self.tenant_budget_pages.get(&pid.0) {
            Some(&pages) => MemoryLimit::from_pages(pages),
            None => MemoryLimit::fraction_of(
                working_set_pages * PAGE_SIZE,
                self.engine.config.memory_fraction,
            ),
        };
        // Pre-size the page table from the trace's working set (it sees
        // every touched page), clamped so a degenerate trace cannot
        // pre-allocate the world: steady-state faults then never rehash it.
        let table_hint = working_set_pages.min(1 << 22) as usize;
        self.engine.set_tenant_limit(pid, limit);
        self.page_tables
            .insert(pid_slot(pid), PageTable::with_capacity(table_hint));
    }

    /// Handles an access to a swapped-out page (the remote page access
    /// path). Returns the charged latency, the outcome, and how many
    /// prefetches were issued.
    fn remote_access(
        &mut self,
        pid: Pid,
        page: VirtPage,
        slot: leap_mem::SwapSlot,
        is_write: bool,
    ) -> (Nanos, AccessOutcome, u32) {
        self.engine.result.remote_accesses += 1;
        self.engine.result.prefetch_stats.record_request();

        let mut latency;
        let mut prefetches_issued = 0u32;
        let outcome;
        let cache_hit = if let Some(entry) = self.engine.cache_hit(pid, slot) {
            // Swap-cache hit: the page's data is already in local DRAM, so
            // the access costs the cache lookup plus a fast page-table map —
            // sub-µs, as the paper reports for Leap up to the 85th percentile.
            latency = CACHE_LOOKUP.saturating_add(FAST_MAP);
            outcome = AccessOutcome::CacheHit {
                origin: entry.origin,
            };
            true
        } else {
            // Swap-cache miss: full data-path traversal, then consult the
            // prefetcher and issue its candidates asynchronously.
            self.engine.result.cache_stats.record_miss();
            let breakdown = self.engine.read_remote(slot.0);
            latency = breakdown.total();
            let decision = self.engine.prefetch_decision(pid, PageAddr(slot.0));
            prefetches_issued = self.issue_prefetches(decision.pages());
            // A bounded async depth can stall the faulting core while its
            // prefetch submissions wait for in-flight slots; charge that
            // stall here (it is zero at the default unbounded depth).
            latency = latency.saturating_add(self.engine.take_pending_stall());
            outcome = AccessOutcome::RemoteFetch;
            false
        };

        // The faulting page becomes resident. On a cache hit the data is
        // already in a local frame, so the cgroup charge is rebalanced by the
        // background reclaimer (no synchronous allocation wait); on a miss
        // the faulting process may have to wait for direct reclaim.
        if cache_hit {
            let _ = self.make_room(pid);
        } else {
            let alloc_wait = self.make_room(pid);
            latency = latency.saturating_add(alloc_wait);
        }
        self.swap.free(slot);
        self.map_in(pid, page, is_write);

        // Give the policy's background reclaimer (kswapd under the lazy
        // policy) a chance to run; its cost is *not* charged to this access
        // (it is a background thread) but the wait times it observes feed
        // Figure 4.
        self.engine.background_reclaim();

        (latency, outcome, prefetches_issued)
    }

    /// Reads the prefetch candidates into the swap cache (asynchronously
    /// with respect to the faulting access). Returns how many were issued.
    ///
    /// Only pages that are swapped out (their slot has an owner) can be
    /// prefetched; the survivors go to
    /// [`EngineCore::admit_prefetch_span`], which probes the cache, makes
    /// room (Figure 12's bounded cache) and issues the reads (off the
    /// critical path: only dispatch-queue occupancy matters).
    fn issue_prefetches(&mut self, candidates: &[PageAddr]) -> u32 {
        self.span_slots.clear();
        self.span_pids.clear();
        for candidate in candidates {
            let slot = SwapSlot(candidate.0);
            let Some((pid, page)) = self.swap.owner(slot) else {
                continue;
            };
            // A slot keeps its owner exactly while the page is swapped out:
            // `make_room` allocates it as the page leaves its table, and
            // `remote_access` frees it before mapping the page back in.
            debug_assert!(
                !self
                    .page_tables
                    .get(pid_slot(pid))
                    .is_some_and(|table| table.is_resident(page)),
                "swap slot {slot:?} owned by resident page {page:?} of {pid}"
            );
            self.span_slots.push(slot);
            self.span_pids.push(pid);
        }
        self.engine
            .admit_prefetch_span(&self.span_slots, &self.span_pids)
    }

    /// Ensures one more page can be charged to `pid`, swapping out its least
    /// recently used resident page if needed. Returns the allocation wait
    /// charged to the faulting access.
    fn make_room(&mut self, pid: Pid) -> Nanos {
        // `MemoryLimit::try_charge` (via `EngineCore::charge_tenant`) is the
        // only charge and never takes a tenant past its limit, so `need` is
        // at most 1: each fault writes back at most one page.
        let need = self.engine.tenant_pages_to_reclaim(pid);
        if need == 0 {
            return Nanos::ZERO;
        }
        let mut wait = Nanos::ZERO;

        // Under the lazy policy the allocation also has to wait for the
        // reclaimer to scan the (possibly bloated) cache lists before frames
        // can be handed out; under Leap's eager policy that scan is short
        // because consumed prefetch pages are already gone. The scan batch is
        // bounded (kswapd reclaims in SWAP_CLUSTER_MAX-sized chunks), so the
        // wait is capped — the paper reports a ~750 ns average difference.
        let scan_pages = self.engine.reclaim_scan_pages();
        let scan_wait = Nanos(80).saturating_add(Nanos(20) * scan_pages.min(64));
        wait = wait.saturating_add(scan_wait);

        let table = self
            .page_tables
            .get_mut(pid_slot(pid))
            .expect("registered process");
        for _ in 0..need {
            let Some(victim_page) = table.lru_page() else {
                break;
            };
            // Slots come from the active core's shard region, so a core's
            // sequential page-outs stay sequential in its own region.
            let core = self.engine.active_core();
            let Some(slot) = self.swap.allocate_on(core, pid, victim_page) else {
                break;
            };
            table.swap_out_lru(slot);
            self.engine.record_swap_out(pid);
            wait = wait.saturating_add(SWAP_OUT_OVERHEAD);
            // The write-back itself is asynchronous: issue it so the
            // backend and dispatch queues see the traffic, but do not
            // charge its latency to the faulting access — unless the
            // in-flight budget is exhausted, in which case the stall
            // surfaces as allocation wait below.
            let _ = self.engine.write_remote_async(slot.0);
        }
        wait = wait.saturating_add(self.engine.take_pending_stall());
        self.engine.result.allocation_wait.record(wait);
        wait
    }

    /// Splits this simulator into per-core shard workers for a scheduled
    /// replay: worker `c` owns core `c`'s engine slice
    /// ([`EngineCore::shard_worker`]), swap region
    /// ([`ShardedSwap::region`]), and the paging state of exactly the
    /// processes the scheduler dealt onto core `c` — so workers share no
    /// mutable state and can be stepped from independent OS threads.
    fn into_shard_workers(
        self,
        traces: &[AccessTrace],
        sched: &CoreScheduler,
    ) -> Vec<VmmSimulator> {
        let shards = self.engine.config.cores;
        let workload = EngineCore::workload_name(traces);
        (0..shards)
            .map(|core| {
                let mut worker = VmmSimulator::with_parts(
                    self.engine.shard_worker(core, shards),
                    ShardedSwap::region(core, shards, SWAP_CAPACITY),
                    self.tenant_budget_pages.clone(),
                    self.prepopulate_multi,
                );
                let mut accesses = 0usize;
                for process in sched.run_queue(core) {
                    worker.register_process(
                        Pid(process as u32 + 1),
                        traces[process].working_set_pages(),
                    );
                    accesses += traces[process].len();
                }
                if self.prepopulate_multi {
                    // Worker construction runs identically in Serial and
                    // Threaded mode, so prepopulating here keeps the replay
                    // modes bit-identical. Run-queue order fixes which slot
                    // range each process's cold pages spill into.
                    for process in sched.run_queue(core) {
                        worker.prepopulate(Pid(process as u32 + 1), &traces[process]);
                    }
                }
                worker.engine.reserve_accesses(accesses);
                worker.engine.stamp_run(workload.clone());
                worker
            })
            .collect()
    }

    /// Maps `page` into `pid`'s address space as resident.
    fn map_in(&mut self, pid: Pid, page: VirtPage, _dirty: bool) {
        // make_room should have freed space; if the charge still does not
        // fit, the limit saturates and one more page is evicted next time.
        let _ = self.engine.charge_tenant(pid);
        self.page_tables
            .get_mut(pid_slot(pid))
            .expect("registered process")
            .map(page);
    }
}

impl Simulator for VmmSimulator {
    fn config(&self) -> &SimConfig {
        &self.engine.config
    }

    fn label(&self) -> &str {
        &self.engine.label
    }

    fn prepare(&mut self, traces: &[AccessTrace]) {
        for (i, trace) in traces.iter().enumerate() {
            self.register_process(Pid(i as u32 + 1), trace.working_set_pages());
        }
        self.engine
            .reserve_accesses(traces.iter().map(|t| t.len()).sum());
        self.engine.stamp_run(EngineCore::workload_name(traces));
    }

    /// Shard workers, one per core, under per-process isolation.
    ///
    /// Without isolation every process shares one prefetcher stream *across
    /// cores* (the kernel's global read-ahead state), so the engine cannot
    /// be split into share-nothing workers: the simulator itself becomes one
    /// worker spanning every core, with per-process state as in
    /// [`Simulator::prepare`], the swap space and the engine's
    /// cache/eviction state sharded per core, and the prefetcher stream
    /// shared. The parallelism Leap's per-process, per-core state enables is
    /// precisely what the shared path lacks.
    fn into_workers(mut self, traces: &[AccessTrace], sched: &CoreScheduler) -> Vec<Self> {
        if self.engine.config.per_process_isolation {
            return self.into_shard_workers(traces, sched);
        }
        self.prepare(traces);
        let shards = self.engine.config.cores;
        self.swap = ShardedSwap::new(shards, SWAP_CAPACITY);
        self.engine.enter_scheduled_mode(shards, self.swap.span());
        if self.prepopulate_multi {
            for (i, trace) in traces.iter().enumerate() {
                self.prepopulate(Pid(i as u32 + 1), trace);
            }
        }
        vec![self]
    }

    fn enter_core(&mut self, core: usize, now: Nanos) {
        self.engine.enter_core(core, now);
    }

    fn now(&self) -> Nanos {
        self.engine.clock.now()
    }

    /// Touches every distinct page of `trace` once, in address order,
    /// without recording metrics (the allocation/initialisation phase).
    fn prepopulate(&mut self, pid: Pid, trace: &AccessTrace) {
        let mut pages: Vec<u64> = trace.iter().map(|a| a.page).collect();
        pages.sort_unstable();
        pages.dedup();
        for page in pages {
            let vp = VirtPage(page);
            let table = self
                .page_tables
                .get(pid_slot(pid))
                .expect("registered process");
            if table.is_resident(vp) {
                continue;
            }
            let _ = self.make_room(pid);
            self.map_in(pid, vp, true);
        }
        // Prepopulation metrics (allocation waits recorded by make_room,
        // write-backs submitted to the pipeline) do not belong in the
        // measured run.
        self.engine.result.allocation_wait = Default::default();
        self.engine.reset_swap_outs();
        self.engine.reset_pipeline();
    }

    fn step_access(&mut self, pid: Pid, access: Access) -> FaultEvent {
        self.engine.set_active_tenant(pid.0);
        self.engine.begin_access(&access);

        let page = VirtPage(access.page);
        // One probe classifies the access and, for a resident page, moves
        // it to the MRU end of the process's LRU.
        let state = self
            .page_tables
            .get_mut(pid_slot(pid))
            .unwrap_or_else(|| panic!("process {pid} not registered"))
            .lookup_touch(page);

        let (latency, outcome, prefetches_issued) = match state {
            PageState::Resident => (LOCAL_ACCESS, AccessOutcome::LocalHit, 0),
            PageState::Untouched => {
                self.engine.result.first_touch_faults += 1;
                let alloc_wait = self.make_room(pid);
                self.map_in(pid, page, access.is_write);
                (
                    MINOR_FAULT.saturating_add(alloc_wait),
                    AccessOutcome::MinorFault,
                    0,
                )
            }
            PageState::Swapped(slot) => self.remote_access(pid, page, slot, access.is_write),
        };

        self.engine
            .complete_access(pid, access, outcome, latency, prefetches_issued)
    }

    fn into_result(self) -> RunResult {
        // Audit (test builds): under the eager policy every cached slot is
        // a swapped-out page, so it still has its swap owner. (The lazy
        // policy frees the slot at map-in and leaves the cache entry for
        // kswapd.)
        debug_assert!(
            self.engine.config.eviction == EvictionPolicy::Lazy
                || (0..self.engine.cache.shards()).all(|i| {
                    self.engine
                        .cache
                        .shard(i)
                        .iter()
                        .all(|(slot, _)| self.swap.owner(slot).is_some())
                }),
            "a cached slot has no swap owner under the eager policy"
        );
        self.engine.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvictionPolicy;
    use leap_prefetcher::PrefetcherKind;
    use leap_remote::BackendKind;
    use leap_sim_core::units::MIB;
    use leap_workloads::{sequential_trace, stride_trace, AppKind, AppModel};

    /// A single measured Stride-10 pass; experiments prepopulate the working
    /// set first so the swap-slot layout follows the address order, as in the
    /// paper's microbenchmark methodology.
    fn small_stride_trace() -> AccessTrace {
        stride_trace(4 * MIB, 10, 1)
    }

    fn leap_at(fraction: f64) -> SimConfig {
        SimConfig::builder()
            .memory_fraction(fraction)
            .build()
            .unwrap()
    }

    fn linux_at(fraction: f64) -> SimConfig {
        SimConfig::linux_defaults()
            .to_builder()
            .memory_fraction(fraction)
            .build()
            .unwrap()
    }

    #[test]
    fn full_memory_has_no_remote_accesses() {
        let trace = sequential_trace(2 * MIB, 2);
        let result = VmmSimulator::new(leap_at(1.0)).run(&trace);
        assert_eq!(result.remote_accesses, 0);
        assert_eq!(result.first_touch_faults, 512);
        assert_eq!(result.total_accesses, 1024);
    }

    #[test]
    fn constrained_memory_causes_remote_accesses() {
        let trace = sequential_trace(4 * MIB, 2);
        let result = VmmSimulator::new(leap_at(0.5)).run(&trace);
        assert!(result.remote_accesses > 0);
        assert!(result.pages_swapped_out > 0);
        assert_eq!(
            result.total_accesses,
            result.remote_accesses
                + result.first_touch_faults
                + (result.total_accesses - result.remote_accesses - result.first_touch_faults)
        );
    }

    #[test]
    fn leap_beats_default_path_on_stride() {
        let trace = small_stride_trace();
        let mut linux = VmmSimulator::new(linux_at(0.5)).run_prepopulated(&trace);
        let mut leap = VmmSimulator::new(leap_at(0.5)).run_prepopulated(&trace);
        assert!(linux.remote_accesses() > 0 && leap.remote_accesses() > 0);
        // Median remote latency improves by well over an order of magnitude
        // (the paper reports up to 104× for Stride-10).
        let linux_median = linux.median_remote_latency().as_nanos() as f64;
        let leap_median = leap.median_remote_latency().as_nanos() as f64;
        assert!(
            linux_median > 5.0 * leap_median,
            "expected a large median gap, got linux={linux_median}ns leap={leap_median}ns"
        );
        // Completion time improves too.
        assert!(leap.completion_time < linux.completion_time);
    }

    #[test]
    fn leap_cache_hit_ratio_is_high_on_regular_patterns() {
        let trace = small_stride_trace();
        let result = VmmSimulator::new(leap_at(0.5)).run_prepopulated(&trace);
        assert!(
            result.cache_stats.hit_ratio() > 0.7,
            "hit ratio {} too low",
            result.cache_stats.hit_ratio()
        );
        assert!(result.prefetch_stats.coverage() > 0.5);
    }

    #[test]
    fn readahead_fails_on_stride_but_works_on_sequential() {
        let stride = small_stride_trace();
        let seq = sequential_trace(4 * MIB, 1);
        let config = linux_at(0.5);
        let stride_result = VmmSimulator::new(config).run_prepopulated(&stride);
        let seq_result = VmmSimulator::new(config).run_prepopulated(&seq);
        assert!(
            seq_result.cache_stats.hit_ratio() > 0.5,
            "sequential hit ratio {}",
            seq_result.cache_stats.hit_ratio()
        );
        assert!(
            stride_result.cache_stats.hit_ratio() < 0.2,
            "stride hit ratio {}",
            stride_result.cache_stats.hit_ratio()
        );
    }

    #[test]
    fn eager_eviction_keeps_the_cache_small() {
        let trace = small_stride_trace();
        let eager = VmmSimulator::new(leap_at(0.5)).run_prepopulated(&trace);
        let lazy_config = SimConfig::builder()
            .memory_fraction(0.5)
            .eviction(EvictionPolicy::Lazy)
            .build()
            .unwrap();
        let lazy = VmmSimulator::new(lazy_config).run_prepopulated(&trace);
        // Under the lazy policy consumed prefetched pages linger and are
        // eventually reclaimed by the background scanner; under the eager
        // policy they never wait.
        assert!(eager.eviction_wait.is_empty());
        assert!(
            !lazy.eviction_wait.is_empty() || lazy.cache_stats.evictions() == 0,
            "lazy run should observe post-hit waits once reclaim happens"
        );
    }

    #[test]
    fn disk_backend_is_slower_than_rdma() {
        let trace = small_stride_trace();
        let hdd_config = SimConfig::disk_defaults(BackendKind::Hdd)
            .to_builder()
            .memory_fraction(0.5)
            .build()
            .unwrap();
        let mut hdd = VmmSimulator::new(hdd_config).run_prepopulated(&trace);
        let mut rdma = VmmSimulator::new(linux_at(0.5)).run_prepopulated(&trace);
        assert!(hdd.median_remote_latency() > rdma.median_remote_latency());
        assert!(hdd.completion_time > rdma.completion_time);
    }

    #[test]
    fn throughput_and_latency_improve_with_more_memory() {
        let model = AppModel::new(AppKind::Memcached, 5).with_accesses(30_000);
        let trace = model.generate();
        let at_25 = VmmSimulator::new(leap_at(0.25)).run(&trace);
        let at_100 = VmmSimulator::new(leap_at(1.0)).run(&trace);
        assert!(at_100.completion_time < at_25.completion_time);
        assert!(at_100.throughput_ops_per_sec() > at_25.throughput_ops_per_sec());
    }

    #[test]
    fn constrained_prefetch_cache_still_works() {
        let trace = small_stride_trace();
        let config = SimConfig::builder()
            .memory_fraction(0.5)
            .prefetch_cache_pages(64)
            .build()
            .unwrap();
        let result = VmmSimulator::new(config).run_prepopulated(&trace);
        assert!(result.cache_stats.hit_ratio() > 0.3);
        assert!(result.remote_accesses > 0);
    }

    #[test]
    fn no_prefetcher_never_adds_to_cache() {
        let trace = small_stride_trace();
        let config = SimConfig::builder()
            .memory_fraction(0.5)
            .prefetcher(PrefetcherKind::None)
            .build()
            .unwrap();
        let result = VmmSimulator::new(config).run_prepopulated(&trace);
        assert_eq!(result.cache_stats.cache_adds(), 0);
        assert_eq!(result.prefetch_stats.pages_prefetched(), 0);
        assert_eq!(result.cache_stats.hits(), 0);
    }

    #[test]
    fn multi_process_run_with_isolation_beats_shared_state() {
        // One well-behaved sequential process plus one random process.
        let seq = sequential_trace(2 * MIB, 2);
        let noisy = AppModel::new(AppKind::Memcached, 11)
            .with_working_set(2 * MIB)
            .with_accesses(seq.len())
            .generate();
        let traces = vec![seq, noisy];

        // One core, so both processes time-share it and their faults
        // interleave in the shared configuration's single trend stream.
        let config = |isolation: bool| {
            SimConfig::builder()
                .memory_fraction(0.5)
                .cores(1)
                .sched_quantum(Nanos::from_micros(50))
                .seed(123)
                .per_process_isolation(isolation)
                .build()
                .unwrap()
        };
        let isolated = VmmSimulator::new(config(true)).run_multi(&traces);
        let shared = VmmSimulator::new(config(false)).run_multi(&traces);
        assert!(isolated.remote_accesses > 0);
        // Isolation lets the sequential process keep its trend, so overall
        // prefetch coverage is at least as good as with shared state.
        assert!(isolated.prefetch_stats.coverage() >= shared.prefetch_stats.coverage());
    }

    #[test]
    fn results_are_deterministic_for_a_seed() {
        let trace = small_stride_trace();
        let config = SimConfig::builder().seed(77).build().unwrap();
        let a = VmmSimulator::new(config).run_prepopulated(&trace);
        let b = VmmSimulator::new(config).run_prepopulated(&trace);
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.remote_accesses, b.remote_accesses);
        assert_eq!(a.cache_stats, b.cache_stats);
    }

    #[test]
    fn scheduled_run_multi_replays_every_access() {
        let traces = vec![
            sequential_trace(2 * MIB, 2),
            stride_trace(2 * MIB, 10, 1),
            sequential_trace(MIB, 2),
        ];
        let total: u64 = traces.iter().map(|t| t.len() as u64).sum();
        let config = SimConfig::builder()
            .memory_fraction(0.5)
            .cores(2)
            .sched_quantum(Nanos::from_micros(200))
            .seed(3)
            .build()
            .unwrap();
        let result = VmmSimulator::new(config).run_multi(&traces);
        assert_eq!(result.total_accesses, total);
        assert!(result.remote_accesses > 0);
        assert_eq!(
            result.remote_accesses,
            result.cache_stats.hits() + result.cache_stats.misses()
        );
    }

    #[test]
    fn scheduled_run_emits_events_on_multiple_cores() {
        use crate::session::CoreActivity;
        let traces: Vec<_> = (0..4)
            .map(|i| {
                AppModel::new(AppKind::Memcached, 20 + i)
                    .with_working_set(2 * MIB)
                    .with_accesses(2_000)
                    .generate()
            })
            .collect();
        let config = SimConfig::builder()
            .memory_fraction(0.5)
            .cores(4)
            .seed(5)
            .build()
            .unwrap();
        let mut activity = CoreActivity::default();
        let result = VmmSimulator::new(config)
            .session()
            .observe(&mut activity)
            .run_multi(&traces);
        assert!(activity.active_cores() >= 2, "work stayed on one core");
        assert_eq!(activity.total_accesses(), result.total_accesses);
        // The makespan the result reports is the latest core's local time.
        assert_eq!(activity.completion_time(), result.completion_time);
    }

    #[test]
    fn more_cores_shorten_the_makespan() {
        let traces: Vec<_> = (0..4)
            .map(|i| {
                AppModel::new(AppKind::Memcached, 30 + i)
                    .with_working_set(2 * MIB)
                    .with_accesses(4_000)
                    .generate()
            })
            .collect();
        let at_cores = |cores: usize| {
            let config = SimConfig::builder()
                .memory_fraction(0.5)
                .cores(cores)
                .seed(9)
                .build()
                .unwrap();
            VmmSimulator::new(config).run_multi(&traces).completion_time
        };
        let serial = at_cores(1);
        let parallel = at_cores(4);
        assert!(
            parallel < serial,
            "4 cores ({parallel:?}) should beat 1 core ({serial:?})"
        );
    }

    #[test]
    fn remote_access_accounting_is_consistent() {
        let trace = small_stride_trace();
        let result = VmmSimulator::new(leap_at(0.5)).run_prepopulated(&trace);
        // Every remote access is either a cache hit or a miss.
        assert_eq!(
            result.remote_accesses,
            result.cache_stats.hits() + result.cache_stats.misses()
        );
        // Remote-access latency histogram has one sample per remote access.
        assert_eq!(
            result.remote_access_latency.len() as u64,
            result.remote_accesses
        );
        assert_eq!(result.access_latency.len() as u64, result.total_accesses);
    }

    #[test]
    fn backend_latency_override_shifts_the_distribution() {
        let trace = small_stride_trace();
        let slow_config = SimConfig::linux_defaults()
            .to_builder()
            .memory_fraction(0.5)
            .backend_read_latency(Nanos::from_micros(500))
            .backend_write_latency(Nanos::from_micros(500))
            .build()
            .unwrap();
        let mut slow = VmmSimulator::new(slow_config).run_prepopulated(&trace);
        let mut stock = VmmSimulator::new(linux_at(0.5)).run_prepopulated(&trace);
        // A 500 µs constant device latency dominates the stock RDMA medians.
        assert!(
            slow.median_remote_latency() > stock.median_remote_latency(),
            "override {:?} should exceed stock {:?}",
            slow.median_remote_latency(),
            stock.median_remote_latency()
        );
    }
}
