//! The shared fault-engine core.
//!
//! Everything the two front-ends ([`crate::VmmSimulator`],
//! [`crate::VfsSimulator`]) have in common lives here: the simulation clock,
//! the (possibly per-core sharded) swap/prefetch cache, the per-process
//! prefetcher tracker, the data path, the eviction rules each cache shard's
//! policy selects, result accumulation, and the core bookkeeping. The
//! front-ends keep only what genuinely differs — page tables, swap space
//! and cgroup limits for the VMM; the cache budget for the VFS — and drive
//! the core through the helpers below, so hit/miss accounting and eviction
//! bookkeeping are implemented exactly once.
//!
//! Single-process replays run the core in its legacy layout: one cache
//! shard, one monotonic clock, and a round-robin dispatch core per request;
//! the driver's [`EngineCore::enter_core`] only ever puts it on core 0 at
//! its own clock. Scheduled multi-process replays
//! ([`crate::Simulator::run_multi`]) run replay workers built from it: a
//! per-core slice ([`EngineCore::shard_worker`]) for each core, or — when
//! the front-end cannot be split per core — the core itself after
//! [`EngineCore::enter_scheduled_mode`], which reshapes the cache into
//! per-core shards, each keeping its own eviction lists, and switches the
//! tracker to per-core trend state. Either way the driver moves the worker
//! onto a core's timeline before every access via
//! [`EngineCore::enter_core`].

use crate::builder::SimSetup;
use crate::components::ResolvedComponents;
use crate::config::SimConfig;
use crate::pipeline::{AsyncPipeline, IoKind};
use crate::result::RunResult;
use crate::session::{AccessOutcome, FaultEvent};
use crate::slots::{pid_slot, Slots};
use crate::stage_timing::{self, Stage};
use crate::tracker::PageAccessTracker;
use leap_datapath::{DataPath, PathLatency};
use leap_eviction::EvictionReport;
use leap_mem::{
    CacheEntry, CacheOrigin, EvictionPolicy, MemoryLimit, Pid, ShardedSwapCache, SwapSlot,
};
use leap_prefetcher::PageAddr;
use leap_sim_core::{DetRng, Nanos, SimClock};
use leap_workloads::{Access, AccessTrace};

/// The page capacity of one of `shards` cache shards: a bounded
/// prefetch-cache capacity split evenly, never below one full prefetch
/// window (so a single batch cannot evict itself); an unbounded cache stays
/// unbounded.
fn shard_capacity(config: &SimConfig, shards: usize) -> u64 {
    if config.prefetch_cache_pages == u64::MAX {
        return u64::MAX;
    }
    (config.prefetch_cache_pages / shards as u64).max(config.max_prefetch_window as u64)
}

/// Shared state and bookkeeping of one simulation run.
#[derive(Debug)]
pub(crate) struct EngineCore {
    pub config: SimConfig,
    pub label: String,
    pub clock: SimClock,
    pub cache: ShardedSwapCache,
    pub tracker: PageAccessTracker,
    pub data_path: Box<dyn DataPath>,
    pub result: RunResult,
    /// The resolved components, kept so scheduled replays can build fresh
    /// per-core shard workers (one data path and tracker per worker).
    components: ResolvedComponents,
    /// Salt decorrelating this front-end's random streams (and those of its
    /// shard workers) from other front-ends under the same seed.
    rng_salt: u64,
    core_cursor: usize,
    active_core: usize,
    scheduled: bool,
    /// Whole-cache page budget on top of the per-shard capacities (the VFS
    /// front-end's local file-cache limit). `None` — the VMM's setting —
    /// skips the budget check entirely on the hot path.
    cache_budget: Option<u64>,
    /// This shard's async I/O submission queue: prefetch reads and
    /// write-backs go through it so the in-flight budget
    /// ([`SimConfig::async_depth`]) can stall the submitter once the
    /// asynchrony runs out.
    pipeline: AsyncPipeline,
    /// Pipeline stall accumulated since the front-end last collected it via
    /// [`EngineCore::take_pending_stall`] (charged to the faulting access).
    pending_stall: Nanos,
    /// Per-tenant cgroup-style memory limits: the engine's eviction
    /// accounting ledger. Front-ends register each process's
    /// [`MemoryLimit`] here and charge/uncharge residency through the
    /// engine, so budget enforcement and per-tenant eviction counts live in
    /// one place.
    tenant_limits: Slots<MemoryLimit>,
    /// Pages swapped out per tenant, indexed by pid; folded into
    /// [`RunResult::tenant_evictions`] when the engine seals.
    tenant_swap_outs: Vec<u64>,
}

impl EngineCore {
    /// Builds the core from a resolved setup. `rng_salt` decorrelates the
    /// front-ends' random streams for the same seed (the VFS front-end
    /// historically salts with `0xF5`).
    pub fn new(setup: &SimSetup, rng_salt: u64) -> Self {
        let config = setup.config;
        EngineCore::assemble(
            config,
            setup.label(),
            setup.components().clone(),
            rng_salt,
            config.seed ^ rng_salt,
            config.prefetch_cache_pages,
        )
    }

    /// Builds the engine slice a per-core shard worker owns in a scheduled
    /// replay of `shards` cores: one cache shard of
    /// [`shard_capacity`], per-core prefetcher trend state pinned to `core`,
    /// a fresh per-core clock, and this worker's own data path fed from a
    /// deterministic per-core [`DetRng`] stream.
    ///
    /// Worker engines are what both replay modes
    /// ([`crate::config::ReplayMode`]) execute, so the serial and the
    /// thread-parallel replay step literally the same state.
    pub(crate) fn shard_worker(&self, core: usize, shards: usize) -> EngineCore {
        let config = self.config;
        // One independent random stream per core: golden-ratio stride keeps
        // the per-core seeds far apart for any (seed, salt) pair.
        let seed =
            config.seed ^ self.rng_salt ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(core as u64 + 1);
        let mut worker = EngineCore::assemble(
            config,
            self.label.clone(),
            self.components.clone(),
            self.rng_salt,
            seed,
            shard_capacity(&config, shards),
        );
        worker.active_core = core;
        worker.scheduled = true;
        worker.cache_budget = self.cache_budget;
        worker
    }

    /// An unscheduled engine on core 0 with a fresh clock, one cache shard
    /// of `cache_pages`, and a data path fed from a [`DetRng`] seeded with
    /// `rng_seed`.
    fn assemble(
        config: SimConfig,
        label: String,
        components: ResolvedComponents,
        rng_salt: u64,
        rng_seed: u64,
        cache_pages: u64,
    ) -> EngineCore {
        let mut rng = DetRng::seed_from(rng_seed);
        EngineCore {
            clock: SimClock::new(),
            cache: ShardedSwapCache::single(cache_pages, config.eviction),
            tracker: PageAccessTracker::new(components.prefetcher.clone(), &config),
            data_path: components.data_path.build(&config, &mut rng),
            result: RunResult::default(),
            components,
            rng_salt,
            core_cursor: 0,
            active_core: 0,
            scheduled: false,
            cache_budget: None,
            pipeline: AsyncPipeline::new(config.async_depth),
            pending_stall: Nanos::ZERO,
            tenant_limits: Slots::default(),
            tenant_swap_outs: Vec::new(),
            label,
            config,
        }
    }

    /// Pre-sizes the per-access histograms for `accesses` samples so the
    /// fault hot path never reallocates in steady state.
    pub(crate) fn reserve_accesses(&mut self, accesses: usize) {
        self.result.access_latency.reserve(accesses);
        self.result.remote_access_latency.reserve(accesses);
    }

    /// Reshapes the engine for a scheduled multi-core replay: `cache_shards`
    /// cache shards of [`shard_capacity`] each, routed by slot-region width
    /// `span`, and scheduler-driven per-core clocks.
    pub(crate) fn enter_scheduled_mode(&mut self, cache_shards: usize, span: u64) {
        let per_shard = shard_capacity(&self.config, cache_shards);
        self.cache = ShardedSwapCache::new(cache_shards, per_shard, span, self.config.eviction);
        self.scheduled = true;
    }

    /// The core the in-flight access is attributed to (always 0 outside
    /// scheduled mode).
    pub(crate) fn active_core(&self) -> usize {
        self.active_core
    }

    /// Moves the engine onto `core` at that core's local time. Called by the
    /// driver before every access of a scheduled replay; a worker spanning
    /// every core may jump backwards across cores (each core has its own
    /// timeline), while a per-core shard worker only ever moves forward.
    pub(crate) fn enter_core(&mut self, core: usize, now: Nanos) {
        self.active_core = core;
        self.clock = SimClock::starting_at(now);
    }

    /// Tags subsequent data-path traffic with the issuing tenant so
    /// tenant-targeted fault plans and per-tenant recovery ledgers know who
    /// is on-CPU. Called by the front-end at every access (the pid is known
    /// per access, not per core); a plain field store on the data path.
    pub(crate) fn set_active_tenant(&mut self, tenant: u32) {
        self.data_path.set_active_tenant(tenant);
    }

    /// Stamps the result metadata from the traces about to be replayed.
    pub(crate) fn stamp_run(&mut self, workload: String) {
        self.result.workload = workload;
        self.result.config_label = self.label.clone();
    }

    /// Joined workload name for `traces` (matches the historical "+" join
    /// for multi-process runs). Built in one pass without intermediate
    /// per-trace `String`s.
    pub(crate) fn workload_name(traces: &[AccessTrace]) -> String {
        let mut name =
            String::with_capacity(traces.iter().map(|t| t.name().len() + 1).sum::<usize>());
        for (i, trace) in traces.iter().enumerate() {
            if i > 0 {
                name.push('+');
            }
            name.push_str(trace.name());
        }
        name
    }

    /// Picks the CPU core the next request is issued from. In scheduled mode
    /// this is the core the scheduler placed the access on; otherwise a
    /// round-robin cursor stands in for the kernel spreading threads over
    /// cores.
    pub(crate) fn next_core(&mut self) -> usize {
        if self.scheduled {
            return self.active_core;
        }
        self.core_cursor = (self.core_cursor + 1) % self.config.cores.max(1);
        self.core_cursor
    }

    /// Serves one page read over the data path from the next core.
    pub(crate) fn read_remote(&mut self, page_offset: u64) -> PathLatency {
        let core = self.next_core();
        let now = self.clock.now();
        stage_timing::time(Stage::DataPath, || {
            self.data_path.read_page(page_offset, core, now)
        })
    }

    /// Issues one page write-back over the data path from the next core.
    pub(crate) fn write_remote(&mut self, page_offset: u64) -> PathLatency {
        let core = self.next_core();
        let now = self.clock.now();
        stage_timing::time(Stage::DataPath, || {
            self.data_path.write_page(page_offset, core, now)
        })
    }

    /// Issues one prefetch read on `core` (the core its span was drawn
    /// for), then submits it to the async pipeline, so any
    /// in-flight-budget stall accumulates for the front-end to charge via
    /// [`EngineCore::take_pending_stall`].
    fn read_prefetch(&mut self, page_offset: u64, core: usize) {
        let now = self.clock.now();
        let breakdown = stage_timing::time(Stage::DataPath, || {
            self.data_path.read_page(page_offset, core, now)
        });
        self.submit_async(breakdown.total(), IoKind::PrefetchRead);
    }

    /// Issues one write-back like [`EngineCore::write_remote`], then submits
    /// it to the async pipeline (see [`EngineCore::read_prefetch`]).
    pub(crate) fn write_remote_async(&mut self, page_offset: u64) -> PathLatency {
        let breakdown = self.write_remote(page_offset);
        self.submit_async(breakdown.total(), IoKind::WriteBack);
        breakdown
    }

    /// Submits one already-issued transfer to the pipeline and banks the
    /// stall the in-flight budget imposed on the submitter.
    fn submit_async(&mut self, service: Nanos, kind: IoKind) {
        let outcome = self.pipeline.submit(self.clock.now(), service, kind);
        self.pending_stall = self.pending_stall.saturating_add(outcome.stall);
    }

    /// Hands the front-end the pipeline stall accumulated since the last
    /// call, resetting the accumulator. The caller folds it into whichever
    /// latency the blocked submitter is charged to (fault latency for
    /// prefetch reads, allocation wait for eviction write-backs).
    pub(crate) fn take_pending_stall(&mut self) -> Nanos {
        std::mem::replace(&mut self.pending_stall, Nanos::ZERO)
    }

    /// Registers (or replaces) `pid`'s memory budget in the engine's tenant
    /// ledger. Residency charging and eviction accounting for the tenant go
    /// through [`EngineCore::charge_tenant`] /
    /// [`EngineCore::record_swap_out`] afterwards.
    pub(crate) fn set_tenant_limit(&mut self, pid: Pid, limit: MemoryLimit) {
        self.tenant_limits.insert(pid_slot(pid), limit);
    }

    /// Charges one resident page to `pid`'s budget. Returns `false` when the
    /// charge did not fit (the tenant is at its limit and reclaim must make
    /// room); tenants without a registered limit are never blocked.
    pub(crate) fn charge_tenant(&mut self, pid: Pid) -> bool {
        match self.tenant_limits.get_mut(pid_slot(pid)) {
            Some(limit) => limit.try_charge(1),
            None => true,
        }
    }

    /// How many of `pid`'s resident pages must be reclaimed before one more
    /// fits under its budget (0 when the tenant has headroom or no
    /// registered limit).
    pub(crate) fn tenant_pages_to_reclaim(&self, pid: Pid) -> u64 {
        match self.tenant_limits.get(pid_slot(pid)) {
            Some(limit) => limit.pages_to_reclaim_for(1),
            None => 0,
        }
    }

    /// Books one page of `pid` swapped out: uncharges its budget and bumps
    /// both the global and the per-tenant eviction counters.
    pub(crate) fn record_swap_out(&mut self, pid: Pid) {
        let slot = pid_slot(pid);
        if let Some(limit) = self.tenant_limits.get_mut(slot) {
            limit.uncharge(1);
        }
        self.result.pages_swapped_out += 1;
        if slot >= self.tenant_swap_outs.len() {
            self.tenant_swap_outs.resize(slot + 1, 0);
        }
        self.tenant_swap_outs[slot] += 1;
    }

    /// Forgets every swap-out booked so far, globally and per tenant (the
    /// prepopulation phase's, which do not belong to the measured run).
    pub(crate) fn reset_swap_outs(&mut self) {
        self.result.pages_swapped_out = 0;
        self.tenant_swap_outs.fill(0);
    }

    /// Books an eviction pass into the run metrics: post-hit waits feed the
    /// Figure 4 distribution, freed pages feed the cache counters.
    pub(crate) fn record_eviction_report(&mut self, report: &EvictionReport) {
        for wait in &report.post_hit_wait {
            self.result.eviction_wait.record(*wait);
        }
        for _ in 0..report.freed_unused_prefetches {
            self.result.cache_stats.record_eviction(true);
        }
        self.result
            .prefetch_outcomes
            .record_wasted_evicted(report.freed_unused_prefetches);
        for _ in 0..report.freed_other {
            self.result.cache_stats.record_eviction(false);
        }
    }

    /// Looks up `slot` in its cache shard and, on a hit, does the whole
    /// hit side in one pass: the shard records the hit — and, under the
    /// eager policy, frees the prefetch-origin entry — in a single cache
    /// map operation ([`leap_mem::SwapCache::record_hit`]), then
    /// cache/prefetch statistics and prefetcher feedback react. Returns the
    /// hit entry, or `None` on a miss.
    pub(crate) fn cache_hit(&mut self, pid: Pid, slot: SwapSlot) -> Option<CacheEntry> {
        let now = self.clock.now();
        let entry = stage_timing::time(Stage::Cache, || self.cache.record_hit(slot, now))?;
        match entry.origin {
            CacheOrigin::Prefetch => {
                self.result.cache_stats.record_prefetch_hit();
                self.result
                    .prefetch_stats
                    .record_prefetch_hit(now.saturating_sub(entry.inserted_at));
                // Covered counts each prefetched page once, at its *first*
                // demand. `record_hit` only stamps `first_hit_at` when it
                // was unset, and per-shard clocks are strictly monotonic
                // across accesses (every hit charges a nonzero latency), so
                // `first_hit_at == now` identifies exactly the first hit —
                // repeat hits under a lazy policy carry an earlier stamp.
                if entry.first_hit_at == Some(now) {
                    self.result.prefetch_outcomes.record_covered(slot.0);
                }
                stage_timing::time(Stage::Prefetcher, || {
                    self.tracker
                        .on_prefetch_hit_at(pid, self.active_core, PageAddr(slot.0))
                });
            }
            CacheOrigin::Demand => {
                self.result.cache_stats.record_demand_hit();
            }
        }
        Some(entry)
    }

    /// Consults the prefetcher for `pid`'s fault at `addr` on the active
    /// core.
    pub(crate) fn prefetch_decision(
        &mut self,
        pid: Pid,
        addr: PageAddr,
    ) -> leap_prefetcher::PrefetchDecision {
        stage_timing::time(Stage::Prefetcher, || {
            self.tracker.on_fault_at(pid, self.active_core, addr)
        })
    }

    /// Caps the whole cache at `pages` on top of the per-shard capacities
    /// (the VFS front-end's file-cache budget; `u64::MAX` lifts the cap).
    pub(crate) fn set_cache_budget(&mut self, pages: u64) {
        self.cache_budget = (pages != u64::MAX).then_some(pages);
    }

    /// True when the configured whole-cache budget is exhausted.
    fn over_budget(&self) -> bool {
        match self.cache_budget {
            Some(budget) => self.cache.len() >= budget,
            None => false,
        }
    }

    /// Makes room in cache shard `shard`, honouring both the shard's
    /// capacity and the whole-cache budget.
    pub(crate) fn make_cache_space_at(&mut self, shard: usize) -> bool {
        if !self.cache.shard(shard).is_full() && !self.over_budget() {
            return true;
        }
        self.force_evict(shard)
    }

    /// Admits a prefetch span into the cache, one candidate at a time:
    /// probe presence, make room, issue the read, insert (onto the shard's
    /// eviction list) and count — so every insert is in place before the
    /// next make-space call. `owners[i]` is the process whose page
    /// lives in `slots[i]`. A duplicate candidate finds its first copy
    /// present and is skipped. Returns how many prefetches were issued.
    pub(crate) fn admit_prefetch_span(&mut self, slots: &[SwapSlot], owners: &[Pid]) -> u32 {
        debug_assert_eq!(slots.len(), owners.len());
        if slots.is_empty() {
            return 0;
        }
        // One core per span: the faulting thread issues its whole prefetch
        // window from the CPU it runs on.
        let core = self.next_core();
        let mut issued = 0u32;
        for (&slot, &owner) in slots.iter().zip(owners) {
            let shard = self.cache.shard_of(slot);
            if stage_timing::time(Stage::Cache, || self.cache.shard(shard).contains(slot)) {
                continue;
            }
            if !self.make_cache_space_at(shard) {
                continue;
            }
            self.read_prefetch(slot.0, core);
            let now = self.clock.now();
            stage_timing::time(Stage::Cache, || {
                self.cache
                    .shard_mut(shard)
                    .insert_fresh(slot, owner, CacheOrigin::Prefetch, now)
            });
            self.result.cache_stats.record_add(1);
            self.result.prefetch_stats.record_prefetched(1);
            self.result.prefetch_outcomes.record_prefetched(slot.0);
            issued += 1;
        }
        issued
    }

    /// Runs one eviction pass of `shard`'s policy and books its effects.
    /// Returns `true` if anything was freed.
    pub(crate) fn force_evict(&mut self, shard: usize) -> bool {
        let now = self.clock.now();
        let report = stage_timing::time(Stage::Eviction, || {
            leap_eviction::make_space(self.cache.shard_mut(shard), 1, now)
        });
        let freed = !report.is_empty();
        self.record_eviction_report(&report);
        freed
    }

    /// Inserts a demand-fetched page into its cache shard. Returns `true`
    /// if the insert took place.
    ///
    /// A buffered write can land on a prefetched page nobody has read yet.
    /// The written data replaces the prefetched copy, so that prefetch is
    /// booked wasted here: the demand entry that replaces it (keeping the
    /// prefetch's place on the eager FIFO) carries no outcome of its own,
    /// and its eventual reclaim counts as `freed_other`.
    pub(crate) fn insert_demand(&mut self, slot: SwapSlot, owner: Pid) -> bool {
        let now = self.clock.now();
        if self.cache.get(slot).is_some_and(|e| e.is_unused_prefetch()) {
            self.result.prefetch_outcomes.record_wasted_evicted(1);
        }
        stage_timing::time(Stage::Cache, || {
            self.cache.insert(slot, owner, CacheOrigin::Demand, now)
        })
    }

    /// The cache shard the active core's reclaimer works on.
    fn active_shard(&self) -> usize {
        self.active_core.min(self.cache.shards() - 1)
    }

    /// Pages the active shard's reclaimer currently tracks (what a direct
    /// reclaim on the faulting core would have to scan).
    pub(crate) fn reclaim_scan_pages(&self) -> u64 {
        leap_eviction::tracked_pages(self.cache.shard(self.active_shard()))
    }

    /// Runs the active core's shard's background reclaimer (a no-op for
    /// policies without one) and books its effects.
    ///
    /// Only the active shard is scanned: each shard's entry timestamps live
    /// on its own core's timeline, so reclaiming another core's shard at
    /// this core's local time would pollute the wait statistics with
    /// cross-timeline deltas. (Legacy single-shard runs are unaffected —
    /// there is exactly one shard and one clock.)
    pub(crate) fn background_reclaim(&mut self) {
        let shard = self.active_shard();
        // The eager policy has no background scanner; skip the timing probe
        // on every access rather than timing a guaranteed no-op.
        if self.cache.shard(shard).policy() == EvictionPolicy::Eager {
            return;
        }
        let now = self.clock.now();
        let report = stage_timing::time(Stage::Eviction, || {
            leap_eviction::background_reclaim(self.cache.shard_mut(shard), now)
        });
        if let Some(report) = report {
            self.record_eviction_report(&report);
        }
    }

    /// Charges one access: advances the clock over the access's compute and
    /// `latency`, records the histograms, and emits the [`FaultEvent`]
    /// (its `seq` is stamped by whoever delivers it).
    ///
    /// Must be called exactly once per access, after the outcome-specific
    /// work (the compute advance happens in [`EngineCore::begin_access`]).
    pub(crate) fn complete_access(
        &mut self,
        pid: Pid,
        access: Access,
        outcome: AccessOutcome,
        latency: Nanos,
        prefetches_issued: u32,
    ) -> FaultEvent {
        self.clock.advance(latency);
        self.pipeline.retire(self.clock.now());
        self.result.access_latency.record(latency);
        if outcome.is_remote() {
            self.result.remote_access_latency.record(latency);
        }
        FaultEvent {
            seq: 0,
            pid,
            core: self.active_core,
            page: access.page,
            is_write: access.is_write,
            compute: access.compute,
            outcome,
            latency,
            completed_at: self.clock.now(),
            prefetches_issued,
        }
    }

    /// Starts one access: advances the clock over its compute cost and
    /// counts it.
    pub(crate) fn begin_access(&mut self, access: &Access) {
        self.clock.advance(access.compute);
        self.result.total_accesses += 1;
    }

    /// Resets the async pipeline, forgetting traffic submitted so far (the
    /// prepopulation phase issues write-backs that do not belong to the
    /// measured run) so the pipeline counters start clean.
    pub(crate) fn reset_pipeline(&mut self) {
        self.pipeline = AsyncPipeline::new(self.config.async_depth);
        self.pending_stall = Nanos::ZERO;
    }

    /// Folds the pipeline's final state into the result: drains outstanding
    /// completions (the run waits for its in-flight I/O) and snapshots the
    /// counters. Shard workers call this before their partial results are
    /// merged.
    pub(crate) fn seal_pipeline(&mut self) {
        self.pipeline.drain();
        // Prefetched pages still sitting unused in this engine's cache never
        // got demanded: classify them wasted-unconsumed so every prefetch
        // has exactly one outcome. Workers seal before their partials merge,
        // so each shard classifies only the pages it admitted.
        self.result
            .prefetch_outcomes
            .record_wasted_unconsumed(self.cache.unused_prefetched());
        self.result.pipeline = *self.pipeline.stats();
        for (pid, swap_outs) in std::mem::take(&mut self.tenant_swap_outs)
            .into_iter()
            .enumerate()
            .filter(|&(_, swap_outs)| swap_outs > 0)
        {
            *self.result.tenant_evictions.entry(pid as u32).or_insert(0) += swap_outs;
        }
        self.result.fault_stats = self.data_path.fault_stats();
        self.result.recovery_stats = self.data_path.recovery_stats();
        for (tenant, ledger) in self.data_path.tenant_recovery() {
            self.result
                .tenant_recovery
                .entry(tenant)
                .or_default()
                .merge(&ledger);
        }
        // Audit (test builds): admission books every prefetch into both
        // ledgers at once, each prefetched page ends with exactly one
        // outcome, and each cache shard's FIFO and LRU partition its
        // entries.
        let outcomes = &self.result.prefetch_outcomes;
        debug_assert_eq!(
            outcomes.prefetched(),
            self.result.prefetch_stats.pages_prefetched(),
            "prefetch ledgers disagree"
        );
        debug_assert_eq!(
            outcomes.covered() + outcomes.wasted_evicted() + outcomes.wasted_unconsumed(),
            outcomes.prefetched(),
            "prefetch outcomes do not partition the prefetched pages"
        );
        debug_assert!(
            (0..self.cache.shards()).all(|i| self.cache.shard(i).lists_partition_entries()),
            "a cache shard's eviction lists do not partition its entries"
        );
    }

    /// Finishes the run.
    pub(crate) fn into_result(mut self) -> RunResult {
        self.seal_pipeline();
        self.result.completion_time = self.clock.now();
        self.result
    }
}
