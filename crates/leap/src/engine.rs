//! The shared fault-engine core.
//!
//! Everything the two front-ends ([`crate::VmmSimulator`],
//! [`crate::VfsSimulator`]) have in common lives here: the simulation clock,
//! the (possibly per-core sharded) swap/prefetch cache, the per-process
//! prefetcher tracker, the data path, the per-shard eviction policies,
//! result accumulation, and the core bookkeeping. The front-ends keep only
//! what genuinely differs — page tables, swap space and cgroup limits for
//! the VMM; the cache budget for the VFS — and drive the core through the
//! helpers below, so hit/miss accounting and eviction bookkeeping are
//! implemented exactly once.
//!
//! Single-process replays run the core in its legacy layout: one cache
//! shard, one evictor, one monotonic clock. Scheduled multi-process replays
//! ([`crate::Simulator::run_multi`]) run replay workers built from it: a
//! per-core slice ([`EngineCore::shard_worker`]) for each core, or — when
//! the front-end cannot be split per core — the core itself after
//! [`EngineCore::enter_scheduled_mode`], which reshapes the cache into
//! per-core shards, builds one eviction-policy instance per shard, and
//! switches the tracker to per-core trend state. Either way the driver
//! moves the worker onto a core's timeline before every access via
//! [`EngineCore::enter_core`].

use crate::builder::SimSetup;
use crate::components::ResolvedComponents;
use crate::config::SimConfig;
use crate::pipeline::{AsyncPipeline, IoKind};
use crate::result::RunResult;
use crate::session::{AccessOutcome, FaultEvent};
use crate::stage_timing::{self, Stage};
use crate::tracker::PageAccessTracker;
use leap_datapath::{DataPath, PathLatency};
use leap_eviction::{CacheEvictor, EvictionReport};
use leap_mem::{CacheEntry, CacheOrigin, MemoryLimit, Pid, ShardedSwapCache, SwapSlot};
use leap_prefetcher::PageAddr;
use leap_sim_core::hash::FxHashMap;
use leap_sim_core::{DetRng, Nanos, SimClock};
use leap_workloads::{Access, AccessTrace};

/// Shared state and bookkeeping of one simulation run.
#[derive(Debug)]
pub(crate) struct EngineCore {
    pub config: SimConfig,
    pub label: String,
    pub clock: SimClock,
    pub cache: ShardedSwapCache,
    pub tracker: PageAccessTracker,
    pub data_path: Box<dyn DataPath>,
    pub evictors: Vec<Box<dyn CacheEvictor>>,
    pub result: RunResult,
    /// The resolved component factories, kept so scheduled replays can build
    /// fresh per-core shard workers (one data path, evictor, and tracker per
    /// worker).
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
    tenant_limits: FxHashMap<Pid, MemoryLimit>,
    /// Reusable scratch for span-batched prefetch admission (slots admitted
    /// this span), so the fault hot path never allocates for it.
    span_scratch: Vec<SwapSlot>,
    /// Owner pids running parallel to `span_scratch`.
    owner_scratch: Vec<Pid>,
    /// Per-slot presence mask for the span's batched probe.
    present_scratch: Vec<bool>,
    /// Page offsets of the admitted span, handed to the data path's span
    /// read in one call.
    page_scratch: Vec<u64>,
    /// Per-read totals the data path's span read fills in, replayed into
    /// the async pipeline in page order.
    total_scratch: Vec<Nanos>,
}

impl EngineCore {
    /// Builds the core from a resolved setup. `rng_salt` decorrelates the
    /// front-ends' random streams for the same seed (the VFS front-end
    /// historically salts with `0xF5`).
    pub fn new(setup: &SimSetup, rng_salt: u64) -> Self {
        let config = setup.config;
        let mut rng = DetRng::seed_from(config.seed ^ rng_salt);
        let components = setup.components().clone();
        EngineCore {
            clock: SimClock::new(),
            cache: ShardedSwapCache::single(config.prefetch_cache_pages),
            tracker: PageAccessTracker::new(components.prefetcher.clone(), &config),
            data_path: components.data_path.build(&config, &mut rng),
            evictors: vec![components.eviction.build(&config)],
            result: RunResult::default(),
            components,
            rng_salt,
            core_cursor: 0,
            active_core: 0,
            scheduled: false,
            cache_budget: None,
            pipeline: AsyncPipeline::new(config.async_depth),
            pending_stall: Nanos::ZERO,
            tenant_limits: FxHashMap::default(),
            span_scratch: Vec::new(),
            owner_scratch: Vec::new(),
            present_scratch: Vec::new(),
            page_scratch: Vec::new(),
            total_scratch: Vec::new(),
            label: setup.label(),
            config,
        }
    }

    /// Builds the engine slice a per-core shard worker owns in a scheduled
    /// replay of `shards` cores: one cache shard (the bounded capacity split
    /// evenly, never below one full prefetch window), one eviction-policy
    /// instance, per-core prefetcher trend state pinned to `core`, a fresh
    /// per-core clock, and this worker's own data path fed from a
    /// deterministic per-core [`DetRng`] stream.
    ///
    /// Worker engines are what both replay modes
    /// ([`crate::config::ReplayMode`]) execute, so the serial reference and
    /// the thread-parallel replay step literally the same state.
    pub fn shard_worker(&self, core: usize, shards: usize) -> EngineCore {
        let config = self.config;
        let per_shard = if config.prefetch_cache_pages == u64::MAX {
            u64::MAX
        } else {
            (config.prefetch_cache_pages / shards as u64).max(config.max_prefetch_window as u64)
        };
        // One independent random stream per core: golden-ratio stride keeps
        // the per-core seeds far apart for any (seed, salt) pair.
        let mut rng = DetRng::seed_from(
            config.seed ^ self.rng_salt ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(core as u64 + 1),
        );
        let mut tracker = PageAccessTracker::new(self.components.prefetcher.clone(), &config);
        tracker.set_per_core(true);
        EngineCore {
            clock: SimClock::new(),
            cache: ShardedSwapCache::single(per_shard),
            tracker,
            data_path: self.components.data_path.build(&config, &mut rng),
            evictors: vec![self.components.eviction.build(&config)],
            result: RunResult::default(),
            components: self.components.clone(),
            rng_salt: self.rng_salt,
            core_cursor: 0,
            active_core: core,
            scheduled: true,
            cache_budget: self.cache_budget,
            pipeline: AsyncPipeline::new(config.async_depth),
            pending_stall: Nanos::ZERO,
            tenant_limits: FxHashMap::default(),
            span_scratch: Vec::new(),
            owner_scratch: Vec::new(),
            present_scratch: Vec::new(),
            page_scratch: Vec::new(),
            total_scratch: Vec::new(),
            label: self.label.clone(),
            config,
        }
    }

    /// Pre-sizes the per-access histograms for `accesses` samples so the
    /// fault hot path never reallocates in steady state.
    pub fn reserve_accesses(&mut self, accesses: usize) {
        self.result.access_latency.reserve(accesses);
        self.result.remote_access_latency.reserve(accesses);
    }

    /// Reshapes the engine for a scheduled multi-core replay: `cache_shards`
    /// cache shards routed by slot-region width `span`, one eviction-policy
    /// instance per shard, per-core prefetcher trend state, and
    /// scheduler-driven per-core clocks.
    ///
    /// A bounded prefetch-cache capacity is split evenly over the shards
    /// (never below one full prefetch window per shard, so a single batch
    /// cannot evict itself).
    pub fn enter_scheduled_mode(&mut self, cache_shards: usize, span: u64) {
        let per_shard = if self.config.prefetch_cache_pages == u64::MAX {
            u64::MAX
        } else {
            (self.config.prefetch_cache_pages / cache_shards as u64)
                .max(self.config.max_prefetch_window as u64)
        };
        self.cache = ShardedSwapCache::new(cache_shards, per_shard, span);
        self.evictors = (0..cache_shards)
            .map(|_| self.components.eviction.build(&self.config))
            .collect();
        self.tracker.set_per_core(true);
        self.scheduled = true;
    }

    /// The core the in-flight access is attributed to (always 0 outside
    /// scheduled mode).
    pub fn active_core(&self) -> usize {
        self.active_core
    }

    /// Moves the engine onto `core` at that core's local time. Called by the
    /// driver before every access of a scheduled replay; a worker spanning
    /// every core may jump backwards across cores (each core has its own
    /// timeline), while a per-core shard worker only ever moves forward.
    pub fn enter_core(&mut self, core: usize, now: Nanos) {
        self.active_core = core;
        self.clock = SimClock::starting_at(now);
    }

    /// Tags subsequent data-path traffic with the issuing tenant so
    /// tenant-targeted fault plans and per-tenant recovery ledgers know who
    /// is on-CPU. Called by the front-end at every access (the pid is known
    /// per access, not per core); a plain field store on the data path.
    pub fn set_active_tenant(&mut self, tenant: u32) {
        self.data_path.set_active_tenant(tenant);
    }

    /// Stamps the result metadata from the traces about to be replayed.
    pub fn stamp_run(&mut self, workload: String) {
        self.result.workload = workload;
        self.result.config_label = self.label.clone();
    }

    /// Joined workload name for `traces` (matches the historical "+" join
    /// for multi-process runs). Built in one pass without intermediate
    /// per-trace `String`s.
    pub fn workload_name(traces: &[AccessTrace]) -> String {
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
    pub fn next_core(&mut self) -> usize {
        if self.scheduled {
            return self.active_core;
        }
        self.core_cursor = (self.core_cursor + 1) % self.config.cores.max(1);
        self.core_cursor
    }

    /// Serves one page read over the data path from the next core.
    pub fn read_remote(&mut self, page_offset: u64) -> PathLatency {
        let core = self.next_core();
        let now = self.clock.now();
        stage_timing::time(Stage::DataPath, || {
            self.data_path.read_page(page_offset, core, now)
        })
    }

    /// Issues one page write-back over the data path from the next core.
    pub fn write_remote(&mut self, page_offset: u64) -> PathLatency {
        let core = self.next_core();
        let now = self.clock.now();
        stage_timing::time(Stage::DataPath, || {
            self.data_path.write_page(page_offset, core, now)
        })
    }

    /// Serves a span of prefetch reads on one pinned core, the way a
    /// faulting thread issues its whole prefetch window from the CPU it runs
    /// on: one data-path span call, then one async-pipeline submission per
    /// read in page order, so any in-flight-budget stall accumulates for the
    /// front-end to charge via [`EngineCore::take_pending_stall`].
    pub fn read_remote_span(&mut self, pages: &[u64], core: usize) -> PathLatency {
        let mut totals = std::mem::take(&mut self.total_scratch);
        totals.clear();
        let now = self.clock.now();
        let aggregate = stage_timing::time(Stage::DataPath, || {
            self.data_path.read_span(pages, core, now, &mut totals)
        });
        for &total in &totals {
            self.submit_async(total, IoKind::PrefetchRead);
        }
        self.total_scratch = totals;
        aggregate
    }

    /// Issues one write-back like [`EngineCore::write_remote`], then submits
    /// it to the async pipeline (see [`EngineCore::read_remote_span`]).
    pub fn write_remote_async(&mut self, page_offset: u64) -> PathLatency {
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
    pub fn take_pending_stall(&mut self) -> Nanos {
        std::mem::replace(&mut self.pending_stall, Nanos::ZERO)
    }

    /// Registers (or replaces) `pid`'s memory budget in the engine's tenant
    /// ledger. Residency charging and eviction accounting for the tenant go
    /// through [`EngineCore::charge_tenant`] /
    /// [`EngineCore::record_swap_out`] afterwards.
    pub fn set_tenant_limit(&mut self, pid: Pid, limit: MemoryLimit) {
        self.tenant_limits.insert(pid, limit);
    }

    /// Charges one resident page to `pid`'s budget. Returns `false` when the
    /// charge did not fit (the tenant is at its limit and reclaim must make
    /// room); tenants without a registered limit are never blocked.
    pub fn charge_tenant(&mut self, pid: Pid) -> bool {
        match self.tenant_limits.get_mut(&pid) {
            Some(limit) => limit.try_charge(1),
            None => true,
        }
    }

    /// How many of `pid`'s resident pages must be reclaimed before one more
    /// fits under its budget (0 when the tenant has headroom or no
    /// registered limit).
    pub fn tenant_pages_to_reclaim(&self, pid: Pid) -> u64 {
        match self.tenant_limits.get(&pid) {
            Some(limit) => limit.pages_to_reclaim_for(1),
            None => 0,
        }
    }

    /// Books one page of `pid` swapped out: uncharges its budget and bumps
    /// both the global and the per-tenant eviction counters.
    pub fn record_swap_out(&mut self, pid: Pid) {
        if let Some(limit) = self.tenant_limits.get_mut(&pid) {
            limit.uncharge(1);
        }
        self.result.pages_swapped_out += 1;
        *self.result.tenant_evictions.entry(pid.0).or_insert(0) += 1;
    }

    /// Books an eviction pass into the run metrics: post-hit waits feed the
    /// Figure 4 distribution, freed pages feed the cache counters.
    pub fn record_eviction_report(&mut self, report: &EvictionReport) {
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
    /// hit side in one pass: the hit is recorded — and, under a policy
    /// that [frees on hit](CacheEvictor::frees_on_hit), the
    /// prefetch-origin entry is taken out — in a single cache map
    /// operation ([`leap_mem::SwapCache::record_hit_take`]), then cache/prefetch
    /// statistics, prefetcher feedback, and the owning shard's eviction
    /// policy react. Returns the hit entry, or `None` on a miss.
    pub fn cache_hit(&mut self, pid: Pid, slot: SwapSlot) -> Option<CacheEntry> {
        let now = self.clock.now();
        let shard = self.cache.shard_of(slot);
        let free_prefetched = self.evictors[shard].frees_on_hit();
        let (entry, taken) = stage_timing::time(Stage::Cache, || {
            self.cache
                .shard_mut(shard)
                .record_hit_take(slot, now, free_prefetched)
        })?;
        match entry.origin {
            CacheOrigin::Prefetch => {
                self.result.cache_stats.record_prefetch_hit();
                self.result
                    .prefetch_stats
                    .record_prefetch_hit(now.saturating_sub(entry.inserted_at));
                // Covered counts each prefetched page once, at its *first*
                // demand. `record_hit_take` only stamps `first_hit_at` when
                // it was unset, and per-shard clocks are strictly monotonic
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
        stage_timing::time(Stage::Eviction, || {
            if taken {
                self.evictors[shard].on_hit_freed(slot);
            } else {
                let _ =
                    self.evictors[shard].on_hit(slot, entry.origin, self.cache.shard_mut(shard));
            }
        });
        Some(entry)
    }

    /// Consults the prefetcher for `pid`'s fault at `addr` on the active
    /// core.
    pub fn prefetch_decision(
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
    pub fn set_cache_budget(&mut self, pages: u64) {
        self.cache_budget = (pages != u64::MAX).then_some(pages);
    }

    /// True when the configured whole-cache budget is exhausted.
    fn over_budget(&self) -> bool {
        match self.cache_budget {
            Some(budget) => self.cache.len() >= budget,
            None => false,
        }
    }

    /// True when `extra` more pages fit under the whole-cache budget (so a
    /// batched span insert cannot trip it mid-span).
    fn budget_fits(&self, extra: u64) -> bool {
        match self.cache_budget {
            Some(budget) => self.cache.len() + extra <= budget,
            None => true,
        }
    }

    /// Makes room in an already-routed cache shard (the span-batched
    /// admission path routes once per span, not once per page), honouring
    /// both the shard's capacity and the whole-cache budget.
    pub fn make_cache_space_at(&mut self, shard: usize) -> bool {
        if !self.cache.shard(shard).is_full() && !self.over_budget() {
            return true;
        }
        self.force_evict(shard)
    }

    /// Admits a whole prefetch span into the cache: for each slot, probe
    /// presence, make room, issue the read over the data path, and insert —
    /// with routing done once per span and the statistics/eviction
    /// bookkeeping batched whenever the span's shard has room for all of it
    /// (then no eviction can interleave, so batch and per-page sequencing
    /// are observably identical). `owners[i]` is the process whose page
    /// lives in `slots[i]`.
    ///
    /// Decision-for-decision equivalent to the historical per-candidate
    /// loop (probe, `make_cache_space`, `read_remote`,
    /// `insert_prefetched`), which the spans-vs-loops property tests pin.
    /// Returns how many prefetches were issued.
    pub fn admit_prefetch_span(&mut self, slots: &[SwapSlot], owners: &[Pid]) -> u32 {
        debug_assert_eq!(slots.len(), owners.len());
        if slots.is_empty() {
            return 0;
        }
        // One core per span: the faulting thread issues its whole prefetch
        // window from the CPU it runs on.
        let core = self.next_core();
        let span_shard = self.cache.span_shard(slots);
        if let Some(shard) = span_shard {
            if self.cache.shard(shard).free_pages() >= slots.len() as u64
                && self.budget_fits(slots.len() as u64)
            {
                return self.admit_span_batched(shard, core, slots, owners);
            }
        }
        // Careful path: the span straddles shards or its shard may have to
        // evict mid-span, so keep strict per-slot sequencing (the eviction
        // policy must see every insert before the next make-space call).
        let mut issued = 0u32;
        for (i, &slot) in slots.iter().enumerate() {
            let shard = span_shard.unwrap_or_else(|| self.cache.shard_of(slot));
            if stage_timing::time(Stage::Cache, || self.cache.shard(shard).contains(slot)) {
                continue;
            }
            if !self.make_cache_space_at(shard) {
                continue;
            }
            let _ = self.read_remote_span(&[slot.0], core);
            let now = self.clock.now();
            stage_timing::time(Stage::Cache, || {
                self.cache.shard_mut(shard).insert_fresh(
                    slot,
                    owners[i],
                    CacheOrigin::Prefetch,
                    now,
                )
            });
            self.result.cache_stats.record_add(1);
            self.result.prefetch_stats.record_prefetched(1);
            self.result.prefetch_outcomes.record_prefetched(slot.0);
            stage_timing::time(Stage::Eviction, || {
                self.evictors[shard].on_insert(slot, CacheOrigin::Prefetch)
            });
            issued += 1;
        }
        issued
    }

    /// The no-eviction-possible fast path of [`EngineCore::admit_prefetch_span`]:
    /// one presence probe for the whole span, one data-path span read for
    /// every admitted page, then one batched insert pass, one evictor
    /// notification, and one statistics update.
    fn admit_span_batched(
        &mut self,
        shard: usize,
        core: usize,
        slots: &[SwapSlot],
        owners: &[Pid],
    ) -> u32 {
        let mut admitted = std::mem::take(&mut self.span_scratch);
        let mut admitted_owners = std::mem::take(&mut self.owner_scratch);
        let mut present = std::mem::take(&mut self.present_scratch);
        let mut pages = std::mem::take(&mut self.page_scratch);
        admitted.clear();
        admitted_owners.clear();
        present.clear();
        present.resize(slots.len(), false);
        pages.clear();
        // One routed presence probe for the whole span; sound because the
        // cache is not mutated until the insert pass below.
        stage_timing::time(Stage::Cache, || {
            self.cache.contains_span(slots, &mut present);
        });
        for (i, &slot) in slots.iter().enumerate() {
            // The in-span duplicate guard stands in for the presence check
            // a per-page loop would have re-done after each insert
            // (prefetchers outside this crate may emit duplicate
            // candidates); spans are at most one prefetch window, so the
            // linear scan is cheaper than hashing.
            if present[i] || admitted.contains(&slot) {
                continue;
            }
            admitted.push(slot);
            admitted_owners.push(owners[i]);
            pages.push(slot.0);
        }
        // All the span's reads go out in one data-path call, issued and
        // submitted to the pipeline in page order.
        if !pages.is_empty() {
            let _ = self.read_remote_span(&pages, core);
        }
        self.page_scratch = pages;
        let now = self.clock.now();
        stage_timing::time(Stage::Cache, || {
            self.cache.insert_fresh_span(
                shard,
                &admitted,
                &admitted_owners,
                CacheOrigin::Prefetch,
                now,
            );
        });
        stage_timing::time(Stage::Eviction, || {
            self.evictors[shard].on_insert_span(&admitted, CacheOrigin::Prefetch)
        });
        let issued = admitted.len() as u32;
        self.result.cache_stats.record_add(issued as u64);
        self.result.prefetch_stats.record_prefetched(issued as u64);
        // One outcome event per admitted page, in span order — the same
        // fold sequence the careful path (and the per-candidate reference)
        // produces for these pages.
        for &slot in &admitted {
            self.result.prefetch_outcomes.record_prefetched(slot.0);
        }
        self.span_scratch = admitted;
        self.owner_scratch = admitted_owners;
        self.present_scratch = present;
        issued
    }

    /// Runs one eviction pass of `shard`'s policy and books its effects.
    /// Returns `true` if anything was freed.
    pub fn force_evict(&mut self, shard: usize) -> bool {
        let now = self.clock.now();
        let report = stage_timing::time(Stage::Eviction, || {
            self.evictors[shard].make_space(self.cache.shard_mut(shard), 1, now)
        });
        let freed = !report.is_empty();
        self.record_eviction_report(&report);
        freed
    }

    /// Inserts a prefetched page into its cache shard (the transfer itself
    /// has already been issued over the data path) and updates every
    /// counter. Returns `true` if the insert took place. Kept test-only:
    /// both front-ends admit prefetches through
    /// [`EngineCore::admit_prefetch_span`] now; the per-candidate reference
    /// paths the equivalence tests replay still sequence through this.
    #[cfg(test)]
    pub fn insert_prefetched(&mut self, slot: SwapSlot, owner: Pid) -> bool {
        let now = self.clock.now();
        if stage_timing::time(Stage::Cache, || {
            self.cache.insert(slot, owner, CacheOrigin::Prefetch, now)
        }) {
            self.result.cache_stats.record_add(1);
            self.result.prefetch_stats.record_prefetched(1);
            self.result.prefetch_outcomes.record_prefetched(slot.0);
            let shard = self.cache.shard_of(slot);
            stage_timing::time(Stage::Eviction, || {
                self.evictors[shard].on_insert(slot, CacheOrigin::Prefetch)
            });
            true
        } else {
            false
        }
    }

    /// Inserts a demand-fetched page into its cache shard, notifying the
    /// shard's eviction policy. Returns `true` if the insert took place.
    pub fn insert_demand(&mut self, slot: SwapSlot, owner: Pid) -> bool {
        let now = self.clock.now();
        if stage_timing::time(Stage::Cache, || {
            self.cache.insert(slot, owner, CacheOrigin::Demand, now)
        }) {
            let shard = self.cache.shard_of(slot);
            stage_timing::time(Stage::Eviction, || {
                self.evictors[shard].on_insert(slot, CacheOrigin::Demand)
            });
            true
        } else {
            false
        }
    }

    /// Pages the active shard's reclaimer currently tracks (what a direct
    /// reclaim on the faulting core would have to scan).
    pub fn reclaim_scan_pages(&self) -> u64 {
        let shard = self.active_core.min(self.evictors.len() - 1);
        self.evictors[shard].tracked_pages()
    }

    /// Runs the active core's shard's background reclaimer (a no-op for
    /// policies without one) and books its effects.
    ///
    /// Only the active shard is scanned: each shard's entry timestamps live
    /// on its own core's timeline, so reclaiming another core's shard at
    /// this core's local time would pollute the wait statistics with
    /// cross-timeline deltas. (Legacy single-shard runs are unaffected —
    /// there is exactly one shard and one clock.)
    pub fn background_reclaim(&mut self) {
        let shard = self.active_core.min(self.evictors.len() - 1);
        // The eager policy has no background scanner; skip the virtual call
        // (and its timing probe) on every access rather than dispatching
        // into a guaranteed no-op.
        if !self.evictors[shard].has_background_reclaimer() {
            return;
        }
        let now = self.clock.now();
        let report = stage_timing::time(Stage::Eviction, || {
            self.evictors[shard].background_reclaim(self.cache.shard_mut(shard), now)
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
    pub fn complete_access(
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
    pub fn begin_access(&mut self, access: &Access) {
        self.clock.advance(access.compute);
        self.result.total_accesses += 1;
    }

    /// Resets the async pipeline, forgetting traffic submitted so far (the
    /// prepopulation phase issues write-backs that do not belong to the
    /// measured run) so the pipeline counters start clean.
    pub fn reset_pipeline(&mut self) {
        self.pipeline = AsyncPipeline::new(self.config.async_depth);
        self.pending_stall = Nanos::ZERO;
    }

    /// Folds the pipeline's final state into the result: drains outstanding
    /// completions (the run waits for its in-flight I/O) and snapshots the
    /// counters. Shard workers call this before their partial results are
    /// merged.
    pub fn seal_pipeline(&mut self) {
        self.pipeline.drain();
        // Prefetched pages still sitting unused in this engine's cache never
        // got demanded: classify them wasted-unconsumed so every prefetch
        // has exactly one outcome. Workers seal before their partials merge,
        // so each shard classifies only the pages it admitted.
        self.result
            .prefetch_outcomes
            .record_wasted_unconsumed(self.cache.unused_prefetched());
        self.result.pipeline = *self.pipeline.stats();
        self.result.fault_stats = self.data_path.fault_stats();
        self.result.recovery_stats = self.data_path.recovery_stats();
        for (tenant, ledger) in self.data_path.tenant_recovery() {
            self.result
                .tenant_recovery
                .entry(tenant)
                .or_default()
                .merge(&ledger);
        }
    }

    /// Finishes the run.
    pub fn into_result(mut self) -> RunResult {
        self.seal_pipeline();
        self.result.completion_time = self.clock.now();
        self.result
    }
}
