//! The [`CacheEvictor`] trait: one interface over both eviction policies.
//!
//! The fault engine in the `leap` crate used to match on an eviction enum at
//! every call site and carry both a [`LazyReclaimer`] and a
//! [`PrefetchFifoLru`] around. This trait moves that policy dispatch behind
//! one object so engines hold a single `Box<dyn CacheEvictor>`.

use crate::eager::PrefetchFifoLru;
use crate::lazy::{LazyReclaimer, LazyReclaimerConfig};
use leap_mem::{CacheOrigin, SwapCache, SwapSlot};
use leap_sim_core::Nanos;

/// What one eviction pass freed, in the categories the metrics care about.
#[derive(Debug, Clone, Default)]
pub struct EvictionReport {
    /// Prefetched pages reclaimed before ever being hit (cache pollution).
    pub freed_unused_prefetches: u64,
    /// Everything else freed (consumed prefetches, demand entries).
    pub freed_other: u64,
    /// For each freed page that had been hit, how long it sat in the cache
    /// after its first hit (the paper's Figure 4 wait time).
    pub post_hit_wait: Vec<Nanos>,
}

impl EvictionReport {
    /// Total pages freed by the pass.
    pub fn freed_total(&self) -> u64 {
        self.freed_unused_prefetches + self.freed_other
    }

    /// True if the pass freed nothing.
    pub fn is_empty(&self) -> bool {
        self.freed_total() == 0
    }
}

/// A prefetch-cache eviction policy driven by the fault engine.
///
/// The engine notifies the policy of inserts and hits and asks it to free
/// space (`make_space`) when the cache is full; paging front-ends that model
/// a kswapd-style background thread additionally call `background_reclaim`
/// after each remote access.
pub trait CacheEvictor: std::fmt::Debug + Send {
    /// Short policy name for labels and reports (e.g. "lazy", "eager").
    fn policy_name(&self) -> &'static str;

    /// True if a hit on a prefetched page frees its cache entry immediately
    /// (Leap's eager behaviour).
    fn frees_on_hit(&self) -> bool;

    /// Notifies the policy that `slot` entered the cache.
    fn on_insert(&mut self, slot: SwapSlot, origin: CacheOrigin);

    /// Notifies the policy that `slot` left the cache for reasons outside
    /// its control.
    fn on_remove(&mut self, slot: SwapSlot);

    /// Handles a cache hit on `slot`. Returns `true` if the policy freed the
    /// entry (the caller must not reuse it afterwards).
    fn on_hit(&mut self, slot: SwapSlot, origin: CacheOrigin, cache: &mut SwapCache) -> bool;

    /// Handles a cache hit on a prefetch-origin `slot` whose entry the
    /// caller already removed from the cache (the engine's fused hit path
    /// records the hit and takes the entry in one cache operation when
    /// [`CacheEvictor::frees_on_hit`] is true). Only the policy's own
    /// bookkeeping remains; equivalent to [`CacheEvictor::on_hit`] minus
    /// the cache removal. Policies that never free on hit are never
    /// called and keep the default no-op.
    fn on_hit_freed(&mut self, slot: SwapSlot) {
        let _ = slot;
    }

    /// Tries to free at least `target` pages from `cache` at time `now`.
    fn make_space(&mut self, cache: &mut SwapCache, target: u64, now: Nanos) -> EvictionReport;

    /// Runs the policy's background reclaimer if its trigger condition holds
    /// (e.g. the lazy policy's high watermark). Returns `None` when nothing
    /// needed doing. Front-ends that do not model a background thread simply
    /// never call this.
    fn background_reclaim(&mut self, cache: &mut SwapCache, now: Nanos) -> Option<EvictionReport>;

    /// False when [`CacheEvictor::background_reclaim`] unconditionally
    /// returns `None`, letting per-access callers skip the virtual call
    /// entirely. Policies with a real background scanner keep the default.
    fn has_background_reclaimer(&self) -> bool {
        true
    }

    /// Number of pages the policy's bookkeeping currently has to scan to
    /// find reclaim candidates; page-allocation wait grows with this (§2.3).
    fn tracked_pages(&self) -> u64;
}

/// Leap's eager policy (§4.3): free prefetched entries on their first hit,
/// reclaim unconsumed prefetches FIFO under pressure.
#[derive(Debug)]
pub struct EagerEvictor {
    fifo: PrefetchFifoLru,
    /// LRU bookkeeping for entries the FIFO does not cover (demand-origin
    /// entries, e.g. in the VFS front-end's buffered writes). Reclaiming
    /// them is a fallback; their scan time is not modelled because the list
    /// stays short by construction under the eager policy.
    fallback: LazyReclaimer,
    /// Reusable buffer for the slots a FIFO reclaim pass frees.
    victims: Vec<SwapSlot>,
}

impl Default for EagerEvictor {
    fn default() -> Self {
        EagerEvictor::new()
    }
}

impl EagerEvictor {
    /// Creates an eager evictor.
    pub fn new() -> Self {
        EagerEvictor {
            fifo: PrefetchFifoLru::new(),
            fallback: LazyReclaimer::with_defaults(),
            victims: Vec::new(),
        }
    }

    /// Counters accumulated by the prefetch FIFO.
    pub fn stats(&self) -> crate::eager::EagerEvictionStats {
        self.fifo.stats()
    }
}

impl CacheEvictor for EagerEvictor {
    fn policy_name(&self) -> &'static str {
        "eager"
    }

    fn frees_on_hit(&self) -> bool {
        true
    }

    fn on_insert(&mut self, slot: SwapSlot, origin: CacheOrigin) {
        // The FIFO tracks prefetch-origin entries, the fallback LRU only
        // demand-origin ones. The fallback is only ever reclaimed from once
        // the FIFO has drained every live prefetch entry, so its victim set
        // and order are the same as if it tracked everything — without the
        // per-prefetch hash traffic on the hot path.
        match origin {
            CacheOrigin::Prefetch => self.fifo.on_prefetch_insert(slot),
            CacheOrigin::Demand => self.fallback.on_insert(slot),
        }
    }

    fn on_remove(&mut self, slot: SwapSlot) {
        self.fallback.on_remove(slot);
    }

    fn on_hit(&mut self, slot: SwapSlot, origin: CacheOrigin, cache: &mut SwapCache) -> bool {
        match origin {
            CacheOrigin::Prefetch => {
                if !self.fifo.on_hit(slot, cache) {
                    // Not on the FIFO (edge case): still freed eagerly.
                    cache.remove(slot);
                }
                true
            }
            CacheOrigin::Demand => {
                // Demand entries are not prefetch-cache pollution; they stay
                // until pressure reclaims them.
                self.fallback.on_hit(slot);
                false
            }
        }
    }

    fn on_hit_freed(&mut self, slot: SwapSlot) {
        self.fifo.on_hit_freed(slot);
    }

    fn make_space(&mut self, cache: &mut SwapCache, target: u64, now: Nanos) -> EvictionReport {
        let mut report = EvictionReport::default();
        self.victims.clear();
        report.freed_unused_prefetches = self.fifo.reclaim_fifo(cache, target, &mut self.victims);
        report.freed_other = self.victims.len() as u64 - report.freed_unused_prefetches;
        if report.freed_total() < target {
            // No unconsumed prefetches left: fall back to LRU over whatever
            // remains (demand entries). Eager eviction has no post-hit waits
            // by construction, so none are reported.
            let outcome = self
                .fallback
                .reclaim(cache, target - report.freed_total(), now);
            report.freed_other += outcome.freed.len() as u64;
        }
        report
    }

    fn background_reclaim(
        &mut self,
        _cache: &mut SwapCache,
        _now: Nanos,
    ) -> Option<EvictionReport> {
        None
    }

    fn has_background_reclaimer(&self) -> bool {
        false
    }

    fn tracked_pages(&self) -> u64 {
        self.fifo.len() as u64
    }
}

/// The kernel's lazy policy (§2.3): hits leave entries in place; a
/// kswapd-style scanner reclaims from the LRU end under pressure or past the
/// high watermark.
#[derive(Debug)]
pub struct LazyEvictor {
    reclaimer: LazyReclaimer,
    high_watermark: u64,
}

/// Cache size (pages) past which the background reclaimer kicks in, a
/// stand-in for the kernel's watermarks.
pub const LAZY_CACHE_HIGH_WATERMARK: u64 = 4_096;

impl LazyEvictor {
    /// Creates a lazy evictor with kernel-like parameters.
    pub fn new() -> Self {
        LazyEvictor {
            reclaimer: LazyReclaimer::with_defaults(),
            high_watermark: LAZY_CACHE_HIGH_WATERMARK,
        }
    }

    /// Creates a lazy evictor with an explicit reclaimer configuration and
    /// background watermark.
    pub fn with_config(config: LazyReclaimerConfig, high_watermark: u64) -> Self {
        LazyEvictor {
            reclaimer: LazyReclaimer::new(config),
            high_watermark: high_watermark.max(1),
        }
    }
}

impl Default for LazyEvictor {
    fn default() -> Self {
        LazyEvictor::new()
    }
}

impl CacheEvictor for LazyEvictor {
    fn policy_name(&self) -> &'static str {
        "lazy"
    }

    fn frees_on_hit(&self) -> bool {
        false
    }

    fn on_insert(&mut self, slot: SwapSlot, _origin: CacheOrigin) {
        self.reclaimer.on_insert(slot);
    }

    fn on_remove(&mut self, slot: SwapSlot) {
        self.reclaimer.on_remove(slot);
    }

    fn on_hit(&mut self, slot: SwapSlot, _origin: CacheOrigin, _cache: &mut SwapCache) -> bool {
        // The laziness Leap removes: the entry stays until scanned out.
        self.reclaimer.on_hit(slot);
        false
    }

    fn make_space(&mut self, cache: &mut SwapCache, target: u64, now: Nanos) -> EvictionReport {
        let outcome = self.reclaimer.reclaim(cache, target, now);
        EvictionReport {
            freed_unused_prefetches: outcome.freed_unused_prefetches,
            freed_other: outcome.freed.len() as u64 - outcome.freed_unused_prefetches,
            post_hit_wait: outcome.post_hit_wait,
        }
    }

    fn background_reclaim(&mut self, cache: &mut SwapCache, now: Nanos) -> Option<EvictionReport> {
        if cache.len() <= self.high_watermark {
            return None;
        }
        let target = cache.len() - self.high_watermark / 2;
        Some(self.make_space(cache, target, now))
    }

    fn tracked_pages(&self) -> u64 {
        self.reclaimer.tracked_pages() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_mem::Pid;

    fn insert(cache: &mut SwapCache, e: &mut dyn CacheEvictor, slot: u64, origin: CacheOrigin) {
        cache.insert(SwapSlot(slot), Pid(1), origin, Nanos::ZERO);
        e.on_insert(SwapSlot(slot), origin);
    }

    #[test]
    fn eager_frees_prefetch_entries_on_hit() {
        let mut cache = SwapCache::new(8);
        let mut e = EagerEvictor::new();
        insert(&mut cache, &mut e, 1, CacheOrigin::Prefetch);
        cache.record_hit(SwapSlot(1), Nanos::from_micros(1));
        assert!(e.on_hit(SwapSlot(1), CacheOrigin::Prefetch, &mut cache));
        assert!(!cache.contains(SwapSlot(1)));
        assert!(e.frees_on_hit());
    }

    #[test]
    fn eager_keeps_demand_entries_on_hit() {
        let mut cache = SwapCache::new(8);
        let mut e = EagerEvictor::new();
        insert(&mut cache, &mut e, 2, CacheOrigin::Demand);
        cache.record_hit(SwapSlot(2), Nanos::from_micros(1));
        assert!(!e.on_hit(SwapSlot(2), CacheOrigin::Demand, &mut cache));
        assert!(cache.contains(SwapSlot(2)));
    }

    #[test]
    fn eager_make_space_prefers_unconsumed_prefetches() {
        let mut cache = SwapCache::new(8);
        let mut e = EagerEvictor::new();
        insert(&mut cache, &mut e, 1, CacheOrigin::Demand);
        insert(&mut cache, &mut e, 2, CacheOrigin::Prefetch);
        insert(&mut cache, &mut e, 3, CacheOrigin::Prefetch);
        let report = e.make_space(&mut cache, 2, Nanos::from_micros(5));
        assert_eq!(report.freed_unused_prefetches, 2);
        assert_eq!(report.freed_other, 0);
        assert!(cache.contains(SwapSlot(1)), "demand entry survives");
    }

    #[test]
    fn eager_make_space_falls_back_to_demand_entries() {
        let mut cache = SwapCache::new(8);
        let mut e = EagerEvictor::new();
        insert(&mut cache, &mut e, 1, CacheOrigin::Demand);
        insert(&mut cache, &mut e, 2, CacheOrigin::Demand);
        let report = e.make_space(&mut cache, 1, Nanos::from_micros(5));
        assert_eq!(report.freed_unused_prefetches, 0);
        assert_eq!(report.freed_other, 1);
    }

    #[test]
    fn lazy_keeps_entries_on_hit_and_reports_waits() {
        let mut cache = SwapCache::new(8);
        let mut e = LazyEvictor::new();
        insert(&mut cache, &mut e, 1, CacheOrigin::Prefetch);
        cache.record_hit(SwapSlot(1), Nanos::from_micros(10));
        assert!(!e.on_hit(SwapSlot(1), CacheOrigin::Prefetch, &mut cache));
        assert!(cache.contains(SwapSlot(1)));
        let report = e.make_space(&mut cache, 1, Nanos::from_micros(500));
        assert_eq!(report.freed_other, 1);
        assert_eq!(report.post_hit_wait, vec![Nanos::from_micros(490)]);
    }

    #[test]
    fn lazy_background_reclaim_respects_watermark() {
        let mut cache = SwapCache::unbounded();
        let mut e = LazyEvictor::with_config(LazyReclaimerConfig::default(), 4);
        for i in 0..8 {
            insert(&mut cache, &mut e, i, CacheOrigin::Prefetch);
        }
        let report = e.background_reclaim(&mut cache, Nanos::ZERO);
        assert!(report.is_some());
        assert!(cache.len() <= 8);
        // Below the watermark nothing happens.
        let mut small = SwapCache::unbounded();
        let mut e2 = LazyEvictor::with_config(LazyReclaimerConfig::default(), 4);
        insert(&mut small, &mut e2, 1, CacheOrigin::Prefetch);
        assert!(e2.background_reclaim(&mut small, Nanos::ZERO).is_none());
    }

    #[test]
    fn tracked_pages_reflect_bookkeeping() {
        let mut cache = SwapCache::unbounded();
        let mut eager = EagerEvictor::new();
        let mut lazy = LazyEvictor::new();
        for i in 0..5 {
            insert(&mut cache, &mut eager, i, CacheOrigin::Prefetch);
            lazy.on_insert(SwapSlot(i), CacheOrigin::Prefetch);
        }
        assert_eq!(eager.tracked_pages(), 5);
        assert_eq!(lazy.tracked_pages(), 5);
        assert_eq!(eager.policy_name(), "eager");
        assert_eq!(lazy.policy_name(), "lazy");
    }
}
