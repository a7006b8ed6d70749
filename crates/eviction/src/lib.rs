//! Eviction rules: the kernel's lazy background LRU reclaim and Leap's
//! eager prefetch-cache eviction.
//!
//! The paper observes (§2.3, Figure 4) that Linux's background reclaimer
//! (`kswapd`) lets already-consumed prefetched pages sit on the LRU lists for
//! a long time; reclaiming them requires scanning, and that scan time inflates
//! page allocation latency under memory pressure. Leap instead frees a
//! prefetched cache page as soon as it is hit, and keeps not-yet-consumed
//! prefetched pages on a FIFO list so that, under severe pressure, they are
//! reclaimed in arrival order (§4.3).
//!
//! The lists themselves live in the [`SwapCache`]: each entry is linked on
//! the cache's FIFO or its LRU, and the cache's [`EvictionPolicy`] decides
//! which list an entry joins and whether a hit frees it. What remains here
//! are stateless victim rules over those lists:
//!
//! - [`make_space`]: free pages on demand — from the LRU end under the lazy
//!   policy; from the FIFO front, then the LRU end, under the eager one;
//! - [`background_reclaim`]: the lazy policy's kswapd pass past its
//!   watermark (the eager policy has none);
//! - [`tracked_pages`]: how many pages a direct reclaim would have to scan.

use leap_mem::{CacheList, SwapCache};
use leap_sim_core::Nanos;

pub use leap_mem::EvictionPolicy;

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
    pub(crate) fn freed_total(&self) -> u64 {
        self.freed_unused_prefetches + self.freed_other
    }

    /// True if the pass freed nothing.
    pub fn is_empty(&self) -> bool {
        self.freed_total() == 0
    }
}

/// Cache size (pages) past which the lazy policy's background reclaimer
/// kicks in, a stand-in for the kernel's watermarks.
pub(crate) const LAZY_CACHE_HIGH_WATERMARK: u64 = 4_096;

/// Frees up to `target` pages from `cache` at time `now`, by its policy.
///
/// - Lazy: pages leave from the LRU end, and every freed page that had been
///   hit reports how long it waited after that hit. kswapd scans at most a
///   quarter of the list plus the target per pass, `ceil(len / 4) + target`
///   pages; every page on the list is cached, so each scanned page is freed
///   and that budget never binds before the target does.
/// - Eager: unconsumed prefetches leave the FIFO in arrival order first;
///   only once the FIFO is drained do demand pages leave from the LRU end.
///   Consumed prefetches were freed on their hit, so no waits are reported.
pub fn make_space(cache: &mut SwapCache, target: u64, now: Nanos) -> EvictionReport {
    let mut report = EvictionReport::default();
    match cache.policy() {
        EvictionPolicy::Lazy => free_oldest(cache, CacheList::Lru, target, Some(now), &mut report),
        EvictionPolicy::Eager => {
            free_oldest(cache, CacheList::Fifo, target, None, &mut report);
            let rest = target - report.freed_total();
            free_oldest(cache, CacheList::Lru, rest, None, &mut report);
        }
    }
    report
}

/// Runs the lazy policy's background reclaimer: past
/// `LAZY_CACHE_HIGH_WATERMARK` cached pages it frees down to half the
/// watermark. Returns `None` when nothing needed doing, and always under
/// the eager policy, which has no background scanner.
pub fn background_reclaim(cache: &mut SwapCache, now: Nanos) -> Option<EvictionReport> {
    reclaim_above(cache, LAZY_CACHE_HIGH_WATERMARK, now)
}

fn reclaim_above(cache: &mut SwapCache, high_watermark: u64, now: Nanos) -> Option<EvictionReport> {
    if cache.policy() == EvictionPolicy::Eager || cache.len() <= high_watermark {
        return None;
    }
    let target = cache.len() - high_watermark / 2;
    Some(make_space(cache, target, now))
}

/// Number of pages the policy's reclaimer has to scan to find candidates:
/// the whole LRU under the lazy policy, only the unconsumed prefetches on
/// the FIFO under the eager one. Page-allocation wait grows with it (§2.3).
pub fn tracked_pages(cache: &SwapCache) -> u64 {
    match cache.policy() {
        EvictionPolicy::Lazy => cache.list_len(CacheList::Lru),
        EvictionPolicy::Eager => cache.list_len(CacheList::Fifo),
    }
}

/// Frees up to `target` of `list`'s oldest entries into `report`, with
/// post-hit waits measured at `waits_at` when given.
fn free_oldest(
    cache: &mut SwapCache,
    list: CacheList,
    target: u64,
    waits_at: Option<Nanos>,
    report: &mut EvictionReport,
) {
    for _ in 0..target {
        let Some((_, entry)) = cache.pop_oldest(list) else {
            break;
        };
        if entry.is_unused_prefetch() {
            report.freed_unused_prefetches += 1;
        } else {
            report.freed_other += 1;
        }
        if let (Some(now), Some(hit_at)) = (waits_at, entry.first_hit_at) {
            report.post_hit_wait.push(now.saturating_sub(hit_at));
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use leap_mem::{CacheOrigin, Pid, SwapSlot};

    fn us(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    fn cache_with(policy: EvictionPolicy, entries: &[(u64, CacheOrigin)]) -> SwapCache {
        let mut cache = SwapCache::new(8, policy);
        for &(slot, origin) in entries {
            cache.insert(SwapSlot(slot), Pid(1), origin, Nanos::ZERO);
        }
        cache
    }

    fn cached(cache: &SwapCache) -> Vec<u64> {
        let mut slots: Vec<u64> = cache.iter().map(|(s, _)| s.0).collect();
        slots.sort_unstable();
        slots
    }

    #[test]
    fn eager_frees_prefetch_entries_on_hit_and_keeps_demand_ones() {
        use CacheOrigin::*;
        let mut cache = cache_with(EvictionPolicy::Eager, &[(1, Prefetch), (2, Demand)]);
        cache.record_hit(SwapSlot(1), us(1));
        cache.record_hit(SwapSlot(2), us(1));
        assert_eq!(cached(&cache), vec![2]);
        assert_eq!(tracked_pages(&cache), 0);
    }

    #[test]
    fn eager_make_space_prefers_unconsumed_prefetches_in_arrival_order() {
        use CacheOrigin::*;
        let mut cache = cache_with(
            EvictionPolicy::Eager,
            &[(1, Demand), (4, Prefetch), (2, Prefetch), (3, Prefetch)],
        );
        assert_eq!(tracked_pages(&cache), 3);
        let report = make_space(&mut cache, 2, us(5));
        assert_eq!(report.freed_unused_prefetches, 2);
        assert_eq!(report.freed_other, 0);
        assert_eq!(cached(&cache), vec![1, 3], "demand entry survives");
        assert_eq!(tracked_pages(&cache), 1);
    }

    #[test]
    fn eager_make_space_passes_over_hit_prefetches_then_falls_back_to_demand() {
        use CacheOrigin::*;
        let mut cache = cache_with(
            EvictionPolicy::Eager,
            &[(1, Demand), (2, Demand), (3, Prefetch), (4, Prefetch)],
        );
        cache.record_hit(SwapSlot(3), us(1));
        cache.record_hit(SwapSlot(1), us(2));
        let report = make_space(&mut cache, 2, us(5));
        assert_eq!(report.freed_unused_prefetches, 1);
        // Slot 2 is the demand LRU's least recently used page.
        assert_eq!(report.freed_other, 1);
        assert!(report.post_hit_wait.is_empty());
        assert_eq!(cached(&cache), vec![1]);
    }

    #[test]
    fn eager_reclaims_a_written_over_prefetch_as_other() {
        use CacheOrigin::*;
        let mut cache = cache_with(EvictionPolicy::Eager, &[(1, Prefetch), (2, Prefetch)]);
        cache.insert(SwapSlot(1), Pid(1), Demand, us(1));
        let report = make_space(&mut cache, 1, us(5));
        assert_eq!((report.freed_unused_prefetches, report.freed_other), (0, 1));
        assert_eq!(cached(&cache), vec![2]);
    }

    #[test]
    fn lazy_keeps_entries_on_hit_and_reports_waits() {
        let mut cache = cache_with(EvictionPolicy::Lazy, &[(1, CacheOrigin::Prefetch)]);
        cache.record_hit(SwapSlot(1), us(10));
        assert!(cache.contains(SwapSlot(1)));
        let report = make_space(&mut cache, 1, us(500));
        assert_eq!(report.freed_other, 1);
        assert_eq!(report.post_hit_wait, vec![us(490)]);
    }

    #[test]
    fn lazy_reclaims_in_lru_order_and_counts_pollution() {
        use CacheOrigin::*;
        let mut cache = cache_with(
            EvictionPolicy::Lazy,
            &[(0, Prefetch), (1, Prefetch), (2, Demand), (3, Prefetch)],
        );
        cache.record_hit(SwapSlot(0), us(1));
        assert_eq!(tracked_pages(&cache), 4);
        let report = make_space(&mut cache, 2, us(10));
        assert_eq!((report.freed_unused_prefetches, report.freed_other), (1, 1));
        assert!(report.post_hit_wait.is_empty());
        assert_eq!(cached(&cache), vec![0, 3]);
        // Asking for more than is cached frees what there is.
        assert_eq!(make_space(&mut cache, 10, us(20)).freed_total(), 2);
        assert!(make_space(&mut cache, 1, us(30)).is_empty());
    }

    #[test]
    fn lazy_background_reclaim_respects_watermark() {
        let mut cache = SwapCache::unbounded(EvictionPolicy::Lazy);
        for i in 0..8 {
            cache.insert(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
        }
        let report = reclaim_above(&mut cache, 4, Nanos::ZERO).expect("past the watermark");
        assert_eq!(report.freed_total(), 6);
        assert_eq!(cache.len(), 2);
        // Below the watermark nothing happens, and the real watermark is far.
        assert!(reclaim_above(&mut cache, 4, Nanos::ZERO).is_none());
        assert!(background_reclaim(&mut cache, Nanos::ZERO).is_none());
    }

    #[test]
    fn eager_has_no_background_reclaimer() {
        let mut cache = SwapCache::unbounded(EvictionPolicy::Eager);
        for i in 0..8 {
            cache.insert(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
        }
        assert!(reclaim_above(&mut cache, 4, Nanos::ZERO).is_none());
        assert_eq!(cache.len(), 8);
    }
}
