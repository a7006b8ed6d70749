//! Leap's eager prefetch-cache eviction (§4.3).
//!
//! Leap keeps prefetched pages on a dedicated FIFO list
//! (`PrefetchFifoLruList`). When a prefetched page is hit and mapped, Leap
//! frees its cache entry immediately instead of leaving it for the background
//! scanner. Under severe pressure, not-yet-consumed prefetched pages are
//! reclaimed in FIFO order. The upshot is that the reclaimer has far fewer
//! pages to scan, shortening page-allocation wait time (the paper measures a
//! ~750 ns / 36 % reduction on average).

use leap_mem::{SwapCache, SwapSlot};
use leap_sim_core::hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Skipped entries tolerated in the queue before a compaction pass, as a
/// floor under the "more skipped than live" trigger: small lists are
/// never compacted, large ones at most once per as many hits as they hold.
const COMPACT_MIN_SKIPPED: usize = 64;

/// Counters describing eager-eviction behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EagerEvictionStats {
    /// Prefetched pages freed immediately after their first hit.
    pub freed_on_hit: u64,
    /// Prefetched pages reclaimed (FIFO) before ever being hit.
    pub freed_unconsumed: u64,
    /// Pages currently tracked on the FIFO list.
    pub tracked: u64,
}

/// The `PrefetchFifoLruList`: FIFO tracking of prefetched cache pages with
/// eager free-on-hit.
///
/// Every operation is O(1) amortized. The queue keeps prefetched slots in
/// arrival order; a hit does not search it but marks one of the slot's
/// entries *skipped* in a per-slot count map, and skipped entries are
/// dropped when they reach the front (or by an occasional compaction pass
/// once they outnumber the live ones). A slot may be queued more than once;
/// its skipped entries are always its oldest ones, so the list behaves
/// exactly like a plain FIFO from which a hit removes the slot's oldest
/// occurrence.
///
/// # Examples
///
/// ```
/// use leap_eviction::PrefetchFifoLru;
/// use leap_mem::{CacheOrigin, Pid, SwapCache, SwapSlot};
/// use leap_sim_core::Nanos;
///
/// let mut cache = SwapCache::new(8);
/// let mut fifo = PrefetchFifoLru::new();
/// cache.insert(SwapSlot(1), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
/// fifo.on_prefetch_insert(SwapSlot(1));
///
/// // The page is hit: Leap frees it from the cache right away.
/// cache.record_hit(SwapSlot(1), Nanos::from_micros(3));
/// fifo.on_hit(SwapSlot(1), &mut cache);
/// assert!(!cache.contains(SwapSlot(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PrefetchFifoLru {
    /// Queued slots, oldest first: live entries plus skipped ones.
    fifo: VecDeque<SwapSlot>,
    /// `(live, skipped)` entry counts of every slot present in `fifo`.
    counts: FxHashMap<SwapSlot, (u32, u32)>,
    /// Live entries across all slots: the length of the list.
    live: usize,
    stats: EagerEvictionStats,
}

impl PrefetchFifoLru {
    /// Creates an empty list.
    pub fn new() -> Self {
        PrefetchFifoLru::default()
    }

    /// Registers a newly prefetched page (appended at the FIFO tail).
    pub fn on_prefetch_insert(&mut self, slot: SwapSlot) {
        self.push(slot);
        self.stats.tracked = self.live as u64;
    }

    fn push(&mut self, slot: SwapSlot) {
        self.fifo.push_back(slot);
        self.counts.entry(slot).or_default().0 += 1;
        self.live += 1;
    }

    /// Handles a hit on a prefetched page: the cache entry is freed
    /// immediately (after the page table has been updated, which the caller
    /// models separately) and the slot leaves the FIFO.
    ///
    /// Returns `true` if the slot was tracked and freed.
    pub fn on_hit(&mut self, slot: SwapSlot, cache: &mut SwapCache) -> bool {
        if self.on_hit_freed(slot) {
            cache.remove(slot);
            true
        } else {
            false
        }
    }

    /// FIFO-side bookkeeping of a hit whose cache entry the caller already
    /// removed: the slot's oldest entry leaves the FIFO and the hit is
    /// counted. Returns `true` if the slot was tracked.
    pub fn on_hit_freed(&mut self, slot: SwapSlot) -> bool {
        match self.counts.get_mut(&slot) {
            Some((live, skipped)) if *live > 0 => {
                *live -= 1;
                *skipped += 1;
            }
            _ => return false,
        }
        self.live -= 1;
        self.stats.freed_on_hit += 1;
        self.stats.tracked = self.live as u64;
        let skipped = self.fifo.len() - self.live;
        if skipped > self.live.max(COMPACT_MIN_SKIPPED) {
            self.compact();
        }
        true
    }

    /// Drops every skipped entry from the queue, keeping the live ones in
    /// order. Each slot's skipped entries are its oldest, so they are the
    /// first ones of that slot the in-order pass meets.
    fn compact(&mut self) {
        let counts = &mut self.counts;
        self.fifo.retain(|slot| {
            let entry = counts.get_mut(slot).expect("queued slot is counted");
            if entry.1 == 0 {
                return true;
            }
            entry.1 -= 1;
            if *entry == (0, 0) {
                counts.remove(slot);
            }
            false
        });
    }

    /// Reclaims up to `target` not-yet-consumed prefetched pages in FIFO
    /// order (severe memory pressure / constrained prefetch cache),
    /// appending the slots actually freed to `freed`. Slots whose cache
    /// entry is already gone leave the list without counting.
    ///
    /// Returns how many of the freed entries were still unused prefetches
    /// ([`CacheEntry::is_unused_prefetch`](leap_mem::CacheEntry::is_unused_prefetch)).
    /// The rest were overwritten by a demand insert (a buffered write)
    /// after their admission.
    pub fn reclaim_fifo(
        &mut self,
        cache: &mut SwapCache,
        target: u64,
        freed: &mut Vec<SwapSlot>,
    ) -> u64 {
        let mut count = 0u64;
        let mut unused = 0u64;
        while count < target {
            let Some(slot) = self.fifo.pop_front() else {
                break;
            };
            let counts = self.counts.get_mut(&slot).expect("queued slot is counted");
            let was_skipped = counts.1 > 0;
            if was_skipped {
                counts.1 -= 1;
            } else {
                counts.0 -= 1;
            }
            if *counts == (0, 0) {
                self.counts.remove(&slot);
            }
            if was_skipped {
                continue;
            }
            self.live -= 1;
            if let Some(entry) = cache.remove(slot) {
                self.stats.freed_unconsumed += 1;
                freed.push(slot);
                count += 1;
                unused += u64::from(entry.is_unused_prefetch());
            }
        }
        self.stats.tracked = self.live as u64;
        unused
    }

    /// Number of prefetched pages currently awaiting consumption.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no prefetched pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> EagerEvictionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_mem::{CacheOrigin, Pid};
    use leap_sim_core::Nanos;
    use proptest::prelude::*;

    fn prefetched_cache(n: u64) -> (SwapCache, PrefetchFifoLru) {
        let mut cache = SwapCache::unbounded();
        let mut fifo = PrefetchFifoLru::new();
        for i in 0..n {
            cache.insert(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
            fifo.on_prefetch_insert(SwapSlot(i));
        }
        (cache, fifo)
    }

    fn reclaim(fifo: &mut PrefetchFifoLru, cache: &mut SwapCache, target: u64) -> Vec<SwapSlot> {
        let mut freed = Vec::new();
        let count = fifo.reclaim_fifo(cache, target, &mut freed);
        assert_eq!(count, freed.len() as u64);
        freed
    }

    #[test]
    fn hit_frees_immediately() {
        let (mut cache, mut fifo) = prefetched_cache(3);
        cache.record_hit(SwapSlot(1), Nanos::from_micros(2));
        assert!(fifo.on_hit(SwapSlot(1), &mut cache));
        assert!(!cache.contains(SwapSlot(1)));
        assert_eq!(fifo.len(), 2);
        assert_eq!(fifo.stats().freed_on_hit, 1);
    }

    #[test]
    fn hit_on_untracked_slot_is_ignored() {
        let (mut cache, mut fifo) = prefetched_cache(1);
        assert!(!fifo.on_hit(SwapSlot(99), &mut cache));
        assert_eq!(fifo.stats().freed_on_hit, 0);
    }

    #[test]
    fn fifo_reclaim_is_in_arrival_order() {
        let (mut cache, mut fifo) = prefetched_cache(5);
        let freed = reclaim(&mut fifo, &mut cache, 3);
        assert_eq!(freed, vec![SwapSlot(0), SwapSlot(1), SwapSlot(2)]);
        assert_eq!(fifo.stats().freed_unconsumed, 3);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reclaim_skips_slots_already_gone_from_cache() {
        let (mut cache, mut fifo) = prefetched_cache(3);
        cache.remove(SwapSlot(0));
        let freed = reclaim(&mut fifo, &mut cache, 2);
        assert_eq!(freed, vec![SwapSlot(1), SwapSlot(2)]);
    }

    #[test]
    fn reclaim_passes_over_hit_slots() {
        let (mut cache, mut fifo) = prefetched_cache(4);
        assert!(fifo.on_hit(SwapSlot(0), &mut cache));
        assert!(fifo.on_hit(SwapSlot(2), &mut cache));
        let freed = reclaim(&mut fifo, &mut cache, 4);
        assert_eq!(freed, vec![SwapSlot(1), SwapSlot(3)]);
        assert!(fifo.is_empty());
    }

    #[test]
    fn reclaim_stops_when_empty() {
        let (mut cache, mut fifo) = prefetched_cache(2);
        let freed = reclaim(&mut fifo, &mut cache, 10);
        assert_eq!(freed.len(), 2);
        assert!(fifo.is_empty());
        let nothing = reclaim(&mut fifo, &mut cache, 1);
        assert!(nothing.is_empty());
    }

    #[test]
    fn tracked_counter_follows_list_length() {
        let (mut cache, mut fifo) = prefetched_cache(4);
        assert_eq!(fifo.stats().tracked, 4);
        fifo.on_hit(SwapSlot(2), &mut cache);
        assert_eq!(fifo.stats().tracked, 3);
        reclaim(&mut fifo, &mut cache, 2);
        assert_eq!(fifo.stats().tracked, 1);
    }

    #[test]
    fn compaction_keeps_the_queue_bounded() {
        // One never-consumed page at the front pins every later entry
        // behind it; hits must still not grow the queue without bound.
        let mut fifo = PrefetchFifoLru::new();
        fifo.on_prefetch_insert(SwapSlot(u64::MAX));
        for i in 0..10_000u64 {
            fifo.on_prefetch_insert(SwapSlot(i));
            assert!(fifo.on_hit_freed(SwapSlot(i)));
        }
        assert_eq!(fifo.len(), 1);
        assert!(fifo.fifo.len() <= 2 * COMPACT_MIN_SKIPPED + 2);
        assert!(fifo.counts.len() <= fifo.fifo.len());
    }

    /// The historical list: a plain `VecDeque` from which a hit removes the
    /// slot's oldest occurrence by a linear search.
    #[derive(Default)]
    struct LinearFifo {
        fifo: VecDeque<SwapSlot>,
        stats: EagerEvictionStats,
    }

    impl LinearFifo {
        fn insert(&mut self, slot: SwapSlot) {
            self.fifo.push_back(slot);
            self.stats.tracked = self.fifo.len() as u64;
        }

        fn hit_freed(&mut self, slot: SwapSlot) -> bool {
            let Some(pos) = self.fifo.iter().position(|&s| s == slot) else {
                return false;
            };
            self.fifo.remove(pos);
            self.stats.freed_on_hit += 1;
            self.stats.tracked = self.fifo.len() as u64;
            true
        }

        fn reclaim(&mut self, cache: &mut SwapCache, target: u64) -> Vec<SwapSlot> {
            let mut freed = Vec::new();
            while (freed.len() as u64) < target {
                let Some(slot) = self.fifo.pop_front() else {
                    break;
                };
                if cache.remove(slot).is_some() {
                    self.stats.freed_unconsumed += 1;
                    freed.push(slot);
                }
            }
            self.stats.tracked = self.fifo.len() as u64;
            freed
        }
    }

    /// Asserts that `fifo` holds the same live entries, in the same order,
    /// with the same length and counters as `reference`.
    fn assert_same_list(fifo: &PrefetchFifoLru, reference: &LinearFifo) {
        assert_eq!(fifo.len(), reference.fifo.len());
        assert_eq!(fifo.is_empty(), reference.fifo.is_empty());
        assert_eq!(fifo.stats(), reference.stats);
        // A slot's skipped entries are its oldest: skip that many of its
        // entries, front to back, and the rest must be the reference list.
        let mut skipped: FxHashMap<SwapSlot, u32> =
            fifo.counts.iter().map(|(&s, &(_, k))| (s, k)).collect();
        let mut live = Vec::new();
        for &s in &fifo.fifo {
            let k = skipped.get_mut(&s).expect("queued slot is counted");
            if *k > 0 {
                *k -= 1;
            } else {
                live.push(s);
            }
        }
        assert!(live.iter().eq(reference.fifo.iter()));
    }

    proptest! {
        /// freed_on_hit + freed_unconsumed + tracked == total inserted.
        #[test]
        fn prop_conservation_of_pages(
            inserts in 1u64..100,
            hits in proptest::collection::vec(0u64..100, 0..50),
            reclaim_target in 0u64..100,
        ) {
            let (mut cache, mut fifo) = prefetched_cache(inserts);
            for h in hits {
                if h < inserts {
                    cache.record_hit(SwapSlot(h), Nanos::ZERO);
                    let _ = fifo.on_hit(SwapSlot(h), &mut cache);
                }
            }
            let _ = reclaim(&mut fifo, &mut cache, reclaim_target);
            let s = fifo.stats();
            prop_assert_eq!(s.freed_on_hit + s.freed_unconsumed + s.tracked, inserts);
        }

        /// The skip-count FIFO is observably the linear FIFO: the same hit
        /// and reclaim results, victims in the same order, and the same
        /// `len()` and `stats()` after every step of random run-insert, hit,
        /// external-removal and reclaim sequences over a
        /// small slot space (so slots are queued repeatedly and entries go
        /// stale). Hit-heavy mixes drive the compaction pass too.
        #[test]
        fn prop_matches_linear_reference(
            ops in proptest::collection::vec((0u8..8, 0u64..24, 0u64..6), 0..400),
        ) {
            // Each list frees from its own cache; both see the same
            // inserts and external removals.
            let mut cache = SwapCache::unbounded();
            let mut ref_cache = SwapCache::unbounded();
            let mut fifo = PrefetchFifoLru::new();
            let mut reference = LinearFifo::default();
            let mut freed = Vec::new();
            for (op, slot, n) in ops {
                match op {
                    0 | 1 => {
                        for s in (slot..slot + n.max(1)).map(SwapSlot) {
                            cache.insert(s, Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
                            ref_cache.insert(s, Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
                            reference.insert(s);
                            fifo.on_prefetch_insert(s);
                        }
                    }
                    2 => {
                        // The slot's cache entry leaves behind the list's back.
                        cache.remove(SwapSlot(slot));
                        ref_cache.remove(SwapSlot(slot));
                    }
                    3 => {
                        freed.clear();
                        let count = fifo.reclaim_fifo(&mut cache, n, &mut freed);
                        let expected = reference.reclaim(&mut ref_cache, n);
                        prop_assert_eq!(count, freed.len() as u64);
                        prop_assert_eq!(&freed, &expected);
                    }
                    4 | 5 => {
                        let slot = SwapSlot(slot);
                        let hit = fifo.on_hit(slot, &mut cache);
                        let expected = reference.hit_freed(slot);
                        if expected {
                            ref_cache.remove(slot);
                        }
                        prop_assert_eq!(hit, expected);
                    }
                    _ => {
                        // The engine's fused hit path: the cache entry is
                        // taken first, then only the list reacts.
                        let slot = SwapSlot(slot);
                        cache.remove(slot);
                        ref_cache.remove(slot);
                        prop_assert_eq!(fifo.on_hit_freed(slot), reference.hit_freed(slot));
                    }
                }
                prop_assert_eq!(cache.len(), ref_cache.len());
                assert_same_list(&fifo, &reference);
            }
        }

        /// Hit-heavy sequences over a handful of slots, with no reclaim to
        /// drain the front: skipped entries pile up behind live duplicates
        /// of the same slots until the compaction pass runs, repeatedly.
        #[test]
        fn prop_compaction_matches_linear_reference(
            ops in proptest::collection::vec((0u8..3, 0u64..6), 200..600),
        ) {
            let mut fifo = PrefetchFifoLru::new();
            let mut reference = LinearFifo::default();
            for (op, slot) in ops {
                let slot = SwapSlot(slot);
                if op == 0 {
                    fifo.on_prefetch_insert(slot);
                    reference.insert(slot);
                } else {
                    prop_assert_eq!(fifo.on_hit_freed(slot), reference.hit_freed(slot));
                }
                assert_same_list(&fifo, &reference);
                prop_assert!(fifo.fifo.len() <= 2 * fifo.len().max(COMPACT_MIN_SKIPPED) + 1);
            }
        }
    }
}
