//! The swap/prefetch cache.
//!
//! Pages read from the slower tier (disk or remote memory) land in the swap
//! cache before being mapped into the faulting process. Prefetched pages sit
//! here until they are either hit (and, under Leap, eagerly freed) or evicted.
//! The cache records, per entry, whether it was demand-fetched or prefetched,
//! when it was inserted, and when (if ever) it was first hit — exactly the
//! bookkeeping needed to compute accuracy, coverage, and timeliness (§3.1).

use crate::types::{Pid, SwapSlot};
use leap_sim_core::hash::{fx_map_with_capacity, FxHashMap};
use leap_sim_core::Nanos;

/// How a page entered the swap cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOrigin {
    /// The page was read because a process demanded it (a cache miss).
    Demand,
    /// The page was read ahead of demand by a prefetcher.
    Prefetch,
}

/// Metadata for one cached page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// The process whose fault (or prefetch decision) brought the page in.
    pub pid: Pid,
    /// Why the page is in the cache.
    pub origin: CacheOrigin,
    /// When the page was inserted.
    pub inserted_at: Nanos,
    /// When the page was first hit, if it has been.
    pub first_hit_at: Option<Nanos>,
}

/// The swap cache: a bounded map from swap slots to cached pages.
///
/// Capacity is expressed in pages. A capacity of `u64::MAX` effectively means
/// "unlimited" (the paper's default); Figure 12 constrains it to a few MBs.
///
/// # Examples
///
/// ```
/// use leap_mem::{CacheOrigin, Pid, SwapCache, SwapSlot};
/// use leap_sim_core::Nanos;
///
/// let mut cache = SwapCache::new(1024);
/// cache.insert(SwapSlot(7), Pid(1), CacheOrigin::Prefetch, Nanos::from_micros(1));
/// assert!(cache.contains(SwapSlot(7)));
/// let entry = cache.record_hit(SwapSlot(7), Nanos::from_micros(5)).unwrap();
/// assert_eq!(entry.first_hit_at, Some(Nanos::from_micros(5)));
/// ```
#[derive(Debug, Clone)]
pub struct SwapCache {
    capacity_pages: u64,
    entries: FxHashMap<SwapSlot, CacheEntry>,
}

/// Entries pre-reserved for caches of more pages than this (unbounded ones
/// included): enough that realistic replays never rehash early, small
/// enough to cost nothing per shard.
const DEFAULT_RESERVE_PAGES: usize = 1_024;

impl SwapCache {
    /// Creates a cache bounded to `capacity_pages` pages.
    ///
    /// A cache of up to 1024 pages reserves entries for twice its capacity,
    /// so it never grows: evictions leave tombstones in the map, and a map
    /// reserved for exactly its peak population still grows once they use
    /// up its free buckets, while one at most half full rehashes in place.
    /// Larger (or unbounded) caches reserve 1024 entries and grow past
    /// them. Callers that know the real expected population use
    /// [`SwapCache::with_capacity_hint`].
    pub fn new(capacity_pages: u64) -> Self {
        let reserve = if capacity_pages <= DEFAULT_RESERVE_PAGES as u64 {
            2 * capacity_pages as usize
        } else {
            DEFAULT_RESERVE_PAGES
        };
        SwapCache::with_capacity_hint(capacity_pages, reserve)
    }

    /// Creates a cache bounded to `capacity_pages` pages with the entry map
    /// pre-sized for `expected_pages` entries (e.g. the configured prefetch
    /// cache capacity, known at build time).
    pub fn with_capacity_hint(capacity_pages: u64, expected_pages: usize) -> Self {
        SwapCache {
            capacity_pages,
            entries: fx_map_with_capacity(expected_pages),
        }
    }

    /// Creates an effectively unbounded cache.
    pub fn unbounded() -> Self {
        SwapCache::new(u64::MAX)
    }

    /// The configured capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Number of pages currently cached.
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// True if the cache holds no pages.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the cache is at (or beyond) its capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity_pages
    }

    /// Number of free page slots remaining.
    pub fn free_pages(&self) -> u64 {
        self.capacity_pages.saturating_sub(self.len())
    }

    /// True if `slot` is cached.
    pub fn contains(&self, slot: SwapSlot) -> bool {
        self.entries.contains_key(&slot)
    }

    /// Returns the entry for `slot`, if cached.
    pub fn get(&self, slot: SwapSlot) -> Option<&CacheEntry> {
        self.entries.get(&slot)
    }

    /// Inserts a page.
    ///
    /// Returns `false` (without inserting) if the cache is full and the slot
    /// is not already present; the caller is responsible for making room
    /// first via its eviction policy. Re-inserting an existing slot refreshes
    /// its metadata.
    pub fn insert(&mut self, slot: SwapSlot, pid: Pid, origin: CacheOrigin, now: Nanos) -> bool {
        if !self.entries.contains_key(&slot) && self.is_full() {
            return false;
        }
        self.entries.insert(
            slot,
            CacheEntry {
                pid,
                origin,
                inserted_at: now,
                first_hit_at: None,
            },
        );
        true
    }

    /// Inserts a page the caller has already verified to be absent and to
    /// have room (the span-batched prefetch path probes presence and makes
    /// space first): one hash-table operation instead of the
    /// presence-check-plus-insert pair [`SwapCache::insert`] performs.
    ///
    /// Behaviour is identical to `insert` under the stated precondition;
    /// violating it (slot present, or cache full) is caught by a debug
    /// assertion and in release builds degrades to `insert`'s semantics of
    /// refreshing the entry.
    pub fn insert_fresh(&mut self, slot: SwapSlot, pid: Pid, origin: CacheOrigin, now: Nanos) {
        debug_assert!(
            !self.is_full() || self.entries.contains_key(&slot),
            "insert_fresh on a full cache"
        );
        let prev = self.entries.insert(
            slot,
            CacheEntry {
                pid,
                origin,
                inserted_at: now,
                first_hit_at: None,
            },
        );
        debug_assert!(prev.is_none(), "insert_fresh on a cached slot");
    }

    /// Records a hit on `slot` at time `now`, returning the updated entry.
    ///
    /// Only the first hit timestamp is retained (that is what timeliness
    /// measures). Returns `None` if the slot is not cached.
    pub fn record_hit(&mut self, slot: SwapSlot, now: Nanos) -> Option<CacheEntry> {
        let entry = self.entries.get_mut(&slot)?;
        if entry.first_hit_at.is_none() {
            entry.first_hit_at = Some(now);
        }
        Some(*entry)
    }

    /// Records a hit on `slot` at time `now` and, when `free_prefetched` is
    /// set and the entry is prefetch-origin, removes it in the same hash
    /// operation (Leap's eager free-on-hit without a separate
    /// [`SwapCache::remove`] lookup). The flag in the result is `true` when
    /// the entry was taken out.
    ///
    /// Equivalent to `record_hit` followed by `remove` under that
    /// condition; the returned entry carries the hit timestamp either way.
    pub fn record_hit_take(
        &mut self,
        slot: SwapSlot,
        now: Nanos,
        free_prefetched: bool,
    ) -> Option<(CacheEntry, bool)> {
        use std::collections::hash_map::Entry;
        match self.entries.entry(slot) {
            Entry::Occupied(mut occupied) => {
                if free_prefetched && occupied.get().origin == CacheOrigin::Prefetch {
                    let mut entry = occupied.remove();
                    if entry.first_hit_at.is_none() {
                        entry.first_hit_at = Some(now);
                    }
                    Some((entry, true))
                } else {
                    let entry = occupied.get_mut();
                    if entry.first_hit_at.is_none() {
                        entry.first_hit_at = Some(now);
                    }
                    Some((*entry, false))
                }
            }
            Entry::Vacant(_) => None,
        }
    }

    /// Removes a page from the cache, returning its entry.
    pub fn remove(&mut self, slot: SwapSlot) -> Option<CacheEntry> {
        self.entries.remove(&slot)
    }

    /// Iterates over all cached entries.
    pub fn iter(&self) -> impl Iterator<Item = (SwapSlot, &CacheEntry)> + '_ {
        self.entries.iter().map(|(&slot, entry)| (slot, entry))
    }

    /// Number of cached pages that were prefetched and never hit (current
    /// cache pollution).
    pub fn unused_prefetched(&self) -> u64 {
        self.entries
            .values()
            .filter(|e| e.origin == CacheOrigin::Prefetch && e.first_hit_at.is_none())
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> Nanos {
        Nanos::from_micros(us)
    }

    #[test]
    fn insert_get_remove_cycle() {
        let mut cache = SwapCache::new(4);
        assert!(cache.insert(SwapSlot(1), Pid(1), CacheOrigin::Demand, t(1)));
        assert!(cache.contains(SwapSlot(1)));
        let entry = cache.get(SwapSlot(1)).unwrap();
        assert_eq!(entry.origin, CacheOrigin::Demand);
        assert_eq!(entry.inserted_at, t(1));
        let removed = cache.remove(SwapSlot(1)).unwrap();
        assert_eq!(removed.pid, Pid(1));
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut cache = SwapCache::new(2);
        assert!(cache.insert(SwapSlot(1), Pid(1), CacheOrigin::Prefetch, t(0)));
        assert!(cache.insert(SwapSlot(2), Pid(1), CacheOrigin::Prefetch, t(0)));
        assert!(!cache.insert(SwapSlot(3), Pid(1), CacheOrigin::Prefetch, t(0)));
        assert!(cache.is_full());
        assert_eq!(cache.free_pages(), 0);
        // Re-inserting an existing slot is allowed even when full.
        assert!(cache.insert(SwapSlot(2), Pid(2), CacheOrigin::Demand, t(5)));
        assert_eq!(cache.get(SwapSlot(2)).unwrap().pid, Pid(2));
    }

    #[test]
    fn first_hit_time_is_sticky() {
        let mut cache = SwapCache::new(4);
        cache.insert(SwapSlot(9), Pid(1), CacheOrigin::Prefetch, t(10));
        let first = cache.record_hit(SwapSlot(9), t(15)).unwrap();
        assert_eq!(first.first_hit_at, Some(t(15)));
        let second = cache.record_hit(SwapSlot(9), t(99)).unwrap();
        assert_eq!(second.first_hit_at, Some(t(15)));
    }

    #[test]
    fn hit_on_missing_slot_is_none() {
        let mut cache = SwapCache::new(4);
        assert!(cache.record_hit(SwapSlot(5), t(1)).is_none());
    }

    #[test]
    fn unused_prefetched_counts_pollution() {
        let mut cache = SwapCache::new(8);
        cache.insert(SwapSlot(1), Pid(1), CacheOrigin::Prefetch, t(0));
        cache.insert(SwapSlot(2), Pid(1), CacheOrigin::Prefetch, t(0));
        cache.insert(SwapSlot(3), Pid(1), CacheOrigin::Demand, t(0));
        assert_eq!(cache.unused_prefetched(), 2);
        cache.record_hit(SwapSlot(1), t(4));
        assert_eq!(cache.unused_prefetched(), 1);
    }

    #[test]
    fn unbounded_cache_never_fills() {
        let mut cache = SwapCache::unbounded();
        for i in 0..10_000u64 {
            assert!(cache.insert(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, t(0)));
        }
        assert!(!cache.is_full());
    }

    proptest! {
        /// Length never exceeds capacity under arbitrary operation sequences.
        #[test]
        fn prop_len_bounded_by_capacity(
            capacity in 1u64..32,
            ops in proptest::collection::vec((0u64..64, any::<bool>()), 0..300),
        ) {
            let mut cache = SwapCache::new(capacity);
            for (slot, insert) in ops {
                if insert {
                    let _ = cache.insert(SwapSlot(slot), Pid(0), CacheOrigin::Prefetch, t(0));
                } else {
                    let _ = cache.remove(SwapSlot(slot));
                }
                prop_assert!(cache.len() <= capacity);
            }
        }

        /// An inserted entry is always retrievable until removed.
        #[test]
        fn prop_insert_then_get(slots in proptest::collection::vec(0u64..100, 1..50)) {
            let mut cache = SwapCache::unbounded();
            for &s in &slots {
                cache.insert(SwapSlot(s), Pid(1), CacheOrigin::Demand, t(s));
                prop_assert!(cache.get(SwapSlot(s)).is_some());
            }
        }
    }
}
