//! The swap/prefetch cache, with its eviction order and victim rules built
//! in.
//!
//! Pages read from the slower tier (disk or remote memory) land in the swap
//! cache before being mapped into the faulting process. Prefetched pages sit
//! here until they are either hit (and, under Leap, eagerly freed) or evicted.
//! The cache records, per entry, whether it was demand-fetched or prefetched,
//! when it was inserted, and when (if ever) it was first hit — exactly the
//! bookkeeping needed to compute accuracy, coverage, and timeliness (§3.1).
//!
//! Each entry also sits on exactly one of the cache's two eviction lists:
//! Leap's prefetch FIFO (`PrefetchFifoLruList`, §4.3) or the kernel's LRU
//! (§2.3). The cache's [`EvictionPolicy`] decides which list an entry joins,
//! what a hit does to it, and how [`SwapCache::make_space`] drains the
//! lists. Linux's background reclaimer (kswapd,
//! [`SwapCache::background_reclaim`]) leaves consumed prefetches on the LRU
//! until a scan finds them, and that scan ([`SwapCache::tracked_pages`])
//! inflates page-allocation latency under pressure (§2.3, Figure 4). Leap
//! frees a prefetched page on its first hit and reclaims unconsumed ones in
//! arrival order (§4.3).

use crate::types::{Pid, SwapSlot};
use leap_sim_core::hash::{fx_map_with_capacity, FxHashMap};
use leap_sim_core::Nanos;
use std::collections::hash_map::Entry;

/// How a page entered the swap cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOrigin {
    /// The page was read because a process demanded it (a cache miss).
    Demand,
    /// The page was read ahead of demand by a prefetcher.
    Prefetch,
}

/// Which prefetch-cache eviction policy a cache follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Kernel-style lazy background LRU reclaim (§2.3): every entry is on
    /// the LRU, and a hit only moves it to the most recently used end.
    Lazy,
    /// Leap's eager free-on-hit plus FIFO reclaim of unconsumed prefetches
    /// (§4.3): prefetched entries are on the FIFO and leave the cache on
    /// their first hit; demand entries are on the LRU.
    Eager,
}

impl EvictionPolicy {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            EvictionPolicy::Lazy => "lazy",
            EvictionPolicy::Eager => "eager",
        }
    }
}

/// One of a cache's two eviction lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheList {
    /// Leap's prefetch FIFO: unconsumed prefetched pages in arrival order.
    Fifo,
    /// The LRU list, least recently used first.
    Lru,
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

impl CacheEntry {
    fn unhit(pid: Pid, origin: CacheOrigin, inserted_at: Nanos) -> Self {
        CacheEntry {
            pid,
            origin,
            inserted_at,
            first_hit_at: None,
        }
    }

    /// True for a prefetched page that was never hit (cache pollution).
    pub fn is_unused_prefetch(&self) -> bool {
        self.origin == CacheOrigin::Prefetch && self.first_hit_at.is_none()
    }
}

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
    fn freed_total(&self) -> u64 {
        self.freed_unused_prefetches + self.freed_other
    }

    /// True if the pass freed nothing.
    pub fn is_empty(&self) -> bool {
        self.freed_total() == 0
    }
}

/// Cache size (pages) past which the lazy policy's background reclaimer
/// kicks in, a stand-in for the kernel's watermarks.
const LAZY_CACHE_HIGH_WATERMARK: u64 = 4_096;

/// End-of-list marker for the slab links.
const NIL: u32 = u32::MAX;

/// One slab node: a cached page and its links on the list it is on (`list`
/// is `None` while the node is on the free list, chained through `next`).
#[derive(Debug, Clone, Copy)]
struct Node {
    slot: SwapSlot,
    entry: CacheEntry,
    list: Option<CacheList>,
    /// Towards the list's front (its oldest entry).
    prev: u32,
    /// Towards the list's back (its newest entry).
    next: u32,
}

/// The two ends and the length of one eviction list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    front: u32,
    back: u32,
    len: u64,
}

impl Ends {
    const EMPTY: Ends = Ends {
        front: NIL,
        back: NIL,
        len: 0,
    };
}

/// The swap cache: a bounded set of cached pages, each on one eviction list.
///
/// Capacity is expressed in pages. A capacity of `u64::MAX` effectively means
/// "unlimited" (the paper's default); Figure 12 constrains it to a few MBs.
///
/// Entries live in a slab behind one slot → index map; each slab node
/// carries the links of the list it is on, so moving an entry to the back
/// of its list, unlinking a hit, or taking the oldest victim is O(1) and
/// never touches a second map. Freed nodes are reused through a free list.
///
/// Placement follows the cache's [`EvictionPolicy`]:
/// - under [`EvictionPolicy::Lazy`] every entry joins the LRU, and a hit or
///   a re-insert moves it to the most recently used end;
/// - under [`EvictionPolicy::Eager`] a prefetched entry joins the FIFO and
///   a hit frees it; a demand entry joins the LRU, where hits and
///   re-inserts move it like the lazy policy does. A buffered write over an
///   unread prefetch turns the entry into a demand one but keeps its FIFO
///   position.
///
/// # Examples
///
/// ```
/// use leap_mem::{CacheOrigin, EvictionPolicy, Pid, SwapCache, SwapSlot};
/// use leap_sim_core::Nanos;
///
/// let mut cache = SwapCache::new(1024, EvictionPolicy::Lazy);
/// cache.insert(SwapSlot(7), Pid(1), CacheOrigin::Prefetch, Nanos::from_micros(1));
/// assert!(cache.contains(SwapSlot(7)));
/// let entry = cache.record_hit(SwapSlot(7), Nanos::from_micros(5)).unwrap();
/// assert_eq!(entry.first_hit_at, Some(Nanos::from_micros(5)));
///
/// // Leap's eager policy frees a prefetched page on its first hit.
/// let mut eager = SwapCache::new(1024, EvictionPolicy::Eager);
/// eager.insert(SwapSlot(7), Pid(1), CacheOrigin::Prefetch, Nanos::from_micros(1));
/// eager.record_hit(SwapSlot(7), Nanos::from_micros(5)).unwrap();
/// assert!(!eager.contains(SwapSlot(7)));
/// ```
#[derive(Debug, Clone)]
pub struct SwapCache {
    capacity_pages: u64,
    policy: EvictionPolicy,
    index: FxHashMap<SwapSlot, u32>,
    nodes: Vec<Node>,
    /// Head of the free-node chain.
    free: u32,
    fifo: Ends,
    lru: Ends,
}

/// Entries pre-reserved for caches of more pages than this (unbounded ones
/// included): enough that realistic replays never rehash early, small
/// enough to cost nothing per shard.
const DEFAULT_RESERVE_PAGES: usize = 1_024;

impl SwapCache {
    /// Creates a cache bounded to `capacity_pages` pages, following
    /// `policy`.
    ///
    /// A cache of up to 1024 pages reserves index entries for twice its
    /// capacity, so it never grows: evictions leave tombstones in the map,
    /// and a map reserved for exactly its peak population still grows once
    /// they use up its free buckets, while one at most half full rehashes in
    /// place. Its slab holds exactly the capacity. Larger (or unbounded)
    /// caches reserve 1024 entries and grow past them.
    pub fn new(capacity_pages: u64, policy: EvictionPolicy) -> Self {
        let (index, nodes) = if capacity_pages <= DEFAULT_RESERVE_PAGES as u64 {
            (2 * capacity_pages as usize, capacity_pages as usize)
        } else {
            (DEFAULT_RESERVE_PAGES, DEFAULT_RESERVE_PAGES)
        };
        SwapCache {
            capacity_pages,
            policy,
            index: fx_map_with_capacity(index),
            nodes: Vec::with_capacity(nodes),
            free: NIL,
            fifo: Ends::EMPTY,
            lru: Ends::EMPTY,
        }
    }

    /// Creates an effectively unbounded cache.
    pub fn unbounded(policy: EvictionPolicy) -> Self {
        SwapCache::new(u64::MAX, policy)
    }

    /// The eviction policy the cache follows.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Number of pages currently cached.
    pub fn len(&self) -> u64 {
        self.index.len() as u64
    }

    /// True if the cache holds no pages.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True if the cache is at (or beyond) its capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity_pages
    }

    /// True if `slot` is cached.
    pub fn contains(&self, slot: SwapSlot) -> bool {
        self.index.contains_key(&slot)
    }

    /// Returns the entry for `slot`, if cached.
    pub fn get(&self, slot: SwapSlot) -> Option<&CacheEntry> {
        self.index
            .get(&slot)
            .map(|&idx| &self.nodes[idx as usize].entry)
    }

    /// Inserts a page.
    ///
    /// Returns `false` (without inserting) if the cache is full and the slot
    /// is not already present; the caller is responsible for making room
    /// first via its eviction policy. Re-inserting an existing slot refreshes
    /// its metadata and moves it to the back of its list — except on the
    /// FIFO, where the entry keeps its position.
    pub fn insert(&mut self, slot: SwapSlot, pid: Pid, origin: CacheOrigin, now: Nanos) -> bool {
        let entry = CacheEntry::unhit(pid, origin, now);
        if let Some(&idx) = self.index.get(&slot) {
            self.refresh(idx, entry);
            return true;
        }
        if self.is_full() {
            return false;
        }
        let idx = self.alloc(slot, entry);
        self.index.insert(slot, idx);
        true
    }

    /// Inserts a page the caller has already verified to be absent and to
    /// have room (prefetch admission probes presence and makes space
    /// first): one hash-table operation instead of the
    /// presence-check-plus-insert pair [`SwapCache::insert`] performs.
    ///
    /// Violating the precondition (slot present, or cache full) is caught
    /// by a debug assertion; in release builds the new entry replaces the
    /// cached one at the back of its list.
    pub fn insert_fresh(&mut self, slot: SwapSlot, pid: Pid, origin: CacheOrigin, now: Nanos) {
        debug_assert!(
            !self.is_full() || self.index.contains_key(&slot),
            "insert_fresh on a full cache"
        );
        let idx = self.alloc(slot, CacheEntry::unhit(pid, origin, now));
        if let Some(stale) = self.index.insert(slot, idx) {
            debug_assert!(false, "insert_fresh on a cached slot");
            self.release(stale);
        }
    }

    /// Records a hit on `slot` at time `now`, returning the updated entry
    /// (`None` if the slot is not cached).
    ///
    /// Only the first hit timestamp is retained (that is what timeliness
    /// measures). Under [`EvictionPolicy::Eager`] a prefetched entry is
    /// freed in the same map operation; any other LRU entry moves to the
    /// most recently used end, and a FIFO entry keeps its position.
    pub fn record_hit(&mut self, slot: SwapSlot, now: Nanos) -> Option<CacheEntry> {
        let Entry::Occupied(occupied) = self.index.entry(slot) else {
            return None;
        };
        let idx = *occupied.get();
        let node = &mut self.nodes[idx as usize];
        node.entry.first_hit_at.get_or_insert(now);
        let entry = node.entry;
        if self.policy == EvictionPolicy::Eager && entry.origin == CacheOrigin::Prefetch {
            occupied.remove();
            self.release(idx);
        } else if node.list == Some(CacheList::Lru) {
            self.unlink(idx);
            self.link_back(idx, CacheList::Lru);
        }
        Some(entry)
    }

    /// Removes a page from the cache, returning its entry.
    pub fn remove(&mut self, slot: SwapSlot) -> Option<CacheEntry> {
        let idx = self.index.remove(&slot)?;
        let entry = self.nodes[idx as usize].entry;
        self.release(idx);
        Some(entry)
    }

    /// Removes the oldest entry of `list` (the FIFO's front, the LRU's least
    /// recently used end), returning its slot and entry.
    fn pop_oldest(&mut self, list: CacheList) -> Option<(SwapSlot, CacheEntry)> {
        let idx = self.ends(list).front;
        if idx == NIL {
            return None;
        }
        let Node { slot, entry, .. } = self.nodes[idx as usize];
        self.index.remove(&slot);
        self.release(idx);
        Some((slot, entry))
    }

    /// Frees up to `target` pages at time `now`, by the cache's policy.
    ///
    /// - Lazy: pages leave from the LRU end, and every freed page that had
    ///   been hit reports how long it waited after that hit. kswapd scans at
    ///   most a quarter of the list plus the target per pass,
    ///   `ceil(len / 4) + target` pages; every page on the list is cached, so
    ///   each scanned page is freed and that budget never binds before the
    ///   target does.
    /// - Eager: unconsumed prefetches leave the FIFO in arrival order first;
    ///   only once the FIFO is drained do demand pages leave from the LRU
    ///   end. Consumed prefetches were freed on their hit, so no waits are
    ///   reported.
    ///
    /// # Examples
    ///
    /// ```
    /// use leap_mem::{CacheOrigin, EvictionPolicy, Pid, SwapCache, SwapSlot};
    /// use leap_sim_core::Nanos;
    ///
    /// let mut cache = SwapCache::new(4, EvictionPolicy::Eager);
    /// cache.insert(SwapSlot(1), Pid(1), CacheOrigin::Demand, Nanos::ZERO);
    /// cache.insert(SwapSlot(2), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
    /// cache.insert(SwapSlot(3), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
    ///
    /// // The unread prefetches go first, oldest first; the demand page stays.
    /// let report = cache.make_space(2, Nanos::from_micros(5));
    /// assert_eq!(report.freed_unused_prefetches, 2);
    /// assert!(cache.contains(SwapSlot(1)));
    /// assert_eq!(cache.tracked_pages(), 0);
    /// ```
    pub fn make_space(&mut self, target: u64, now: Nanos) -> EvictionReport {
        let mut report = EvictionReport::default();
        match self.policy {
            EvictionPolicy::Lazy => {
                self.free_oldest(CacheList::Lru, target, Some(now), &mut report)
            }
            EvictionPolicy::Eager => {
                self.free_oldest(CacheList::Fifo, target, None, &mut report);
                let rest = target - report.freed_total();
                self.free_oldest(CacheList::Lru, rest, None, &mut report);
            }
        }
        report
    }

    /// Runs the lazy policy's background reclaimer: past
    /// `LAZY_CACHE_HIGH_WATERMARK` cached pages it frees down to half the
    /// watermark. Returns `None` when nothing needed doing, and always under
    /// the eager policy, which has no background scanner.
    pub fn background_reclaim(&mut self, now: Nanos) -> Option<EvictionReport> {
        self.reclaim_above(LAZY_CACHE_HIGH_WATERMARK, now)
    }

    fn reclaim_above(&mut self, high_watermark: u64, now: Nanos) -> Option<EvictionReport> {
        if self.policy == EvictionPolicy::Eager || self.len() <= high_watermark {
            return None;
        }
        let target = self.len() - high_watermark / 2;
        Some(self.make_space(target, now))
    }

    /// Number of pages the policy's reclaimer has to scan to find
    /// candidates: the whole LRU under the lazy policy, only the unconsumed
    /// prefetches on the FIFO under the eager one. Page-allocation wait
    /// grows with it (§2.3).
    pub fn tracked_pages(&self) -> u64 {
        match self.policy {
            EvictionPolicy::Lazy => self.lru.len,
            EvictionPolicy::Eager => self.fifo.len,
        }
    }

    /// Frees up to `target` of `list`'s oldest entries into `report`, with
    /// post-hit waits measured at `waits_at` when given.
    fn free_oldest(
        &mut self,
        list: CacheList,
        target: u64,
        waits_at: Option<Nanos>,
        report: &mut EvictionReport,
    ) {
        for _ in 0..target {
            let Some((_, entry)) = self.pop_oldest(list) else {
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

    /// Iterates over all cached entries.
    pub fn iter(&self) -> impl Iterator<Item = (SwapSlot, &CacheEntry)> + '_ {
        self.nodes
            .iter()
            .filter(|node| node.list.is_some())
            .map(|node| (node.slot, &node.entry))
    }

    /// Number of cached pages that were prefetched and never hit (current
    /// cache pollution).
    pub fn unused_prefetched(&self) -> u64 {
        self.iter().filter(|(_, e)| e.is_unused_prefetch()).count() as u64
    }

    /// Audit: the two lists partition the cached entries. Their lengths sum
    /// to [`SwapCache::len`], every indexed entry is linked exactly once
    /// with consistent links, and a lazy cache leaves the FIFO empty.
    /// O(len); meant for end-of-run checks in test builds.
    pub fn lists_partition_entries(&self) -> bool {
        let mut linked = vec![false; self.nodes.len()];
        for list in [CacheList::Fifo, CacheList::Lru] {
            let ends = self.ends(list);
            let (mut prev, mut cursor, mut walked) = (NIL, ends.front, 0u64);
            while cursor != NIL {
                let node = &self.nodes[cursor as usize];
                if linked[cursor as usize] || node.list != Some(list) || node.prev != prev {
                    return false;
                }
                linked[cursor as usize] = true;
                walked += 1;
                (prev, cursor) = (cursor, node.next);
            }
            if walked != ends.len || ends.back != prev {
                return false;
            }
        }
        self.fifo.len + self.lru.len == self.len()
            && self
                .index
                .iter()
                .all(|(&slot, &idx)| linked[idx as usize] && self.nodes[idx as usize].slot == slot)
            && (self.policy == EvictionPolicy::Eager || self.fifo.len == 0)
    }

    fn ends(&self, list: CacheList) -> &Ends {
        match list {
            CacheList::Fifo => &self.fifo,
            CacheList::Lru => &self.lru,
        }
    }

    /// Takes a node (a freed one first) for a new entry and links it at
    /// the back of its list.
    fn alloc(&mut self, slot: SwapSlot, entry: CacheEntry) -> u32 {
        let node = Node {
            slot,
            entry,
            list: None,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free {
            NIL => {
                let idx = u32::try_from(self.nodes.len())
                    .ok()
                    .filter(|&idx| idx != NIL)
                    .expect("swap cache holds fewer than u32::MAX pages");
                self.nodes.push(node);
                idx
            }
            idx => {
                self.free = self.nodes[idx as usize].next;
                self.nodes[idx as usize] = node;
                idx
            }
        };
        self.link_back(idx, list_for(self.policy, entry.origin));
        idx
    }

    /// Overwrites a cached entry's metadata (a re-insert) and moves it to
    /// the back of its list, unless it is on the FIFO.
    fn refresh(&mut self, idx: u32, entry: CacheEntry) {
        self.nodes[idx as usize].entry = entry;
        if self.nodes[idx as usize].list != Some(CacheList::Fifo) {
            self.unlink(idx);
            self.link_back(idx, list_for(self.policy, entry.origin));
        }
    }

    /// Unlinks a node whose index entry is already gone and puts it on the
    /// free list.
    fn release(&mut self, idx: u32) {
        self.unlink(idx);
        let node = &mut self.nodes[idx as usize];
        node.list = None;
        node.next = self.free;
        self.free = idx;
    }

    fn unlink(&mut self, idx: u32) {
        let Node {
            list, prev, next, ..
        } = self.nodes[idx as usize];
        let ends = match list.expect("only linked nodes are unlinked") {
            CacheList::Fifo => &mut self.fifo,
            CacheList::Lru => &mut self.lru,
        };
        match prev {
            NIL => ends.front = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => ends.back = prev,
            n => self.nodes[n as usize].prev = prev,
        }
        ends.len -= 1;
    }

    fn link_back(&mut self, idx: u32, list: CacheList) {
        let ends = match list {
            CacheList::Fifo => &mut self.fifo,
            CacheList::Lru => &mut self.lru,
        };
        let old_back = ends.back;
        match old_back {
            NIL => ends.front = idx,
            b => self.nodes[b as usize].next = idx,
        }
        ends.back = idx;
        ends.len += 1;
        let node = &mut self.nodes[idx as usize];
        node.list = Some(list);
        node.prev = old_back;
        node.next = NIL;
    }
}

/// The list a new entry of `origin` joins under `policy`.
fn list_for(policy: EvictionPolicy, origin: CacheOrigin) -> CacheList {
    match (policy, origin) {
        (EvictionPolicy::Eager, CacheOrigin::Prefetch) => CacheList::Fifo,
        _ => CacheList::Lru,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> Nanos {
        Nanos::from_micros(us)
    }

    /// The slots on `list`, oldest first, read off the links.
    fn order(cache: &SwapCache, list: CacheList) -> Vec<u64> {
        let mut slots = Vec::new();
        let mut cursor = cache.ends(list).front;
        while cursor != NIL {
            slots.push(cache.nodes[cursor as usize].slot.0);
            cursor = cache.nodes[cursor as usize].next;
        }
        slots
    }

    #[test]
    fn insert_get_remove_cycle() {
        let mut cache = SwapCache::new(4, EvictionPolicy::Lazy);
        assert!(cache.insert(SwapSlot(1), Pid(1), CacheOrigin::Demand, t(1)));
        assert!(cache.contains(SwapSlot(1)));
        let entry = cache.get(SwapSlot(1)).unwrap();
        assert_eq!(entry.origin, CacheOrigin::Demand);
        assert_eq!(entry.inserted_at, t(1));
        let removed = cache.remove(SwapSlot(1)).unwrap();
        assert_eq!(removed.pid, Pid(1));
        assert!(cache.is_empty());
        assert!(cache.lists_partition_entries());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut cache = SwapCache::new(2, EvictionPolicy::Lazy);
        assert!(cache.insert(SwapSlot(1), Pid(1), CacheOrigin::Prefetch, t(0)));
        assert!(cache.insert(SwapSlot(2), Pid(1), CacheOrigin::Prefetch, t(0)));
        assert!(!cache.insert(SwapSlot(3), Pid(1), CacheOrigin::Prefetch, t(0)));
        assert!(cache.is_full());
        // Re-inserting an existing slot is allowed even when full.
        assert!(cache.insert(SwapSlot(2), Pid(2), CacheOrigin::Demand, t(5)));
        assert_eq!(cache.get(SwapSlot(2)).unwrap().pid, Pid(2));
    }

    #[test]
    fn first_hit_time_is_sticky() {
        let mut cache = SwapCache::new(4, EvictionPolicy::Lazy);
        cache.insert(SwapSlot(9), Pid(1), CacheOrigin::Prefetch, t(10));
        let first = cache.record_hit(SwapSlot(9), t(15)).unwrap();
        assert_eq!(first.first_hit_at, Some(t(15)));
        let second = cache.record_hit(SwapSlot(9), t(99)).unwrap();
        assert_eq!(second.first_hit_at, Some(t(15)));
    }

    #[test]
    fn hit_on_missing_slot_is_none() {
        let mut cache = SwapCache::new(4, EvictionPolicy::Eager);
        assert!(cache.record_hit(SwapSlot(5), t(1)).is_none());
    }

    #[test]
    fn unused_prefetched_counts_pollution() {
        let mut cache = SwapCache::new(8, EvictionPolicy::Lazy);
        cache.insert(SwapSlot(1), Pid(1), CacheOrigin::Prefetch, t(0));
        cache.insert(SwapSlot(2), Pid(1), CacheOrigin::Prefetch, t(0));
        cache.insert(SwapSlot(3), Pid(1), CacheOrigin::Demand, t(0));
        assert_eq!(cache.unused_prefetched(), 2);
        cache.record_hit(SwapSlot(1), t(4));
        assert_eq!(cache.unused_prefetched(), 1);
    }

    #[test]
    fn unbounded_cache_never_fills() {
        let mut cache = SwapCache::unbounded(EvictionPolicy::Eager);
        for i in 0..10_000u64 {
            assert!(cache.insert(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, t(0)));
        }
        assert!(!cache.is_full());
        assert_eq!(cache.fifo.len, 10_000);
    }

    #[test]
    fn lazy_hits_and_reinserts_move_entries_to_the_mru_end() {
        let mut cache = SwapCache::unbounded(EvictionPolicy::Lazy);
        for i in 0..4 {
            cache.insert(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, t(i));
        }
        cache.record_hit(SwapSlot(0), t(9));
        cache.insert(SwapSlot(1), Pid(1), CacheOrigin::Demand, t(10));
        assert_eq!(order(&cache, CacheList::Lru), vec![2, 3, 0, 1]);
        assert_eq!(cache.fifo.len, 0);
        assert_eq!(
            cache.pop_oldest(CacheList::Lru).map(|(s, _)| s),
            Some(SwapSlot(2))
        );
        assert!(cache.lists_partition_entries());
    }

    #[test]
    fn eager_keeps_prefetches_on_the_fifo_and_frees_them_on_hit() {
        let mut cache = SwapCache::unbounded(EvictionPolicy::Eager);
        cache.insert(SwapSlot(10), Pid(1), CacheOrigin::Demand, t(0));
        for i in 0..4 {
            cache.insert_fresh(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, t(i));
        }
        let hit = cache.record_hit(SwapSlot(2), t(7)).unwrap();
        assert_eq!(hit.first_hit_at, Some(t(7)));
        assert!(!cache.contains(SwapSlot(2)));
        assert_eq!(order(&cache, CacheList::Fifo), vec![0, 1, 3]);
        assert_eq!(order(&cache, CacheList::Lru), vec![10]);
        // A demand hit stays cached.
        assert!(cache.record_hit(SwapSlot(10), t(8)).is_some());
        assert!(cache.contains(SwapSlot(10)));
        assert!(cache.lists_partition_entries());
    }

    #[test]
    fn buffered_write_over_an_unread_prefetch_keeps_its_fifo_position() {
        let mut cache = SwapCache::unbounded(EvictionPolicy::Eager);
        for i in 0..3 {
            cache.insert_fresh(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, t(i));
        }
        cache.insert(SwapSlot(0), Pid(1), CacheOrigin::Demand, t(5));
        assert_eq!(order(&cache, CacheList::Fifo), vec![0, 1, 2]);
        assert_eq!(cache.lru.len, 0);
        // Now a demand entry, it survives a hit and keeps its place.
        cache.record_hit(SwapSlot(0), t(6));
        assert_eq!(order(&cache, CacheList::Fifo), vec![0, 1, 2]);
        let (slot, entry) = cache.pop_oldest(CacheList::Fifo).unwrap();
        assert_eq!(slot, SwapSlot(0));
        assert!(!entry.is_unused_prefetch());
    }

    #[test]
    fn freed_nodes_are_reused() {
        let mut cache = SwapCache::new(2, EvictionPolicy::Eager);
        for round in 0..100u64 {
            cache.insert_fresh(SwapSlot(round), Pid(1), CacheOrigin::Prefetch, t(round));
            if cache.is_full() {
                cache.pop_oldest(CacheList::Fifo).unwrap();
            }
        }
        assert_eq!(cache.nodes.len(), 2);
        assert!(cache.lists_partition_entries());
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
        cache.record_hit(SwapSlot(1), t(1));
        cache.record_hit(SwapSlot(2), t(1));
        assert_eq!(cached(&cache), vec![2]);
        assert_eq!(cache.tracked_pages(), 0);
    }

    #[test]
    fn eager_make_space_prefers_unconsumed_prefetches_in_arrival_order() {
        use CacheOrigin::*;
        let mut cache = cache_with(
            EvictionPolicy::Eager,
            &[(1, Demand), (4, Prefetch), (2, Prefetch), (3, Prefetch)],
        );
        assert_eq!(cache.tracked_pages(), 3);
        let report = cache.make_space(2, t(5));
        assert_eq!(report.freed_unused_prefetches, 2);
        assert_eq!(report.freed_other, 0);
        assert_eq!(cached(&cache), vec![1, 3], "demand entry survives");
        assert_eq!(cache.tracked_pages(), 1);
    }

    #[test]
    fn eager_make_space_passes_over_hit_prefetches_then_falls_back_to_demand() {
        use CacheOrigin::*;
        let mut cache = cache_with(
            EvictionPolicy::Eager,
            &[(1, Demand), (2, Demand), (3, Prefetch), (4, Prefetch)],
        );
        cache.record_hit(SwapSlot(3), t(1));
        cache.record_hit(SwapSlot(1), t(2));
        let report = cache.make_space(2, t(5));
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
        cache.insert(SwapSlot(1), Pid(1), Demand, t(1));
        let report = cache.make_space(1, t(5));
        assert_eq!((report.freed_unused_prefetches, report.freed_other), (0, 1));
        assert_eq!(cached(&cache), vec![2]);
    }

    #[test]
    fn lazy_keeps_entries_on_hit_and_reports_waits() {
        let mut cache = cache_with(EvictionPolicy::Lazy, &[(1, CacheOrigin::Prefetch)]);
        cache.record_hit(SwapSlot(1), t(10));
        assert!(cache.contains(SwapSlot(1)));
        let report = cache.make_space(1, t(500));
        assert_eq!(report.freed_other, 1);
        assert_eq!(report.post_hit_wait, vec![t(490)]);
    }

    #[test]
    fn lazy_reclaims_in_lru_order_and_counts_pollution() {
        use CacheOrigin::*;
        let mut cache = cache_with(
            EvictionPolicy::Lazy,
            &[(0, Prefetch), (1, Prefetch), (2, Demand), (3, Prefetch)],
        );
        cache.record_hit(SwapSlot(0), t(1));
        assert_eq!(cache.tracked_pages(), 4);
        let report = cache.make_space(2, t(10));
        assert_eq!((report.freed_unused_prefetches, report.freed_other), (1, 1));
        assert!(report.post_hit_wait.is_empty());
        assert_eq!(cached(&cache), vec![0, 3]);
        // Asking for more than is cached frees what there is.
        assert_eq!(cache.make_space(10, t(20)).freed_total(), 2);
        assert!(cache.make_space(1, t(30)).is_empty());
    }

    #[test]
    fn lazy_background_reclaim_respects_watermark() {
        let mut cache = SwapCache::unbounded(EvictionPolicy::Lazy);
        for i in 0..8 {
            cache.insert(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
        }
        let report = cache
            .reclaim_above(4, Nanos::ZERO)
            .expect("past the watermark");
        assert_eq!(report.freed_total(), 6);
        assert_eq!(cache.len(), 2);
        // Below the watermark nothing happens, and the real watermark is far.
        assert!(cache.reclaim_above(4, Nanos::ZERO).is_none());
        assert!(cache.background_reclaim(Nanos::ZERO).is_none());
    }

    #[test]
    fn eager_has_no_background_reclaimer() {
        let mut cache = SwapCache::unbounded(EvictionPolicy::Eager);
        for i in 0..8 {
            cache.insert(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
        }
        assert!(cache.reclaim_above(4, Nanos::ZERO).is_none());
        assert_eq!(cache.len(), 8);
    }

    proptest! {
        /// Length never exceeds capacity under arbitrary operation sequences.
        #[test]
        fn prop_len_bounded_by_capacity(
            capacity in 1u64..32,
            ops in proptest::collection::vec((0u64..64, any::<bool>()), 0..300),
        ) {
            let mut cache = SwapCache::new(capacity, EvictionPolicy::Lazy);
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
            let mut cache = SwapCache::unbounded(EvictionPolicy::Lazy);
            for &s in &slots {
                cache.insert(SwapSlot(s), Pid(1), CacheOrigin::Demand, t(s));
                prop_assert!(cache.get(SwapSlot(s)).is_some());
            }
        }

        /// Under any mix of inserts, hits, removals and victim pops, under
        /// either policy, the two lists partition the cached entries.
        #[test]
        fn prop_lists_partition_entries(
            eager in any::<bool>(),
            ops in proptest::collection::vec((0u8..6, 0u64..24), 0..300),
        ) {
            let policy = if eager { EvictionPolicy::Eager } else { EvictionPolicy::Lazy };
            let mut cache = SwapCache::new(16, policy);
            for (step, (op, slot)) in ops.into_iter().enumerate() {
                let (slot, now) = (SwapSlot(slot), t(step as u64));
                match op {
                    0 => { cache.insert(slot, Pid(1), CacheOrigin::Prefetch, now); }
                    1 => { cache.insert(slot, Pid(1), CacheOrigin::Demand, now); }
                    2 => { cache.record_hit(slot, now); }
                    3 => { cache.remove(slot); }
                    4 => { cache.pop_oldest(CacheList::Fifo); }
                    _ => { cache.pop_oldest(CacheList::Lru); }
                }
                prop_assert!(cache.lists_partition_entries());
                prop_assert_eq!(cache.iter().count() as u64, cache.len());
            }
        }
    }
}
