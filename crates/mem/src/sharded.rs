//! Per-core shards of the swap space and the swap cache.
//!
//! A single shared [`SwapSpace`]/[`SwapCache`] pair serializes every core's
//! paging activity behind one allocator and one map — fine for replaying one
//! process, but exactly the contention the Leap paper's multi-application
//! evaluation (Figure 13) is about. The facades here split both structures
//! into per-core shards while keeping one *global* slot namespace:
//!
//! - [`ShardedSwap`] gives every core its own contiguous slot region
//!   (`[core · span, (core + 1) · span)`), so a core's sequential page-outs
//!   stay sequential in *its* region (preserving the slot-arithmetic locality
//!   the prefetchers rely on) without racing other cores for slots.
//! - [`ShardedSwapCache`] routes each slot to the shard that owns its region,
//!   so any core can look up a cached page deterministically while inserts
//!   and evictions stay core-local in the common case (a process's slots live
//!   in the region of the core it is scheduled on).
//!
//! Both facades degenerate to the unsharded behaviour with one shard, which
//! is how single-process replays keep their historical numerics bit-for-bit.

use crate::swap::SwapSpace;
use crate::swap_cache::{CacheEntry, CacheOrigin, EvictionPolicy, SwapCache};
use crate::types::{Pid, SwapSlot, VirtPage};
use leap_sim_core::Nanos;

/// Per-core sharded swap space with one global slot namespace.
///
/// # Examples
///
/// ```
/// use leap_mem::{Pid, ShardedSwap, VirtPage};
///
/// let mut swap = ShardedSwap::new(2, 1000);
/// let a = swap.allocate_on(0, Pid(1), VirtPage(7)).unwrap();
/// let b = swap.allocate_on(1, Pid(2), VirtPage(7)).unwrap();
/// // Each core allocates from its own disjoint region...
/// assert_ne!(swap.shard_of(a), swap.shard_of(b));
/// // ...but lookups work globally, from any core.
/// assert_eq!(swap.owner(b), Some((Pid(2), VirtPage(7))));
/// ```
#[derive(Debug, Clone)]
pub struct ShardedSwap {
    span: u64,
    shards: Vec<SwapSpace>,
}

impl ShardedSwap {
    /// Creates a swap space of `total_capacity` slots split into `shards`
    /// contiguous regions of `total_capacity / shards` slots each.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the per-shard region would be empty.
    pub fn new(shards: usize, total_capacity: u64) -> Self {
        assert!(shards > 0, "at least one swap shard is required");
        let span = total_capacity / shards as u64;
        assert!(span > 0, "swap capacity too small for {shards} shards");
        ShardedSwap {
            span,
            shards: (0..shards as u64)
                .map(|i| SwapSpace::with_base(i * span, span))
                .collect(),
        }
    }

    /// A swap space holding only core `core`'s region of the global slot
    /// namespace that `ShardedSwap::new(shards, total_capacity)` would carve
    /// up: `[core · span, (core + 1) · span)`.
    ///
    /// This is the slice a per-core shard worker owns in a thread-parallel
    /// replay: slot numbering is identical to the fully sharded layout, but
    /// the worker holds no other core's state. Lookups for slots outside the
    /// region simply miss (`owner` returns `None`, `free` is a no-op), which
    /// is also what the fully sharded facade yields for never-allocated
    /// slots in foreign regions.
    ///
    /// # Panics
    ///
    /// Panics if `core >= shards`, `shards` is zero, or the region would be
    /// empty.
    pub fn region(core: usize, shards: usize, total_capacity: u64) -> Self {
        assert!(shards > 0, "at least one swap shard is required");
        assert!(core < shards, "core {core} outside {shards} shards");
        let span = total_capacity / shards as u64;
        assert!(span > 0, "swap capacity too small for {shards} shards");
        ShardedSwap {
            span,
            shards: vec![SwapSpace::with_base(core as u64 * span, span)],
        }
    }

    /// Number of shards (one per core).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Width of one shard's slot region.
    pub fn span(&self) -> u64 {
        self.span
    }

    /// The shard whose region contains `slot`.
    pub fn shard_of(&self, slot: SwapSlot) -> usize {
        ((slot.0 / self.span) as usize).min(self.shards.len() - 1)
    }

    /// Allocates a slot for `(pid, page)` from `core`'s region.
    ///
    /// Within the region the same sequential-burst layout as
    /// [`SwapSpace::allocate`] applies. Returns `None` when the region is
    /// full.
    pub fn allocate_on(&mut self, core: usize, pid: Pid, page: VirtPage) -> Option<SwapSlot> {
        let shard = core.min(self.shards.len() - 1);
        self.shards[shard].allocate(pid, page)
    }

    /// Frees a slot, forgetting its owner (routed to the owning shard).
    pub fn free(&mut self, slot: SwapSlot) {
        let shard = self.shard_of(slot);
        self.shards[shard].free(slot);
    }

    /// Returns the process and virtual page stored in a slot, if any.
    pub fn owner(&self, slot: SwapSlot) -> Option<(Pid, VirtPage)> {
        self.shards[self.shard_of(slot)].owner(slot)
    }

    /// Number of slots currently in use across all shards.
    pub fn used_slots(&self) -> u64 {
        self.shards.iter().map(|s| s.used_slots()).sum()
    }
}

/// Per-core sharded swap/prefetch cache.
///
/// Slots are routed to shards by the same region mapping as
/// [`ShardedSwap`] (`slot / span`), so the cache entry for a page is always
/// found in one deterministic shard no matter which core looks. Each shard
/// has its own capacity and keeps its own eviction lists.
///
/// # Examples
///
/// ```
/// use leap_mem::{CacheOrigin, EvictionPolicy, Pid, ShardedSwapCache, SwapSlot};
/// use leap_sim_core::Nanos;
///
/// // Two shards over regions [0, 100) and [100, 200), 8 pages each.
/// let mut cache = ShardedSwapCache::new(2, 8, 100, EvictionPolicy::Eager);
/// cache.insert(SwapSlot(150), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
/// assert_eq!(cache.shard_of(SwapSlot(150)), 1);
/// assert!(cache.contains(SwapSlot(150)));
/// ```
#[derive(Debug, Clone)]
pub struct ShardedSwapCache {
    span: u64,
    shards: Vec<SwapCache>,
}

impl ShardedSwapCache {
    /// Creates `shards` cache shards of `per_shard_pages` capacity each,
    /// following `policy` and routing slots by region width `span`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `span` is zero.
    pub fn new(shards: usize, per_shard_pages: u64, span: u64, policy: EvictionPolicy) -> Self {
        assert!(shards > 0, "at least one cache shard is required");
        assert!(span > 0, "slot region span must be nonzero");
        ShardedSwapCache {
            span,
            shards: (0..shards)
                .map(|_| SwapCache::new(per_shard_pages, policy))
                .collect(),
        }
    }

    /// A single unsharded cache of `capacity_pages` (the legacy layout every
    /// single-process replay uses).
    pub fn single(capacity_pages: u64, policy: EvictionPolicy) -> Self {
        ShardedSwapCache::new(1, capacity_pages, u64::MAX, policy)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard whose region contains `slot`.
    pub fn shard_of(&self, slot: SwapSlot) -> usize {
        ((slot.0 / self.span) as usize).min(self.shards.len() - 1)
    }

    /// Shared view of shard `i`.
    pub fn shard(&self, i: usize) -> &SwapCache {
        &self.shards[i]
    }

    /// Mutable view of shard `i` (what the eviction rules drain).
    pub fn shard_mut(&mut self, i: usize) -> &mut SwapCache {
        &mut self.shards[i]
    }

    /// Total pages cached across all shards.
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True if no shard holds any page.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// True if `slot` is cached.
    pub fn contains(&self, slot: SwapSlot) -> bool {
        self.shards[self.shard_of(slot)].contains(slot)
    }

    /// Returns the entry for `slot`, if cached.
    pub fn get(&self, slot: SwapSlot) -> Option<&CacheEntry> {
        self.shards[self.shard_of(slot)].get(slot)
    }

    /// Inserts a page into the shard owning `slot` (see
    /// [`SwapCache::insert`] for the capacity contract).
    pub fn insert(&mut self, slot: SwapSlot, pid: Pid, origin: CacheOrigin, now: Nanos) -> bool {
        let shard = self.shard_of(slot);
        self.shards[shard].insert(slot, pid, origin, now)
    }

    /// Records a hit on `slot` at time `now`, returning the updated entry.
    pub fn record_hit(&mut self, slot: SwapSlot, now: Nanos) -> Option<CacheEntry> {
        let shard = self.shard_of(slot);
        self.shards[shard].record_hit(slot, now)
    }

    /// Removes a page from the cache, returning its entry.
    pub fn remove(&mut self, slot: SwapSlot) -> Option<CacheEntry> {
        let shard = self.shard_of(slot);
        self.shards[shard].remove(slot)
    }

    /// Cached pages that were prefetched and never hit, across all shards.
    pub fn unused_prefetched(&self) -> u64 {
        self.shards.iter().map(|s| s.unused_prefetched()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_sequential() {
        let mut swap = ShardedSwap::new(4, 400);
        assert_eq!(swap.span(), 100);
        for core in 0..4 {
            let slots: Vec<u64> = (0..5)
                .map(|p| {
                    swap.allocate_on(core, Pid(core as u32 + 1), VirtPage(p))
                        .unwrap()
                        .0
                })
                .collect();
            let base = core as u64 * 100;
            assert_eq!(slots, (base..base + 5).collect::<Vec<_>>());
        }
        assert_eq!(swap.used_slots(), 20);
    }

    #[test]
    fn routing_finds_owners_across_shards() {
        let mut swap = ShardedSwap::new(2, 200);
        let a = swap.allocate_on(0, Pid(1), VirtPage(9)).unwrap();
        let b = swap.allocate_on(1, Pid(2), VirtPage(9)).unwrap();
        assert_eq!(swap.owner(a), Some((Pid(1), VirtPage(9))));
        assert_eq!(swap.owner(b), Some((Pid(2), VirtPage(9))));
        swap.free(a);
        assert_eq!(swap.owner(a), None);
        assert_eq!(swap.used_slots(), 1);
    }

    #[test]
    fn shard_capacity_is_per_region() {
        let mut swap = ShardedSwap::new(2, 4);
        // Each region holds 2 slots.
        assert!(swap.allocate_on(0, Pid(1), VirtPage(0)).is_some());
        assert!(swap.allocate_on(0, Pid(1), VirtPage(1)).is_some());
        assert!(swap.allocate_on(0, Pid(1), VirtPage(2)).is_none());
        // The other region is unaffected.
        assert!(swap.allocate_on(1, Pid(1), VirtPage(2)).is_some());
    }

    #[test]
    fn out_of_range_cores_clamp_to_the_last_shard() {
        let mut swap = ShardedSwap::new(2, 200);
        let slot = swap.allocate_on(99, Pid(1), VirtPage(1)).unwrap();
        assert_eq!(swap.shard_of(slot), 1);
    }

    #[test]
    fn single_shard_matches_unsharded_layout() {
        let mut sharded = ShardedSwap::new(1, 100);
        let mut plain = SwapSpace::new(100);
        for p in 0..10u64 {
            assert_eq!(
                sharded.allocate_on(0, Pid(1), VirtPage(p)),
                plain.allocate(Pid(1), VirtPage(p))
            );
        }
    }

    #[test]
    fn cache_routes_by_slot_region() {
        let mut cache = ShardedSwapCache::new(2, 4, 100, EvictionPolicy::Lazy);
        assert!(cache.insert(SwapSlot(10), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO));
        assert!(cache.insert(SwapSlot(110), Pid(2), CacheOrigin::Demand, Nanos::ZERO));
        assert_eq!(cache.shard_of(SwapSlot(10)), 0);
        assert_eq!(cache.shard_of(SwapSlot(110)), 1);
        assert_eq!(cache.shard(0).len(), 1);
        assert_eq!(cache.shard(1).len(), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(SwapSlot(110)));
        let entry = cache
            .record_hit(SwapSlot(110), Nanos::from_micros(3))
            .unwrap();
        assert_eq!(entry.first_hit_at, Some(Nanos::from_micros(3)));
        assert!(cache.remove(SwapSlot(10)).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn per_shard_capacity_is_independent() {
        let mut cache = ShardedSwapCache::new(2, 1, 100, EvictionPolicy::Eager);
        assert!(cache.insert(SwapSlot(0), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO));
        // Shard 0 is full; shard 1 still has room.
        assert!(cache.shard(0).is_full());
        assert!(!cache.insert(SwapSlot(1), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO));
        assert!(!cache.shard(1).is_full());
        assert!(cache.insert(SwapSlot(150), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO));
        assert_eq!(cache.unused_prefetched(), 2);
    }

    #[test]
    fn single_cache_shard_behaves_like_swap_cache() {
        let mut cache = ShardedSwapCache::single(2, EvictionPolicy::Lazy);
        assert_eq!(cache.shards(), 1);
        assert!(cache.insert(SwapSlot(5), Pid(1), CacheOrigin::Demand, Nanos::ZERO));
        assert!(cache.insert(
            SwapSlot(u64::MAX - 1),
            Pid(1),
            CacheOrigin::Demand,
            Nanos::ZERO
        ));
        assert!(cache.shard(0).is_full());
        assert!(!cache.insert(SwapSlot(7), Pid(1), CacheOrigin::Demand, Nanos::ZERO));
    }
}
