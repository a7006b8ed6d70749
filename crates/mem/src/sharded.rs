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
use crate::swap_cache::{CacheEntry, CacheOrigin, SwapCache};
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

    /// The shard owning *every* slot of `slots`, if they all route to one
    /// shard (prefetch spans follow one trend from one faulting slot, so in
    /// the common case the whole span lives in one region). Computed from
    /// the span's extremes — no per-slot routing. `None` for an empty span
    /// or one that straddles a region boundary.
    pub fn span_shard(&self, slots: &[SwapSlot]) -> Option<usize> {
        span_shard_by(slots, self.span, self.shards.len())
    }

    /// Batch owner lookup for a prefetch span: routes the span to its shard
    /// once (falling back to per-slot routing across a region boundary) and
    /// writes each slot's owner into `out`.
    ///
    /// Equivalent to calling [`ShardedSwap::owner`] per slot.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `slots`.
    pub fn owners_span(&self, slots: &[SwapSlot], out: &mut [Option<(Pid, VirtPage)>]) {
        match self.span_shard(slots) {
            Some(shard) => {
                let space = &self.shards[shard];
                for (i, &slot) in slots.iter().enumerate() {
                    out[i] = space.owner(slot);
                }
            }
            None => {
                for (i, &slot) in slots.iter().enumerate() {
                    out[i] = self.owner(slot);
                }
            }
        }
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
/// has its own capacity, and the engine drives one eviction-policy instance
/// per shard against it.
///
/// # Examples
///
/// ```
/// use leap_mem::{CacheOrigin, Pid, ShardedSwapCache, SwapSlot};
/// use leap_sim_core::Nanos;
///
/// // Two shards over regions [0, 100) and [100, 200), 8 pages each.
/// let mut cache = ShardedSwapCache::new(2, 8, 100);
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
    /// routing slots by region width `span`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `span` is zero.
    pub fn new(shards: usize, per_shard_pages: u64, span: u64) -> Self {
        assert!(shards > 0, "at least one cache shard is required");
        assert!(span > 0, "slot region span must be nonzero");
        ShardedSwapCache {
            span,
            shards: (0..shards)
                .map(|_| SwapCache::new(per_shard_pages))
                .collect(),
        }
    }

    /// A single unsharded cache of `capacity_pages` (the legacy layout every
    /// single-process replay uses).
    pub fn single(capacity_pages: u64) -> Self {
        ShardedSwapCache::new(1, capacity_pages, u64::MAX)
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

    /// Mutable view of shard `i` (what the per-shard eviction policy scans).
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

    /// True if the shard owning `slot` is at capacity.
    pub fn is_full_for(&self, slot: SwapSlot) -> bool {
        self.shards[self.shard_of(slot)].is_full()
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

    /// The shard owning *every* slot of `slots`, if they all route to one
    /// shard — see [`ShardedSwap::span_shard`]. `None` for an empty span or
    /// one that straddles a region boundary.
    pub fn span_shard(&self, slots: &[SwapSlot]) -> Option<usize> {
        span_shard_by(slots, self.span, self.shards.len())
    }

    /// Batch presence probe for a prefetch span: routes the span to its
    /// shard once and writes per-slot presence into `out`. Equivalent to
    /// calling [`ShardedSwapCache::contains`] per slot.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `slots`.
    pub fn contains_span(&self, slots: &[SwapSlot], out: &mut [bool]) {
        match self.span_shard(slots) {
            Some(shard) => {
                let cache = &self.shards[shard];
                for (i, &slot) in slots.iter().enumerate() {
                    out[i] = cache.contains(slot);
                }
            }
            None => {
                for (i, &slot) in slots.iter().enumerate() {
                    out[i] = self.contains(slot);
                }
            }
        }
    }

    /// Installs a whole admitted prefetch span into an already-routed
    /// `shard` in one pass: one [`SwapCache::insert_fresh`] (a single
    /// hash-table operation) per page, no per-page routing. `pids[i]` owns
    /// `slots[i]`.
    ///
    /// Same caller contract as `insert_fresh`: every slot was just probed
    /// absent and the shard has room for the whole span (the engine's
    /// span-admission fast path establishes exactly this before calling).
    ///
    /// # Panics
    ///
    /// Panics if `pids` is shorter than `slots` or `shard` is out of range.
    pub fn insert_fresh_span(
        &mut self,
        shard: usize,
        slots: &[SwapSlot],
        pids: &[Pid],
        origin: CacheOrigin,
        now: Nanos,
    ) {
        let cache = &mut self.shards[shard];
        for (i, &slot) in slots.iter().enumerate() {
            cache.insert_fresh(slot, pids[i], origin, now);
        }
    }
}

/// Shared span-routing rule: a span belongs to one shard iff its extreme
/// slots do (regions are contiguous slot ranges, so everything in between
/// routes identically).
fn span_shard_by(slots: &[SwapSlot], span: u64, shards: usize) -> Option<usize> {
    let (first, rest) = slots.split_first()?;
    let (mut lo, mut hi) = (first.0, first.0);
    for s in rest {
        lo = lo.min(s.0);
        hi = hi.max(s.0);
    }
    let shard_lo = ((lo / span) as usize).min(shards - 1);
    let shard_hi = ((hi / span) as usize).min(shards - 1);
    (shard_lo == shard_hi).then_some(shard_lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let mut cache = ShardedSwapCache::new(2, 4, 100);
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
        let mut cache = ShardedSwapCache::new(2, 1, 100);
        assert!(cache.insert(SwapSlot(0), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO));
        // Shard 0 is full; shard 1 still has room.
        assert!(cache.is_full_for(SwapSlot(1)));
        assert!(!cache.insert(SwapSlot(1), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO));
        assert!(!cache.is_full_for(SwapSlot(150)));
        assert!(cache.insert(SwapSlot(150), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO));
        assert_eq!(cache.unused_prefetched(), 2);
    }

    #[test]
    fn span_shard_routes_contiguous_spans_once() {
        let cache = ShardedSwapCache::new(4, 8, 100);
        // A span inside one region routes once.
        let inside: Vec<SwapSlot> = (110..118).map(SwapSlot).collect();
        assert_eq!(cache.span_shard(&inside), Some(1));
        // Straddling a boundary cannot be routed as one span.
        let straddle = [SwapSlot(99), SwapSlot(100)];
        assert_eq!(cache.span_shard(&straddle), None);
        // Empty spans have no shard.
        assert_eq!(cache.span_shard(&[]), None);
        // Alternating (speculative around-the-fault) spans route by their
        // extremes.
        let around = [SwapSlot(150), SwapSlot(148), SwapSlot(152)];
        assert_eq!(cache.span_shard(&around), Some(1));
    }

    proptest! {
        /// `contains_span` + `insert_fresh_span` are observably identical
        /// to per-slot loops, for arbitrary slots (including spans
        /// straddling region boundaries) and arbitrary pre-populated state.
        #[test]
        fn prop_cache_span_ops_match_per_page_loops(
            prepopulate in proptest::collection::vec(0u64..400, 0..40),
            span in proptest::collection::vec(0u64..400, 0..16),
            per_shard in 1u64..12,
        ) {
            let build = || {
                let mut c = ShardedSwapCache::new(4, per_shard, 100);
                for &s in &prepopulate {
                    let _ = c.insert(SwapSlot(s), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
                }
                c
            };
            let slots: Vec<SwapSlot> = span.iter().copied().map(SwapSlot).collect();

            // contains_span ≡ contains loop.
            let cache = build();
            let mut batched = vec![false; slots.len()];
            cache.contains_span(&slots, &mut batched);
            let looped: Vec<bool> = slots.iter().map(|&s| cache.contains(s)).collect();
            prop_assert_eq!(&batched, &looped);

            // insert_fresh_span ≡ insert_fresh loop, under the admission
            // path's precondition (the span's shard, slots probed absent,
            // room for all of them): same final contents everywhere.
            if let Some(shard) = cache.span_shard(&slots) {
                let mut fresh: Vec<SwapSlot> = Vec::new();
                for (i, &s) in slots.iter().enumerate() {
                    if !batched[i] && !fresh.contains(&s) {
                        fresh.push(s);
                    }
                }
                prop_assume!(cache.shard(shard).free_pages() >= fresh.len() as u64);
                let pids: Vec<Pid> = (0..fresh.len() as u32).map(Pid).collect();
                let mut span_cache = build();
                span_cache.insert_fresh_span(
                    shard, &fresh, &pids, CacheOrigin::Demand, Nanos::from_micros(1),
                );
                let mut loop_cache = build();
                for (i, &s) in fresh.iter().enumerate() {
                    loop_cache
                        .shard_mut(shard)
                        .insert_fresh(s, pids[i], CacheOrigin::Demand, Nanos::from_micros(1));
                }
                prop_assert_eq!(span_cache.len(), loop_cache.len());
                for s in (0u64..400).map(SwapSlot) {
                    prop_assert_eq!(span_cache.get(s), loop_cache.get(s));
                }
            }
        }

        /// `owners_span` ≡ per-slot `owner` lookups.
        #[test]
        fn prop_swap_owners_span_matches_loop(
            allocs in proptest::collection::vec((0usize..4, 0u64..64), 0..60),
            span in proptest::collection::vec(0u64..400, 0..16),
        ) {
            let mut swap = ShardedSwap::new(4, 400);
            for (core, page) in allocs {
                let _ = swap.allocate_on(core, Pid(core as u32 + 1), VirtPage(page));
            }
            let slots: Vec<SwapSlot> = span.iter().copied().map(SwapSlot).collect();
            let mut batched = vec![None; slots.len()];
            swap.owners_span(&slots, &mut batched);
            let looped: Vec<_> = slots.iter().map(|&s| swap.owner(s)).collect();
            prop_assert_eq!(batched, looped);
        }
    }

    #[test]
    fn single_cache_shard_behaves_like_swap_cache() {
        let mut cache = ShardedSwapCache::single(2);
        assert_eq!(cache.shards(), 1);
        assert!(cache.insert(SwapSlot(5), Pid(1), CacheOrigin::Demand, Nanos::ZERO));
        assert!(cache.insert(
            SwapSlot(u64::MAX - 1),
            Pid(1),
            CacheOrigin::Demand,
            Nanos::ZERO
        ));
        assert!(cache.is_full_for(SwapSlot(7)));
        assert!(!cache.insert(SwapSlot(7), Pid(1), CacheOrigin::Demand, Nanos::ZERO));
    }
}
