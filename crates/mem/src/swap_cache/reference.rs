//! The eviction machinery the fused [`SwapCache`] replaced, kept as a
//! reference model: a slot → entry map for the cache, Leap's prefetch FIFO
//! with per-slot skip counts, the kswapd reclaimer over its own LRU, and the
//! two policies that kept them in step with the cache through insert and
//! hit notifications. A proptest drives both side by side.

use super::{CacheEntry, CacheOrigin, EvictionPolicy, EvictionReport, SwapCache};
use crate::types::{Pid, SwapSlot};
use leap_sim_core::hash::FxHashMap;
use leap_sim_core::Nanos;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The historical swap cache: a bounded map from swap slots to entries.
#[derive(Debug)]
struct MapCache {
    capacity_pages: u64,
    entries: FxHashMap<SwapSlot, CacheEntry>,
}

impl MapCache {
    fn new(capacity_pages: u64) -> Self {
        MapCache {
            capacity_pages,
            entries: FxHashMap::default(),
        }
    }

    fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    fn is_full(&self) -> bool {
        self.len() >= self.capacity_pages
    }

    fn insert(&mut self, slot: SwapSlot, origin: CacheOrigin, now: Nanos) -> bool {
        if !self.entries.contains_key(&slot) && self.is_full() {
            return false;
        }
        self.entries.insert(
            slot,
            CacheEntry {
                pid: Pid(1),
                origin,
                inserted_at: now,
                first_hit_at: None,
            },
        );
        true
    }

    /// Records a hit and, when `free_prefetched` is set and the entry is
    /// prefetch-origin, removes it; the flag says whether it was taken.
    fn record_hit_take(
        &mut self,
        slot: SwapSlot,
        now: Nanos,
        free_prefetched: bool,
    ) -> Option<(CacheEntry, bool)> {
        let entry = self.entries.get_mut(&slot)?;
        entry.first_hit_at.get_or_insert(now);
        let entry = *entry;
        let taken = free_prefetched && entry.origin == CacheOrigin::Prefetch;
        if taken {
            self.entries.remove(&slot);
        }
        Some((entry, taken))
    }

    fn remove(&mut self, slot: SwapSlot) -> Option<CacheEntry> {
        self.entries.remove(&slot)
    }
}

/// Skipped entries tolerated in the queue before a compaction pass.
const COMPACT_MIN_SKIPPED: usize = 64;

/// The `PrefetchFifoLruList` as a queue with per-slot `(live, skipped)`
/// counts: a hit marks the slot's oldest entry skipped instead of searching
/// the queue, and skipped entries are dropped at the front or by `compact`.
#[derive(Debug, Default)]
struct PrefetchFifoLru {
    fifo: VecDeque<SwapSlot>,
    counts: FxHashMap<SwapSlot, (u32, u32)>,
    live: usize,
}

impl PrefetchFifoLru {
    fn on_prefetch_insert(&mut self, slot: SwapSlot) {
        self.fifo.push_back(slot);
        self.counts.entry(slot).or_default().0 += 1;
        self.live += 1;
    }

    fn on_hit_freed(&mut self, slot: SwapSlot) -> bool {
        match self.counts.get_mut(&slot) {
            Some((live, skipped)) if *live > 0 => {
                *live -= 1;
                *skipped += 1;
            }
            _ => return false,
        }
        self.live -= 1;
        if self.fifo.len() - self.live > self.live.max(COMPACT_MIN_SKIPPED) {
            self.compact();
        }
        true
    }

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

    /// Frees up to `target` live entries in FIFO order; returns how many
    /// were freed and how many of those were unused prefetches.
    fn reclaim_fifo(&mut self, cache: &mut MapCache, target: u64) -> (u64, u64) {
        let (mut count, mut unused) = (0u64, 0u64);
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
                count += 1;
                unused += u64::from(entry.is_unused_prefetch());
            }
        }
        (count, unused)
    }
}

/// The kswapd reclaimer's own LRU over slots (front = least recently used),
/// with a quarter-of-the-list-plus-target scan budget per pass.
#[derive(Debug, Default)]
struct LazyReclaimer {
    lru: VecDeque<SwapSlot>,
}

impl LazyReclaimer {
    /// Inserts `slot` as most recently used, moving it if present.
    fn on_insert(&mut self, slot: SwapSlot) {
        if let Some(pos) = self.lru.iter().position(|&s| s == slot) {
            self.lru.remove(pos);
        }
        self.lru.push_back(slot);
    }

    fn on_hit(&mut self, slot: SwapSlot) {
        if let Some(pos) = self.lru.iter().position(|&s| s == slot) {
            self.lru.remove(pos);
            self.lru.push_back(slot);
        }
    }

    /// True if the LRU holds a slot the cache no longer has.
    fn has_stale(&self, cache: &MapCache) -> bool {
        self.lru.iter().any(|s| !cache.entries.contains_key(s))
    }

    fn reclaim(&mut self, cache: &mut MapCache, target: u64, now: Nanos) -> EvictionReport {
        let mut report = EvictionReport::default();
        if target == 0 || self.lru.is_empty() {
            return report;
        }
        let budget = ((self.lru.len() as f64 * 0.25).ceil() as u64).saturating_add(target);
        let mut scanned = 0u64;
        while report.freed_total() < target && scanned < budget {
            let Some(slot) = self.lru.pop_front() else {
                break;
            };
            scanned += 1;
            // A slot the cache no longer holds was freed elsewhere: it only
            // costs the scan.
            let Some(entry) = cache.remove(slot) else {
                continue;
            };
            if let Some(hit_at) = entry.first_hit_at {
                report.post_hit_wait.push(now.saturating_sub(hit_at));
            }
            if entry.is_unused_prefetch() {
                report.freed_unused_prefetches += 1;
            } else {
                report.freed_other += 1;
            }
        }
        report
    }
}

/// The two policies as they were driven through a `CacheEvictor` trait
/// object: eager kept prefetches on its FIFO and demand entries on a
/// fallback reclaimer; lazy kept everything on its reclaimer.
#[derive(Debug)]
enum Evictor {
    Eager {
        fifo: PrefetchFifoLru,
        fallback: LazyReclaimer,
    },
    Lazy {
        reclaimer: LazyReclaimer,
        high_watermark: u64,
    },
}

impl Evictor {
    fn new(policy: EvictionPolicy, high_watermark: u64) -> Self {
        match policy {
            EvictionPolicy::Eager => Evictor::Eager {
                fifo: PrefetchFifoLru::default(),
                fallback: LazyReclaimer::default(),
            },
            EvictionPolicy::Lazy => Evictor::Lazy {
                reclaimer: LazyReclaimer::default(),
                high_watermark,
            },
        }
    }

    fn frees_on_hit(&self) -> bool {
        matches!(self, Evictor::Eager { .. })
    }

    fn on_insert(&mut self, slot: SwapSlot, origin: CacheOrigin) {
        match (self, origin) {
            (Evictor::Eager { fifo, .. }, CacheOrigin::Prefetch) => fifo.on_prefetch_insert(slot),
            (Evictor::Eager { fallback, .. }, CacheOrigin::Demand) => fallback.on_insert(slot),
            (Evictor::Lazy { reclaimer, .. }, _) => reclaimer.on_insert(slot),
        }
    }

    /// The engine's hit path: record the hit (taking a prefetch entry out
    /// under a free-on-hit policy), then notify the policy.
    fn hit(&mut self, cache: &mut MapCache, slot: SwapSlot, now: Nanos) -> Option<CacheEntry> {
        let (entry, taken) = cache.record_hit_take(slot, now, self.frees_on_hit())?;
        match self {
            Evictor::Eager { fifo, .. } if taken => {
                fifo.on_hit_freed(slot);
            }
            Evictor::Eager { fallback, .. } => fallback.on_hit(slot),
            Evictor::Lazy { reclaimer, .. } => reclaimer.on_hit(slot),
        }
        Some(entry)
    }

    fn make_space(&mut self, cache: &mut MapCache, target: u64, now: Nanos) -> EvictionReport {
        match self {
            Evictor::Eager { fifo, fallback } => {
                let (count, unused) = fifo.reclaim_fifo(cache, target);
                let mut report = EvictionReport {
                    freed_unused_prefetches: unused,
                    freed_other: count - unused,
                    post_hit_wait: Vec::new(),
                };
                if count < target {
                    report.freed_other +=
                        fallback.reclaim(cache, target - count, now).freed_total();
                }
                report
            }
            Evictor::Lazy { reclaimer, .. } => reclaimer.reclaim(cache, target, now),
        }
    }

    fn background_reclaim(&mut self, cache: &mut MapCache, now: Nanos) -> Option<EvictionReport> {
        let Evictor::Lazy { high_watermark, .. } = *self else {
            return None;
        };
        if cache.len() <= high_watermark {
            return None;
        }
        let target = cache.len() - high_watermark / 2;
        Some(self.make_space(cache, target, now))
    }

    fn tracked_pages(&self) -> u64 {
        match self {
            Evictor::Eager { fifo, .. } => fifo.live as u64,
            Evictor::Lazy { reclaimer, .. } => reclaimer.lru.len() as u64,
        }
    }

    /// True if the eager fallback LRU still holds a slot whose entry the
    /// FIFO freed (the one state the fused cache does not reproduce).
    fn has_stale_fallback(&self, cache: &MapCache) -> bool {
        match self {
            Evictor::Eager { fallback, .. } => fallback.has_stale(cache),
            Evictor::Lazy { .. } => false,
        }
    }
}

/// Background-reclaim watermark of the side-by-side runs: small, so short
/// operation sequences cross it.
const TEST_WATERMARK: u64 = 8;

/// The fused cache and the reference, driven by the same engine-shaped
/// operations.
struct SideBySide {
    cache: SwapCache,
    old_cache: MapCache,
    old: Evictor,
    now: Nanos,
}

/// How a side-by-side run ended.
#[derive(Debug, PartialEq, Eq)]
enum Ending {
    /// Every step agreed.
    Agreed,
    /// An eager pass freed less in the reference than in the fused cache
    /// because stale fallback-LRU entries used up its scan budget.
    StaleFallbackDivergence,
}

/// One engine-shaped operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Prefetch admission of the slots `[slot, slot + n)`.
    Prefetch(u64, u64),
    /// A demand insert (a read miss or a buffered write) of `slot`.
    Demand(u64),
    Hit(u64),
    MakeSpace(u64),
    Background,
}

impl SideBySide {
    fn new(policy: EvictionPolicy, capacity: u64) -> Self {
        SideBySide {
            cache: SwapCache::new(capacity, policy),
            old_cache: MapCache::new(capacity),
            old: Evictor::new(policy, TEST_WATERMARK),
            now: Nanos::ZERO,
        }
    }

    /// Runs one `make_space` on both sides. `Err` flags the allowed
    /// divergence; any other disagreement panics.
    fn make_space(&mut self, target: u64) -> Result<EvictionReport, Ending> {
        let stale = self.old.has_stale_fallback(&self.old_cache);
        let old = self.old.make_space(&mut self.old_cache, target, self.now);
        let new = self.cache.make_space(target, self.now);
        if stale && old.freed_total() < new.freed_total() {
            return Err(Ending::StaleFallbackDivergence);
        }
        assert_same_report(&new, &old);
        Ok(new)
    }

    fn step(&mut self, op: Op) -> Result<(), Ending> {
        self.now = self.now.saturating_add(Nanos(100));
        match op {
            Op::Prefetch(first, n) => {
                for slot in (first..first + n).map(SwapSlot) {
                    // `EngineCore::admit_prefetch_span`: skip cached
                    // candidates, make room, insert. (Both caches hold the
                    // same entries, checked after every step.)
                    if self.cache.contains(slot) {
                        continue;
                    }
                    if self.cache.is_full() && self.make_space(1)?.is_empty() {
                        continue;
                    }
                    self.cache
                        .insert_fresh(slot, Pid(1), CacheOrigin::Prefetch, self.now);
                    assert!(self.old_cache.insert(slot, CacheOrigin::Prefetch, self.now));
                    self.old.on_insert(slot, CacheOrigin::Prefetch);
                }
            }
            Op::Demand(slot) => {
                // `VfsSimulator::ensure_cache_room`, then
                // `EngineCore::insert_demand`.
                let slot = SwapSlot(slot);
                if self.cache.is_full() {
                    self.make_space(1)?;
                }
                let inserted = self
                    .cache
                    .insert(slot, Pid(1), CacheOrigin::Demand, self.now);
                assert_eq!(
                    inserted,
                    self.old_cache.insert(slot, CacheOrigin::Demand, self.now)
                );
                if inserted {
                    self.old.on_insert(slot, CacheOrigin::Demand);
                }
            }
            Op::Hit(slot) => {
                let slot = SwapSlot(slot);
                let new = self.cache.record_hit(slot, self.now);
                let old = self.old.hit(&mut self.old_cache, slot, self.now);
                assert_eq!(new, old);
            }
            Op::MakeSpace(target) => {
                self.make_space(target)?;
            }
            Op::Background => {
                let old = self.old.background_reclaim(&mut self.old_cache, self.now);
                let new = self.cache.reclaim_above(TEST_WATERMARK, self.now);
                match (new, old) {
                    (Some(new), Some(old)) => assert_same_report(&new, &old),
                    (None, None) => {}
                    (new, old) => panic!("background passes differ: {new:?} vs {old:?}"),
                }
            }
        }
        self.assert_same_state();
        Ok(())
    }

    fn assert_same_state(&self) {
        let mut new: Vec<(SwapSlot, CacheEntry)> =
            self.cache.iter().map(|(s, e)| (s, *e)).collect();
        let mut old: Vec<(SwapSlot, CacheEntry)> = self
            .old_cache
            .entries
            .iter()
            .map(|(&s, &e)| (s, e))
            .collect();
        new.sort_unstable_by_key(|&(s, _)| s);
        old.sort_unstable_by_key(|&(s, _)| s);
        assert_eq!(new, old, "cache contents differ");
        assert_eq!(self.cache.tracked_pages(), self.old.tracked_pages());
        assert!(self.cache.lists_partition_entries());
    }
}

fn assert_same_report(new: &EvictionReport, old: &EvictionReport) {
    assert_eq!(
        (new.freed_unused_prefetches, new.freed_other),
        (old.freed_unused_prefetches, old.freed_other),
        "freed counts differ"
    );
    assert_eq!(
        new.post_hit_wait, old.post_hit_wait,
        "post-hit waits differ"
    );
}

/// Runs `ops` on both sides until they end or diverge the allowed way.
fn run(policy: EvictionPolicy, capacity: u64, ops: &[Op]) -> Ending {
    let mut sides = SideBySide::new(policy, capacity);
    for &op in ops {
        if let Err(ending) = sides.step(op) {
            assert_eq!(policy, EvictionPolicy::Eager);
            return ending;
        }
    }
    Ending::Agreed
}

fn decode(
    policy_bit: bool,
    capacity: u64,
    raw: &[(u8, u64, u64)],
) -> (EvictionPolicy, u64, Vec<Op>) {
    let policy = if policy_bit {
        EvictionPolicy::Eager
    } else {
        EvictionPolicy::Lazy
    };
    // Capacity 0 stands for an unbounded cache.
    let capacity = if capacity == 0 { u64::MAX } else { capacity };
    let ops = raw
        .iter()
        .map(|&(op, slot, n)| match op {
            0..=2 => Op::Prefetch(slot, n),
            3 | 4 => Op::Demand(slot),
            5..=7 => Op::Hit(slot),
            8 => Op::MakeSpace(n),
            _ => Op::Background,
        })
        .collect();
    (policy, capacity, ops)
}

#[test]
fn stale_fallback_entries_can_starve_the_old_eager_pass() {
    // A buffered write lands on unread prefetches 0..4, so the old eager
    // policy queues each on its fallback LRU as well as its FIFO. The FIFO
    // then frees them, leaving four stale fallback entries ahead of the
    // demand page 9. The next fallback pass may scan ceil(5 / 4) + 1 = 3
    // entries: all stale, so it frees nothing. The fused cache has no
    // stale entries and frees page 9.
    let mut ops: Vec<Op> = vec![Op::Prefetch(0, 4)];
    ops.extend((0..4).map(Op::Demand));
    ops.extend([Op::Demand(9), Op::MakeSpace(4)]);
    let mut sides = SideBySide::new(EvictionPolicy::Eager, u64::MAX);
    for &op in &ops {
        sides.step(op).expect("the FIFO pass agrees");
    }
    assert_eq!(
        sides.make_space(1).unwrap_err(),
        Ending::StaleFallbackDivergence
    );
    assert!(!sides.cache.contains(SwapSlot(9)));
    assert!(sides.old_cache.entries.contains_key(&SwapSlot(9)));
}

proptest! {
    /// The fused cache and its victim rules are observably the old cache
    /// plus policy pair: after every step of random prefetch spans, demand
    /// inserts (also over unread prefetches), hits, make-space passes and
    /// background reclaims, under both policies and bounded or unbounded
    /// capacity, the cache contents, every pass's freed counts and post-hit
    /// waits, and `tracked_pages` agree. The only tolerated difference is
    /// an eager pass the old fallback LRU's stale entries starved.
    #[test]
    fn prop_fused_cache_matches_reference(
        eager in any::<bool>(),
        capacity in 0u64..16,
        raw in proptest::collection::vec((0u8..10, 0u64..24, 0u64..6), 0..300),
    ) {
        let (policy, capacity, ops) = decode(eager, capacity, &raw);
        let ending = run(policy, capacity, &ops);
        prop_assert!(ending == Ending::Agreed || policy == EvictionPolicy::Eager);
    }

    /// Hit-heavy eager runs over a handful of slots with no pressure: the
    /// old FIFO's skipped entries pile up until its compaction pass runs,
    /// and victim order must still match once reclaim starts.
    #[test]
    fn prop_fused_cache_matches_reference_through_compaction(
        raw in proptest::collection::vec((0u8..3, 0u64..6), 200..600),
    ) {
        let mut ops: Vec<Op> = raw
            .iter()
            .map(|&(op, slot)| match op {
                0 => Op::Prefetch(slot, 1),
                _ => Op::Hit(slot),
            })
            .collect();
        ops.extend([Op::MakeSpace(3), Op::MakeSpace(100)]);
        prop_assert_eq!(run(EvictionPolicy::Eager, u64::MAX, &ops), Ending::Agreed);
    }
}
