//! Cache counters: adds, hits, misses, evictions, pollution.

/// Counters describing how a (prefetch) cache behaved during a run.
///
/// These feed Figure 9a of the paper ("Cache Add" / "Cache Miss" per
/// prefetcher) and the pollution discussion in §5.2.3.
///
/// # Examples
///
/// ```
/// use leap_metrics::CacheStats;
///
/// let mut stats = CacheStats::default();
/// stats.record_add(4);       // prefetcher added four pages
/// stats.record_prefetch_hit();
/// stats.record_miss();
/// assert_eq!(stats.cache_adds(), 4);
/// assert_eq!(stats.hit_ratio(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    cache_adds: u64,
    prefetch_hits: u64,
    demand_hits: u64,
    misses: u64,
    evictions: u64,
    evicted_unused_prefetches: u64,
}

impl CacheStats {
    /// Records `pages` pages added to the cache by prefetching.
    pub fn record_add(&mut self, pages: u64) {
        self.cache_adds += pages;
    }

    /// Records an access served by a *prefetched* cache entry.
    pub fn record_prefetch_hit(&mut self) {
        self.prefetch_hits += 1;
    }

    /// Records an access served by a demand-fetched cache entry (e.g. a page
    /// brought in by an earlier miss and still in the swap cache).
    pub fn record_demand_hit(&mut self) {
        self.demand_hits += 1;
    }

    /// Records an access that missed the cache entirely.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Records an eviction; `was_unused_prefetch` marks evictions of
    /// prefetched pages that were never hit (cache pollution).
    pub fn record_eviction(&mut self, was_unused_prefetch: bool) {
        self.evictions += 1;
        if was_unused_prefetch {
            self.evicted_unused_prefetches += 1;
        }
    }

    /// Total pages added to the cache by prefetching.
    pub fn cache_adds(&self) -> u64 {
        self.cache_adds
    }

    /// Accesses served from prefetched entries.
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Accesses served from demand-fetched entries.
    pub fn demand_hits(&self) -> u64 {
        self.demand_hits
    }

    /// Total cache hits (prefetch + demand).
    pub fn hits(&self) -> u64 {
        self.prefetch_hits + self.demand_hits
    }

    /// Accesses that missed the cache.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evictions of prefetched pages that were never used.
    pub fn evicted_unused_prefetches(&self) -> u64 {
        self.evicted_unused_prefetches
    }

    /// Total slow-tier accesses observed (hits + misses).
    pub(crate) fn total_accesses(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Fraction of accesses served by the cache. Zero if no accesses.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            return 0.0;
        }
        self.hits() as f64 / total as f64
    }

    /// Fraction of prefetched pages that were never hit before eviction,
    /// relative to all prefetched pages (a pollution measure). Zero if
    /// nothing was prefetched.
    pub fn pollution_ratio(&self) -> f64 {
        if self.cache_adds == 0 {
            return 0.0;
        }
        self.evicted_unused_prefetches as f64 / self.cache_adds as f64
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.cache_adds += other.cache_adds;
        self.prefetch_hits += other.prefetch_hits;
        self.demand_hits += other.demand_hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.evicted_unused_prefetches += other.evicted_unused_prefetches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_on_empty_stats_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.pollution_ratio(), 0.0);
        assert_eq!(s.total_accesses(), 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = CacheStats::default();
        s.record_add(8);
        s.record_prefetch_hit();
        s.record_prefetch_hit();
        s.record_demand_hit();
        s.record_miss();
        s.record_eviction(true);
        s.record_eviction(false);
        assert_eq!(s.cache_adds(), 8);
        assert_eq!(s.hits(), 3);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.evictions(), 2);
        assert_eq!(s.evicted_unused_prefetches(), 1);
        assert_eq!(s.total_accesses(), 4);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-9);
        assert!((s.pollution_ratio() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = CacheStats::default();
        a.record_add(2);
        a.record_miss();
        let mut b = CacheStats::default();
        b.record_add(3);
        b.record_prefetch_hit();
        a.merge(&b);
        assert_eq!(a.cache_adds(), 5);
        assert_eq!(a.hits(), 1);
        assert_eq!(a.misses(), 1);
    }
}
