//! Prefetch effectiveness: accuracy, coverage, and timeliness (§3.1).

use crate::histogram::LatencyHistogram;
use leap_sim_core::Nanos;

/// Accuracy, coverage, and timeliness accounting for one prefetcher run.
///
/// Following §3.1 of the paper:
///
/// - *Accuracy* is the ratio of prefetched-cache hits to the total number of
///   pages added to the cache by prefetching.
/// - *Coverage* is the ratio of prefetched-cache hits to the total number of
///   requests (page faults / remote accesses).
/// - *Timeliness* of an accurately prefetched page is the gap between when it
///   was prefetched and when it was first hit.
///
/// # Examples
///
/// ```
/// use leap_metrics::PrefetchStats;
/// use leap_sim_core::Nanos;
///
/// let mut stats = PrefetchStats::default();
/// stats.record_prefetched(4);
/// stats.record_request();
/// stats.record_request();
/// stats.record_prefetch_hit(Nanos::from_micros(12));
/// assert_eq!(stats.accuracy(), 0.25);
/// assert_eq!(stats.coverage(), 0.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    pages_prefetched: u64,
    prefetch_hits: u64,
    total_requests: u64,
    timeliness: LatencyHistogram,
}

impl PrefetchStats {
    /// Records `pages` pages added to the cache by prefetching.
    pub fn record_prefetched(&mut self, pages: u64) {
        self.pages_prefetched += pages;
    }

    /// Records one request (page fault / remote access) regardless of outcome.
    pub fn record_request(&mut self) {
        self.total_requests += 1;
    }

    /// Records a hit on a prefetched page, with the time it spent in the
    /// cache before being hit.
    pub fn record_prefetch_hit(&mut self, waited: Nanos) {
        self.prefetch_hits += 1;
        self.timeliness.record(waited);
    }

    /// Total pages brought in by prefetching.
    pub fn pages_prefetched(&self) -> u64 {
        self.pages_prefetched
    }

    /// Total hits on prefetched pages.
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Prefetch accuracy in `[0, 1]`. Zero if nothing was prefetched.
    pub fn accuracy(&self) -> f64 {
        if self.pages_prefetched == 0 {
            return 0.0;
        }
        self.prefetch_hits as f64 / self.pages_prefetched as f64
    }

    /// Prefetch coverage in `[0, 1]`. Zero if there were no requests.
    pub fn coverage(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        self.prefetch_hits as f64 / self.total_requests as f64
    }

    /// The distribution of time prefetched pages waited before their first
    /// hit (smaller is more timely).
    pub fn timeliness(&mut self) -> &mut LatencyHistogram {
        &mut self.timeliness
    }

    /// Read-only view of the timeliness histogram.
    pub fn timeliness_ref(&self) -> &LatencyHistogram {
        &self.timeliness
    }

    /// Merges another run's statistics into this one.
    pub fn merge(&mut self, other: &PrefetchStats) {
        self.pages_prefetched += other.pages_prefetched;
        self.prefetch_hits += other.prefetch_hits;
        self.total_requests += other.total_requests;
        self.timeliness.merge(&other.timeliness);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = PrefetchStats::default();
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.pages_prefetched(), 0);
    }

    #[test]
    fn accuracy_and_coverage_formulas() {
        let mut s = PrefetchStats::default();
        s.record_prefetched(10);
        for _ in 0..20 {
            s.record_request();
        }
        for i in 0..5u64 {
            s.record_prefetch_hit(Nanos::from_micros(i));
        }
        assert!((s.accuracy() - 0.5).abs() < 1e-9);
        assert!((s.coverage() - 0.25).abs() < 1e-9);
        assert_eq!(s.timeliness().len(), 5);
    }

    #[test]
    fn accuracy_can_exceed_one_if_hits_are_double_counted_by_caller() {
        // The struct itself does not clamp; it reports what the caller fed it.
        let mut s = PrefetchStats::default();
        s.record_prefetched(1);
        s.record_prefetch_hit(Nanos::ZERO);
        s.record_prefetch_hit(Nanos::ZERO);
        assert!(s.accuracy() > 1.0);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = PrefetchStats::default();
        a.record_prefetched(2);
        a.record_request();
        a.record_prefetch_hit(Nanos::from_micros(1));
        let mut b = PrefetchStats::default();
        b.record_prefetched(3);
        b.record_request();
        a.merge(&b);
        assert_eq!(a.pages_prefetched(), 5);
        assert_eq!(a.prefetch_hits(), 1);
        assert_eq!(a.coverage(), 0.5, "one hit over the two merged requests");
    }

    #[test]
    fn timeliness_median_reflects_waits() {
        let mut s = PrefetchStats::default();
        s.record_prefetched(3);
        s.record_prefetch_hit(Nanos::from_micros(10));
        s.record_prefetch_hit(Nanos::from_micros(20));
        s.record_prefetch_hit(Nanos::from_micros(30));
        assert_eq!(s.timeliness().median(), Nanos::from_micros(20));
    }
}
