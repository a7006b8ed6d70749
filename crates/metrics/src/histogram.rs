//! Latency histograms with percentile queries.

use leap_sim_core::Nanos;

/// A collection of latency samples supporting percentile and mean queries.
///
/// Samples are kept exactly (the experiments record at most a few million
/// samples); queries sort lazily and cache the sorted order until the next
/// insertion. A sample below 2³² ns (~4.3 s) is stored in 4 bytes, the
/// rare larger one in an 8-byte overflow list. Every overflow sample is
/// larger than every small one, so once both lists are sorted the sample
/// of rank `i` is `small[i]`, or `large[i - small.len()]` past the small
/// list, and every query answers exactly as over one sorted list.
///
/// # Examples
///
/// ```
/// use leap_metrics::LatencyHistogram;
/// use leap_sim_core::Nanos;
///
/// let mut h = LatencyHistogram::new();
/// for us in [1u64, 2, 3, 4, 100] {
///     h.record(Nanos::from_micros(us));
/// }
/// assert_eq!(h.median(), Nanos::from_micros(3));
/// assert_eq!(h.percentile(99.0), Nanos::from_micros(100));
/// assert!(h.mean() > Nanos::from_micros(20));
/// ```
///
/// Two histograms are equal when they hold the same multiset of samples,
/// whatever order the samples were recorded or merged in and whether or
/// not a query has sorted either side.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    /// Samples below 2³² ns.
    small: Vec<u32>,
    /// Samples of 2³² ns and above.
    large: Vec<u64>,
    sorted: bool,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            small: Vec::new(),
            large: Vec::new(),
            sorted: true,
        }
    }

    /// Records one latency sample.
    #[inline]
    pub fn record(&mut self, latency: Nanos) {
        let ns = latency.as_nanos();
        match u32::try_from(ns) {
            Ok(small) => self.small.push(small),
            Err(_) => self.large.push(ns),
        }
        self.sorted = false;
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.small.extend_from_slice(&other.small);
        self.large.extend_from_slice(&other.large);
        self.sorted = false;
    }

    /// Pre-allocates room for `additional` further samples, so a hot
    /// recording path never reallocates in steady state (samples of 2³² ns
    /// and above go to an overflow list this does not reserve).
    pub fn reserve(&mut self, additional: usize) {
        self.small.reserve(additional);
    }

    /// The samples in ascending order (sorting lazily like the percentile
    /// queries): the plain view the query tests compare against. Runs
    /// compare whole distributions with `==`.
    #[cfg(test)]
    pub fn sorted_samples(&mut self) -> Vec<u64> {
        self.ensure_sorted();
        self.small
            .iter()
            .map(|&s| u64::from(s))
            .chain(self.large.iter().copied())
            .collect()
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.small.len() + self.large.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.small.is_empty() && self.large.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.small.sort_unstable();
            self.large.sort_unstable();
            self.sorted = true;
        }
    }

    /// The sample of rank `index` in ascending order. The lists must be
    /// sorted and `index < self.len()`.
    fn ranked(&self, index: usize) -> u64 {
        match self.small.get(index) {
            Some(&s) => u64::from(s),
            None => self.large[index - self.small.len()],
        }
    }

    /// Returns the p-th percentile (p in `[0, 100]`). Returns zero for an
    /// empty histogram.
    pub fn percentile(&mut self, p: f64) -> Nanos {
        if self.is_empty() {
            return Nanos::ZERO;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let len = self.len();
        // Nearest-rank percentile: the smallest sample with at least p % of
        // the distribution at or below it.
        let rank = ((p / 100.0) * len as f64).ceil() as usize;
        Nanos::from_nanos(self.ranked(rank.clamp(1, len) - 1))
    }

    /// The median (50th percentile).
    pub fn median(&mut self) -> Nanos {
        self.percentile(50.0)
    }

    /// The arithmetic mean. Returns zero for an empty histogram.
    pub fn mean(&self) -> Nanos {
        if self.is_empty() {
            return Nanos::ZERO;
        }
        Nanos::from_nanos((self.sum() / self.len() as u128) as u64)
    }

    /// The maximum sample. Returns zero for an empty histogram.
    pub fn max(&self) -> Nanos {
        let max = match self.large.iter().max() {
            Some(&l) => l,
            None => self.small.iter().max().map_or(0, |&s| u64::from(s)),
        };
        Nanos::from_nanos(max)
    }

    /// The minimum sample. Returns zero for an empty histogram.
    #[cfg(test)]
    pub(crate) fn min(&self) -> Nanos {
        let min = match self.small.iter().min() {
            Some(&s) => u64::from(s),
            None => self.large.iter().copied().min().unwrap_or(0),
        };
        Nanos::from_nanos(min)
    }

    /// The sum of all samples.
    #[cfg(test)]
    pub(crate) fn total(&self) -> Nanos {
        Nanos::from_nanos(self.sum().min(u64::MAX as u128) as u64)
    }

    fn sum(&self) -> u128 {
        let small: u128 = self.small.iter().map(|&s| s as u128).sum();
        let large: u128 = self.large.iter().map(|&s| s as u128).sum();
        small + large
    }

    /// The fraction of samples ≤ `threshold` (the empirical CDF).
    #[cfg(test)]
    pub fn cdf_at(&mut self, threshold: Nanos) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let t = threshold.as_nanos();
        let count = match u32::try_from(t) {
            Ok(t) => self.small.partition_point(|&s| s <= t),
            Err(_) => self.small.len() + self.large.partition_point(|&s| s <= t),
        };
        count as f64 / self.len() as f64
    }

    /// Produces `(latency, cumulative fraction)` points suitable for plotting
    /// a CDF, at the given number of evenly spaced quantiles.
    #[cfg(test)]
    pub fn cdf_points(&mut self, points: usize) -> Vec<(Nanos, f64)> {
        if self.is_empty() || points == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let last = self.len() - 1;
        (1..=points)
            .map(|i| {
                let q = i as f64 / points as f64;
                let rank = ((q * last as f64).round()) as usize;
                (Nanos::from_nanos(self.ranked(rank)), q)
            })
            .collect()
    }
}

impl PartialEq for LatencyHistogram {
    /// Multiset equality. A sample's value alone picks its list, so the two
    /// histograms are equal exactly when each list holds the same samples;
    /// sorting copies leaves both sides (and their `sorted` flags) as they
    /// were. Nothing on the replay path compares histograms.
    fn eq(&self, other: &Self) -> bool {
        fn sorted<T: Ord + Copy>(samples: &[T]) -> Vec<T> {
            let mut samples = samples.to_vec();
            samples.sort_unstable();
            samples
        }
        sorted(&self.small) == sorted(&other.small) && sorted(&self.large) == sorted(&other.large)
    }
}

impl Eq for LatencyHistogram {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn us(v: u64) -> Nanos {
        Nanos::from_micros(v)
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.median(), Nanos::ZERO);
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.percentile(99.0), Nanos::ZERO);
        assert_eq!(h.cdf_at(us(10)), 0.0);
        assert!(h.cdf_points(10).is_empty());
    }

    #[test]
    fn percentiles_on_known_data() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(us(v));
        }
        assert_eq!(h.median(), us(50));
        assert_eq!(h.percentile(99.0), us(99));
        assert_eq!(h.percentile(0.0), us(1));
        assert_eq!(h.percentile(100.0), us(100));
        assert_eq!(h.min(), us(1));
        assert_eq!(h.max(), us(100));
    }

    #[test]
    fn mean_and_total() {
        let mut h = LatencyHistogram::new();
        h.record(us(10));
        h.record(us(20));
        h.record(us(30));
        assert_eq!(h.mean(), us(20));
        assert_eq!(h.total(), us(60));
    }

    #[test]
    fn cdf_at_thresholds() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 4] {
            h.record(us(v));
        }
        assert_eq!(h.cdf_at(us(2)), 0.5);
        assert_eq!(h.cdf_at(us(4)), 1.0);
        assert_eq!(h.cdf_at(Nanos::ZERO), 0.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyHistogram::new();
        a.record(us(1));
        let mut b = LatencyHistogram::new();
        b.record(us(3));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), us(3));
    }

    #[test]
    fn cdf_points_are_monotone() {
        let mut h = LatencyHistogram::new();
        for v in [5u64, 1, 9, 3, 7, 2, 8] {
            h.record(us(v));
        }
        let points = h.cdf_points(5);
        assert_eq!(points.len(), 5);
        for pair in points.windows(2) {
            assert!(pair[1].0 >= pair[0].0);
            assert!(pair[1].1 >= pair[0].1);
        }
        assert!((points.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    fn histogram(samples: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &s in samples {
            h.record(Nanos::from_nanos(s));
        }
        h
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = histogram(&[5, 1, 9, 1, 3]);
        let b = histogram(&[1, 3, 9, 5, 1]);
        assert_eq!(a, b);
        let mut merged = histogram(&[9, 1]);
        merged.merge(&histogram(&[3, 5, 1]));
        assert_eq!(merged, a);
    }

    #[test]
    fn equality_ignores_a_query_having_sorted_one_side() {
        let mut a = histogram(&[7, 2, 8, 2]);
        let b = histogram(&[2, 8, 7, 2]);
        let _ = a.percentile(99.0);
        assert_eq!(a, b);
        assert_eq!(b, a);
    }

    #[test]
    fn equality_covers_samples_of_2_32_ns_and_above() {
        let big = 1u64 << 32;
        let a = histogram(&[u64::MAX, 3, big, big + 1]);
        let mut b = histogram(&[big + 1, big, 3, u64::MAX]);
        let _ = b.median();
        assert_eq!(a, b);
        assert_ne!(a, histogram(&[u64::MAX, 3, big, big + 2]));
        // u32::MAX stays in the small list, 2³² moves to the large one.
        assert_ne!(histogram(&[u64::from(u32::MAX)]), histogram(&[big]));
    }

    #[test]
    fn a_one_sample_difference_is_unequal() {
        let a = histogram(&[1, 2, 3]);
        assert_ne!(a, histogram(&[1, 2, 3, 3]));
        assert_ne!(a, histogram(&[1, 2, 4]));
        assert_ne!(a, histogram(&[1, 2]));
        assert_ne!(LatencyHistogram::new(), histogram(&[0]));
        assert_eq!(LatencyHistogram::new(), LatencyHistogram::default());
    }

    /// Maps a generated `(selector, value)` pair onto a sample: mostly
    /// small latencies with many repeats, some at the 2³² ns boundary and
    /// some far above it. `mix` 0 keeps only samples of 2³² ns and above,
    /// `mix` 1 only smaller ones, and any other value mixes both.
    fn sample_from(mix: u8, selector: u8, value: u64) -> u64 {
        let selector = match mix {
            0 => selector % 2 * 2,
            1 => 3 + selector % 5,
            _ => selector,
        };
        match selector % 8 {
            0 => (1 << 32) + value % (1 << 40),
            1 => (u64::from(u32::MAX) - 1) + value % 3,
            2 => u64::MAX - value % 4,
            3 => value % 16,
            _ => value % 10_000_000,
        }
    }

    /// Reference answers over a plain sorted `Vec<u64>`.
    fn reference_percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    fn reference_cdf_at(sorted: &[u64], t: u64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted.partition_point(|&s| s <= t) as f64 / sorted.len() as f64
    }

    fn reference_cdf_points(sorted: &[u64], points: usize) -> Vec<(Nanos, f64)> {
        if sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let q = i as f64 / points as f64;
                let rank = ((q * (sorted.len() - 1) as f64).round()) as usize;
                (Nanos::from_nanos(sorted[rank]), q)
            })
            .collect()
    }

    proptest! {
        /// Every query answers exactly as over one plain sorted
        /// `Vec<u64>` of the same samples, including samples of 2³² ns
        /// and above, merged histograms and samples recorded after a
        /// query has sorted the lists.
        #[test]
        fn prop_queries_match_a_sorted_vec(
            first in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..300),
            second in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..300),
            late in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..20),
            queries in (proptest::collection::vec(0.0f64..100.0, 1..8), 0usize..40, 0u8..4),
        ) {
            let (ps, points, mix) = queries;
            let to_samples = |pairs: &[(u8, u64)]| -> Vec<u64> {
                pairs.iter().map(|&(sel, v)| sample_from(mix, sel, v)).collect()
            };
            let (first, second, late) = (to_samples(&first), to_samples(&second), to_samples(&late));
            let mut a = LatencyHistogram::new();
            let mut b = LatencyHistogram::default();
            for &s in &first {
                a.record(Nanos::from_nanos(s));
            }
            for &s in &second {
                b.record(Nanos::from_nanos(s));
            }
            // Query first, so the merge and the late samples land on
            // already-sorted lists.
            let _ = a.median();
            a.merge(&b);
            let _ = a.percentile(99.0);
            for &s in &late {
                a.record(Nanos::from_nanos(s));
            }

            let mut sorted: Vec<u64> = first.iter().chain(&second).chain(&late).copied().collect();
            sorted.sort_unstable();
            let sum: u128 = sorted.iter().map(|&s| s as u128).sum();

            prop_assert_eq!(a.len(), sorted.len());
            prop_assert_eq!(a.is_empty(), sorted.is_empty());
            prop_assert_eq!(a.sorted_samples(), sorted.clone());
            for &p in ps.iter().chain(&[0.0, 50.0, 99.0, 100.0]) {
                prop_assert_eq!(a.percentile(p).as_nanos(), reference_percentile(&sorted, p));
            }
            prop_assert_eq!(a.median().as_nanos(), reference_percentile(&sorted, 50.0));
            let mean = if sorted.is_empty() { 0 } else { (sum / sorted.len() as u128) as u64 };
            prop_assert_eq!(a.mean().as_nanos(), mean);
            prop_assert_eq!(a.total().as_nanos(), sum.min(u64::MAX as u128) as u64);
            prop_assert_eq!(a.min().as_nanos(), sorted.first().copied().unwrap_or(0));
            prop_assert_eq!(a.max().as_nanos(), sorted.last().copied().unwrap_or(0));
            let mut thresholds = vec![0, u64::from(u32::MAX), 1 << 32, u64::MAX];
            for &s in sorted.iter().step_by(7) {
                thresholds.extend([s.saturating_sub(1), s, s.saturating_add(1)]);
            }
            for t in thresholds {
                prop_assert_eq!(a.cdf_at(Nanos::from_nanos(t)), reference_cdf_at(&sorted, t));
            }
            prop_assert_eq!(a.cdf_points(points), reference_cdf_points(&sorted, points));
        }

        /// Percentiles are monotone in p and bounded by min/max.
        #[test]
        fn prop_percentiles_monotone(
            samples in proptest::collection::vec(0u64..10_000_000, 1..500),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            let mut h = LatencyHistogram::new();
            for s in &samples {
                h.record(Nanos::from_nanos(*s));
            }
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(h.percentile(lo) <= h.percentile(hi));
            prop_assert!(h.percentile(0.0) >= h.min());
            prop_assert!(h.percentile(100.0) <= h.max());
        }

        /// The CDF is 1.0 at the maximum sample.
        #[test]
        fn prop_cdf_reaches_one(
            samples in proptest::collection::vec(0u64..1_000_000, 1..300),
        ) {
            let mut h = LatencyHistogram::new();
            for s in &samples {
                h.record(Nanos::from_nanos(*s));
            }
            let max = h.max();
            prop_assert!((h.cdf_at(max) - 1.0).abs() < 1e-9);
        }
    }
}
