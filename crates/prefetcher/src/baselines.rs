//! Baseline prefetchers the paper compares Leap against (§5.2.3):
//! Next-N-Line, Stride, a Linux-style Read-Ahead, and a no-prefetch baseline.

use crate::types::{Delta, PageAddr, PrefetchDecision, Prefetcher, PrefetcherKind};

/// Default aggressiveness of the Next-N-Line baseline (pages per fault).
pub(crate) const DEFAULT_NEXT_N: usize = 8;
/// Default maximum window of the Stride and Read-Ahead baselines.
pub(crate) const DEFAULT_BASELINE_MAX_WINDOW: usize = 8;

/// A prefetcher that never prefetches anything.
///
/// Used to isolate raw data-path latency from prefetching effects.
#[derive(Debug, Clone, Default)]
pub struct NoPrefetcher;

impl Prefetcher for NoPrefetcher {
    fn on_fault(&mut self, _addr: PageAddr) -> PrefetchDecision {
        PrefetchDecision::none()
    }

    fn on_prefetch_hit(&mut self, _addr: PageAddr) {}

    fn name(&self) -> &'static str {
        PrefetcherKind::None.label()
    }

    fn reset(&mut self) {}
}

/// Next-N-Line prefetching: on every fault at page `P`, bring in the next `N`
/// sequentially following pages unconditionally.
///
/// This is the most aggressive baseline: it never throttles, so it has high
/// coverage on sequential workloads but pollutes the cache heavily on stride
/// or irregular ones (Figure 9a of the paper).
#[derive(Debug, Clone)]
pub struct NextNLinePrefetcher {
    n: usize,
    faults: u64,
}

impl NextNLinePrefetcher {
    /// Creates a Next-N-Line prefetcher fetching `n` pages per fault.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "NextNLinePrefetcher needs n > 0");
        NextNLinePrefetcher { n, faults: 0 }
    }
}

impl Default for NextNLinePrefetcher {
    fn default() -> Self {
        NextNLinePrefetcher::new(DEFAULT_NEXT_N)
    }
}

impl Prefetcher for NextNLinePrefetcher {
    fn on_fault(&mut self, addr: PageAddr) -> PrefetchDecision {
        self.faults += 1;
        PrefetchDecision::pages_from(
            (1..=self.n as u64).map(|i| PageAddr(addr.0.saturating_add(i))),
        )
    }

    fn on_prefetch_hit(&mut self, _addr: PageAddr) {}

    fn name(&self) -> &'static str {
        PrefetcherKind::NextNLine.label()
    }

    fn reset(&mut self) {
        self.faults = 0;
    }
}

/// Stride prefetching (Baer and Chen): derive the stride from the last two
/// faults and, if it is stable, prefetch along it. The aggressiveness
/// (number of pages) scales with how accurate recent prefetches were.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    max_window: usize,
    last_addr: Option<PageAddr>,
    last_stride: Option<Delta>,
    /// Confidence counter: incremented when the observed stride repeats,
    /// decremented otherwise (2-bit-saturating-counter flavour).
    confidence: u32,
    /// Hits since the last prefetch, used to scale the window.
    hits_since_last: usize,
    current_window: usize,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with the given maximum window.
    ///
    /// # Panics
    ///
    /// Panics if `max_window` is zero.
    pub fn new(max_window: usize) -> Self {
        assert!(max_window > 0, "StridePrefetcher needs max_window > 0");
        StridePrefetcher {
            max_window,
            last_addr: None,
            last_stride: None,
            confidence: 0,
            hits_since_last: 0,
            current_window: 1,
        }
    }
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        StridePrefetcher::new(DEFAULT_BASELINE_MAX_WINDOW)
    }
}

impl Prefetcher for StridePrefetcher {
    fn on_fault(&mut self, addr: PageAddr) -> PrefetchDecision {
        let stride = self.last_addr.map(|prev| addr.delta_from(prev));
        let decision = match (stride, self.last_stride) {
            (Some(s), Some(prev)) if s == prev && s != Delta::ZERO => {
                // Stride confirmed: grow confidence and the window.
                self.confidence = (self.confidence + 1).min(3);
                let grow = if self.hits_since_last > 0 {
                    (self.hits_since_last + 1).next_power_of_two()
                } else {
                    self.current_window.max(1) * 2
                };
                self.current_window = grow.min(self.max_window).max(1);
                let mut pages = PrefetchDecision::none();
                let mut cur = addr;
                for _ in 0..self.current_window {
                    let next = cur.offset(s);
                    if next == cur {
                        break;
                    }
                    pages.push(next);
                    cur = next;
                }
                pages
            }
            (Some(s), _) if s != Delta::ZERO => {
                // New candidate stride: low confidence, prefetch a single page.
                self.confidence = self.confidence.saturating_sub(1);
                self.current_window = 1;
                if self.confidence > 0 {
                    PrefetchDecision::pages_from([addr.offset(s)])
                } else {
                    PrefetchDecision::none()
                }
            }
            _ => {
                self.confidence = self.confidence.saturating_sub(1);
                self.current_window = 1;
                PrefetchDecision::none()
            }
        };
        if let Some(s) = stride {
            self.last_stride = Some(s);
        }
        self.last_addr = Some(addr);
        self.hits_since_last = 0;
        decision
    }

    fn on_prefetch_hit(&mut self, _addr: PageAddr) {
        self.hits_since_last += 1;
    }

    fn name(&self) -> &'static str {
        PrefetcherKind::Stride.label()
    }

    fn reset(&mut self) {
        self.last_addr = None;
        self.last_stride = None;
        self.confidence = 0;
        self.hits_since_last = 0;
        self.current_window = 1;
    }
}

/// A Linux-style Read-Ahead prefetcher.
///
/// Mirrors the behaviour described in §2.3 of the paper: the decision is
/// driven by the last two faults and the prefetch hit count. Two consecutive
/// faults on consecutive pages start (and keep doubling) a readahead window
/// that is read *ahead* of the faulting page. A fault that lands just past
/// the previously read-ahead window while that window was being consumed
/// (hits since the last fault) is treated as a continuation — this models the
/// kernel's readahead marker, which is what lets Linux sustain ~80 % hits on
/// purely sequential streams. Any other fault is treated pessimistically: the
/// window shrinks if recent prefetches were used and collapses to zero
/// otherwise.
#[derive(Debug, Clone)]
pub struct ReadAheadPrefetcher {
    max_window: usize,
    last_addr: Option<PageAddr>,
    window: usize,
    hits_since_last: usize,
}

impl ReadAheadPrefetcher {
    /// Creates a read-ahead prefetcher with the given maximum window
    /// (Linux's default swap readahead window is 8 pages, `page-cluster` 3).
    ///
    /// # Panics
    ///
    /// Panics if `max_window` is zero.
    pub fn new(max_window: usize) -> Self {
        assert!(max_window > 0, "ReadAheadPrefetcher needs max_window > 0");
        ReadAheadPrefetcher {
            max_window,
            last_addr: None,
            window: 0,
            hits_since_last: 0,
        }
    }

    /// The current readahead window size.
    #[cfg(test)]
    pub(crate) fn window(&self) -> usize {
        self.window
    }
}

impl Default for ReadAheadPrefetcher {
    fn default() -> Self {
        ReadAheadPrefetcher::new(DEFAULT_BASELINE_MAX_WINDOW)
    }
}

impl Prefetcher for ReadAheadPrefetcher {
    fn on_fault(&mut self, addr: PageAddr) -> PrefetchDecision {
        let delta = self.last_addr.map(|prev| addr.delta_from(prev));
        self.last_addr = Some(addr);

        // A strict +1/-1 step, or a fault that lands just past the window we
        // read ahead while that window was being consumed (the readahead
        // marker case), counts as a sequential continuation.
        let continuation = match delta {
            Some(d) if d.is_sequential() => true,
            Some(Delta(d)) => self.hits_since_last > 0 && d > 0 && (d as usize) <= self.window + 1,
            None => false,
        };

        if continuation {
            // Optimistic: double the window (start at 2) up to the maximum.
            self.window = if self.window == 0 {
                2
            } else {
                (self.window * 2).min(self.max_window)
            };
        } else if self.hits_since_last > 0 {
            // Recent prefetches were useful: keep a reduced window open.
            self.window = (self.window / 2).max(1);
        } else {
            // Pessimistic: assume no pattern and stop prefetching.
            self.window = 0;
        }
        self.hits_since_last = 0;

        if self.window == 0 {
            return PrefetchDecision::none();
        }

        // Read the window ahead of the faulting page.
        PrefetchDecision::pages_from(
            (1..=self.window as u64)
                .map(|i| PageAddr(addr.0.saturating_add(i)))
                .filter(|&p| p != addr),
        )
    }

    fn on_prefetch_hit(&mut self, _addr: PageAddr) {
        self.hits_since_last += 1;
    }

    fn name(&self) -> &'static str {
        PrefetcherKind::ReadAhead.label()
    }

    fn reset(&mut self) {
        self.last_addr = None;
        self.window = 0;
        self.hits_since_last = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_prefetcher_never_prefetches() {
        let mut p = NoPrefetcher;
        for i in 0..100u64 {
            assert!(p.on_fault(PageAddr(i)).is_empty());
        }
        assert_eq!(p.name(), PrefetcherKind::None.label());
    }

    #[test]
    fn next_n_line_always_prefetches_n() {
        let mut p = NextNLinePrefetcher::new(4);
        let d = p.on_fault(PageAddr(100));
        assert_eq!(
            d.pages(),
            &[PageAddr(101), PageAddr(102), PageAddr(103), PageAddr(104)]
        );
        // Even on a wildly irregular fault it still prefetches (that is the
        // pathology the paper calls cache pollution).
        let d = p.on_fault(PageAddr(1_000_000));
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn next_n_line_default_is_eight() {
        let mut p = NextNLinePrefetcher::default();
        assert_eq!(p.on_fault(PageAddr(0)).len(), 8);
    }

    #[test]
    fn stride_prefetcher_locks_onto_stride() {
        let mut p = StridePrefetcher::default();
        let mut last = PrefetchDecision::none();
        for i in 0..10u64 {
            last = p.on_fault(PageAddr(1000 + 7 * i));
        }
        assert!(!last.is_empty());
        assert_eq!(last.pages()[0], PageAddr(1000 + 7 * 9 + 7));
    }

    #[test]
    fn stride_prefetcher_goes_quiet_on_random() {
        let mut p = StridePrefetcher::default();
        let addrs = [5u64, 9_000, 3, 77_000, 42, 123_456, 7, 88_888];
        let mut total = 0;
        for &a in &addrs {
            total += p.on_fault(PageAddr(a)).len();
        }
        assert_eq!(
            total, 0,
            "stride prefetcher must stay quiet on random accesses"
        );
    }

    #[test]
    fn stride_prefetcher_handles_negative_stride() {
        let mut p = StridePrefetcher::default();
        let mut last = PrefetchDecision::none();
        for i in 0..10u64 {
            last = p.on_fault(PageAddr(100_000 - 5 * i));
        }
        assert!(!last.is_empty());
        assert_eq!(last.pages()[0], PageAddr(100_000 - 5 * 9 - 5));
    }

    #[test]
    fn read_ahead_grows_on_sequential() {
        let mut p = ReadAheadPrefetcher::new(8);
        let mut sizes = Vec::new();
        for i in 0..8u64 {
            let d = p.on_fault(PageAddr(i));
            sizes.push(d.len());
        }
        // First fault: no pattern yet. Then the window doubles 2, 4, 8, 8...
        assert_eq!(p.window(), 8);
        assert!(sizes[sizes.len() - 1] >= 7, "sizes = {sizes:?}");
    }

    #[test]
    fn read_ahead_stops_on_stride() {
        // Stride-10 defeats Linux-style readahead: the last two faults are
        // never consecutive, so the window collapses (the Figure 2 story).
        let mut p = ReadAheadPrefetcher::new(8);
        let mut total = 0;
        for i in 0..100u64 {
            total += p.on_fault(PageAddr(10 * i)).len();
        }
        assert_eq!(total, 0);
    }

    #[test]
    fn read_ahead_hits_keep_window_open() {
        let mut p = ReadAheadPrefetcher::new(8);
        // Build up the window with sequential faults.
        for i in 0..4u64 {
            let _ = p.on_fault(PageAddr(i));
        }
        assert!(p.window() >= 4);
        // A non-sequential fault with recent hits halves the window instead
        // of zeroing it.
        p.on_prefetch_hit(PageAddr(4));
        let d = p.on_fault(PageAddr(1_000));
        assert!(p.window() >= 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn read_ahead_reads_ahead_of_the_fault() {
        let mut p = ReadAheadPrefetcher::new(8);
        let _ = p.on_fault(PageAddr(16));
        let d = p.on_fault(PageAddr(17));
        // Window is 2; the two pages after the faulting page are read ahead.
        assert_eq!(d.pages(), &[PageAddr(18), PageAddr(19)]);
    }

    #[test]
    fn read_ahead_marker_sustains_sequential_streams() {
        // Replay a purely sequential access stream with a cache model: the
        // steady-state hit ratio must be around 80 % or better (the paper's
        // §2.2 observation for prefetch size 8).
        use std::collections::HashSet;
        let mut p = ReadAheadPrefetcher::new(8);
        let mut cache: HashSet<PageAddr> = HashSet::new();
        let mut hits = 0usize;
        let total = 2_000u64;
        for page in 0..total {
            let addr = PageAddr(page);
            if cache.remove(&addr) {
                hits += 1;
                p.on_prefetch_hit(addr);
                continue;
            }
            for c in p.on_fault(addr).iter() {
                cache.insert(*c);
            }
        }
        let ratio = hits as f64 / total as f64;
        assert!(ratio > 0.75, "sequential readahead hit ratio {ratio}");
    }

    #[test]
    fn resets_clear_state() {
        let mut stride = StridePrefetcher::default();
        let mut ra = ReadAheadPrefetcher::default();
        for i in 0..10u64 {
            let _ = stride.on_fault(PageAddr(2 * i));
            let _ = ra.on_fault(PageAddr(i));
        }
        stride.reset();
        ra.reset();
        // The stride is forgotten: a first fault has nothing to follow.
        assert!(stride.on_fault(PageAddr(100)).is_empty());
        assert_eq!(ra.window(), 0);
    }

    #[test]
    fn names_are_correct() {
        assert_eq!(
            NextNLinePrefetcher::default().name(),
            PrefetcherKind::NextNLine.label()
        );
        assert_eq!(
            StridePrefetcher::default().name(),
            PrefetcherKind::Stride.label()
        );
        assert_eq!(
            ReadAheadPrefetcher::default().name(),
            PrefetcherKind::ReadAhead.label()
        );
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn next_n_line_rejects_zero() {
        let _ = NextNLinePrefetcher::new(0);
    }

    proptest! {
        #[test]
        fn prop_next_n_line_count_is_constant(
            n in 1usize..32,
            addrs in proptest::collection::vec(0u64..1_000_000, 1..100),
        ) {
            let mut p = NextNLinePrefetcher::new(n);
            for &a in &addrs {
                prop_assert_eq!(p.on_fault(PageAddr(a)).len(), n);
            }
        }

        #[test]
        fn prop_stride_never_exceeds_max_window(
            max in 1usize..32,
            addrs in proptest::collection::vec(0u64..1_000_000, 1..200),
        ) {
            let mut p = StridePrefetcher::new(max);
            for &a in &addrs {
                prop_assert!(p.on_fault(PageAddr(a)).len() <= max);
            }
        }

        #[test]
        fn prop_read_ahead_never_exceeds_max_window(
            max in 1usize..32,
            addrs in proptest::collection::vec(0u64..1_000_000, 1..200),
        ) {
            let mut p = ReadAheadPrefetcher::new(max);
            for &a in &addrs {
                prop_assert!(p.on_fault(PageAddr(a)).len() <= max);
            }
        }

        #[test]
        fn prop_baselines_never_prefetch_demanded_page(
            addrs in proptest::collection::vec(1u64..1_000_000, 1..150),
        ) {
            let mut prefetchers: Vec<Box<dyn Prefetcher>> = vec![
                Box::new(NextNLinePrefetcher::default()),
                Box::new(StridePrefetcher::default()),
                Box::new(ReadAheadPrefetcher::default()),
            ];
            for &a in &addrs {
                for p in prefetchers.iter_mut() {
                    let d = p.on_fault(PageAddr(a));
                    prop_assert!(!d.contains(PageAddr(a)));
                }
            }
        }
    }
}
