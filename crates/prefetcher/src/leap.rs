//! The Leap majority-trend prefetcher (`DoPrefetch`, Algorithm 2).
//!
//! On every fault the prefetcher:
//!
//! 1. Records the fault in the process's [`AccessHistory`].
//! 2. Queries the majority trend over the history (Algorithm 1,
//!    [`crate::find_trend`]).
//! 3. Computes the prefetch window size from prefetch-hit feedback and from
//!    whether the faulting page follows the currently known trend
//!    (`PrefetchWindow`).
//! 4. If the window is non-zero, it prefetches `PWsize` pages along the
//!    majority trend; without a current majority it *speculatively*
//!    prefetches around the faulting page using the most recent known trend
//!    so that short-term irregularities do not suspend prefetching outright.

use crate::history::{AccessHistory, DEFAULT_HISTORY_SIZE};
use crate::trend::{find_trend, TrendOutcome, DEFAULT_N_SPLIT};
use crate::types::{Delta, PageAddr, PrefetchDecision, Prefetcher, PrefetcherKind};
use crate::window::{PrefetchWindow, DEFAULT_MAX_WINDOW};

/// Configuration for a [`LeapPrefetcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeapConfig {
    /// `Hsize`: number of deltas kept in the access history (paper default 32).
    pub history_size: usize,
    /// `Nsplit`: the initial trend-detection window is `Hsize / Nsplit`.
    pub n_split: usize,
    /// `PWsize_max`: maximum number of pages prefetched per fault (paper
    /// default 8).
    pub max_prefetch_window: usize,
}

impl Default for LeapConfig {
    fn default() -> Self {
        LeapConfig {
            history_size: DEFAULT_HISTORY_SIZE,
            n_split: DEFAULT_N_SPLIT,
            max_prefetch_window: DEFAULT_MAX_WINDOW,
        }
    }
}

/// The Leap prefetcher: Boyer–Moore majority trend detection plus an adaptive
/// prefetch window (Algorithms 1 and 2 of the paper).
///
/// # Examples
///
/// ```
/// use leap_prefetcher::{LeapConfig, LeapPrefetcher, PageAddr, Prefetcher};
///
/// let mut p = LeapPrefetcher::new(LeapConfig::default());
/// // Sequential faults build a +1 trend; after a few faults the prefetcher
/// // proposes the next page(s).
/// let mut decision = Default::default();
/// for i in 0..8u64 {
///     decision = p.on_fault(PageAddr(i));
/// }
/// assert!(decision.contains(PageAddr(8)));
/// ```
#[derive(Debug, Clone)]
pub struct LeapPrefetcher {
    config: LeapConfig,
    /// The process's delta ring; [`crate::find_trend`] scans it on every
    /// fault, and a prefetch hit only records into it.
    history: AccessHistory,
    window: PrefetchWindow,
    /// The most recent majority delta ever observed (`latest ∆maj`), used for
    /// speculative prefetching when the current window has no majority and
    /// for the "does Pt follow the current trend" test.
    last_known_trend: Option<Delta>,
}

impl LeapPrefetcher {
    /// Creates a prefetcher with the given configuration.
    pub fn new(config: LeapConfig) -> Self {
        LeapPrefetcher {
            config,
            history: AccessHistory::new(config.history_size),
            window: PrefetchWindow::new(config.max_prefetch_window),
            last_known_trend: None,
        }
    }

    /// The most recent majority trend observed, if any.
    pub fn last_known_trend(&self) -> Option<Delta> {
        self.last_known_trend
    }

    /// Read-only view of the access history.
    #[cfg(test)]
    pub(crate) fn history(&self) -> &AccessHistory {
        &self.history
    }

    /// Generates candidate pages following `delta` starting *after* `from`.
    ///
    /// The candidates land in the decision's inline buffer, so windows up to
    /// [`crate::INLINE_DECISION_PAGES`] pages never touch the heap.
    fn candidates_along(from: PageAddr, delta: Delta, count: usize) -> PrefetchDecision {
        // A zero delta would endlessly re-prefetch the same page; treat it as
        // a +1 sequential run, which is what the kernel's swap readahead does
        // for repeated accesses to neighbouring slots.
        let step = if delta == Delta::ZERO {
            Delta(1)
        } else {
            delta
        };
        let mut out = PrefetchDecision::none();
        let mut cur = from;
        for _ in 0..count {
            let next = cur.offset(step);
            if next == cur {
                // Saturated at the address-space edge; stop early.
                break;
            }
            out.push(next);
            cur = next;
        }
        out
    }

    /// Generates candidates *around* `from` using the latest known trend
    /// (speculative prefetch, Algorithm 2 line 25): alternating pages ahead
    /// of and behind the faulting page along the previous trend direction.
    fn candidates_around(from: PageAddr, delta: Delta, count: usize) -> PrefetchDecision {
        let step = if delta == Delta::ZERO {
            Delta(1)
        } else {
            delta
        };
        let mut out = PrefetchDecision::none();
        let mut ahead = from;
        let mut behind = from;
        while out.len() < count {
            let next_ahead = ahead.offset(step);
            let ahead_moved = next_ahead != ahead;
            if ahead_moved {
                out.push(next_ahead);
                ahead = next_ahead;
            }
            if out.len() >= count {
                break;
            }
            let next_behind = behind.offset(Delta(-step.0));
            let behind_moved = next_behind != behind;
            if behind_moved {
                out.push(next_behind);
                behind = next_behind;
            }
            if !ahead_moved && !behind_moved {
                // Both directions saturated; nothing more to generate.
                break;
            }
        }
        out
    }
}

impl Default for LeapPrefetcher {
    fn default() -> Self {
        LeapPrefetcher::new(LeapConfig::default())
    }
}

impl Prefetcher for LeapPrefetcher {
    fn on_fault(&mut self, addr: PageAddr) -> PrefetchDecision {
        let delta = self.history.record(addr);

        // Algorithm 1: the majority trend over the recent history.
        let trend = find_trend(&self.history, self.config.n_split);

        // "Pt follows the current trend" (Algorithm 2 line 6): the delta that
        // brought us to Pt matches the majority delta currently in effect —
        // the freshly detected one if it exists, otherwise the last known one.
        let effective_trend = trend.delta().or(self.last_known_trend);
        let follows_trend = effective_trend == Some(delta);

        let pw_size = self.window.update(follows_trend);
        if pw_size == 0 {
            if let TrendOutcome::Trend { delta: d, .. } = trend {
                self.last_known_trend = Some(d);
            }
            return PrefetchDecision::none();
        }

        match trend {
            TrendOutcome::Trend {
                delta: major_delta, ..
            } => {
                self.last_known_trend = Some(major_delta);
                Self::candidates_along(addr, major_delta, pw_size)
            }
            TrendOutcome::NoTrend => {
                // Speculative prefetch around Pt with the latest known trend.
                let latest = self.last_known_trend.unwrap_or(Delta(1));
                let mut decision = Self::candidates_around(addr, latest, pw_size);
                decision.speculative = true;
                decision
            }
        }
    }

    fn on_prefetch_hit(&mut self, addr: PageAddr) {
        // A hit in the prefetch cache is still a page fault in the kernel
        // (the PTE is not present; `do_swap_page()` finds the page in the
        // swap cache), so it is logged in the access history exactly like a
        // miss. It additionally counts towards `Chit` for window sizing.
        self.history.record(addr);
        self.window.record_hit();
    }

    fn name(&self) -> &'static str {
        PrefetcherKind::Leap.label()
    }

    fn reset(&mut self) {
        self.history.clear();
        self.window.reset();
        self.last_known_trend = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drives the prefetcher over a trace, feeding back hits for any page
    /// that a later fault demanded while it sat in the simulated cache.
    /// Returns (total prefetched, prefetched pages that were later faulted).
    fn replay(prefetcher: &mut LeapPrefetcher, trace: &[u64]) -> (usize, usize) {
        use std::collections::HashSet;
        let mut cache: HashSet<PageAddr> = HashSet::new();
        let mut prefetched_total = 0usize;
        let mut useful = 0usize;
        for &addr in trace {
            let addr = PageAddr(addr);
            if cache.remove(&addr) {
                useful += 1;
                prefetcher.on_prefetch_hit(addr);
                continue;
            }
            let decision = prefetcher.on_fault(addr);
            prefetched_total += decision.len();
            for p in decision.iter() {
                cache.insert(*p);
            }
        }
        (prefetched_total, useful)
    }

    #[test]
    fn sequential_trace_reaches_high_coverage() {
        let trace: Vec<u64> = (0..2_000).collect();
        let mut p = LeapPrefetcher::default();
        let (prefetched, useful) = replay(&mut p, &trace);
        assert!(prefetched > 0);
        // The vast majority of sequential accesses must be served by
        // prefetches once the trend is locked in. The steady state with
        // PWsize_max = 8 is one miss per 9 accesses (~89 % coverage).
        assert!(
            useful as f64 > 0.85 * trace.len() as f64,
            "useful={useful} out of {}",
            trace.len()
        );
    }

    #[test]
    fn stride_trace_detected_like_sequential() {
        let trace: Vec<u64> = (0..2_000).map(|i| 10 * i).collect();
        let mut p = LeapPrefetcher::default();
        let (_, useful) = replay(&mut p, &trace);
        assert!(
            useful as f64 > 0.85 * trace.len() as f64,
            "useful={useful} out of {}",
            trace.len()
        );
        assert_eq!(p.last_known_trend(), Some(Delta(10)));
    }

    #[test]
    fn random_trace_throttles_prefetching() {
        // A pseudo-random walk with no repeating delta: the window must decay
        // and most decisions must be suspensions rather than cache pollution.
        let mut x: u64 = 1_000_000;
        let trace: Vec<u64> = (0..2_000u64)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                1_000_000 + (x >> 33) % 1_000_000 + i
            })
            .collect();
        let mut p = LeapPrefetcher::default();
        let (prefetched, _) = replay(&mut p, &trace);
        // Pollution must stay well below one page per fault.
        assert!(
            (prefetched as f64) < 0.5 * trace.len() as f64,
            "prefetched {prefetched} pages on a random trace of {}",
            trace.len()
        );
    }

    #[test]
    fn trend_shift_is_adopted() {
        let mut p = LeapPrefetcher::default();
        // Descending by 3 for a while, then ascending by 2 (Figure 5's story).
        let mut trace: Vec<u64> = (0..40).map(|i| 10_000 - 3 * i).collect();
        trace.extend((0..40).map(|i| 20_000 + 2 * i));
        for &a in &trace {
            let _ = p.on_fault(PageAddr(a));
        }
        assert_eq!(p.last_known_trend(), Some(Delta(2)));
    }

    #[test]
    fn speculative_prefetch_reuses_previous_trend() {
        // Small history so a burst of irregular accesses really erases the
        // current majority, exercising the speculative path.
        let config = LeapConfig {
            history_size: 8,
            n_split: 2,
            max_prefetch_window: 8,
        };
        let mut p = LeapPrefetcher::new(config);
        // Establish a +4 trend.
        for i in 0..16u64 {
            let _ = p.on_fault(PageAddr(100 + 4 * i));
        }
        assert_eq!(p.last_known_trend(), Some(Delta(4)));
        // A burst of irregular faults (all distinct deltas), interleaved with
        // hits on pages that continue the old +4 stride (as if they had been
        // prefetched). The hits keep the window open; once enough irregular
        // deltas fill the 8-entry history there is no current majority and
        // decisions become speculative, reusing the remembered +4 trend.
        let irregular = [1_000_003u64, 55, 777_777, 123_456, 42, 999_999, 31_337];
        let mut saw_speculative = false;
        for (k, &a) in irregular.iter().enumerate() {
            p.on_prefetch_hit(PageAddr(164 + 4 * k as u64));
            let d = p.on_fault(PageAddr(a));
            if d.speculative && !d.is_empty() {
                saw_speculative = true;
            }
        }
        assert!(
            saw_speculative,
            "expected at least one speculative decision"
        );
    }

    #[test]
    fn suspension_happens_without_hits_or_trend() {
        let mut p = LeapPrefetcher::default();
        // Irregular faults, never any prefetch hit: after the initial window
        // decays, decisions must be empty.
        let mut empties = 0;
        for i in 0..64u64 {
            let addr = (i * 7919 + i * i * 104729) % 1_000_000;
            let d = p.on_fault(PageAddr(addr));
            if d.is_empty() {
                empties += 1;
            }
        }
        assert!(empties > 48, "only {empties} of 64 decisions were empty");
    }

    #[test]
    fn candidates_along_skips_zero_delta() {
        let c = LeapPrefetcher::candidates_along(PageAddr(10), Delta(0), 3);
        assert_eq!(c.pages(), &[PageAddr(11), PageAddr(12), PageAddr(13)]);
    }

    #[test]
    fn candidates_around_alternates_directions() {
        let c = LeapPrefetcher::candidates_around(PageAddr(100), Delta(2), 4);
        assert_eq!(
            c.pages(),
            &[PageAddr(102), PageAddr(98), PageAddr(104), PageAddr(96)]
        );
    }

    #[test]
    fn candidates_saturate_at_address_space_edge() {
        let c = LeapPrefetcher::candidates_along(PageAddr(2), Delta(-3), 4);
        // 2 → saturates to 0, then stops because it cannot move further.
        assert_eq!(c.pages(), &[PageAddr(0)]);
        let c = LeapPrefetcher::candidates_around(PageAddr(0), Delta(-1), 4);
        // "Ahead" (delta -1) saturates instantly; only the +1 direction yields pages.
        assert!(!c.is_empty());
        assert!(c.iter().all(|p| p.0 <= 4));
    }

    #[test]
    fn reset_clears_state() {
        let mut p = LeapPrefetcher::default();
        for i in 0..20u64 {
            let _ = p.on_fault(PageAddr(i));
        }
        p.reset();
        assert_eq!(p.last_known_trend(), None);
        assert!(p.history().is_empty());
    }

    #[test]
    fn name_is_leap() {
        assert_eq!(
            LeapPrefetcher::default().name(),
            PrefetcherKind::Leap.label()
        );
    }

    proptest! {
        /// The prefetch decision never exceeds the configured maximum window.
        #[test]
        fn prop_decision_respects_max_window(
            max_window in 1usize..16,
            trace in proptest::collection::vec(0u64..100_000, 1..300),
        ) {
            let config = LeapConfig { max_prefetch_window: max_window, ..LeapConfig::default() };
            let mut p = LeapPrefetcher::new(config);
            for &a in &trace {
                let d = p.on_fault(PageAddr(a));
                prop_assert!(d.len() <= max_window);
            }
        }

        /// The prefetcher never proposes the faulting page itself.
        #[test]
        fn prop_never_prefetches_the_demanded_page(
            trace in proptest::collection::vec(1u64..100_000, 1..300),
        ) {
            let mut p = LeapPrefetcher::default();
            for &a in &trace {
                let d = p.on_fault(PageAddr(a));
                prop_assert!(!d.contains(PageAddr(a)));
            }
        }

        /// Candidate lists never contain duplicates.
        #[test]
        fn prop_no_duplicate_candidates(
            trace in proptest::collection::vec(0u64..100_000, 1..300),
        ) {
            let mut p = LeapPrefetcher::default();
            for &a in &trace {
                let d = p.on_fault(PageAddr(a));
                let mut seen = std::collections::HashSet::new();
                for page in d.iter() {
                    prop_assert!(seen.insert(*page), "duplicate candidate {page:?}");
                }
            }
        }

        /// Replaying any trace never leaves the window above its maximum and
        /// never panics (covers hit-feedback interleavings).
        #[test]
        fn prop_replay_never_panics(
            trace in proptest::collection::vec(0u64..10_000, 0..400),
        ) {
            let mut p = LeapPrefetcher::default();
            let _ = replay(&mut p, &trace);
        }
    }
}
