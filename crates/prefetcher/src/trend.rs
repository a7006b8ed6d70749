//! Trend detection (`FindTrend`, Algorithm 1 of the paper).
//!
//! Given a process's [`AccessHistory`], `FindTrend` looks for a *majority*
//! delta inside a detection window anchored at the head (most recent access).
//! It starts with a small window of `Hsize / Nsplit` entries and doubles the
//! window until either a majority delta appears or the window exceeds the
//! whole history, in which case no trend exists.
//!
//! Starting small keeps the common case cheap (a regular stream is majority-
//! dominated in any sub-window) while doubling makes the detector robust to
//! short-term irregularities: a window of size `w` tolerates up to
//! `⌊w/2⌋ − 1` interleaved outliers.

use crate::history::AccessHistory;
use crate::types::Delta;

/// Default number of splits of the history used to size the initial
/// detection window (`Nsplit` in Algorithm 1).
pub(crate) const DEFAULT_N_SPLIT: usize = 4;

/// The outcome of a trend-detection attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendOutcome {
    /// A majority delta was found within some detection window.
    Trend {
        /// The majority delta.
        delta: Delta,
        /// The window size in which the majority was first detected.
        window: usize,
    },
    /// No majority delta exists in any window up to the full history.
    NoTrend,
}

impl TrendOutcome {
    /// Returns the detected majority delta, if any.
    pub fn delta(self) -> Option<Delta> {
        match self {
            TrendOutcome::Trend { delta, .. } => Some(delta),
            TrendOutcome::NoTrend => None,
        }
    }
}

/// Runs `FindTrend` over a history with the given `Nsplit`.
///
/// The detection window grows geometrically: `Hsize/Nsplit`, then double
/// that, and so on until it covers the whole recorded history. Elements are
/// consumed exactly once across all window growths (streaming Boyer–Moore
/// vote), so the worst case is `O(Hsize)` time and `O(1)` extra space,
/// matching the complexity analysis in §3.3 of the paper.
///
/// # Examples
///
/// ```
/// use leap_prefetcher::{find_trend, AccessHistory, Delta, PageAddr};
///
/// let mut h = AccessHistory::new(8);
/// for addr in [0x48u64, 0x45, 0x42, 0x3F] {
///     h.record(PageAddr(addr));
/// }
/// let outcome = find_trend(&h, 2);
/// assert_eq!(outcome.delta(), Some(Delta(-3)));
/// ```
pub fn find_trend(history: &AccessHistory, n_split: usize) -> TrendOutcome {
    let n_split = n_split.max(1);
    let h_len = history.len();
    if h_len == 0 {
        return TrendOutcome::NoTrend;
    }

    // Initial window: Hsize / Nsplit, but at least 1 and at most the number
    // of recorded entries.
    let mut window = (history.capacity() / n_split).max(1).min(h_len);

    // The newest deltas, oldest first: a window of `w` deltas is the last
    // `w` of them. The Boyer–Moore vote consumes each delta exactly once even
    // as the window doubles ("searching in a new window does not need to
    // start from the beginning"); verification re-counts only the current
    // window, which is the cheap second pass of Boyer–Moore.
    let recent = history.newest(h_len);
    let (mut candidate, mut votes, mut voted) = (Delta::ZERO, 0usize, 0usize);
    loop {
        // Feed the deltas that extend the previous window, newest first.
        for &delta in recent[h_len - window..h_len - voted].iter().rev() {
            if votes == 0 {
                candidate = delta;
                votes = 1;
            } else if delta == candidate {
                votes += 1;
            } else {
                votes -= 1;
            }
        }
        voted = window;
        let window_deltas = &recent[h_len - window..];
        if window_deltas.iter().filter(|&&d| d == candidate).count() > window / 2 {
            return TrendOutcome::Trend {
                delta: candidate,
                window,
            };
        }
        if window >= h_len {
            return TrendOutcome::NoTrend;
        }
        window = (window * 2).min(h_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PageAddr;
    use proptest::prelude::*;

    fn history_from_addrs(capacity: usize, addrs: &[u64]) -> AccessHistory {
        let mut h = AccessHistory::new(capacity);
        for &a in addrs {
            h.record(PageAddr(a));
        }
        h
    }

    /// Algorithm 1 by brute force: every window of the doubling ladder, in
    /// order, checked by counting each of its deltas over the whole window.
    fn brute_force_trend(history: &AccessHistory, n_split: usize) -> TrendOutcome {
        let recent: Vec<Delta> = history
            .newest(history.len())
            .iter()
            .rev()
            .copied()
            .collect();
        if recent.is_empty() {
            return TrendOutcome::NoTrend;
        }
        let mut window = (history.capacity() / n_split.max(1)).max(1);
        loop {
            let w = window.min(recent.len());
            let slice = &recent[..w];
            if let Some(&delta) = slice
                .iter()
                .find(|&&d| slice.iter().filter(|&&x| x == d).count() > w / 2)
            {
                return TrendOutcome::Trend { delta, window: w };
            }
            if w == recent.len() {
                return TrendOutcome::NoTrend;
            }
            window *= 2;
        }
    }

    #[test]
    fn empty_history_has_no_trend() {
        let h = AccessHistory::new(8);
        assert_eq!(find_trend(&h, 2), TrendOutcome::NoTrend);
    }

    #[test]
    fn steady_stride_detected_in_small_window() {
        let addrs: Vec<u64> = (0..16).map(|i| 1000 + 7 * i).collect();
        let h = history_from_addrs(32, &addrs);
        let outcome = find_trend(&h, 4);
        assert_eq!(outcome.delta(), Some(Delta(7)));
        match outcome {
            TrendOutcome::Trend { window, .. } => {
                assert!(window <= 8, "expected small window, got {window}")
            }
            TrendOutcome::NoTrend => panic!("expected trend"),
        }
    }

    #[test]
    fn figure5_time_t3_detects_minus_three() {
        // Figure 5a: after 0x48, 0x45, 0x42, 0x3F the majority delta is -3.
        let h = history_from_addrs(8, &[0x48, 0x45, 0x42, 0x3F]);
        assert_eq!(find_trend(&h, 2).delta(), Some(Delta(-3)));
    }

    #[test]
    fn figure5_time_t7_finds_no_majority() {
        // Figure 5b: at t7 the window holds +72(0 for the first), -3, -3, -3,
        // -3, -58, +2, +2 — neither the small window (t4–t7) nor the full
        // window has a strict majority.
        let h = history_from_addrs(8, &[0x48, 0x45, 0x42, 0x3F, 0x3C, 0x02, 0x04, 0x06]);
        assert_eq!(find_trend(&h, 2), TrendOutcome::NoTrend);
    }

    #[test]
    fn figure5_time_t8_adapts_to_new_trend() {
        // Figure 5c: one more access (0x08) makes +2 the majority of the
        // most-recent window (t5–t8).
        let h = history_from_addrs(8, &[0x48, 0x45, 0x42, 0x3F, 0x3C, 0x02, 0x04, 0x06, 0x08]);
        assert_eq!(find_trend(&h, 2).delta(), Some(Delta(2)));
    }

    #[test]
    fn figure5_time_t15_ignores_short_term_irregularity() {
        // Figure 5d: the two irregular jumps at t12/t13 do not break the +2
        // majority over the final window.
        let addrs = [
            0x48u64, 0x45, 0x42, 0x3F, 0x3C, 0x02, 0x04, 0x06, 0x08, 0x0A, 0x0C, 0x10, 0x39, 0x12,
            0x14, 0x16,
        ];
        let h = history_from_addrs(8, &addrs);
        assert_eq!(find_trend(&h, 2).delta(), Some(Delta(2)));
    }

    #[test]
    fn tolerates_up_to_half_minus_one_irregularities() {
        // 5 entries of +4 and 3 irregular entries in an 8-entry window:
        // the +4 trend must still be detected.
        let mut h = AccessHistory::new(8);
        let addrs = [100u64, 104, 108, 112, 900, 904, 300, 304, 308];
        for a in addrs {
            h.record(PageAddr(a));
        }
        assert_eq!(find_trend(&h, 1).delta(), Some(Delta(4)));
    }

    #[test]
    fn perfectly_interleaved_strides_yield_no_trend() {
        // Two interleaved streams with different strides produce alternating
        // deltas with no majority (the paper's §3.2.2 discussion).
        let mut h = AccessHistory::new(8);
        let mut a = 0u64;
        let mut b = 1_000u64;
        let mut addrs = Vec::new();
        for _ in 0..8 {
            a += 2;
            b += 7;
            addrs.push(a);
            addrs.push(b);
        }
        for addr in addrs {
            h.record(PageAddr(addr));
        }
        assert_eq!(find_trend(&h, 2), TrendOutcome::NoTrend);
    }

    #[test]
    fn n_split_zero_treated_as_one() {
        let addrs: Vec<u64> = (0..8).map(|i| 10 + i).collect();
        let h = history_from_addrs(8, &addrs);
        assert_eq!(find_trend(&h, 0).delta(), Some(Delta(1)));
    }

    #[test]
    fn partial_history_smaller_than_initial_window() {
        // Only two accesses recorded in a 32-entry history: initial window of
        // Hsize/Nsplit = 8 exceeds the recorded length and must be clamped.
        let h = history_from_addrs(32, &[100, 103]);
        // Deltas are [0, +3]; no strict majority in a window of 2.
        assert_eq!(find_trend(&h, 4), TrendOutcome::NoTrend);
        // A third access makes +3 the majority (2 of 3).
        let h = history_from_addrs(32, &[100, 103, 106]);
        assert_eq!(find_trend(&h, 4).delta(), Some(Delta(3)));
    }

    proptest! {
        /// A detected trend always holds a strict majority of some
        /// head-anchored window.
        #[test]
        fn prop_detected_trend_is_a_real_majority(
            addrs in proptest::collection::vec(0u64..100_000, 1..64),
            n_split in 1usize..8,
        ) {
            let h = history_from_addrs(32, &addrs);
            if let TrendOutcome::Trend { delta, window } = find_trend(&h, n_split) {
                // Single pass over the window: count occurrences and the
                // window length together, without materialising a Vec per
                // proptest case.
                let (mut occurrences, mut total) = (0usize, 0usize);
                for &d in h.newest(window) {
                    total += 1;
                    if d == delta {
                        occurrences += 1;
                    }
                }
                prop_assert!(occurrences > total / 2);
            }
        }

        /// A pure stride stream (no irregularities) always yields its stride.
        #[test]
        fn prop_pure_stride_always_detected(
            start in 0u64..1_000_000,
            stride in 1u64..128,
            len in 3usize..64,
            n_split in 1usize..8,
        ) {
            let addrs: Vec<u64> = (0..len as u64).map(|i| start + stride * i).collect();
            let h = history_from_addrs(32, &addrs);
            prop_assert_eq!(find_trend(&h, n_split).delta(), Some(Delta(stride as i64)));
        }

        /// `find_trend` matches the brute-force ladder after every record,
        /// for history sizes that are not powers of two, `Nsplit` above the
        /// capacity (a ladder that starts at one-delta windows) and
        /// `clear()` mid-stream. Addresses come from a small range so
        /// deltas repeat and majorities form and break often.
        #[test]
        fn prop_matches_brute_force_stepwise(
            addrs in proptest::collection::vec(0u64..24, 0..200),
            half in 1usize..48,
            split in 0usize..40,
            clear_every in 1usize..90,
        ) {
            // 2·half + 1 is odd, so never a power of two above 1.
            let capacity = 2 * half + 1;
            for n_split in [capacity + split, split % 6, 4] {
                let mut h = AccessHistory::new(capacity);
                for (i, &a) in addrs.iter().enumerate() {
                    if i % clear_every == clear_every - 1 {
                        h.clear();
                        prop_assert_eq!(find_trend(&h, n_split), TrendOutcome::NoTrend);
                    }
                    h.record(PageAddr(a));
                    prop_assert_eq!(find_trend(&h, n_split), brute_force_trend(&h, n_split));
                }
            }
        }

        /// The same on power-of-two histories fed mixed stride and random
        /// phases, the shape of a real fault stream.
        #[test]
        fn prop_matches_brute_force_on_phased_streams(
            seed in 0u64..64_000,
            phase_len in 1usize..40,
            log_capacity in 0u32..7,
            n_split in 0usize..9,
        ) {
            let stride = seed % 63 + 1;
            let mut h = AccessHistory::new(1 << log_capacity);
            let mut addr = 10_000u64;
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            for phase in 0..4 {
                for _ in 0..phase_len {
                    if phase % 2 == 0 {
                        addr += stride;
                    } else {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        addr = 10_000 + (x % 1_000_000);
                    }
                    h.record(PageAddr(addr));
                    prop_assert_eq!(find_trend(&h, n_split), brute_force_trend(&h, n_split));
                }
            }
        }

        /// FindTrend never panics on arbitrary inputs.
        #[test]
        fn prop_never_panics(
            addrs in proptest::collection::vec(0u64..u64::MAX / 2, 0..128),
            cap in 1usize..64,
            n_split in 0usize..10,
        ) {
            let h = history_from_addrs(cap, &addrs);
            let _ = find_trend(&h, n_split);
        }
    }
}
