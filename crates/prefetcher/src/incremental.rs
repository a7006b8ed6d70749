//! Incremental trend detection: `FindTrend` as a cached-tier lookup.
//!
//! [`find_trend`](crate::trend::find_trend) recomputes Algorithm 1 from
//! scratch on every fault: a doubling-window scan over the delta ring whose
//! Boyer–Moore verify pass re-reads each window tier. That is `O(Hsize)` per
//! fault — cheap in absolute terms, but it is the single largest piece of
//! per-fault prefetcher work and it is pure recomputation: between two
//! faults the history changes by exactly one delta.
//!
//! [`IncrementalTrendDetector`] turns that around. The detection windows
//! Algorithm 1 ever inspects form a fixed geometric ladder of *tiers*
//! (`Hsize/Nsplit`, double that, … up to `Hsize`), each anchored at the head
//! of the history. When one access is recorded, every tier's head-anchored
//! window slides by one: the new delta enters, and (once the tier is full)
//! the delta `w` positions back falls out. The detector maintains, per tier,
//! an exact multiset of window contents (a small pre-reserved count map) and
//! the tier's current strict-majority element. A fault's trend query is then
//! a walk over at most `log₂(Nsplit)+1` cached tiers — no rescan.
//!
//! ## Why the per-record update is O(1)
//!
//! Per tier, a slide is two count-map updates. The majority can be
//! re-established from just two candidates: after a slide, an element that
//! was *not* added can only have lost occurrences (or kept them while the
//! window grew), so it cannot newly hold a strict majority — the new
//! majority is either the incoming delta or the tier's previous majority.
//! Checking both is two map probes. The tier count is a constant for a
//! given configuration, so the whole update is O(1) amortized, and all maps
//! are pre-reserved to twice their maximum population (the tier's window
//! size), so steady-state records perform **zero heap allocations** — the
//! `hot_path_alloc` contract extends to the detector.
//!
//! ## Equivalence
//!
//! The detector is decision-for-decision identical to `find_trend`: same
//! majority delta, same reported window size, same `NoTrend` outcomes, for
//! every prefix of every access stream (property-tested in this module and
//! pinned end-to-end by the replay-equivalence suites). `find_trend` remains
//! the executable reference implementation.

use crate::history::AccessHistory;
use crate::trend::TrendOutcome;
use crate::types::{Delta, PageAddr};
use leap_sim_core::hash::{fx_map_with_capacity, FxHashMap};

/// One detection-window tier: the head-anchored window of (up to)
/// `raw_size` deltas, with its exact content counts and cached majority.
#[derive(Debug, Clone)]
struct Tier {
    /// Unclamped tier size from the geometric ladder; the effective window
    /// is `min(raw_size, history length)`.
    raw_size: usize,
    /// Exact occurrence counts of the deltas inside the effective window.
    counts: FxHashMap<Delta, u32>,
    /// The window's strict-majority delta, if one exists right now.
    majority: Option<Delta>,
    /// The delta about to fall out of this tier's window, staged between
    /// the pre-record probe and the post-record count update.
    pending_out: Option<Delta>,
}

impl Tier {
    fn new(raw_size: usize, capacity: usize) -> Self {
        // At most `min(raw_size, capacity)` distinct deltas ever live in
        // the window (+1 while a slide is in flight). The map churns —
        // every slide can remove one key and insert another — and the
        // removals leave tombstones; once they use up the free buckets the
        // table rehashes, in place only while it is at most half full.
        // Reserving twice the population keeps it there, so inserts never
        // reallocate.
        let reserve = 2 * (raw_size.min(capacity) + 1);
        Tier {
            raw_size,
            counts: fx_map_with_capacity(reserve),
            majority: None,
            pending_out: None,
        }
    }
}

/// Maintains `FindTrend`'s answer incrementally as accesses are recorded.
///
/// Owns the process's [`AccessHistory`] (the delta ring) plus the per-tier
/// majority state described in the module docs. [`record`] updates
/// everything in O(1) amortized; [`trend`] answers Algorithm 1 from the
/// cached tiers without rescanning the ring.
///
/// [`record`]: IncrementalTrendDetector::record
/// [`trend`]: IncrementalTrendDetector::trend
///
/// # Examples
///
/// ```
/// use leap_prefetcher::{find_trend, Delta, IncrementalTrendDetector, PageAddr};
///
/// let mut det = IncrementalTrendDetector::new(8, 2);
/// for addr in [0x48u64, 0x45, 0x42, 0x3F] {
///     det.record(PageAddr(addr));
/// }
/// assert_eq!(det.trend().delta(), Some(Delta(-3)));
/// // Bit-identical to the reference implementation.
/// assert_eq!(det.trend(), find_trend(det.history(), 2));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalTrendDetector {
    history: AccessHistory,
    tiers: Vec<Tier>,
}

impl IncrementalTrendDetector {
    /// Creates a detector over a fresh history of `capacity` deltas with
    /// the given `Nsplit` (zero is treated as one, like `find_trend`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (same contract as [`AccessHistory`]).
    pub fn new(capacity: usize, n_split: usize) -> Self {
        let history = AccessHistory::new(capacity);
        let w0 = (capacity / n_split.max(1)).max(1);
        // The geometric tier ladder: w0, 2·w0, … including the first size
        // at or past the full capacity, so the query loop always reaches a
        // tier covering the whole recorded history.
        let mut tiers = Vec::new();
        let mut size = w0;
        loop {
            tiers.push(Tier::new(size, capacity));
            if size >= capacity {
                break;
            }
            size *= 2;
        }
        IncrementalTrendDetector { history, tiers }
    }

    /// Read-only view of the underlying delta ring.
    pub fn history(&self) -> &AccessHistory {
        &self.history
    }

    /// Records a faulting access, sliding every tier's window by one, and
    /// returns the recorded delta. O(tier count) = O(1) for a fixed
    /// configuration; allocation-free in steady state.
    pub fn record(&mut self, addr: PageAddr) -> Delta {
        let capacity = self.history.capacity();
        let len_before = self.history.len();
        // Stage each tier's outgoing delta while the ring still holds it.
        for tier in &mut self.tiers {
            let eff = tier.raw_size.min(capacity);
            tier.pending_out = if len_before >= eff {
                self.history.delta_at(eff - 1)
            } else {
                None
            };
        }

        let delta = self.history.record(addr);
        let len_after = self.history.len();

        for tier in &mut self.tiers {
            *tier.counts.entry(delta).or_insert(0) += 1;
            if let Some(out) = tier.pending_out.take() {
                if let Some(count) = tier.counts.get_mut(&out) {
                    *count -= 1;
                    if *count == 0 {
                        tier.counts.remove(&out);
                    }
                }
            }
            // Only the incoming delta or the previous majority can hold a
            // strict majority of the slid window (see module docs).
            let window = tier.raw_size.min(len_after);
            let prev = tier.majority;
            tier.majority = None;
            for candidate in [prev, Some(delta)].into_iter().flatten() {
                if let Some(&count) = tier.counts.get(&candidate) {
                    if count as usize > window / 2 {
                        tier.majority = Some(candidate);
                        break;
                    }
                }
            }
        }
        delta
    }

    /// Algorithm 1's answer for the current history: the smallest tier
    /// whose window holds a strict majority, or `NoTrend` once a tier
    /// covering the whole history has none. Pure cached-tier lookup.
    pub fn trend(&self) -> TrendOutcome {
        let h_len = self.history.len();
        if h_len == 0 {
            return TrendOutcome::NoTrend;
        }
        for tier in &self.tiers {
            let window = tier.raw_size.min(h_len);
            if let Some(delta) = tier.majority {
                return TrendOutcome::Trend { delta, window };
            }
            if window >= h_len {
                return TrendOutcome::NoTrend;
            }
        }
        TrendOutcome::NoTrend
    }

    /// Clears the history and every tier (keeping the maps' reserves).
    pub fn clear(&mut self) {
        self.history.clear();
        for tier in &mut self.tiers {
            tier.counts.clear();
            tier.majority = None;
            tier.pending_out = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trend::find_trend;
    use proptest::prelude::*;

    /// Drives both implementations over one stream, asserting equivalence
    /// after every record.
    fn assert_equivalent(capacity: usize, n_split: usize, addrs: &[u64]) {
        let mut det = IncrementalTrendDetector::new(capacity, n_split);
        for &a in addrs {
            det.record(PageAddr(a));
            let reference = find_trend(det.history(), n_split);
            assert_eq!(
                det.trend(),
                reference,
                "divergence: cap={capacity} n_split={n_split} after {a:#x}"
            );
        }
    }

    #[test]
    fn empty_detector_has_no_trend() {
        let det = IncrementalTrendDetector::new(8, 2);
        assert_eq!(det.trend(), TrendOutcome::NoTrend);
    }

    #[test]
    fn figure5_stream_matches_reference_at_every_step() {
        let addrs = [
            0x48u64, 0x45, 0x42, 0x3F, 0x3C, 0x02, 0x04, 0x06, 0x08, 0x0A, 0x0C, 0x10, 0x39, 0x12,
            0x14, 0x16,
        ];
        assert_equivalent(8, 2, &addrs);
    }

    #[test]
    fn steady_stride_detected_in_smallest_tier() {
        let mut det = IncrementalTrendDetector::new(32, 4);
        for i in 0..64u64 {
            det.record(PageAddr(1_000 + 7 * i));
        }
        match det.trend() {
            TrendOutcome::Trend { delta, window } => {
                assert_eq!(delta, Delta(7));
                assert_eq!(window, 8, "steady stride must resolve in tier 0");
            }
            TrendOutcome::NoTrend => panic!("expected a trend"),
        }
    }

    #[test]
    fn tier_ladder_always_covers_the_capacity() {
        for capacity in 1..80 {
            for n_split in 0..10 {
                let det = IncrementalTrendDetector::new(capacity, n_split);
                let last = det.tiers.last().expect("at least one tier");
                assert!(last.raw_size >= capacity);
            }
        }
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut det = IncrementalTrendDetector::new(16, 4);
        for i in 0..40u64 {
            det.record(PageAddr(i));
        }
        assert!(det.trend().is_trend());
        det.clear();
        assert_eq!(det.trend(), TrendOutcome::NoTrend);
        assert!(det.history().is_empty());
        // And it keeps working after the reset.
        for i in 0..40u64 {
            det.record(PageAddr(3 * i));
            assert_eq!(det.trend(), find_trend(det.history(), 4));
        }
    }

    #[test]
    fn count_maps_never_outgrow_their_reserve() {
        // Adversarial stream: every delta distinct, maximizing map
        // population; the per-tier maps must stay within the pre-reserved
        // capacity (this is the no-allocation argument made checkable).
        let mut det = IncrementalTrendDetector::new(32, 4);
        let caps: Vec<usize> = det.tiers.iter().map(|t| t.counts.capacity()).collect();
        let mut a = 0u64;
        for i in 0..1_000u64 {
            a += i + 1; // strictly growing gaps: all deltas distinct
            det.record(PageAddr(a));
        }
        for (tier, &cap) in det.tiers.iter().zip(&caps) {
            assert!(cap > 0);
            assert_eq!(tier.counts.capacity(), cap, "tier map grew");
            assert!(tier.counts.len() <= tier.raw_size.min(32));
        }
    }

    proptest! {
        /// The detector agrees with `find_trend` after every record, for
        /// arbitrary access streams, capacities, and split factors.
        #[test]
        fn prop_equivalent_to_find_trend_stepwise(
            addrs in proptest::collection::vec(0u64..100_000, 0..128),
            capacity in 1usize..64,
            n_split in 0usize..10,
        ) {
            let mut det = IncrementalTrendDetector::new(capacity, n_split);
            for &a in &addrs {
                det.record(PageAddr(a));
                prop_assert_eq!(det.trend(), find_trend(det.history(), n_split));
            }
        }

        /// Mixed regular/irregular phases (the realistic shape: trends with
        /// bursts of noise) also stay equivalent stepwise.
        #[test]
        fn prop_equivalent_on_phased_streams(
            seed in 0u64..64_000,
            phase_len in 1usize..40,
            capacity in 2usize..48,
            n_split in 1usize..6,
        ) {
            let stride = seed % 63 + 1;
            let mut det = IncrementalTrendDetector::new(capacity, n_split);
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
                    det.record(PageAddr(addr));
                    prop_assert_eq!(det.trend(), find_trend(det.history(), n_split));
                }
            }
        }

        /// The recorded delta stream matches a bare `AccessHistory`.
        #[test]
        fn prop_history_matches_plain_access_history(
            addrs in proptest::collection::vec(0u64..100_000, 0..100),
            capacity in 1usize..32,
        ) {
            let mut det = IncrementalTrendDetector::new(capacity, 4);
            let mut plain = AccessHistory::new(capacity);
            for &a in &addrs {
                let d1 = det.record(PageAddr(a));
                let d2 = plain.record(PageAddr(a));
                prop_assert_eq!(d1, d2);
            }
            prop_assert_eq!(
                det.history().iter_recent().collect::<Vec<_>>(),
                plain.iter_recent().collect::<Vec<_>>()
            );
        }
    }
}
