//! The adaptive prefetch-window controller (`GetPrefetchWindowSize`,
//! Algorithm 2 of the paper).
//!
//! The window size decides *how many* pages are prefetched on each fault. It
//! grows with the number of prefetched-cache hits observed since the last
//! prefetch (evidence the prefetches are being consumed), is capped at
//! `PWsize_max`, shrinks smoothly (halving, never collapsing instantly) when
//! hits drop, and suspends prefetching entirely when there have been no hits
//! and the faulting page does not even follow the current trend.

/// Default maximum prefetch window used in the paper's evaluation (§5).
pub(crate) const DEFAULT_MAX_WINDOW: usize = 8;

/// State for Algorithm 2's prefetch-window computation.
#[derive(Debug, Clone)]
pub(crate) struct PrefetchWindow {
    /// Maximum window size (`PWsize_max`).
    max_size: usize,
    /// Window size computed at the previous prefetch (`PWsize_{t-1}`).
    last_size: usize,
    /// Prefetched-cache hits observed since the last prefetch (`Chit`).
    hits_since_last: usize,
}

impl PrefetchWindow {
    /// Creates a controller with the given maximum window size.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is zero.
    pub fn new(max_size: usize) -> Self {
        assert!(max_size > 0, "PrefetchWindow max_size must be non-zero");
        PrefetchWindow {
            max_size,
            last_size: 0,
            hits_since_last: 0,
        }
    }

    /// Creates a controller with the paper's default `PWsize_max` of 8.
    pub(crate) fn with_default_max() -> Self {
        PrefetchWindow::new(DEFAULT_MAX_WINDOW)
    }

    /// Records one prefetched-cache hit (increments `Chit`).
    pub(crate) fn record_hit(&mut self) {
        self.hits_since_last = self.hits_since_last.saturating_add(1);
    }

    /// Number of hits accumulated since the last prefetch decision.
    #[cfg(test)]
    pub(crate) fn pending_hits(&self) -> usize {
        self.hits_since_last
    }

    /// The window size chosen by the previous [`PrefetchWindow::update`] call.
    #[cfg(test)]
    pub(crate) fn last_size(&self) -> usize {
        self.last_size
    }

    /// Computes the prefetch window size for the current fault
    /// (`GetPrefetchWindowSize(Pt)`).
    ///
    /// `follows_trend` tells the controller whether the faulting page follows
    /// the currently known majority trend; it is only consulted when there
    /// were no prefetch hits since the last prefetch (Algorithm 2, lines
    /// 5–9). The call consumes the accumulated hit count (`Chit ← 0`) and
    /// remembers the returned size as `PWsize_{t-1}` for the next call.
    pub(crate) fn update(&mut self, follows_trend: bool) -> usize {
        let new_size = if self.hits_since_last == 0 {
            // No prefetched page was consumed since the last prefetch.
            if follows_trend {
                1
            } else {
                0
            }
        } else {
            // Earlier prefetches had hits: scale with their number.
            (self.hits_since_last + 1)
                .next_power_of_two()
                .min(self.max_size)
        };

        // Shrink smoothly: never drop below half of the previous window in
        // one step (Algorithm 2, lines 13–14).
        let smoothed = if new_size < self.last_size / 2 {
            self.last_size / 2
        } else {
            new_size
        };

        self.hits_since_last = 0;
        self.last_size = smoothed;
        smoothed
    }

    /// Resets the controller to its initial state.
    pub(crate) fn reset(&mut self) {
        self.last_size = 0;
        self.hits_since_last = 0;
    }
}

impl Default for PrefetchWindow {
    fn default() -> Self {
        PrefetchWindow::with_default_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_hits_no_trend_suspends() {
        let mut w = PrefetchWindow::new(8);
        assert_eq!(w.update(false), 0);
        assert_eq!(w.last_size(), 0);
    }

    #[test]
    fn no_hits_but_on_trend_prefetches_one() {
        let mut w = PrefetchWindow::new(8);
        assert_eq!(w.update(true), 1);
    }

    #[test]
    fn hits_grow_window_to_power_of_two() {
        let mut w = PrefetchWindow::new(32);
        for _ in 0..3 {
            w.record_hit();
        }
        // Chit = 3 → round_up_pow2(4) = 4.
        assert_eq!(w.update(false), 4);
        for _ in 0..5 {
            w.record_hit();
        }
        // Chit = 5 → round_up_pow2(6) = 8.
        assert_eq!(w.update(false), 8);
    }

    #[test]
    fn window_capped_at_max() {
        let mut w = PrefetchWindow::new(8);
        for _ in 0..100 {
            w.record_hit();
        }
        assert_eq!(w.update(false), 8);
    }

    #[test]
    fn shrinks_smoothly_not_abruptly() {
        let mut w = PrefetchWindow::new(8);
        for _ in 0..7 {
            w.record_hit();
        }
        assert_eq!(w.update(false), 8);
        // Sudden drop to zero hits and off-trend: would be 0, but smoothing
        // keeps it at last/2 = 4.
        assert_eq!(w.update(false), 4);
        assert_eq!(w.update(false), 2);
        assert_eq!(w.update(false), 1);
        // 1/2 = 0, so prefetching finally suspends.
        assert_eq!(w.update(false), 0);
    }

    #[test]
    fn hit_counter_resets_after_update() {
        let mut w = PrefetchWindow::new(8);
        w.record_hit();
        w.record_hit();
        assert_eq!(w.pending_hits(), 2);
        let _ = w.update(true);
        assert_eq!(w.pending_hits(), 0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut w = PrefetchWindow::new(8);
        w.record_hit();
        let _ = w.update(true);
        w.reset();
        assert_eq!(w.last_size(), 0);
        assert_eq!(w.pending_hits(), 0);
    }

    #[test]
    #[should_panic(expected = "max_size must be non-zero")]
    fn zero_max_rejected() {
        let _ = PrefetchWindow::new(0);
    }

    proptest! {
        /// The window size never exceeds the configured maximum.
        #[test]
        fn prop_window_never_exceeds_max(
            max in 1usize..64,
            hits in proptest::collection::vec(0usize..20, 1..50),
            trend in proptest::collection::vec(any::<bool>(), 1..50),
        ) {
            let mut w = PrefetchWindow::new(max);
            for (h, t) in hits.iter().zip(trend.iter()) {
                for _ in 0..*h {
                    w.record_hit();
                }
                let size = w.update(*t);
                // The smoothing rule may keep the window above the raw value
                // but never above the historical maximum-capped value.
                prop_assert!(size <= max.next_power_of_two());
                prop_assert!(size <= max || size <= w.last_size());
            }
        }

        /// The window never shrinks by more than half in one step.
        #[test]
        fn prop_window_never_halves_more_than_once_per_step(
            max in 2usize..64,
            steps in proptest::collection::vec((0usize..20, any::<bool>()), 1..60),
        ) {
            let mut w = PrefetchWindow::new(max);
            let mut prev = 0usize;
            for (h, t) in steps {
                for _ in 0..h {
                    w.record_hit();
                }
                let size = w.update(t);
                prop_assert!(size >= prev / 2, "window dropped from {prev} to {size}");
                prev = size;
            }
        }

        /// With zero hits and off-trend faults, the window decays to zero.
        #[test]
        fn prop_decays_to_zero_without_hits(max in 1usize..64) {
            let mut w = PrefetchWindow::new(max);
            for _ in 0..10 {
                w.record_hit();
            }
            let _ = w.update(true);
            let mut size = usize::MAX;
            for _ in 0..32 {
                size = w.update(false);
            }
            prop_assert_eq!(size, 0);
        }
    }
}
