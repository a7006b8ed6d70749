//! Cgroup-style per-process memory limits.
//!
//! The paper constrains each application's resident memory to 100 %, 50 %, or
//! 25 % of its peak usage via cgroups (§5.3). [`MemoryLimit`] captures that
//! accounting: a charge is taken when a page becomes resident and released
//! when it is reclaimed; charges beyond the limit must trigger reclaim first.

use leap_sim_core::units::bytes_to_pages;

/// A memory limit expressed in pages, with current usage accounting.
///
/// # Examples
///
/// ```
/// use leap_mem::MemoryLimit;
///
/// let mut limit = MemoryLimit::from_pages(2);
/// assert!(limit.try_charge(1));
/// assert!(limit.try_charge(1));
/// assert!(!limit.try_charge(1)); // over limit: reclaim needed first
/// limit.uncharge(1);
/// assert!(limit.try_charge(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLimit {
    limit_pages: u64,
    used_pages: u64,
}

impl MemoryLimit {
    /// Creates a limit of `limit_pages` resident pages.
    pub fn from_pages(limit_pages: u64) -> Self {
        MemoryLimit {
            limit_pages,
            used_pages: 0,
        }
    }

    /// Creates a limit as a fraction of a working set given in bytes.
    ///
    /// This mirrors the paper's "50 % of peak memory" configurations. The
    /// fraction is clamped to `(0, 1]`.
    pub fn fraction_of(working_set_bytes: u64, fraction: f64) -> Self {
        let fraction = fraction.clamp(f64::MIN_POSITIVE, 1.0);
        let pages = bytes_to_pages(working_set_bytes);
        MemoryLimit::from_pages(((pages as f64) * fraction).ceil().max(1.0) as u64)
    }

    /// The limit in pages.
    pub fn limit_pages(&self) -> u64 {
        self.limit_pages
    }

    /// Pages currently charged.
    #[cfg(test)]
    pub(crate) fn used_pages(&self) -> u64 {
        self.used_pages
    }

    /// Number of pages that must be reclaimed before `extra` pages can be
    /// charged (zero if they already fit).
    pub fn pages_to_reclaim_for(&self, extra: u64) -> u64 {
        (self.used_pages + extra).saturating_sub(self.limit_pages)
    }

    /// Attempts to charge `pages`; returns false (charging nothing) if the
    /// limit would be exceeded.
    pub fn try_charge(&mut self, pages: u64) -> bool {
        if self.used_pages + pages > self.limit_pages {
            return false;
        }
        self.used_pages += pages;
        true
    }

    /// Releases `pages` (saturating at zero).
    pub fn uncharge(&mut self, pages: u64) {
        self.used_pages = self.used_pages.saturating_sub(pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_sim_core::units::GIB;
    use proptest::prelude::*;

    #[test]
    fn charge_and_uncharge() {
        let mut limit = MemoryLimit::from_pages(10);
        assert!(limit.try_charge(7));
        assert_eq!(limit.used_pages(), 7);
        assert!(!limit.try_charge(4));
        assert_eq!(limit.used_pages(), 7, "failed charge must not change usage");
        limit.uncharge(5);
        assert!(limit.try_charge(4));
        assert_eq!(limit.used_pages(), 6);
    }

    #[test]
    fn fraction_of_matches_paper_configurations() {
        // A 2 GB working set at 50 % leaves 1 GB of resident pages.
        let limit = MemoryLimit::fraction_of(2 * GIB, 0.5);
        assert_eq!(limit.limit_pages(), GIB / 4096);
        // 25 % of the same.
        let quarter = MemoryLimit::fraction_of(2 * GIB, 0.25);
        assert_eq!(quarter.limit_pages(), GIB / 4096 / 2);
        // 100 % fits the whole working set.
        let full = MemoryLimit::fraction_of(2 * GIB, 1.0);
        assert_eq!(full.limit_pages(), 2 * GIB / 4096);
    }

    #[test]
    fn pages_to_reclaim_for_accounts_for_headroom() {
        let mut limit = MemoryLimit::from_pages(8);
        limit.try_charge(6);
        assert_eq!(limit.pages_to_reclaim_for(1), 0);
        assert_eq!(limit.pages_to_reclaim_for(2), 0);
        assert_eq!(limit.pages_to_reclaim_for(3), 1);
        assert_eq!(limit.pages_to_reclaim_for(10), 8);
    }

    #[test]
    fn out_of_range_fraction_is_clamped() {
        let too_big = MemoryLimit::fraction_of(GIB, 7.0);
        assert_eq!(too_big.limit_pages(), GIB / 4096);
        let tiny = MemoryLimit::fraction_of(GIB, -1.0);
        assert!(tiny.limit_pages() >= 1);
    }

    proptest! {
        /// Usage never exceeds the limit and never underflows.
        #[test]
        fn prop_usage_stays_within_bounds(
            limit_pages in 1u64..1000,
            ops in proptest::collection::vec((1u64..50, any::<bool>()), 0..200),
        ) {
            let mut limit = MemoryLimit::from_pages(limit_pages);
            for (pages, charge) in ops {
                if charge {
                    let _ = limit.try_charge(pages);
                } else {
                    limit.uncharge(pages);
                }
                prop_assert!(limit.used_pages() <= limit.limit_pages());
            }
        }
    }
}
