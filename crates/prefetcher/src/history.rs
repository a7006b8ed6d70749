//! The per-process `AccessHistory` circular buffer of page-offset deltas.
//!
//! Leap's page access tracker (§4.1) records, for every faulting access, the
//! signed difference between the new page offset and the previous one. The
//! history is a fixed-size FIFO circular queue; trend detection walks it from
//! the head (most recent) backwards.

use crate::types::{Delta, PageAddr};

/// Default history size used throughout the paper's evaluation (§5).
pub(crate) const DEFAULT_HISTORY_SIZE: usize = 32;

/// A fixed-size circular buffer of page-offset deltas for one process.
///
/// The buffer stores up to `capacity` deltas. Once full, new entries overwrite
/// the oldest ones. [`AccessHistory::newest`] returns the most recent deltas
/// as one slice, which is what `FindTrend` scans.
///
/// # Examples
///
/// ```
/// use leap_prefetcher::{AccessHistory, PageAddr, Delta};
///
/// let mut h = AccessHistory::new(8);
/// for addr in [0x48u64, 0x45, 0x42, 0x3F] {
///     h.record(PageAddr(addr));
/// }
/// // Three deltas of -3 were recorded (the first access has no predecessor,
/// // so it contributes a delta of 0 like the kernel implementation does).
/// assert_eq!(h.newest(3), &[Delta(-3), Delta(-3), Delta(-3)]);
/// ```
#[derive(Debug, Clone)]
pub struct AccessHistory {
    /// The ring, mirrored: slot `i` and slot `i + capacity` hold the same
    /// delta, so the newest `n` deltas are always one contiguous slice
    /// ending at `head + capacity` (see [`AccessHistory::newest`]).
    deltas: Vec<Delta>,
    capacity: usize,
    head: usize,
    len: usize,
    last_addr: Option<PageAddr>,
}

impl AccessHistory {
    /// Creates an empty history with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "AccessHistory capacity must be non-zero");
        AccessHistory {
            deltas: vec![Delta::ZERO; 2 * capacity],
            capacity,
            head: 0,
            len: 0,
            last_addr: None,
        }
    }

    /// Creates a history with the paper's default size of 32 entries.
    pub(crate) fn with_default_size() -> Self {
        AccessHistory::new(DEFAULT_HISTORY_SIZE)
    }

    /// Records a faulting access to `addr`, storing the delta from the
    /// previous access, and returns that delta.
    ///
    /// The very first access has no predecessor; like the kernel
    /// implementation, a delta of zero is stored so the queue layout stays
    /// uniform.
    pub fn record(&mut self, addr: PageAddr) -> Delta {
        let delta = match self.last_addr {
            Some(prev) => addr.delta_from(prev),
            None => Delta::ZERO,
        };
        self.push_delta(delta);
        self.last_addr = Some(addr);
        delta
    }

    fn push_delta(&mut self, delta: Delta) {
        if self.len == 0 {
            self.head = 0;
        } else {
            self.head = (self.head + 1) % self.capacity;
        }
        self.deltas[self.head] = delta;
        self.deltas[self.head + self.capacity] = delta;
        if self.len < self.capacity {
            self.len += 1;
        }
    }

    /// Number of deltas currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no accesses have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity (`Hsize` in the paper).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The newest `min(n, len)` deltas as one contiguous slice, oldest
    /// first (the most recent delta is the last element). O(1): this is
    /// what `find_trend` scans on every fault.
    pub fn newest(&self, n: usize) -> &[Delta] {
        let n = n.min(self.len);
        let end = self.head + self.capacity + 1;
        &self.deltas[end - n..end]
    }

    /// Clears the history and forgets the last address.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.head = 0;
        self.last_addr = None;
    }
}

impl Default for AccessHistory {
    fn default() -> Self {
        AccessHistory::with_default_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_access_records_zero_delta() {
        let mut h = AccessHistory::new(4);
        assert_eq!(h.record(PageAddr(100)), Delta(0));
        assert_eq!(h.len(), 1);
        assert_eq!(h.record(PageAddr(103)), Delta(3));
    }

    #[test]
    fn deltas_follow_access_stream() {
        let mut h = AccessHistory::new(8);
        // The paper's §4.1 example: faults at 0x2, 0x5, 0x4, 0x6, 0x1, 0x9
        // produce deltas 0, +3, -1, +2, -5, +8.
        for addr in [0x2u64, 0x5, 0x4, 0x6, 0x1, 0x9] {
            h.record(PageAddr(addr));
        }
        let stored: Vec<i64> = h.newest(8).iter().map(|d| d.0).collect();
        assert_eq!(stored, vec![0, 3, -1, 2, -5, 8]);
    }

    #[test]
    fn wraps_when_full() {
        let mut h = AccessHistory::new(4);
        for addr in 0..10u64 {
            h.record(PageAddr(addr * 2));
        }
        assert_eq!(h.len(), 4);
        // All surviving deltas are +2 (the first zero delta was overwritten).
        assert!(h.newest(4).iter().all(|&d| d == Delta(2)));
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = AccessHistory::new(4);
        h.record(PageAddr(1));
        h.record(PageAddr(2));
        h.clear();
        assert!(h.is_empty());
        // The last address is forgotten too: the next access has no
        // predecessor.
        assert_eq!(h.record(PageAddr(7)), Delta::ZERO);
    }

    #[test]
    fn figure5_example_delta_stream() {
        // The addresses from Figure 5 of the paper.
        let addrs = [
            0x48u64, 0x45, 0x42, 0x3F, 0x3C, 0x02, 0x04, 0x06, 0x08, 0x0A, 0x0C, 0x10, 0x39, 0x12,
            0x14, 0x16,
        ];
        let mut h = AccessHistory::new(8);
        for a in addrs {
            h.record(PageAddr(a));
        }
        // After all 16 accesses the 8-entry window holds the deltas for
        // t8..t15: +2, +2, +2, +4, +41(0x39-0x10), -39(0x12-0x39), +2, +2.
        let stored: Vec<i64> = h.newest(8).iter().map(|d| d.0).collect();
        assert_eq!(stored, vec![2, 2, 2, 4, 41, -39, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = AccessHistory::new(0);
    }

    proptest! {
        #[test]
        fn prop_len_never_exceeds_capacity(
            cap in 1usize..64,
            addrs in proptest::collection::vec(0u64..10_000, 0..200),
        ) {
            let mut h = AccessHistory::new(cap);
            for a in addrs {
                h.record(PageAddr(a));
            }
            prop_assert!(h.len() <= cap);
        }

        /// `newest(n)` is the newest `min(n, len)` deltas, oldest first,
        /// across wrap-arounds and clears.
        #[test]
        fn prop_newest_matches_a_plain_delta_log(
            cap in 1usize..40,
            addrs in proptest::collection::vec(0u64..10_000, 0..120),
            clear_at in 0usize..120,
            n in 0usize..48,
        ) {
            let mut h = AccessHistory::new(cap);
            let mut plain: Vec<Delta> = Vec::new();
            for (i, &a) in addrs.iter().enumerate() {
                if i == clear_at {
                    h.clear();
                    plain.clear();
                }
                plain.push(h.record(PageAddr(a)));
                let want = n.min(plain.len()).min(cap);
                prop_assert_eq!(h.newest(n), &plain[plain.len() - want..]);
            }
        }

        #[test]
        fn prop_most_recent_delta_matches_last_two_accesses(
            cap in 2usize..64,
            addrs in proptest::collection::vec(0u64..10_000, 2..100),
        ) {
            let mut h = AccessHistory::new(cap);
            for &a in &addrs {
                h.record(PageAddr(a));
            }
            let expected = PageAddr(addrs[addrs.len() - 1]).delta_from(PageAddr(addrs[addrs.len() - 2]));
            prop_assert_eq!(h.newest(1), &[expected]);
        }
    }
}
