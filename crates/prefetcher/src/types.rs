//! Shared types for the prefetcher crate: page addresses, deltas, the
//! [`Prefetcher`] trait, and prefetch decisions.

use std::fmt;

/// A page address in the slower-memory (swap / remote) offset space.
///
/// Leap records accesses at page granularity: for paging front-ends this is
/// the swap-slot offset, for VFS front-ends it is the file page index. The
/// prefetcher never needs to know which.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(pub u64);

impl PageAddr {
    /// Applies a signed delta, saturating at the edges of the address space.
    ///
    /// # Examples
    ///
    /// ```
    /// use leap_prefetcher::{Delta, PageAddr};
    /// assert_eq!(PageAddr(10).offset(Delta(-3)), PageAddr(7));
    /// assert_eq!(PageAddr(1).offset(Delta(-5)), PageAddr(0));
    /// ```
    pub fn offset(self, delta: Delta) -> PageAddr {
        if delta.0 >= 0 {
            PageAddr(self.0.saturating_add(delta.0 as u64))
        } else {
            PageAddr(self.0.saturating_sub(delta.0.unsigned_abs()))
        }
    }

    /// Returns the signed difference `self - earlier` as a [`Delta`].
    ///
    /// Differences that do not fit in an `i64` are clamped; such jumps are far
    /// larger than any physically meaningful stride and are treated as
    /// irregular accesses anyway.
    pub(crate) fn delta_from(self, earlier: PageAddr) -> Delta {
        if self.0 >= earlier.0 {
            Delta((self.0 - earlier.0).min(i64::MAX as u64) as i64)
        } else {
            Delta(-((earlier.0 - self.0).min(i64::MAX as u64) as i64))
        }
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// The signed difference between two consecutive faulting page addresses.
///
/// `AccessHistory` stores deltas rather than absolute addresses (§4.1): this
/// keeps the history compact and makes majority voting directly meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Delta(pub i64);

impl Delta {
    /// The zero delta (repeated access to the same page).
    pub(crate) const ZERO: Delta = Delta(0);

    /// Returns true if this delta represents a forward or backward unit step.
    pub(crate) fn is_sequential(self) -> bool {
        self.0 == 1 || self.0 == -1
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 0 {
            write!(f, "+{}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Which prefetching algorithm a component is using.
///
/// Used by the experiment harness to parameterise runs and label results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No prefetching at all; only the demanded page is read.
    None,
    /// Next-N-Line: always prefetch the next `N` sequential pages.
    NextNLine,
    /// Stride: prefetch along the stride between the last two faults.
    Stride,
    /// Linux-style Read-Ahead: aligned blocks, window doubling on sequential hits.
    ReadAhead,
    /// Leap's majority-trend prefetcher.
    Leap,
}

impl PrefetcherKind {
    /// All kinds evaluated by the paper (Figure 9/10), in presentation order.
    pub const EVALUATED: [PrefetcherKind; 4] = [
        PrefetcherKind::NextNLine,
        PrefetcherKind::Stride,
        PrefetcherKind::ReadAhead,
        PrefetcherKind::Leap,
    ];

    /// Human-readable label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PrefetcherKind::None => "No-Prefetch",
            PrefetcherKind::NextNLine => "Next-N-Line",
            PrefetcherKind::Stride => "Stride",
            PrefetcherKind::ReadAhead => "Read-Ahead",
            PrefetcherKind::Leap => "Leap",
        }
    }
}

impl fmt::Display for PrefetcherKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Number of candidate pages a [`PrefetchDecision`] stores inline, without
/// touching the heap.
///
/// Prefetch windows are bounded by `PWsize_max` (the paper's default is 8),
/// so any realistic decision fits inline; the fault hot path therefore
/// performs **zero heap allocations** per decision. Larger windows spill to a
/// heap buffer transparently.
pub const INLINE_DECISION_PAGES: usize = 16;

/// The outcome of a prefetch decision for one page fault.
///
/// The candidate list lives in a small inline buffer
/// ([`INLINE_DECISION_PAGES`] entries) and only spills to the heap for
/// windows larger than that, keeping the per-fault hot path allocation-free
/// for every realistic window size. Access the candidates through
/// [`PrefetchDecision::pages`] / [`PrefetchDecision::iter`].
#[derive(Debug, Clone)]
pub struct PrefetchDecision {
    /// Inline storage for the common case (window ≤ inline capacity).
    inline: [PageAddr; INLINE_DECISION_PAGES],
    /// Number of valid candidates (inline or spilled).
    len: usize,
    /// Overflow storage; holds *all* candidates once the inline capacity is
    /// exceeded, so `pages()` always returns one contiguous slice.
    spill: Vec<PageAddr>,
    /// True if the decision was made speculatively (no current majority trend;
    /// the previous trend was reused — Algorithm 2, line 25).
    pub speculative: bool,
}

impl Default for PrefetchDecision {
    fn default() -> Self {
        PrefetchDecision {
            inline: [PageAddr(0); INLINE_DECISION_PAGES],
            len: 0,
            spill: Vec::new(),
            speculative: false,
        }
    }
}

impl PartialEq for PrefetchDecision {
    fn eq(&self, other: &Self) -> bool {
        self.speculative == other.speculative && self.pages() == other.pages()
    }
}

impl Eq for PrefetchDecision {}

impl PrefetchDecision {
    /// A decision that prefetches nothing.
    pub fn none() -> Self {
        PrefetchDecision::default()
    }

    /// Builds a non-speculative decision from candidate pages.
    pub(crate) fn pages_from(prefetch: impl IntoIterator<Item = PageAddr>) -> Self {
        let mut decision = PrefetchDecision::default();
        for page in prefetch {
            decision.push(page);
        }
        decision
    }

    /// Appends one candidate page. Stays on the inline buffer up to
    /// [`INLINE_DECISION_PAGES`] candidates; spills to the heap beyond that.
    pub fn push(&mut self, page: PageAddr) {
        if self.len < INLINE_DECISION_PAGES && self.spill.is_empty() {
            self.inline[self.len] = page;
        } else {
            if self.spill.is_empty() {
                self.spill.reserve(self.len + 1);
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.push(page);
        }
        self.len += 1;
    }

    /// The candidate pages, in issue order. The demanded page itself is
    /// *not* included.
    pub fn pages(&self) -> &[PageAddr] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Iterates over the candidate pages in issue order.
    pub fn iter(&self) -> std::slice::Iter<'_, PageAddr> {
        self.pages().iter()
    }

    /// True if `page` is among the candidates.
    pub fn contains(&self, page: PageAddr) -> bool {
        self.pages().contains(&page)
    }

    /// True if the candidates spilled past the inline buffer to the heap.
    pub fn spilled(&self) -> bool {
        !self.spill.is_empty()
    }

    /// Number of candidate pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no pages will be prefetched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<'a> IntoIterator for &'a PrefetchDecision {
    type Item = &'a PageAddr;
    type IntoIter = std::slice::Iter<'a, PageAddr>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A per-process prefetching algorithm.
///
/// The driving loop (the fault engine in the `leap` crate, or a bare trace
/// replayer) calls [`Prefetcher::on_fault`] for every access that misses local
/// memory and [`Prefetcher::on_prefetch_hit`] whenever an access is served
/// from the prefetch cache, which is the feedback signal used to grow or
/// shrink the prefetch window.
///
/// The trait is deliberately open: third-party algorithms (an oracle, a
/// 3PO-style programmed policy, a learned model) implement it outside this
/// crate and plug into the simulators through `leap`'s
/// `SimConfigBuilder::custom_prefetcher`.
/// [`Prefetcher::name`] is free-form for exactly that reason — built-in
/// algorithms report their [`PrefetcherKind`] label.
pub trait Prefetcher: Send + fmt::Debug {
    /// Records a faulting access to `addr` and returns the pages to prefetch.
    fn on_fault(&mut self, addr: PageAddr) -> PrefetchDecision;

    /// Records that a previously prefetched page was hit in the cache.
    fn on_prefetch_hit(&mut self, addr: PageAddr);

    /// The algorithm's name, used in report rows and config labels.
    fn name(&self) -> &'static str;

    /// Resets all internal state (history, windows, counters).
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_addr_offset_saturates() {
        assert_eq!(PageAddr(5).offset(Delta(10)), PageAddr(15));
        assert_eq!(PageAddr(5).offset(Delta(-10)), PageAddr(0));
        assert_eq!(PageAddr(u64::MAX).offset(Delta(5)), PageAddr(u64::MAX));
    }

    #[test]
    fn delta_from_is_signed() {
        assert_eq!(PageAddr(10).delta_from(PageAddr(7)), Delta(3));
        assert_eq!(PageAddr(7).delta_from(PageAddr(10)), Delta(-3));
        assert_eq!(PageAddr(7).delta_from(PageAddr(7)), Delta(0));
    }

    #[test]
    fn delta_display_signs() {
        assert_eq!(format!("{}", Delta(3)), "+3");
        assert_eq!(format!("{}", Delta(-3)), "-3");
        assert_eq!(format!("{}", Delta(0)), "+0");
    }

    #[test]
    fn sequential_deltas() {
        assert!(Delta(1).is_sequential());
        assert!(Delta(-1).is_sequential());
        assert!(!Delta(2).is_sequential());
        assert!(!Delta(0).is_sequential());
    }

    #[test]
    fn decision_helpers() {
        assert!(PrefetchDecision::none().is_empty());
        let d = PrefetchDecision::pages_from([PageAddr(1), PageAddr(2)]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.pages(), &[PageAddr(1), PageAddr(2)]);
        assert!(d.contains(PageAddr(2)));
        assert!(!d.speculative);
    }

    #[test]
    fn decision_stays_inline_up_to_capacity() {
        let mut d = PrefetchDecision::none();
        for i in 0..INLINE_DECISION_PAGES as u64 {
            d.push(PageAddr(i));
        }
        assert_eq!(d.len(), INLINE_DECISION_PAGES);
        assert!(!d.spilled(), "window ≤ inline capacity must not allocate");
        let expected: Vec<PageAddr> = (0..INLINE_DECISION_PAGES as u64).map(PageAddr).collect();
        assert_eq!(d.pages(), expected.as_slice());
    }

    #[test]
    fn decision_spills_transparently_beyond_capacity() {
        let n = INLINE_DECISION_PAGES as u64 + 5;
        let d = PrefetchDecision::pages_from((0..n).map(PageAddr));
        assert_eq!(d.len(), n as usize);
        assert!(d.spilled());
        let expected: Vec<PageAddr> = (0..n).map(PageAddr).collect();
        assert_eq!(d.pages(), expected.as_slice());
        // Equality is by contents, not by storage representation.
        let other = PrefetchDecision::pages_from((0..n).map(PageAddr));
        assert_eq!(d, other);
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(PrefetcherKind::Leap.label(), "Leap");
        assert_eq!(PrefetcherKind::ReadAhead.label(), "Read-Ahead");
        assert_eq!(PrefetcherKind::EVALUATED.len(), 4);
    }
}
