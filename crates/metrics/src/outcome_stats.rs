//! Per-run prefetch *outcome* accounting: covered versus wasted.
//!
//! [`PrefetchStats`](crate::PrefetchStats) reports the §3.1 ratios
//! (accuracy, coverage, timeliness) from hit counts; this module classifies
//! every prefetched page by what ultimately happened to it:
//!
//! - *covered* — the page was demanded (first cache hit) before eviction;
//! - *wasted (evicted)* — the page was evicted unused, or a buffered write
//!   replaced it before anything read it;
//! - *wasted (unconsumed)* — the page was still sitting unused in the cache
//!   when the run ended.
//!
//! The counters carry an order-sensitive FNV checksum per shard, merged
//! commutatively across shards — the same discipline as the fault-injection
//! and recovery ledgers — so the arena's golden suite can pin that `Serial`
//! and `Threaded` replays agree bit-for-bit.

use leap_sim_core::hash::{checksum_fold, CHECKSUM_SEED};

/// Event tags folded into the checksum ahead of each event word, so the
/// stream distinguishes a covered slot from a prefetched one.
const TAG_PREFETCHED: u64 = 0x50;
const TAG_COVERED: u64 = 0x43;
const TAG_WASTED_EVICTED: u64 = 0x45;
const TAG_WASTED_UNCONSUMED: u64 = 0x55;

/// Per-run prefetch-outcome counters, merged across shards.
///
/// The checksum folds a tagged word per outcome event in shard-deterministic
/// order and merges across shards by adding each shard's *drift* from the
/// FNV offset basis — commutative, so the replay mode does not matter, and
/// quiet shards leave the aggregate exactly at
/// [`PrefetchOutcomes::default`].
///
/// # Examples
///
/// ```
/// use leap_metrics::PrefetchOutcomes;
///
/// let mut outcomes = PrefetchOutcomes::default();
/// outcomes.record_prefetched(7);
/// outcomes.record_prefetched(8);
/// outcomes.record_covered(7);
/// outcomes.record_wasted_evicted(1);
/// assert_eq!(outcomes.prefetched(), 2);
/// assert_eq!(outcomes.covered(), 1);
/// assert_eq!(outcomes.wasted(), 1);
/// assert!((outcomes.wasted_ratio() - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchOutcomes {
    /// Pages admitted into the cache by prefetching (one event per page).
    prefetched: u64,
    /// Prefetched pages demanded (first hit) before eviction.
    covered: u64,
    /// Prefetched pages evicted (or replaced by a write) without ever being
    /// hit.
    wasted_evicted: u64,
    /// Prefetched pages still unused in the cache when the run sealed.
    wasted_unconsumed: u64,
    /// Order-sensitive FNV fold of every outcome event (commutative merge).
    checksum: u64,
}

impl Default for PrefetchOutcomes {
    fn default() -> Self {
        PrefetchOutcomes {
            prefetched: 0,
            covered: 0,
            wasted_evicted: 0,
            wasted_unconsumed: 0,
            checksum: CHECKSUM_SEED,
        }
    }
}

impl PrefetchOutcomes {
    /// True if the run issued no prefetches and recorded no outcomes (the
    /// checksum still holds its seed).
    pub fn is_quiet(&self) -> bool {
        *self == PrefetchOutcomes::default()
    }

    fn fold(&mut self, tag: u64, word: u64) {
        self.checksum = checksum_fold(checksum_fold(self.checksum, tag), word);
    }

    /// Books one page admitted to the cache by prefetching. `slot` is the
    /// page's swap-slot word, folded into the checksum so the event stream —
    /// not just the totals — is pinned. The engine's admission path calls
    /// it once per admitted page, in candidate order.
    pub fn record_prefetched(&mut self, slot: u64) {
        self.prefetched += 1;
        self.fold(TAG_PREFETCHED, slot);
    }

    /// Books one prefetched page demanded (first hit) before eviction.
    pub fn record_covered(&mut self, slot: u64) {
        self.covered += 1;
        self.fold(TAG_COVERED, slot);
    }

    /// Books `pages` prefetched pages evicted unused (or replaced unread by
    /// a buffered write). Zero-page reports are not folded, so eviction
    /// passes that freed nothing leave quiet shards quiet.
    pub fn record_wasted_evicted(&mut self, pages: u64) {
        if pages == 0 {
            return;
        }
        self.wasted_evicted += pages;
        self.fold(TAG_WASTED_EVICTED, pages);
    }

    /// Books `pages` prefetched pages left unused in the cache at the end of
    /// the run (called once per shard when the run seals; zero-page reports
    /// are not folded).
    pub fn record_wasted_unconsumed(&mut self, pages: u64) {
        if pages == 0 {
            return;
        }
        self.wasted_unconsumed += pages;
        self.fold(TAG_WASTED_UNCONSUMED, pages);
    }

    /// Pages admitted by prefetching.
    pub fn prefetched(&self) -> u64 {
        self.prefetched
    }

    /// Prefetched pages demanded before eviction.
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Prefetched pages evicted unused.
    pub fn wasted_evicted(&self) -> u64 {
        self.wasted_evicted
    }

    /// Prefetched pages still unused when the run sealed.
    pub fn wasted_unconsumed(&self) -> u64 {
        self.wasted_unconsumed
    }

    /// Total wasted prefetches (evicted unused + unconsumed at the end).
    pub fn wasted(&self) -> u64 {
        self.wasted_evicted + self.wasted_unconsumed
    }

    /// Wasted prefetches as a fraction of pages prefetched, in `[0, 1]`.
    /// Zero if nothing was prefetched.
    pub fn wasted_ratio(&self) -> f64 {
        if self.prefetched == 0 {
            return 0.0;
        }
        self.wasted() as f64 / self.prefetched as f64
    }

    /// The order-sensitive per-shard FNV checksum (offset basis when quiet).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Merges another shard's outcomes into this one. Counter fields add;
    /// checksums combine by adding the other shard's drift from the FNV
    /// offset basis — commutative, so the merge order (and therefore the
    /// replay mode) does not matter, and quiet shards leave the aggregate
    /// exactly untouched.
    pub fn merge(&mut self, other: &PrefetchOutcomes) {
        self.prefetched += other.prefetched;
        self.covered += other.covered;
        self.wasted_evicted += other.wasted_evicted;
        self.wasted_unconsumed += other.wasted_unconsumed;
        self.checksum = self
            .checksum
            .wrapping_add(other.checksum.wrapping_sub(CHECKSUM_SEED));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet_with_seeded_checksum() {
        let o = PrefetchOutcomes::default();
        assert!(o.is_quiet());
        assert_eq!(o.checksum(), CHECKSUM_SEED);
        assert_eq!(o.wasted_ratio(), 0.0);
    }

    #[test]
    fn counters_and_ratio() {
        let mut o = PrefetchOutcomes::default();
        for slot in 0..4u64 {
            o.record_prefetched(slot);
        }
        o.record_covered(0);
        o.record_covered(1);
        o.record_wasted_evicted(1);
        o.record_wasted_unconsumed(1);
        assert_eq!(o.prefetched(), 4);
        assert_eq!(o.covered(), 2);
        assert_eq!(o.wasted(), 2);
        assert!((o.wasted_ratio() - 0.5).abs() < 1e-9);
        assert!(!o.is_quiet());
    }

    #[test]
    fn zero_page_reports_do_not_disturb_the_checksum() {
        let mut o = PrefetchOutcomes::default();
        o.record_wasted_evicted(0);
        o.record_wasted_unconsumed(0);
        assert!(o.is_quiet());
    }

    #[test]
    fn record_order_changes_the_checksum() {
        let mut a = PrefetchOutcomes::default();
        a.record_prefetched(1);
        a.record_prefetched(2);
        let mut b = PrefetchOutcomes::default();
        b.record_prefetched(2);
        b.record_prefetched(1);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn tags_distinguish_event_kinds() {
        let mut a = PrefetchOutcomes::default();
        a.record_prefetched(9);
        let mut b = PrefetchOutcomes::default();
        b.record_covered(9);
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn merge_is_commutative_and_quiet_shards_are_identity() {
        let mut a = PrefetchOutcomes::default();
        a.record_prefetched(11);
        a.record_covered(11);
        let mut b = PrefetchOutcomes::default();
        b.record_prefetched(22);
        b.record_wasted_evicted(1);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.prefetched(), 2);

        let mut with_quiet = a;
        with_quiet.merge(&PrefetchOutcomes::default());
        assert_eq!(with_quiet, a);
    }
}
