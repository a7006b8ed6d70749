//! The window-pattern classifier behind Figure 3.
//!
//! The paper takes every page-fault window of length `X` (X ∈ {2, 4, 8}) and
//! classifies it as *sequential* (all deltas are +1), *stride* (all deltas
//! equal some other constant), or *other*. It then contrasts that *strict*
//! classification with a *majority* one, where a window counts as sequential
//! or stride if a strict majority of its deltas agree — the relaxation Leap's
//! trend detection exploits.

/// Whether all deltas in a window must match (strict) or only a majority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternMode {
    /// Every delta in the window must follow the pattern.
    Strict,
    /// At least ⌊w/2⌋ + 1 deltas must follow the pattern.
    Majority,
}

/// Counts of windows per pattern class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternBreakdown {
    /// Windows whose deltas are (mostly) +1.
    pub sequential: u64,
    /// Windows whose deltas are (mostly) a single non-unit constant.
    pub stride: u64,
    /// Everything else.
    pub other: u64,
}

impl PatternBreakdown {
    /// Total windows classified.
    pub(crate) fn total(&self) -> u64 {
        self.sequential + self.stride + self.other
    }

    /// Fraction of sequential windows (zero if no windows).
    pub fn sequential_fraction(&self) -> f64 {
        self.fraction(self.sequential)
    }

    /// Fraction of stride windows (zero if no windows).
    pub fn stride_fraction(&self) -> f64 {
        self.fraction(self.stride)
    }

    /// Fraction of other/irregular windows (zero if no windows).
    pub fn other_fraction(&self) -> f64 {
        self.fraction(self.other)
    }

    fn fraction(&self, part: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        part as f64 / total as f64
    }
}

/// Classifies every sliding window of `window` consecutive accesses in
/// `pages` under the given mode.
///
/// A window of `window` accesses contains `window - 1` deltas. Following the
/// paper, the window is *sequential* if (all / a majority of) those deltas
/// are `+1`, *stride* if they all equal some other single value, and *other*
/// otherwise. Windows of fewer than two accesses cannot be classified.
///
/// # Examples
///
/// ```
/// use leap_workloads::{classify_windows, PatternMode};
///
/// let pages = [0u64, 1, 2, 3, 13, 23, 33];
/// let strict = classify_windows(&pages, 2, PatternMode::Strict);
/// assert_eq!(strict.sequential, 3); // (0,1) (1,2) (2,3)
/// assert_eq!(strict.stride, 3);     // (3,13) (13,23) (23,33)
/// ```
pub fn classify_windows(pages: &[u64], window: usize, mode: PatternMode) -> PatternBreakdown {
    let mut breakdown = PatternBreakdown::default();
    if window < 2 || pages.len() < window {
        return breakdown;
    }
    for chunk in pages.windows(window) {
        let deltas: Vec<i64> = chunk
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        match classify_deltas(&deltas, mode) {
            WindowClass::Sequential => breakdown.sequential += 1,
            WindowClass::Stride => breakdown.stride += 1,
            WindowClass::Other => breakdown.other += 1,
        }
    }
    breakdown
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WindowClass {
    Sequential,
    Stride,
    Other,
}

fn classify_deltas(deltas: &[i64], mode: PatternMode) -> WindowClass {
    if deltas.is_empty() {
        return WindowClass::Other;
    }
    match mode {
        PatternMode::Strict => {
            let first = deltas[0];
            if deltas.iter().all(|&d| d == 1) {
                WindowClass::Sequential
            } else if first != 0 && deltas.iter().all(|&d| d == first) {
                WindowClass::Stride
            } else {
                WindowClass::Other
            }
        }
        PatternMode::Majority => {
            // Find the most common delta and check for a strict majority.
            let mut best_delta = deltas[0];
            let mut best_count = 0usize;
            for &candidate in deltas {
                let count = deltas.iter().filter(|&&d| d == candidate).count();
                if count > best_count {
                    best_count = count;
                    best_delta = candidate;
                }
            }
            if best_count > deltas.len() / 2 {
                if best_delta == 1 {
                    WindowClass::Sequential
                } else if best_delta != 0 {
                    WindowClass::Stride
                } else {
                    WindowClass::Other
                }
            } else {
                WindowClass::Other
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pure_sequential_is_all_sequential() {
        let pages: Vec<u64> = (0..100).collect();
        for window in [2usize, 4, 8] {
            let b = classify_windows(&pages, window, PatternMode::Strict);
            assert_eq!(b.other, 0);
            assert_eq!(b.stride, 0);
            assert_eq!(b.total(), (pages.len() - window + 1) as u64);
        }
    }

    #[test]
    fn pure_stride_is_all_stride() {
        let pages: Vec<u64> = (0..100).map(|i| 10 * i).collect();
        let b = classify_windows(&pages, 8, PatternMode::Strict);
        assert_eq!(b.sequential, 0);
        assert_eq!(b.other, 0);
        assert!(b.stride > 0);
    }

    #[test]
    fn majority_mode_is_more_permissive_than_strict() {
        // A sequential run with a transient interruption every 6 accesses.
        let mut pages = Vec::new();
        let mut p = 0u64;
        for i in 0..200u64 {
            if i % 6 == 5 {
                pages.push(100_000 + i);
            } else {
                p += 1;
                pages.push(p);
            }
        }
        let strict = classify_windows(&pages, 8, PatternMode::Strict);
        let majority = classify_windows(&pages, 8, PatternMode::Majority);
        assert!(majority.sequential > strict.sequential);
        assert!(majority.other < strict.other);
    }

    #[test]
    fn repeated_page_is_not_a_stride() {
        // Delta 0 windows must land in "other", not "stride".
        let pages = vec![5u64; 20];
        let b = classify_windows(&pages, 4, PatternMode::Strict);
        assert_eq!(b.stride, 0);
        assert_eq!(b.sequential, 0);
        assert_eq!(b.other, 17);
        let m = classify_windows(&pages, 4, PatternMode::Majority);
        assert_eq!(m.stride, 0);
    }

    #[test]
    fn short_or_degenerate_inputs_yield_nothing() {
        assert_eq!(classify_windows(&[], 4, PatternMode::Strict).total(), 0);
        assert_eq!(
            classify_windows(&[1, 2, 3], 4, PatternMode::Strict).total(),
            0
        );
        assert_eq!(
            classify_windows(&[1, 2, 3], 1, PatternMode::Strict).total(),
            0
        );
    }

    #[test]
    fn fractions_sum_to_one() {
        let pages: Vec<u64> = (0..50)
            .map(|i| if i % 3 == 0 { i * 7 } else { i })
            .collect();
        let b = classify_windows(&pages, 4, PatternMode::Majority);
        let sum = b.sequential_fraction() + b.stride_fraction() + b.other_fraction();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn doc_example_counts() {
        let pages = [0u64, 1, 2, 3, 13, 23, 33];
        let strict = classify_windows(&pages, 2, PatternMode::Strict);
        assert_eq!(strict.sequential, 3);
        assert_eq!(strict.stride, 3);
        assert_eq!(strict.other, 0);
    }

    proptest! {
        /// Total windows equals len - window + 1 for any input long enough.
        #[test]
        fn prop_window_count(
            pages in proptest::collection::vec(0u64..1000, 2..200),
            window in 2usize..10,
        ) {
            let b = classify_windows(&pages, window, PatternMode::Strict);
            let expected = if pages.len() >= window { (pages.len() - window + 1) as u64 } else { 0 };
            prop_assert_eq!(b.total(), expected);
        }

        /// Majority mode never classifies fewer sequential windows than strict.
        #[test]
        fn prop_majority_is_superset_of_strict(
            pages in proptest::collection::vec(0u64..200, 8..100),
            window in 2usize..9,
        ) {
            let strict = classify_windows(&pages, window, PatternMode::Strict);
            let majority = classify_windows(&pages, window, PatternMode::Majority);
            prop_assert!(majority.sequential >= strict.sequential);
            prop_assert!(majority.other <= strict.other);
        }
    }
}
