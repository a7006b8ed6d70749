//! The Boyer–Moore majority vote algorithm.
//!
//! `FindTrend` (Algorithm 1 in the paper) needs to know whether any delta
//! value occupies a strict majority of a detection window. The Boyer–Moore
//! majority vote algorithm finds the only possible candidate in a single
//! linear pass with O(1) extra space; a second pass confirms whether the
//! candidate really is a majority.

/// The result of running a majority vote over a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MajorityOutcome<T> {
    /// Some element appears strictly more than `⌊w/2⌋` times.
    Majority(T),
    /// No element has a strict majority in the window.
    NoMajority,
}

impl<T> MajorityOutcome<T> {
    /// Returns the majority element, if any.
    pub fn element(self) -> Option<T> {
        match self {
            MajorityOutcome::Majority(x) => Some(x),
            MajorityOutcome::NoMajority => None,
        }
    }

    /// True if a majority element exists.
    pub fn is_majority(&self) -> bool {
        matches!(self, MajorityOutcome::Majority(_))
    }
}

/// Finds the Boyer–Moore candidate for a window without verifying it.
///
/// Returns `None` only for an empty iterator. The candidate is guaranteed to
/// be the majority element *if* a majority element exists; otherwise it is an
/// arbitrary element and must be verified with a second pass.
pub fn boyer_moore_candidate<T, I>(items: I) -> Option<T>
where
    T: PartialEq + Copy,
    I: IntoIterator<Item = T>,
{
    let mut candidate: Option<T> = None;
    let mut count: usize = 0;
    for item in items {
        match candidate {
            Some(c) if count > 0 => {
                if c == item {
                    count += 1;
                } else {
                    count -= 1;
                }
            }
            _ => {
                candidate = Some(item);
                count = 1;
            }
        }
    }
    candidate
}

/// Runs the full (two-pass) majority vote over a window.
///
/// An element is the majority only if it appears at least `⌊w/2⌋ + 1` times
/// in a window of size `w`, matching the paper's definition in §3.2.1.
///
/// # Examples
///
/// ```
/// use leap_prefetcher::majority::{majority_vote, MajorityOutcome};
///
/// assert_eq!(majority_vote(&[-3, -3, -3, 7]), MajorityOutcome::Majority(-3));
/// assert_eq!(majority_vote(&[1, 2, 1, 2]), MajorityOutcome::NoMajority);
/// assert_eq!(majority_vote::<i64>(&[]), MajorityOutcome::NoMajority);
/// ```
pub fn majority_vote<T>(window: &[T]) -> MajorityOutcome<T>
where
    T: PartialEq + Copy,
{
    if window.is_empty() {
        return MajorityOutcome::NoMajority;
    }
    let candidate = match boyer_moore_candidate(window.iter().copied()) {
        Some(c) => c,
        None => return MajorityOutcome::NoMajority,
    };
    let occurrences = window.iter().filter(|&&x| x == candidate).count();
    if occurrences > window.len() / 2 {
        MajorityOutcome::Majority(candidate)
    } else {
        MajorityOutcome::NoMajority
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_window_has_no_majority() {
        assert_eq!(majority_vote::<i64>(&[]), MajorityOutcome::NoMajority);
        assert_eq!(boyer_moore_candidate(Vec::<i64>::new()), None);
    }

    #[test]
    fn single_element_is_majority() {
        assert_eq!(majority_vote(&[5]), MajorityOutcome::Majority(5));
    }

    #[test]
    fn clear_majority_detected() {
        assert_eq!(
            majority_vote(&[-3, -3, -3, 72]),
            MajorityOutcome::Majority(-3)
        );
        assert_eq!(
            majority_vote(&[2, 2, 2, 2, -58, 7, 2]),
            MajorityOutcome::Majority(2)
        );
    }

    #[test]
    fn exact_half_is_not_majority() {
        // 2 of 4 is not a strict majority (needs ⌊4/2⌋+1 = 3).
        assert_eq!(majority_vote(&[1, 1, 2, 3]), MajorityOutcome::NoMajority);
    }

    #[test]
    fn bare_majority_detected() {
        // 3 of 5 is a strict majority.
        assert_eq!(
            majority_vote(&[1, 2, 1, 3, 1]),
            MajorityOutcome::Majority(1)
        );
    }

    #[test]
    fn alternating_has_no_majority() {
        assert_eq!(
            majority_vote(&[1, 2, 1, 2, 1, 2]),
            MajorityOutcome::NoMajority
        );
    }

    #[test]
    fn outcome_helpers() {
        assert_eq!(MajorityOutcome::Majority(3).element(), Some(3));
        assert_eq!(MajorityOutcome::<i32>::NoMajority.element(), None);
        assert!(MajorityOutcome::Majority(3).is_majority());
    }

    proptest! {
        /// If any element truly holds a strict majority, Boyer–Moore must find it.
        #[test]
        fn prop_finds_true_majority(
            majority in -100i64..100,
            extra in proptest::collection::vec(-100i64..100, 0..40),
        ) {
            // Build a window where `majority` appears len(extra)+1 times,
            // guaranteeing a strict majority regardless of what `extra` holds.
            let mut window: Vec<i64> = Vec::new();
            for (i, e) in extra.iter().enumerate() {
                window.push(*e);
                window.push(majority);
                if i % 2 == 0 {
                    // Interleave unevenly to vary positions.
                    window.push(majority);
                }
            }
            window.push(majority);
            let count_major = window.iter().filter(|&&x| x == majority).count();
            prop_assume!(count_major > window.len() / 2);
            prop_assert_eq!(majority_vote(&window), MajorityOutcome::Majority(majority));
        }

        /// The two-pass vote never reports a non-majority element.
        #[test]
        fn prop_reported_majority_is_real(
            window in proptest::collection::vec(-10i64..10, 1..64),
        ) {
            if let MajorityOutcome::Majority(m) = majority_vote(&window) {
                let occurrences = window.iter().filter(|&&x| x == m).count();
                prop_assert!(occurrences > window.len() / 2);
            }
        }
    }
}
