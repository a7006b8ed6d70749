//! Access traces: the page-granularity input every experiment replays.

use std::sync::OnceLock;

use leap_sim_core::Nanos;

/// One memory access at page granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The virtual page touched.
    pub page: u64,
    /// Whether the access writes the page (dirties it).
    pub is_write: bool,
    /// CPU time the application spends on this access before the next one
    /// (the compute component of completion time).
    pub compute: Nanos,
}

impl Access {
    /// A read access with the given compute cost.
    pub fn read(page: u64, compute: Nanos) -> Self {
        Access {
            page,
            is_write: false,
            compute,
        }
    }

    /// A write access with the given compute cost.
    pub fn write(page: u64, compute: Nanos) -> Self {
        Access {
            page,
            is_write: true,
            compute,
        }
    }
}

/// A named sequence of page accesses produced by a workload generator.
///
/// # Examples
///
/// ```
/// use leap_workloads::{Access, AccessTrace};
/// use leap_sim_core::Nanos;
///
/// let trace = AccessTrace::new(
///     "tiny",
///     vec![Access::read(0, Nanos::ZERO), Access::read(1, Nanos::ZERO)],
/// );
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.working_set_pages(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct AccessTrace {
    name: String,
    accesses: Vec<Access>,
    /// [`AccessTrace::working_set_pages`], computed on first use. Every
    /// replay registers each process with its working set, and the
    /// accesses never change, so the sort runs at most once per trace.
    working_set: OnceLock<u64>,
}

/// Two traces are equal when their names and accesses are; whether either
/// has computed its working set yet does not matter.
impl PartialEq for AccessTrace {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.accesses == other.accesses
    }
}

impl Eq for AccessTrace {}

impl AccessTrace {
    /// Creates a trace from a name and accesses.
    pub fn new<S: Into<String>>(name: S, accesses: Vec<Access>) -> Self {
        AccessTrace {
            name: name.into(),
            accesses,
            working_set: OnceLock::new(),
        }
    }

    /// The trace's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True if the trace has no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The accesses, in order.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Iterates over the accesses.
    pub fn iter(&self) -> impl Iterator<Item = &Access> {
        self.accesses.iter()
    }

    /// Number of distinct pages touched (the working set, in pages).
    ///
    /// Computed by a sort and dedup on the first call; later calls, on this
    /// trace or on clones made after it, read the stored count.
    pub fn working_set_pages(&self) -> u64 {
        *self.working_set.get_or_init(|| {
            let mut pages: Vec<u64> = self.accesses.iter().map(|a| a.page).collect();
            pages.sort_unstable();
            pages.dedup();
            pages.len() as u64
        })
    }

    /// Total compute time of the trace (the paging-free lower bound on
    /// completion time).
    pub fn total_compute(&self) -> Nanos {
        self.accesses.iter().map(|a| a.compute).sum()
    }

    /// Returns the page-number sequence (used by the pattern classifier and
    /// by prefetcher-only experiments).
    pub fn page_sequence(&self) -> Vec<u64> {
        self.accesses.iter().map(|a| a.page).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn distinct_pages(accesses: &[Access]) -> u64 {
        let mut pages: Vec<u64> = accesses.iter().map(|a| a.page).collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len() as u64
    }

    fn trace_of(pages: &[u64]) -> AccessTrace {
        AccessTrace::new(
            "t",
            pages
                .iter()
                .map(|&p| Access::read(p, Nanos::ZERO))
                .collect(),
        )
    }

    #[test]
    fn working_set_counts_distinct_pages() {
        let t = AccessTrace::new(
            "t",
            vec![
                Access::read(1, Nanos::ZERO),
                Access::read(2, Nanos::ZERO),
                Access::write(1, Nanos::ZERO),
            ],
        );
        assert_eq!(t.working_set_pages(), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn total_compute_sums() {
        let t = AccessTrace::new(
            "t",
            vec![
                Access::read(0, Nanos::from_micros(2)),
                Access::read(1, Nanos::from_micros(3)),
            ],
        );
        assert_eq!(t.total_compute(), Nanos::from_micros(5));
    }

    #[test]
    fn read_write_constructors() {
        assert!(!Access::read(5, Nanos::ZERO).is_write);
        assert!(Access::write(5, Nanos::ZERO).is_write);
    }

    #[test]
    fn queried_trace_equals_unqueried_copy() {
        let queried = trace_of(&[4, 1, 4, 9]);
        let fresh = trace_of(&[4, 1, 4, 9]);
        assert_eq!(queried.working_set_pages(), 3);
        assert_eq!(queried, fresh);
        assert_eq!(fresh, queried);
        assert_ne!(queried, trace_of(&[4, 1, 4]));
    }

    proptest! {
        /// The stored working set is the sort-and-dedup count, on the
        /// trace and on a clone taken before or after the first query.
        #[test]
        fn prop_working_set_cache_matches_a_fresh_count(
            pages in proptest::collection::vec(0u64..64, 0..200),
        ) {
            let trace = trace_of(&pages);
            let early_clone = trace.clone();
            let expected = distinct_pages(trace.accesses());
            prop_assert_eq!(trace.working_set_pages(), expected);
            prop_assert_eq!(trace.working_set_pages(), expected);
            prop_assert_eq!(trace.clone().working_set_pages(), expected);
            prop_assert_eq!(early_clone.working_set_pages(), expected);
        }
    }
}
