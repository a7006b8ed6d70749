//! Sequential and Stride-K microbenchmarks (§2.2, Figures 2 and 7).
//!
//! Both microbenchmarks touch a working set of a given size at 4 KB page
//! granularity: the Sequential pattern touches pages `0, 1, 2, ...`; the
//! Stride-K pattern touches `0, K, 2K, ...` wrapping around the working set
//! so every page is eventually visited.

use crate::trace::{Access, AccessTrace};
use leap_sim_core::units::bytes_to_pages;
use leap_sim_core::Nanos;

/// Per-access compute cost used by the microbenchmarks (they are memory
/// bound, so the cost is tiny but non-zero).
pub(crate) const MICRO_COMPUTE: Nanos = Nanos(200);

/// Generates a sequential access trace over a working set of
/// `working_set_bytes`, visiting each page once per pass for `passes` passes.
///
/// # Examples
///
/// ```
/// use leap_workloads::sequential_trace;
/// use leap_sim_core::units::MIB;
///
/// let trace = sequential_trace(MIB, 1);
/// assert_eq!(trace.len(), 256); // 1 MiB / 4 KiB
/// assert_eq!(trace.page_sequence()[..4], [0, 1, 2, 3]);
/// ```
pub fn sequential_trace(working_set_bytes: u64, passes: usize) -> AccessTrace {
    let pages = bytes_to_pages(working_set_bytes);
    let mut accesses = Vec::with_capacity(pages as usize * passes);
    for _ in 0..passes {
        for page in 0..pages {
            accesses.push(Access::read(page, MICRO_COMPUTE));
        }
    }
    AccessTrace::new("sequential", accesses)
}

/// Generates a Stride-K access trace over a working set of
/// `working_set_bytes`.
///
/// Pages are visited as `0, K, 2K, ...` (mod working set), then the start
/// offset shifts by one and the sweep repeats, so after `K` sweeps every page
/// has been touched exactly once per pass. This matches the paper's Stride-10
/// microbenchmark where successive faults are never on consecutive pages.
///
/// # Panics
///
/// Panics if `stride` is zero.
pub fn stride_trace(working_set_bytes: u64, stride: u64, passes: usize) -> AccessTrace {
    assert!(stride > 0, "stride must be non-zero");
    let pages = bytes_to_pages(working_set_bytes).max(1);
    let mut accesses = Vec::with_capacity(pages as usize * passes);
    for _ in 0..passes {
        for start in 0..stride.min(pages) {
            let mut page = start;
            loop {
                accesses.push(Access::read(page, MICRO_COMPUTE));
                page += stride;
                if page >= pages {
                    break;
                }
            }
        }
    }
    AccessTrace::new(format!("stride-{stride}"), accesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_sim_core::units::MIB;
    use proptest::prelude::*;

    #[test]
    fn sequential_visits_every_page_in_order() {
        let t = sequential_trace(MIB, 1);
        let seq = t.page_sequence();
        assert_eq!(seq.len(), 256);
        assert!(seq.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(t.working_set_pages(), 256);
    }

    #[test]
    fn sequential_passes_repeat_the_sweep() {
        let t = sequential_trace(MIB, 3);
        assert_eq!(t.len(), 3 * 256);
        assert_eq!(t.working_set_pages(), 256);
    }

    #[test]
    fn stride_trace_has_constant_stride_within_a_sweep() {
        let t = stride_trace(MIB, 10, 1);
        let seq = t.page_sequence();
        // The first sweep is 0, 10, 20, ... — strictly stride-10 jumps.
        let first_sweep: Vec<u64> = seq.iter().copied().take_while(|&p| p % 10 == 0).collect();
        assert!(first_sweep.len() >= 25);
        assert!(first_sweep.windows(2).all(|w| w[1] == w[0] + 10));
    }

    #[test]
    fn stride_trace_eventually_covers_every_page() {
        let t = stride_trace(MIB, 10, 1);
        assert_eq!(t.working_set_pages(), 256);
        assert_eq!(t.len(), 256);
    }

    #[test]
    fn consecutive_stride_accesses_are_never_sequential() {
        let t = stride_trace(MIB, 10, 1);
        let seq = t.page_sequence();
        let sequential_pairs = seq
            .windows(2)
            .filter(|w| w[1] == w[0] + 1 || w[0] == w[1] + 1)
            .count();
        // Only the sweep-to-sweep boundary can produce an off-by-one pair.
        assert!(sequential_pairs <= 10);
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_rejected() {
        let _ = stride_trace(MIB, 0, 1);
    }

    proptest! {
        /// Stride traces always cover the whole working set exactly once per pass.
        #[test]
        fn prop_stride_covers_all_pages(
            pages in 1u64..2000,
            stride in 1u64..64,
            passes in 1usize..3,
        ) {
            let t = stride_trace(pages * 4096, stride, passes);
            prop_assert_eq!(t.working_set_pages(), pages);
            prop_assert_eq!(t.len(), pages as usize * passes);
        }
    }
}
