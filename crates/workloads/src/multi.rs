//! Pre-merged interleaving of several processes' traces.
//!
//! When multiple applications page concurrently, their requests interleave in
//! the shared swap space and on the network. The interleaver merges per-
//! process traces into a single schedule of `(process index, access)` steps,
//! drawing the next process to run with a weight proportional to how many
//! accesses it still has left — a simple model of fair time sharing that
//! preserves each trace's internal order.
//!
//! The engine does not replay such schedules: `Simulator::run_multi`
//! time-shares the *un-merged* traces over per-core run queues with a
//! quantum-based scheduler (see `leap::sched`). Use `interleave` when a
//! consumer of a multi-process access stream needs an explicit,
//! externally-chosen global access order — for example to feed a trace
//! recorder synthetic multi-pid streams.

use crate::trace::{Access, AccessTrace};
use leap_sim_core::DetRng;

/// A single step of an interleaved schedule: which process issues which
/// access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleavedStep {
    /// Index of the process (position in the input slice).
    pub process: usize,
    /// The access it performs.
    pub access: Access,
}

/// Interleaves the given traces into one schedule.
///
/// Each process's accesses stay in their original order; the global order is
/// a weighted random merge, so long traces do not starve short ones and the
/// interleaving is reproducible for a given seed.
///
/// # Examples
///
/// ```
/// use leap_workloads::{interleave, Access, AccessTrace};
/// use leap_sim_core::Nanos;
///
/// let a = AccessTrace::new("a", vec![Access::read(1, Nanos::ZERO); 10]);
/// let b = AccessTrace::new("b", vec![Access::read(2, Nanos::ZERO); 10]);
/// let schedule = interleave(&[a, b], 42);
/// assert_eq!(schedule.len(), 20);
/// assert!(schedule.iter().any(|s| s.process == 0));
/// assert!(schedule.iter().any(|s| s.process == 1));
/// ```
pub fn interleave(traces: &[AccessTrace], seed: u64) -> Vec<InterleavedStep> {
    let mut rng = DetRng::seed_from(seed);
    let mut cursors = vec![0usize; traces.len()];
    let total: usize = traces.iter().map(|t| t.len()).sum();
    let mut out = Vec::with_capacity(total);

    while out.len() < total {
        // Remaining accesses per process.
        let remaining: Vec<u64> = traces
            .iter()
            .zip(&cursors)
            .map(|(t, &c)| (t.len() - c) as u64)
            .collect();
        let total_remaining: u64 = remaining.iter().sum();
        if total_remaining == 0 {
            break;
        }
        // Weighted pick proportional to remaining work.
        let mut pick = rng.gen_range_u64(0, total_remaining);
        let mut chosen = 0usize;
        for (i, &r) in remaining.iter().enumerate() {
            if pick < r {
                chosen = i;
                break;
            }
            pick -= r;
        }
        let access = traces[chosen].accesses()[cursors[chosen]];
        cursors[chosen] += 1;
        out.push(InterleavedStep {
            process: chosen,
            access,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_sim_core::Nanos;
    use proptest::prelude::*;

    fn trace_of(name: &str, pages: &[u64]) -> AccessTrace {
        AccessTrace::new(
            name,
            pages
                .iter()
                .map(|&p| Access::read(p, Nanos::ZERO))
                .collect(),
        )
    }

    #[test]
    fn preserves_per_process_order() {
        let a = trace_of("a", &[1, 2, 3, 4, 5]);
        let b = trace_of("b", &[10, 20, 30]);
        let schedule = interleave(&[a, b], 1);
        let from_a: Vec<u64> = schedule
            .iter()
            .filter(|s| s.process == 0)
            .map(|s| s.access.page)
            .collect();
        let from_b: Vec<u64> = schedule
            .iter()
            .filter(|s| s.process == 1)
            .map(|s| s.access.page)
            .collect();
        assert_eq!(from_a, vec![1, 2, 3, 4, 5]);
        assert_eq!(from_b, vec![10, 20, 30]);
    }

    #[test]
    fn is_deterministic_for_a_seed() {
        let a = trace_of("a", &(0..50).collect::<Vec<_>>());
        let b = trace_of("b", &(100..150).collect::<Vec<_>>());
        let s1 = interleave(&[a.clone(), b.clone()], 9);
        let s2 = interleave(&[a.clone(), b.clone()], 9);
        let s3 = interleave(&[a, b], 10);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn handles_empty_inputs() {
        assert!(interleave(&[], 1).is_empty());
        let empty = trace_of("e", &[]);
        let a = trace_of("a", &[1, 2]);
        let schedule = interleave(&[empty, a], 1);
        assert_eq!(schedule.len(), 2);
        assert!(schedule.iter().all(|s| s.process == 1));
    }

    #[test]
    fn processes_actually_interleave() {
        let a = trace_of("a", &vec![1; 500]);
        let b = trace_of("b", &vec![2; 500]);
        let schedule = interleave(&[a, b], 3);
        // Count adjacent pairs from different processes; a non-interleaved
        // schedule would have exactly one switch.
        let switches = schedule
            .windows(2)
            .filter(|w| w[0].process != w[1].process)
            .count();
        assert!(switches > 100, "only {switches} switches");
    }

    proptest! {
        /// The merged schedule contains exactly the union of all accesses.
        #[test]
        fn prop_conserves_accesses(
            lens in proptest::collection::vec(0usize..60, 1..5),
            seed in any::<u64>(),
        ) {
            let traces: Vec<AccessTrace> = lens
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    trace_of(
                        &format!("t{i}"),
                        &(0..l as u64).map(|p| p + 1000 * i as u64).collect::<Vec<_>>(),
                    )
                })
                .collect();
            let schedule = interleave(&traces, seed);
            prop_assert_eq!(schedule.len(), lens.iter().sum::<usize>());
            for (i, t) in traces.iter().enumerate() {
                let replayed: Vec<u64> = schedule
                    .iter()
                    .filter(|s| s.process == i)
                    .map(|s| s.access.page)
                    .collect();
                prop_assert_eq!(replayed, t.page_sequence());
            }
        }
    }
}
