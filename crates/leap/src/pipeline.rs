//! The deterministic async request/completion pipeline.
//!
//! Leap's design charges remote I/O asynchronously: eager eviction and async
//! write-backs overlap the data path with compute (§5.4). Historically the
//! engine modelled that overlap as *free* — prefetch reads and write-backs
//! were issued over the data path (so dispatch queues and the backend saw
//! the traffic) but their latency was never charged anywhere. This module
//! makes the overlap a first-class, *bounded* resource:
//!
//! - Every asynchronous remote I/O (a prefetch read, a write-back) is
//!   **submitted** to an [`AsyncPipeline`] with its service time. The
//!   pipeline tracks the request's completion instant on the submitting
//!   shard's virtual timeline.
//! - The pipeline enforces a bounded **in-flight budget**
//!   ([`SimConfig::async_depth`](crate::SimConfig::async_depth)): a submit
//!   that would leave more than `depth − 1` requests outstanding *stalls*
//!   the submitter — virtual time advances to the earliest completions until
//!   the budget holds again, and that stall is charged to the faulting
//!   access (the paging service has run out of asynchrony).
//! - Completions are reaped deterministically in completion-time order (a
//!   virtual-time reactor): lazily as the shard's clock catches up, eagerly
//!   while stalling, and finally when the run ends. Reaped completions feed
//!   the [`PipelineStats`] counters and an order-sensitive checksum, so two
//!   replays are comparable event-for-event without storing the stream.
//!
//! Each per-core shard worker owns one pipeline (its submission queue), so
//! the scheme is share-nothing and bit-reproducible across
//! [`ReplayMode`](crate::ReplayMode)s: the serial and the thread-parallel
//! replay step literally the same pipeline state.
//!
//! The two interesting depth settings:
//!
//! - `usize::MAX` (the default) never stalls — exactly the legacy free
//!   -overlap accounting, bit-for-bit.
//! - `1` allows no asynchrony at all: every submit waits for its own
//!   completion, i.e. the I/O is billed synchronously (the property tests
//!   pin this degeneration against an independent serial reference).

use leap_sim_core::hash::{checksum_fold, CHECKSUM_SEED};
use leap_sim_core::Nanos;
use std::collections::VecDeque;

/// The kind of asynchronous remote I/O a pipeline request models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    /// A prefetch read admitting a page into the swap cache.
    PrefetchRead,
    /// A swap-out write-back to the remote tier.
    WriteBack,
}

/// What one [`AsyncPipeline::submit`] call charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// Time the submitter stalled waiting for the in-flight budget (zero
    /// while the pipeline has asynchrony to spare).
    pub stall: Nanos,
    /// The submitted request's completion instant on the shard's timeline.
    pub completes_at: Nanos,
}

/// Deterministic counters describing one pipeline's lifetime, comparable
/// bit-for-bit across replay modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Prefetch reads submitted.
    pub prefetch_reads: u64,
    /// Write-backs submitted.
    pub write_backs: u64,
    /// Completions reaped so far (equals submissions once the run drains).
    pub completed: u64,
    /// Total submitter stall charged by the in-flight budget.
    pub total_stall: Nanos,
    /// Order-sensitive FNV-style checksum over reaped completion instants —
    /// a fingerprint of the completion event stream (two equal checksums
    /// with equal counts mean the reactors saw the same completions in the
    /// same order).
    pub completion_checksum: u64,
}

impl PipelineStats {
    /// Total requests submitted.
    pub fn submitted(&self) -> u64 {
        self.prefetch_reads + self.write_backs
    }

    /// Folds another pipeline's stats into this one (per-core shard
    /// pipelines merging into the run aggregate). Checksums combine
    /// commutatively so the merge is independent of fold order *given* the
    /// per-shard values; callers still fold shards in ascending core order
    /// like every other aggregate.
    pub(crate) fn merge(&mut self, other: &PipelineStats) {
        self.prefetch_reads += other.prefetch_reads;
        self.write_backs += other.write_backs;
        self.completed += other.completed;
        self.total_stall = self.total_stall.saturating_add(other.total_stall);
        self.completion_checksum = self
            .completion_checksum
            .wrapping_add(other.completion_checksum);
    }
}

/// One shard's submission queue and virtual-time completion reactor.
///
/// See the [module docs](self) for the model. The pipeline is deliberately
/// tiny: a ring of in-flight completion instants plus counters — no
/// allocation once the ring has grown to the peak in-flight count, no
/// wall-clock, no randomness.
///
/// The ring is kept sorted, earliest completion at the front. Completions
/// arrive within a few µs of sorted order (a shard's dispatch queues hand
/// out monotone completions per core), so a submit inserts by scanning a
/// few entries from the back, and every reap takes the front.
#[derive(Debug)]
pub struct AsyncPipeline {
    depth: usize,
    in_flight: VecDeque<Nanos>,
    stats: PipelineStats,
}

impl AsyncPipeline {
    /// Creates a pipeline with the given in-flight budget.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (validated away by
    /// [`crate::SimConfigBuilder::build`]).
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "async depth must be nonzero");
        AsyncPipeline {
            depth,
            in_flight: VecDeque::new(),
            stats: PipelineStats {
                completion_checksum: CHECKSUM_SEED,
                ..PipelineStats::default()
            },
        }
    }

    /// The configured in-flight budget.
    #[cfg(test)]
    fn depth(&self) -> usize {
        self.depth
    }

    /// Requests currently in flight.
    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Submits one asynchronous I/O of `service` duration at shard time
    /// `now`, enforcing the in-flight budget.
    ///
    /// Completions that the shard's clock has already passed are reaped
    /// first (they cost nothing). The new request then occupies a slot; if
    /// more than `depth − 1` requests remain outstanding, the submitter
    /// stalls — reaping the earliest completions and advancing virtual time
    /// to them — until the budget holds. With depth 1 that means waiting for
    /// *this* request's own completion: fully synchronous billing.
    pub fn submit(&mut self, now: Nanos, service: Nanos, kind: IoKind) -> SubmitOutcome {
        self.retire(now);
        match kind {
            IoKind::PrefetchRead => self.stats.prefetch_reads += 1,
            IoKind::WriteBack => self.stats.write_backs += 1,
        }
        let completes_at = now.saturating_add(service);
        // After the last entry not later than this one: equal instants fold
        // identically, so their relative order is unobservable.
        if self
            .in_flight
            .back()
            .is_none_or(|&last| last <= completes_at)
        {
            self.in_flight.push_back(completes_at);
        } else {
            let at = self
                .in_flight
                .iter()
                .rposition(|&t| t <= completes_at)
                .map_or(0, |last| last + 1);
            self.in_flight.insert(at, completes_at);
        }
        let budget = self.depth - 1;
        let mut virtual_now = now;
        while self.in_flight.len() > budget {
            let t = self.in_flight.pop_front().expect("len checked above");
            self.note_completion(t);
            virtual_now = virtual_now.max(t);
        }
        let stall = virtual_now.saturating_sub(now);
        self.stats.total_stall = self.stats.total_stall.saturating_add(stall);
        SubmitOutcome {
            stall,
            completes_at,
        }
    }

    /// Reaps every in-flight request whose completion instant is at or
    /// before `now` — the lazy half of the virtual-time reactor, called as
    /// the shard's clock advances past completions.
    pub fn retire(&mut self, now: Nanos) {
        while let Some(&t) = self.in_flight.front() {
            if t > now {
                break;
            }
            self.in_flight.pop_front();
            self.note_completion(t);
        }
    }

    /// Drains every outstanding request (end of run): completions are
    /// reaped in completion-time order regardless of the final clock.
    pub fn drain(&mut self) {
        while let Some(t) = self.in_flight.pop_front() {
            self.note_completion(t);
        }
    }

    /// The pipeline's deterministic counters.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    fn note_completion(&mut self, at: Nanos) {
        self.stats.completed += 1;
        self.stats.completion_checksum = checksum_fold(
            self.stats.completion_checksum,
            at.as_nanos() ^ self.stats.completed,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reactor as a binary min-heap of completion instants: the
    /// reference the sorted ring must agree with, submit for submit.
    struct HeapPipeline {
        depth: usize,
        in_flight: BinaryHeap<Reverse<Nanos>>,
        stats: PipelineStats,
    }

    impl HeapPipeline {
        fn new(depth: usize) -> Self {
            HeapPipeline {
                depth,
                in_flight: BinaryHeap::new(),
                stats: PipelineStats {
                    completion_checksum: CHECKSUM_SEED,
                    ..PipelineStats::default()
                },
            }
        }

        fn submit(&mut self, now: Nanos, service: Nanos, kind: IoKind) -> SubmitOutcome {
            self.retire(now);
            match kind {
                IoKind::PrefetchRead => self.stats.prefetch_reads += 1,
                IoKind::WriteBack => self.stats.write_backs += 1,
            }
            let completes_at = now.saturating_add(service);
            self.in_flight.push(Reverse(completes_at));
            let mut virtual_now = now;
            while self.in_flight.len() > self.depth - 1 {
                let Reverse(t) = self.in_flight.pop().expect("len checked above");
                self.note_completion(t);
                virtual_now = virtual_now.max(t);
            }
            let stall = virtual_now.saturating_sub(now);
            self.stats.total_stall = self.stats.total_stall.saturating_add(stall);
            SubmitOutcome {
                stall,
                completes_at,
            }
        }

        fn retire(&mut self, now: Nanos) {
            while let Some(&Reverse(t)) = self.in_flight.peek() {
                if t > now {
                    break;
                }
                self.in_flight.pop();
                self.note_completion(t);
            }
        }

        fn drain(&mut self) {
            while let Some(Reverse(t)) = self.in_flight.pop() {
                self.note_completion(t);
            }
        }

        fn note_completion(&mut self, at: Nanos) {
            self.stats.completed += 1;
            self.stats.completion_checksum = checksum_fold(
                self.stats.completion_checksum,
                at.as_nanos() ^ self.stats.completed,
            );
        }
    }

    /// Service times for the ring-versus-heap property: repeated values and
    /// a zero make equal completion instants common, and the spread (0 to
    /// 40 µs) makes later submits complete earlier than pending ones.
    const SERVICES: [u64; 8] = [0, 250, 250, 700, 1_000, 3_000, 3_000, 40_000];

    #[test]
    fn unbounded_depth_never_stalls() {
        let mut p = AsyncPipeline::new(usize::MAX);
        let mut now = Nanos::ZERO;
        for i in 0..100u64 {
            let out = p.submit(now, Nanos(1_000 + i), IoKind::PrefetchRead);
            assert_eq!(out.stall, Nanos::ZERO);
            now = now.saturating_add(Nanos(10));
        }
        assert_eq!(p.stats().total_stall, Nanos::ZERO);
        assert_eq!(p.stats().prefetch_reads, 100);
    }

    #[test]
    fn depth_one_bills_every_request_synchronously() {
        let mut p = AsyncPipeline::new(1);
        let out = p.submit(Nanos(100), Nanos(500), IoKind::WriteBack);
        assert_eq!(out.stall, Nanos(500));
        assert_eq!(out.completes_at, Nanos(600));
        assert_eq!(p.in_flight(), 0);
        let out = p.submit(Nanos(700), Nanos(300), IoKind::WriteBack);
        assert_eq!(out.stall, Nanos(300));
        assert_eq!(p.stats().total_stall, Nanos(800));
        assert_eq!(p.stats().completed, 2);
    }

    #[test]
    fn depth_two_overlaps_one_request() {
        let mut p = AsyncPipeline::new(2);
        // First request rides for free...
        assert_eq!(
            p.submit(Nanos(0), Nanos(1_000), IoKind::PrefetchRead).stall,
            Nanos::ZERO
        );
        // ...the second stalls until the first completes (budget is one
        // outstanding request after submit).
        let out = p.submit(Nanos(200), Nanos(1_000), IoKind::PrefetchRead);
        assert_eq!(out.stall, Nanos(800));
        // A submit after the earlier completions cost nothing again.
        let out = p.submit(Nanos(2_500), Nanos(100), IoKind::PrefetchRead);
        assert_eq!(out.stall, Nanos::ZERO);
    }

    #[test]
    fn retire_reaps_passed_completions_without_stall() {
        let mut p = AsyncPipeline::new(usize::MAX);
        p.submit(Nanos(0), Nanos(100), IoKind::PrefetchRead);
        p.submit(Nanos(0), Nanos(200), IoKind::WriteBack);
        p.retire(Nanos(150));
        assert_eq!(p.stats().completed, 1);
        assert_eq!(p.in_flight(), 1);
        p.drain();
        assert_eq!(p.stats().completed, 2);
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn merge_accumulates_and_is_deterministic() {
        let run = |salt: u64| {
            let mut p = AsyncPipeline::new(4);
            for i in 0..10 {
                p.submit(Nanos(i * 50), Nanos(300 + salt), IoKind::PrefetchRead);
            }
            p.drain();
            *p.stats()
        };
        let (a, b) = (run(1), run(2));
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.submitted(), 20);
        assert_eq!(merged.completed, 20);
        // Equal inputs fingerprint equally; different ones do not.
        assert_eq!(run(1), a);
        assert_ne!(a.completion_checksum, b.completion_checksum);
    }

    proptest! {
        /// The sorted ring reaps exactly what the heap reactor reaps: every
        /// `SubmitOutcome`, the in-flight count and the `PipelineStats`
        /// agree after each operation of a random submit/retire/drain
        /// sequence, at depths 1, 2, 8 and unbounded.
        #[test]
        fn prop_ring_matches_the_heap_reference(
            ops in proptest::collection::vec((0u8..10, 0u64..5, 0usize..SERVICES.len()), 1..96),
        ) {
            for depth in [1, 2, 8, usize::MAX] {
                let mut ring = AsyncPipeline::new(depth);
                let mut heap = HeapPipeline::new(depth);
                prop_assert_eq!(ring.depth(), depth);
                let mut now = Nanos::ZERO;
                for &(op, gap, service) in &ops {
                    now = now.saturating_add(Nanos(gap * 250));
                    match op {
                        0..=6 => {
                            let kind = if op % 2 == 0 {
                                IoKind::PrefetchRead
                            } else {
                                IoKind::WriteBack
                            };
                            let service = Nanos(SERVICES[service]);
                            prop_assert_eq!(
                                ring.submit(now, service, kind),
                                heap.submit(now, service, kind),
                                "depth {} submit at {:?}", depth, now
                            );
                        }
                        7 | 8 => {
                            ring.retire(now);
                            heap.retire(now);
                        }
                        _ => {
                            ring.drain();
                            heap.drain();
                        }
                    }
                    prop_assert_eq!(ring.in_flight(), heap.in_flight.len());
                    prop_assert_eq!(*ring.stats(), heap.stats);
                }
                ring.drain();
                heap.drain();
                prop_assert_eq!(*ring.stats(), heap.stats);
            }
        }

        /// In-flight budget 1 degenerates to fully synchronous billing: the
        /// pipeline's completion instants and stalls match an independently
        /// computed serial reference (each request starts no earlier than
        /// its submit instant and the previous completion, and the
        /// submitter always waits out its own service time from there).
        #[test]
        fn prop_depth_one_matches_serial_synchronous_reference(
            requests in proptest::collection::vec((0u64..10_000, 1u64..100_000), 1..64),
        ) {
            let mut p = AsyncPipeline::new(1);
            let mut now = 0u64;
            let mut serial_clock = 0u64; // reference: completion of the previous request
            let mut total_stall = 0u64;
            for &(gap, service) in &requests {
                now += gap;
                let out = p.submit(Nanos(now), Nanos(service), IoKind::PrefetchRead);
                // The request completes at its own submit + service...
                prop_assert_eq!(out.completes_at, Nanos(now + service));
                // ...and the submitter waited for exactly that completion.
                prop_assert_eq!(out.stall, Nanos(service));
                serial_clock = serial_clock.max(now) + service;
                total_stall += service;
                // Nothing is ever left in flight at depth 1.
                prop_assert_eq!(p.in_flight(), 0);
            }
            prop_assert_eq!(p.stats().total_stall, Nanos(total_stall));
            prop_assert_eq!(p.stats().completed, requests.len() as u64);
            // The reference serial clock is reachable from the pipeline's
            // view: the last completion instant never exceeds it.
            prop_assert!(now <= serial_clock);
        }

        /// The unbounded default is exactly the legacy free-overlap
        /// accounting: no submit ever stalls, whatever the workload.
        #[test]
        fn prop_unbounded_depth_is_free_overlap(
            requests in proptest::collection::vec((0u64..10_000, 1u64..100_000), 1..64),
        ) {
            let mut p = AsyncPipeline::new(usize::MAX);
            let mut now = 0u64;
            for &(gap, service) in &requests {
                now += gap;
                let out = p.submit(Nanos(now), Nanos(service), IoKind::WriteBack);
                prop_assert_eq!(out.stall, Nanos::ZERO);
            }
            prop_assert_eq!(p.stats().total_stall, Nanos::ZERO);
        }

        /// Stalls charged at any depth are exactly the time the virtual
        /// reactor had to advance: replaying the same submit sequence twice
        /// is bit-identical (the pipeline is deterministic state).
        #[test]
        fn prop_pipeline_is_deterministic(
            requests in proptest::collection::vec((0u64..5_000, 1u64..50_000), 1..48),
            depth in 1usize..6,
        ) {
            let run = || {
                let mut p = AsyncPipeline::new(depth);
                let mut now = 0u64;
                let mut outs = Vec::new();
                for &(gap, service) in &requests {
                    now += gap;
                    outs.push(p.submit(Nanos(now), Nanos(service), IoKind::PrefetchRead));
                }
                p.drain();
                (outs, *p.stats())
            };
            prop_assert_eq!(run(), run());
        }
    }
}
