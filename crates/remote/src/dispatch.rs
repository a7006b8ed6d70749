//! Per-core RDMA dispatch queues.
//!
//! Leap configures one RDMA dispatch queue per CPU core (§4.4, the
//! multi-queue I/O model). Each queue serialises the requests staged on it;
//! when a core issues requests faster than the NIC completes them, later
//! requests wait behind earlier ones. The model tracks, per queue, the time
//! at which the queue becomes idle and charges the difference as queueing
//! delay.

use leap_sim_core::Nanos;

/// Per-core dispatch queues with queueing-delay accounting.
///
/// # Examples
///
/// ```
/// use leap_remote::DispatchQueues;
/// use leap_sim_core::Nanos;
///
/// let mut queues = DispatchQueues::new(2);
/// // Two back-to-back requests on core 0, each taking 4 µs of service time.
/// let first = queues.dispatch(0, Nanos::ZERO, Nanos::from_micros(4));
/// let second = queues.dispatch(0, Nanos::ZERO, Nanos::from_micros(4));
/// assert_eq!(first.queueing_delay, Nanos::ZERO);
/// assert_eq!(second.queueing_delay, Nanos::from_micros(4));
/// // A request on core 1 is unaffected: the queues are independent.
/// let other = queues.dispatch(1, Nanos::ZERO, Nanos::from_micros(4));
/// assert_eq!(other.queueing_delay, Nanos::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct DispatchQueues {
    /// Completion time of the last request staged on each queue.
    busy_until: Vec<Nanos>,
    /// Total requests dispatched per queue (for load reports).
    dispatched: Vec<u64>,
}

/// The outcome of staging one request on a dispatch queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchOutcome {
    /// Time spent waiting behind earlier requests on the same queue.
    pub queueing_delay: Nanos,
    /// Absolute time at which the request completes.
    pub completes_at: Nanos,
}

impl DispatchQueues {
    /// Creates `cores` independent dispatch queues.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "DispatchQueues needs at least one core");
        DispatchQueues {
            busy_until: vec![Nanos::ZERO; cores],
            dispatched: vec![0; cores],
        }
    }

    /// Number of queues (cores).
    pub fn cores(&self) -> usize {
        self.busy_until.len()
    }

    /// Stages a request issued by `core` at time `now` whose service
    /// (transport + remote side) takes `service_time`.
    ///
    /// The core index is reduced modulo the number of queues, so callers can
    /// pass a raw CPU id without worrying about the queue count.
    pub fn dispatch(&mut self, core: usize, now: Nanos, service_time: Nanos) -> DispatchOutcome {
        let idx = core % self.busy_until.len();
        let start = self.busy_until[idx].max(now);
        let queueing_delay = start.saturating_sub(now);
        let completes_at = start.saturating_add(service_time);
        self.busy_until[idx] = completes_at;
        self.dispatched[idx] += 1;
        DispatchOutcome {
            queueing_delay,
            completes_at,
        }
    }

    /// Total requests dispatched on queue `core` so far.
    pub fn dispatched_on(&self, core: usize) -> u64 {
        self.dispatched[core % self.dispatched.len()]
    }

    /// Total requests dispatched across all queues.
    pub fn total_dispatched(&self) -> u64 {
        self.dispatched.iter().sum()
    }

    /// The instant at which queue `core` becomes idle.
    pub fn idle_at(&self, core: usize) -> Nanos {
        self.busy_until[core % self.busy_until.len()]
    }

    /// Cancels the in-flight tail of every queue at time `now`, as happens
    /// when the machine serving those requests fails mid-run.
    ///
    /// Each queue that was busy past `now` becomes idle at exactly `now` —
    /// never earlier. Clamping to `now` instead of calling [`reset`] keeps
    /// the per-core clock monotonic: a request dispatched after the
    /// cancellation can never start (or complete) before a previously
    /// observed completion that already elapsed, and queues that were
    /// already idle are left untouched. Dispatch counters are preserved;
    /// cancelled work still happened, it just never completed.
    ///
    /// Returns the number of queues whose in-flight tail was cancelled.
    ///
    /// [`reset`]: DispatchQueues::reset
    pub fn cancel_in_flight(&mut self, now: Nanos) -> u64 {
        let mut cancelled = 0;
        for busy in &mut self.busy_until {
            if *busy > now {
                *busy = now;
                cancelled += 1;
            }
        }
        cancelled
    }

    /// Cancels the in-flight tail of a single queue at time `at`: the
    /// per-request generalization of [`cancel_in_flight`], used by the
    /// recovery layer when a deadline expires or a hedge wins.
    ///
    /// If queue `core` was busy past `at`, its idle time is clamped to
    /// exactly `at` and `true` is returned; otherwise the queue is left
    /// untouched. Callers always pass an `at` no earlier than the cancelled
    /// request's start time, so the same monotonicity argument as
    /// [`cancel_in_flight`] holds: the queue clock only ever moves down to
    /// an instant that is still in the queue's own future relative to every
    /// previously observed completion that actually elapsed. Dispatch
    /// counters are preserved — cancelled work still happened.
    ///
    /// [`cancel_in_flight`]: DispatchQueues::cancel_in_flight
    pub fn cancel_request(&mut self, core: usize, at: Nanos) -> bool {
        let idx = core % self.busy_until.len();
        if self.busy_until[idx] > at {
            self.busy_until[idx] = at;
            true
        } else {
            false
        }
    }

    /// Clears all queue state.
    pub fn reset(&mut self) {
        for b in &mut self.busy_until {
            *b = Nanos::ZERO;
        }
        for d in &mut self.dispatched {
            *d = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn back_to_back_requests_queue_up() {
        let mut q = DispatchQueues::new(1);
        let a = q.dispatch(0, Nanos::ZERO, Nanos::from_micros(10));
        let b = q.dispatch(0, Nanos::ZERO, Nanos::from_micros(10));
        let c = q.dispatch(0, Nanos::ZERO, Nanos::from_micros(10));
        assert_eq!(a.queueing_delay, Nanos::ZERO);
        assert_eq!(b.queueing_delay, Nanos::from_micros(10));
        assert_eq!(c.queueing_delay, Nanos::from_micros(20));
        assert_eq!(c.completes_at, Nanos::from_micros(30));
    }

    #[test]
    fn idle_queue_has_no_delay() {
        let mut q = DispatchQueues::new(1);
        let a = q.dispatch(0, Nanos::from_micros(100), Nanos::from_micros(5));
        assert_eq!(a.queueing_delay, Nanos::ZERO);
        // Next request arrives after the previous one completed.
        let b = q.dispatch(0, Nanos::from_micros(200), Nanos::from_micros(5));
        assert_eq!(b.queueing_delay, Nanos::ZERO);
        assert_eq!(b.completes_at, Nanos::from_micros(205));
    }

    #[test]
    fn cores_are_independent() {
        let mut q = DispatchQueues::new(4);
        for _ in 0..10 {
            let _ = q.dispatch(2, Nanos::ZERO, Nanos::from_micros(7));
        }
        let other = q.dispatch(3, Nanos::ZERO, Nanos::from_micros(7));
        assert_eq!(other.queueing_delay, Nanos::ZERO);
        assert_eq!(q.dispatched_on(2), 10);
        assert_eq!(q.dispatched_on(3), 1);
        assert_eq!(q.total_dispatched(), 11);
    }

    #[test]
    fn core_index_wraps() {
        let mut q = DispatchQueues::new(2);
        let _ = q.dispatch(0, Nanos::ZERO, Nanos::from_micros(3));
        // Core 2 maps onto queue 0 and therefore queues behind it.
        let wrapped = q.dispatch(2, Nanos::ZERO, Nanos::from_micros(3));
        assert_eq!(wrapped.queueing_delay, Nanos::from_micros(3));
    }

    #[test]
    fn reset_clears_state() {
        let mut q = DispatchQueues::new(1);
        let _ = q.dispatch(0, Nanos::ZERO, Nanos::from_micros(3));
        q.reset();
        assert_eq!(q.total_dispatched(), 0);
        assert_eq!(q.idle_at(0), Nanos::ZERO);
        let a = q.dispatch(0, Nanos::ZERO, Nanos::from_micros(3));
        assert_eq!(a.queueing_delay, Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = DispatchQueues::new(0);
    }

    #[test]
    fn cancel_in_flight_clamps_to_now_not_zero() {
        let mut q = DispatchQueues::new(2);
        let a = q.dispatch(0, Nanos::ZERO, Nanos::from_micros(10));
        assert_eq!(a.completes_at, Nanos::from_micros(10));
        // Queue 1 is already idle; only queue 0 has an in-flight tail.
        let now = Nanos::from_micros(4);
        assert_eq!(q.cancel_in_flight(now), 1);
        assert_eq!(q.idle_at(0), now, "cancelled queue becomes idle *now*");
        assert_eq!(q.idle_at(1), Nanos::ZERO, "idle queue untouched");
        assert_eq!(q.total_dispatched(), 1, "counters survive cancellation");
    }

    #[test]
    fn cancel_in_flight_never_moves_idle_time_backwards() {
        let mut q = DispatchQueues::new(1);
        let first = q.dispatch(0, Nanos::ZERO, Nanos::from_micros(5));
        // The request completed at 5 µs; a failure observed later must not
        // rewind the queue clock below the failure time.
        let now = Nanos::from_micros(8);
        assert_eq!(q.cancel_in_flight(now), 0);
        assert_eq!(q.idle_at(0), first.completes_at);
        let after = q.dispatch(0, now, Nanos::from_micros(1));
        assert!(after.completes_at >= first.completes_at);
    }

    proptest! {
        /// Interleaving dispatches with mid-run cancellations keeps every
        /// queue's completion clock monotonically non-decreasing — the
        /// regression the failed-slab cancellation path must never cause.
        #[test]
        fn prop_cancellation_keeps_per_core_clock_monotonic(
            events in proptest::collection::vec((0u64..50_000, 1u64..20_000, 0usize..8), 1..80),
        ) {
            let mut q = DispatchQueues::new(2);
            let mut now = Nanos::ZERO;
            for (gap, service, action) in events {
                now = now.saturating_add(Nanos::from_nanos(gap));
                if action == 0 {
                    // A failure cancels the in-flight tails at `now`: each
                    // queue clock may only drop to `now`, never below it
                    // (the reset()-style bug would rewind it to zero).
                    let before = [q.idle_at(0), q.idle_at(1)];
                    let _ = q.cancel_in_flight(now);
                    for (core, &was) in before.iter().enumerate() {
                        prop_assert!(q.idle_at(core) <= was);
                        prop_assert!(
                            q.idle_at(core) >= was.min(now),
                            "queue clock rewound below the cancellation time"
                        );
                    }
                } else {
                    let core = action % 2;
                    let idle_before = q.idle_at(core);
                    let out = q.dispatch(core, now, Nanos::from_nanos(service));
                    prop_assert!(out.completes_at >= now);
                    prop_assert!(
                        out.completes_at >= idle_before,
                        "request completed before its queue went idle"
                    );
                }
            }
        }
    }

    #[test]
    fn cancel_request_clamps_one_queue_only() {
        let mut q = DispatchQueues::new(2);
        let a = q.dispatch(0, Nanos::ZERO, Nanos::from_micros(10));
        let b = q.dispatch(1, Nanos::ZERO, Nanos::from_micros(10));
        // A deadline expires at 6 µs on core 0; core 1 keeps its tail.
        assert!(q.cancel_request(0, Nanos::from_micros(6)));
        assert_eq!(q.idle_at(0), Nanos::from_micros(6));
        assert_eq!(q.idle_at(1), b.completes_at);
        // Cancelling at or after the completion time is a no-op.
        assert!(!q.cancel_request(0, Nanos::from_micros(6)));
        assert!(!q.cancel_request(1, b.completes_at));
        assert_eq!(q.total_dispatched(), 2, "counters survive cancellation");
        let _ = a;
    }

    proptest! {
        /// Per-request cancellation obeys the same monotonicity contract as
        /// the machine-failure path: the queue clock never rewinds below the
        /// cancellation instant, and later dispatches never complete before
        /// an earlier observed completion that already elapsed.
        #[test]
        fn prop_cancel_request_keeps_clock_monotonic(
            events in proptest::collection::vec((0u64..50_000, 1u64..20_000, 0usize..8), 1..80),
        ) {
            let mut q = DispatchQueues::new(2);
            let mut now = Nanos::ZERO;
            for (gap, service, action) in events {
                now = now.saturating_add(Nanos::from_nanos(gap));
                let core = action % 2;
                if action < 2 {
                    let was = q.idle_at(core);
                    let _ = q.cancel_request(core, now);
                    prop_assert!(q.idle_at(core) <= was);
                    prop_assert!(
                        q.idle_at(core) >= was.min(now),
                        "queue clock rewound below the cancellation time"
                    );
                } else {
                    let idle_before = q.idle_at(core);
                    let out = q.dispatch(core, now, Nanos::from_nanos(service));
                    prop_assert!(out.completes_at >= now);
                    prop_assert!(out.completes_at >= idle_before);
                }
            }
        }
    }

    proptest! {
        /// Completion times on one queue are monotonically non-decreasing and
        /// the queueing delay is exactly the gap to the previous completion.
        #[test]
        fn prop_single_queue_is_fifo(
            requests in proptest::collection::vec((0u64..1_000_000, 1u64..100_000), 1..100),
        ) {
            let mut q = DispatchQueues::new(1);
            let mut prev_completion = Nanos::ZERO;
            let mut now = Nanos::ZERO;
            for (gap, service) in requests {
                now = now.saturating_add(Nanos::from_nanos(gap));
                let out = q.dispatch(0, now, Nanos::from_nanos(service));
                prop_assert!(out.completes_at >= prev_completion);
                let expected_start = prev_completion.max(now);
                prop_assert_eq!(out.queueing_delay, expected_start.saturating_sub(now));
                prop_assert_eq!(out.completes_at, expected_start.saturating_add(Nanos::from_nanos(service)));
                prev_completion = out.completes_at;
            }
        }
    }
}
