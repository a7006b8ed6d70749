//! The time-sliced multi-core scheduler driving [`run_multi`].
//!
//! [`run_multi`]: crate::Simulator::run_multi
//!
//! Earlier revisions of `run_multi` replayed a pre-merged schedule at trace
//! granularity — fine for reproducing interference, useless for studying
//! scale-up, because every access of every process marched through one
//! serial timeline. [`CoreScheduler`] models what the kernel actually does
//! with N swapping processes on C cores:
//!
//! - processes are dealt onto **per-core run queues** (a seeded, determinstic
//!   shuffle decides the deal order, so placement is reproducible per seed
//!   but not alphabetical);
//! - each core runs the process at the head of its queue for one
//!   **quantum** of simulated time ([`SimConfig::sched_quantum`]), then
//!   rotates the queue, paying a context-switch cost;
//! - cores advance **independently**: the scheduler always steps the core
//!   whose local clock is furthest behind, so the interleaving of two cores'
//!   accesses emerges from their actual fault latencies rather than from a
//!   fixed merge order.
//!
//! The scheduler is pure bookkeeping — it never touches engine state. The
//! one replay driver ([`crate::parallel`], behind every
//! [`crate::Simulator`] and [`crate::Session`] entry point; a
//! single-process replay is a one-core schedule) asks for the next slot, moves the worker serving that core onto it
//! ([`crate::Simulator::enter_core`]), steps one access, and reports the
//! core's new local time back. A share-nothing shard worker drives
//! `CoreScheduler::isolate` of its own core that way.
//!
//! [`SimConfig::sched_quantum`]: crate::SimConfig::sched_quantum

use leap_sim_core::{DetRng, Nanos};
use std::collections::VecDeque;

/// Default cost of switching a core between processes (register/TLB state
/// plus the scheduler's own bookkeeping; a couple of µs on real hardware).
/// Overridable per run via [`crate::SimConfigBuilder::context_switch_cost`].
pub(crate) const CONTEXT_SWITCH: Nanos = Nanos(2_000);

/// One scheduling decision: which process runs its next access, where, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScheduledSlot {
    /// The core the access runs on.
    pub core: usize,
    /// Index of the process (position in the input trace slice).
    pub process: usize,
    /// Index of the access within the process's trace.
    pub access_index: usize,
    /// The core's local time when the access starts.
    pub now: Nanos,
}

/// Deterministic time-sliced scheduler over per-core run queues.
///
/// # Examples
///
/// ```
/// use leap::sched::CoreScheduler;
/// use leap_sim_core::Nanos;
///
/// // Four processes of 3 accesses each on two cores, 1 µs quantum: the seed
/// // deals each process to one core, two per core.
/// let sched = CoreScheduler::new(&[3, 3, 3, 3], 2, Nanos::from_micros(1), 7);
/// let cores: Vec<usize> = (0..4).map(|p| sched.core_of(p).unwrap()).collect();
/// assert_eq!(cores.iter().filter(|&&c| c == 0).count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CoreScheduler {
    quantum: Nanos,
    /// Simulated cost charged per context switch.
    context_switch: Nanos,
    /// Per-core run queues of process indices; the front entry is running.
    queues: Vec<VecDeque<usize>>,
    /// Next access index per process.
    cursors: Vec<usize>,
    /// Trace length per process.
    lens: Vec<usize>,
    /// Each core's local clock.
    core_now: Vec<Nanos>,
    /// Simulated time the running process has consumed of its slice.
    slice_used: Vec<Nanos>,
}

impl CoreScheduler {
    /// Builds run queues for `lens.len()` processes on `cores` cores.
    ///
    /// Placement deals processes round-robin over the cores in an order
    /// shuffled by a [`DetRng`] seeded from `seed`, so runs are reproducible
    /// per seed while placement is not biased towards trace order.
    pub fn new(lens: &[usize], cores: usize, quantum: Nanos, seed: u64) -> Self {
        CoreScheduler::with_context_switch(lens, cores, quantum, seed, CONTEXT_SWITCH)
    }

    /// Like [`CoreScheduler::new`] with an explicit per-switch cost
    /// ([`crate::SimConfig::context_switch_cost`]).
    pub(crate) fn with_context_switch(
        lens: &[usize],
        cores: usize,
        quantum: Nanos,
        seed: u64,
        context_switch: Nanos,
    ) -> Self {
        let cores = cores.max(1);
        let mut order: Vec<usize> = (0..lens.len()).collect();
        let mut rng = DetRng::seed_from(seed ^ 0x5C4E_D01E);
        for i in (1..order.len()).rev() {
            let j = rng.gen_range_usize(0, i + 1);
            order.swap(i, j);
        }
        let mut queues = vec![VecDeque::new(); cores];
        for (i, &process) in order.iter().enumerate() {
            if lens[process] > 0 {
                queues[i % cores].push_back(process);
            }
        }
        CoreScheduler {
            quantum,
            context_switch,
            queues,
            cursors: vec![0; lens.len()],
            lens: lens.to_vec(),
            core_now: vec![Nanos::ZERO; cores],
            slice_used: vec![Nanos::ZERO; cores],
        }
    }

    /// The run queue dealt to `core`, front (running) first. Stable once the
    /// scheduler is built; a sharded replay uses it to decide which
    /// processes each shard worker owns.
    pub(crate) fn run_queue(&self, core: usize) -> Vec<usize> {
        self.queues[core].iter().copied().collect()
    }

    /// A scheduler that retains only `core`'s run queue (every other core is
    /// left idle with an empty queue).
    ///
    /// A core's schedule — the sequence of `(process, access_index, now)`
    /// slots it serves and its local clock — depends only on its own run
    /// queue, quantum accounting, and the completion times reported for its
    /// own slots; other cores influence nothing but the global interleaving
    /// order. Driving each `isolate(core)` independently therefore yields
    /// exactly the per-core slot sequences of the full scheduler, which is
    /// what lets each shard worker replay its core alone — one after another
    /// or one OS thread per core — without synchronisation
    /// ([`crate::parallel`]).
    pub(crate) fn isolate(&self, core: usize) -> CoreScheduler {
        let mut isolated = self.clone();
        for (c, queue) in isolated.queues.iter_mut().enumerate() {
            if c != core {
                queue.clear();
            }
        }
        isolated
    }

    /// Number of cores (run queues).
    pub fn cores(&self) -> usize {
        self.queues.len()
    }

    /// The core assigned to `process`, if it still has work queued.
    pub fn core_of(&self, process: usize) -> Option<usize> {
        self.queues
            .iter()
            .position(|q| q.iter().any(|&p| p == process))
    }

    /// Picks the next access to run: the head process of the run queue on
    /// the core whose local clock is furthest behind. Returns `None` when
    /// every process has been fully replayed.
    ///
    /// This and [`CoreScheduler::completed`] are `#[inline]`: the replay
    /// loop in [`crate::parallel`] is generic, so it is compiled in the
    /// crate that names the simulator, where an opaque call would hand the
    /// slot back through memory on every access.
    #[inline]
    pub(crate) fn next_slot(&mut self) -> Option<ScheduledSlot> {
        let core = (0..self.queues.len())
            .filter(|&c| !self.queues[c].is_empty())
            .min_by_key(|&c| (self.core_now[c], c))?;
        let process = *self.queues[core].front().expect("non-empty queue");
        Some(ScheduledSlot {
            core,
            process,
            access_index: self.cursors[process],
            now: self.core_now[core],
        })
    }

    /// Books the completion of the access previously handed out as `slot`:
    /// advances the core's clock to `now_after`, charges the elapsed time to
    /// the running process's slice, and context-switches when the quantum is
    /// used up or the process finished.
    #[inline]
    pub(crate) fn completed(&mut self, slot: &ScheduledSlot, now_after: Nanos) {
        let core = slot.core;
        let elapsed = now_after.saturating_sub(slot.now);
        self.core_now[core] = self.core_now[core].max(now_after);
        self.slice_used[core] = self.slice_used[core].saturating_add(elapsed);
        self.cursors[slot.process] += 1;

        let finished = self.cursors[slot.process] >= self.lens[slot.process];
        if finished {
            self.queues[core].pop_front();
            self.slice_used[core] = Nanos::ZERO;
            if !self.queues[core].is_empty() {
                self.context_switch(core);
            }
        } else if self.slice_used[core] >= self.quantum && self.queues[core].len() > 1 {
            self.queues[core].rotate_left(1);
            self.slice_used[core] = Nanos::ZERO;
            self.context_switch(core);
        }
    }

    #[inline]
    fn context_switch(&mut self, core: usize) {
        self.core_now[core] = self.core_now[core].saturating_add(self.context_switch);
    }

    /// The replay's makespan: the latest local time over all cores.
    pub(crate) fn completion_time(&self) -> Nanos {
        self.core_now.iter().copied().max().unwrap_or(Nanos::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(sched: &mut CoreScheduler, per_access: Nanos) -> Vec<ScheduledSlot> {
        let mut slots = Vec::new();
        while let Some(slot) = sched.next_slot() {
            sched.completed(&slot, slot.now + per_access);
            slots.push(slot);
        }
        slots
    }

    /// Context switches in a drained one-core schedule: every switch hands
    /// the core to a different process.
    fn switches(slots: &[ScheduledSlot]) -> usize {
        slots
            .windows(2)
            .filter(|w| w[0].process != w[1].process)
            .count()
    }

    #[test]
    fn replays_every_access_in_process_order() {
        let mut sched = CoreScheduler::new(&[5, 3, 4], 2, Nanos::from_micros(10), 1);
        let slots = drain(&mut sched, Nanos(500));
        assert_eq!(slots.len(), 12);
        for p in 0..3 {
            let indices: Vec<usize> = slots
                .iter()
                .filter(|s| s.process == p)
                .map(|s| s.access_index)
                .collect();
            let expected: Vec<usize> = (0..[5, 3, 4][p]).collect();
            assert_eq!(indices, expected, "process {p} accesses out of order");
        }
    }

    #[test]
    fn a_process_stays_on_one_core() {
        let mut sched = CoreScheduler::new(&[50, 50, 50, 50], 2, Nanos::from_micros(5), 9);
        let slots = drain(&mut sched, Nanos(700));
        for p in 0..4 {
            let cores: Vec<usize> = slots
                .iter()
                .filter(|s| s.process == p)
                .map(|s| s.core)
                .collect();
            assert!(
                cores.windows(2).all(|w| w[0] == w[1]),
                "process {p} migrated"
            );
        }
    }

    #[test]
    fn quantum_forces_time_sharing_on_one_core() {
        // Two processes on one core with a quantum worth two accesses: the
        // schedule must alternate in pairs rather than run a whole trace.
        let mut sched = CoreScheduler::new(&[8, 8], 1, Nanos(1_000), 3);
        let slots = drain(&mut sched, Nanos(600));
        let switches = switches(&slots);
        assert!(switches >= 6, "only {switches} alternations: {slots:?}");
    }

    #[test]
    fn cores_advance_independently() {
        // One long and one short process on two cores: the short core goes
        // idle and the makespan equals the long core's time, not the sum.
        let mut sched = CoreScheduler::new(&[100, 10], 2, Nanos::from_micros(50), 5);
        let slots = drain(&mut sched, Nanos(1_000));
        // Each core's clock ends after its last access.
        let times: Vec<Nanos> = (0..2)
            .map(|core| {
                let last = slots.iter().rev().find(|s| s.core == core).unwrap();
                last.now + Nanos(1_000)
            })
            .collect();
        assert_eq!(
            sched.completion_time(),
            times.iter().copied().max().unwrap()
        );
        assert!(times.iter().copied().min().unwrap() < sched.completion_time());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = drain(
            &mut CoreScheduler::new(&[20, 30, 10], 2, Nanos(5_000), 42),
            Nanos(900),
        );
        let b = drain(
            &mut CoreScheduler::new(&[20, 30, 10], 2, Nanos(5_000), 42),
            Nanos(900),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn seed_changes_placement() {
        // With more processes than cores, some pair of seeds deals the
        // processes differently.
        let placement = |seed| {
            let sched = CoreScheduler::new(&[1, 1, 1, 1, 1], 2, Nanos(1_000), seed);
            (0..5).map(|p| sched.core_of(p)).collect::<Vec<_>>()
        };
        let first = placement(0);
        assert!(
            (1..20).any(|seed| placement(seed) != first),
            "placement never varies with the seed"
        );
    }

    #[test]
    fn isolated_cores_reproduce_their_slice_of_the_global_schedule() {
        // Drain the global scheduler and each isolated core with the same
        // per-access cost: the per-core slot sequences must match exactly.
        let lens = [40, 25, 33, 18, 9];
        let build = || CoreScheduler::new(&lens, 3, Nanos(4_000), 77);
        let global_slots = drain(&mut build(), Nanos(900));
        for core in 0..3 {
            let isolated_slots = drain(&mut build().isolate(core), Nanos(900));
            let global_core: Vec<ScheduledSlot> = global_slots
                .iter()
                .copied()
                .filter(|s| s.core == core)
                .collect();
            assert_eq!(isolated_slots, global_core, "core {core} diverged");
        }
        // And the makespan is the max over the isolated completions.
        let mut global = build();
        drain(&mut global, Nanos(900));
        let isolated_max = (0..3)
            .map(|core| {
                let mut iso = build().isolate(core);
                drain(&mut iso, Nanos(900));
                iso.completion_time()
            })
            .max()
            .unwrap();
        assert_eq!(global.completion_time(), isolated_max);
    }

    #[test]
    fn context_switch_cost_is_configurable() {
        let run = |cost| {
            let mut sched = CoreScheduler::with_context_switch(&[10, 10], 1, Nanos(1_000), 3, cost);
            let slots = drain(&mut sched, Nanos(600));
            (switches(&slots) as u64, sched.completion_time())
        };
        let (switches_free, time_free) = run(Nanos::ZERO);
        let (switches_costly, time_costly) = run(Nanos::from_micros(50));
        // Same schedule shape, but each switch now costs 50 µs of makespan.
        assert_eq!(switches_free, switches_costly);
        assert!(switches_free > 0);
        assert_eq!(
            time_costly,
            time_free + Nanos::from_micros(50) * switches_free,
        );
    }

    #[test]
    fn empty_traces_are_skipped() {
        let mut sched = CoreScheduler::new(&[0, 4, 0], 2, Nanos(1_000), 7);
        let slots = drain(&mut sched, Nanos(100));
        assert_eq!(slots.len(), 4);
        assert!(slots.iter().all(|s| s.process == 1));
        assert!(CoreScheduler::new(&[], 2, Nanos(1_000), 7)
            .next_slot()
            .is_none());
    }
}
