//! The multi-process replay driver.
//!
//! Every scheduled multi-process replay ([`Simulator::run_multi`]) runs
//! here. The front-end first splits itself into **replay workers**
//! ([`Simulator::into_workers`]):
//!
//! - one share-nothing **shard worker** per core when its state can be
//!   split per core (the VMM with per-process isolation). Each owns its
//!   cache shard, eviction policy, swap region, `(pid, core)` trend state,
//!   clock, and its own deterministic data-path RNG stream;
//! - one worker **spanning every core** when its state cannot be split
//!   (the VMM without isolation, whose processes share one read-ahead
//!   stream; the VFS, whose file cache is one cache).
//!
//! The configured [`ReplayMode`] then decides what drives them:
//!
//! - [`ReplayMode::Serial`]: one thread steps the workers in the global
//!   time-sliced scheduler's interleaving (the reference implementation).
//!   A worker spanning every core serves every slot.
//! - [`ReplayMode::Threaded`]: one OS thread per shard worker, each driving
//!   the scheduler restricted to its own core ([`CoreScheduler::isolate`]).
//!   A single worker has nothing to run in parallel with, so it is always
//!   stepped serially.
//!
//! # Determinism
//!
//! The two modes are bit-identical for a seed because nothing a shard
//! worker computes depends on any other worker:
//!
//! 1. **Schedules are per-core independent.** A core's run queue is dealt
//!    once up front from the seed; rotations depend only on that core's
//!    quantum accounting and its own access completion times. The global
//!    scheduler's min-clock scan only chooses the *interleaving order* of
//!    cores, never what any core does (see [`CoreScheduler::isolate`]).
//! 2. **Worker state is share-nothing.** Processes are pinned to one core
//!    for their lifetime, so page tables, swap slots (allocated from the
//!    core's own region), cache entries, and trend state are only ever
//!    touched by their own worker. Prefetch candidates that would fall into
//!    a foreign core's slot region are unowned there by construction
//!    (regions are allocated bottom-up and are ~2⁶¹ slots wide), so both
//!    modes skip them identically.
//! 3. **Aggregation order is fixed.** The driver buffers each core's
//!    [`FaultEvent`]s separately and stamps every event's
//!    [`FaultEvent::seq`] with its index in its core's buffer; the buffers
//!    are delivered in `(core, seq)` order and partial [`RunResult`]s are
//!    folded in worker order, so observers and aggregates see one
//!    canonical order in both modes.
//!
//! `tests/parallel_equivalence.rs` pins all three properties.

use crate::result::RunResult;
use crate::sched::CoreScheduler;
use crate::session::{EventRing, FaultEvent, Observer, Simulator};
use leap_mem::Pid;
use leap_sim_core::Nanos;
use leap_workloads::AccessTrace;

pub use crate::config::ReplayMode;

/// Everything a replay produces before aggregation: the per-core event
/// buffers, the per-worker partial results, and the makespan.
pub(crate) struct ShardOutcome {
    /// Per-core event buffers; `events[c][i].seq == i` within core `c`.
    pub events: Vec<Vec<FaultEvent>>,
    /// Per-worker partial results, in worker (= core) order.
    pub partials: Vec<RunResult>,
    /// The replay's makespan (latest core-local time incl. context switches).
    pub completion: Nanos,
}

/// Replays `traces` over `workers` — one per core, or one spanning every
/// core — in the given mode. The scheduler must be freshly built (no slots
/// handed out yet). `record_events` gates the per-core event buffers: with
/// no observers attached there is no reader, so buffering millions of
/// events would only inflate peak RSS.
pub(crate) fn replay<S: Simulator>(
    mode: ReplayMode,
    workers: Vec<S>,
    traces: &[AccessTrace],
    sched: CoreScheduler,
    record_events: bool,
) -> ShardOutcome {
    debug_assert!(
        workers.len() == 1 || workers.len() == sched.cores(),
        "one worker per core, or one spanning every core"
    );
    match mode {
        ReplayMode::Threaded if workers.len() > 1 => {
            replay_threaded(workers, traces, &sched, record_events)
        }
        _ => replay_serial(workers, traces, sched, record_events),
    }
}

/// The serial reference: one thread steps all workers, interleaved by the
/// global scheduler (always the core whose local clock is furthest behind).
/// Given one worker and an isolated scheduler, it is also what each thread
/// of a threaded replay runs.
fn replay_serial<S: Simulator>(
    mut workers: Vec<S>,
    traces: &[AccessTrace],
    mut sched: CoreScheduler,
    record_events: bool,
) -> ShardOutcome {
    // One buffer per core, sized for everything the core will run.
    let mut events: Vec<Vec<FaultEvent>> = (0..sched.cores())
        .map(|core| {
            let run_queue = sched.run_queue(core);
            let len = run_queue.iter().map(|&p| traces[p].len()).sum();
            Vec::with_capacity(if record_events { len } else { 0 })
        })
        .collect();
    // Worker `c` serves core `c`; a single worker serves every core.
    let last = workers.len() - 1;
    while let Some(slot) = sched.next_slot() {
        let worker = &mut workers[slot.core.min(last)];
        worker.enter_core(slot.core, slot.now);
        let access = traces[slot.process].accesses()[slot.access_index];
        let event = worker.step_access(Pid(slot.process as u32 + 1), access);
        if record_events {
            // Stamp the event's per-core seq: its index in its core's buffer.
            let buffer = &mut events[slot.core];
            buffer.push(FaultEvent {
                seq: buffer.len() as u64,
                ..event
            });
        }
        sched.completed(&slot, worker.now());
    }
    ShardOutcome {
        events,
        partials: workers.into_iter().map(Simulator::into_result).collect(),
        completion: sched.completion_time(),
    }
}

/// The thread-parallel replay: one scoped OS thread per shard worker, each
/// running the serial driver over [`CoreScheduler::isolate`] of its core to
/// completion; joined in core order.
fn replay_threaded<S: Simulator>(
    workers: Vec<S>,
    traces: &[AccessTrace],
    sched: &CoreScheduler,
    record_events: bool,
) -> ShardOutcome {
    let per_core = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(core, worker)| {
                let local = sched.isolate(core);
                scope.spawn(move || replay_serial(vec![worker], traces, local, record_events))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("shard worker thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut outcome = ShardOutcome {
        events: Vec::with_capacity(per_core.len()),
        partials: Vec::with_capacity(per_core.len()),
        completion: Nanos::ZERO,
    };
    for (core, mut shard) in per_core.into_iter().enumerate() {
        outcome.events.push(shard.events.swap_remove(core));
        outcome.partials.append(&mut shard.partials);
        outcome.completion = outcome.completion.max(shard.completion);
    }
    outcome
}

/// Aggregates a replay: folds the partial results in worker order into a
/// fresh result carrying the run's label and workload name (stamped on
/// every partial), stamps the makespan, and delivers the merged
/// `(core, seq)` event stream to `observers` in
/// [`EventRing::DEFAULT_BATCH`]-sized batches.
///
/// Folding into a fresh result rather than onto the first partial sizes the
/// aggregate histograms to their samples; a worker's histograms keep the
/// capacity reserved for every access it might have recorded.
pub(crate) fn finish_sharded(
    outcome: ShardOutcome,
    observers: &mut [&mut dyn Observer],
) -> RunResult {
    let first = &outcome.partials[0];
    let mut result = RunResult {
        config_label: first.config_label.clone(),
        workload: first.workload.clone(),
        ..RunResult::default()
    };
    for partial in outcome.partials {
        result.absorb_shard(partial);
    }
    result.completion_time = outcome.completion;

    if !observers.is_empty() {
        // The per-core buffers are already contiguous and in (core, seq)
        // order, so batches are delivered by slicing them directly — the
        // same batched-`on_batch` contract as the [`EventRing`], with zero
        // additional copies.
        for core_events in &outcome.events {
            for chunk in core_events.chunks(EventRing::DEFAULT_BATCH) {
                for observer in observers.iter_mut() {
                    observer.on_batch(chunk);
                }
            }
        }
    }
    result
}
