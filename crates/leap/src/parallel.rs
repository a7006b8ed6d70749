//! The replay driver.
//!
//! Every replay runs here. A single-process replay ([`Simulator::run`],
//! [`Simulator::run_prepopulated`]) hands the unsplit simulator over as the
//! one worker of a one-core schedule. A scheduled multi-process replay
//! ([`Simulator::run_multi`]) first splits the front-end into **replay
//! workers** ([`Simulator::into_workers`]):
//!
//! - one share-nothing **shard worker** per core when its state can be
//!   split per core (the VMM with per-process isolation). Each owns its
//!   cache shard, eviction policy, swap region, `(pid, core)` trend state,
//!   clock, and its own deterministic data-path RNG stream;
//! - one worker **spanning every core** when its state cannot be split
//!   (the VMM without isolation, whose processes share one read-ahead
//!   stream; the VFS, whose file cache is one cache).
//!
//! Shard workers run **by core**: each steps `CoreScheduler::isolate` of
//! its core — that core's slice of the global schedule — to completion.
//! The configured [`ReplayMode`] decides only where:
//!
//! - [`ReplayMode::Serial`]: one after another in core order on the calling
//!   thread. Each shard's page tables, swap window, cache and latency
//!   tables stay hot in the host's caches for its whole run, and a finished
//!   shard's state is freed before the next one starts.
//! - [`ReplayMode::Threaded`]: one scoped OS thread per shard worker.
//!
//! Both then merge the per-core outcomes the same way, so the two modes run
//! the same per-core code. A single worker spanning every core has nothing
//! to split: it is stepped in the global scheduler's interleaving (always
//! the core whose local clock is furthest behind) in either mode.
//!
//! # Determinism
//!
//! Running shards by core is bit-identical to stepping every shard worker
//! in the global interleaving, and the two modes to each other, because
//! nothing a shard worker computes depends on any other worker:
//!
//! 1. **Schedules are per-core independent.** A core's run queue is dealt
//!    once up front from the seed; rotations depend only on that core's
//!    quantum accounting and its own access completion times. The global
//!    scheduler's min-clock scan only chooses the *interleaving order* of
//!    cores, never what any core does (see `CoreScheduler::isolate`).
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
//!    canonical order however the shards were run.
//!
//! The interleaved driver stays the oracle: this module's unit tests step
//! every shard worker through the global scheduler and compare the
//! partials (with `RunResult`'s derived equality, every field), makespan
//! and event buffers with both modes over generated schedules, and
//! `tests/parallel_equivalence.rs` pins the modes' results and streams.

use crate::result::RunResult;
use crate::sched::CoreScheduler;
use crate::session::{FaultEvent, Observer, Simulator};
use leap_mem::Pid;
use leap_sim_core::Nanos;
use leap_workloads::AccessTrace;

use crate::config::ReplayMode;

/// How many events each [`Observer::on_batch`] call delivers: large enough
/// to amortise observer dispatch, small enough to stay in cache.
const EVENT_BATCH: usize = 256;

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
///
/// Shard workers run by core, each over [`CoreScheduler::isolate`] of its
/// core to completion: in core order on the calling thread
/// ([`ReplayMode::Serial`]) or on one scoped thread each
/// ([`ReplayMode::Threaded`]). A single worker spanning every core is
/// stepped in the global interleaving.
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
    if workers.len() == 1 {
        return replay_interleaved(workers, traces, sched, record_events);
    }
    // Each run clones its isolated scheduler itself, so on a thread the
    // clone's per-core clocks and cursors, written on every access, come
    // from that thread's allocator arena instead of sitting beside a
    // sibling shard's and sharing its cache lines.
    let run_core = |(core, worker): (usize, S)| {
        replay_interleaved(vec![worker], traces, sched.isolate(core), record_events)
    };
    let per_core: Vec<ShardOutcome> = match mode {
        ReplayMode::Serial => workers.into_iter().enumerate().map(run_core).collect(),
        ReplayMode::Threaded => std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|shard| scope.spawn(move || run_core(shard)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("shard worker thread panicked"))
                .collect()
        }),
    };
    merge_by_core(per_core)
}

/// The single-thread driver: steps `workers` in the scheduler's global
/// interleaving (always the core whose local clock is furthest behind).
/// Worker `c` serves core `c`; a single worker serves every core. Handed
/// one shard worker and [`CoreScheduler::isolate`] of its core, it runs
/// that shard alone, which is how [`replay`] drives shard workers.
fn replay_interleaved<S: Simulator>(
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

/// Merges the by-core runs of the shard workers, given in core order: core
/// `c`'s event buffer from run `c`, the partials in core order, and the
/// latest core's completion as the makespan.
fn merge_by_core(per_core: Vec<ShardOutcome>) -> ShardOutcome {
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
/// `(core, seq)` event stream to `observers` in [`EVENT_BATCH`]-sized
/// batches.
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
        // order, so batches are delivered by slicing them directly, with
        // zero additional copies.
        for core_events in &outcome.events {
            for chunk in core_events.chunks(EVENT_BATCH) {
                for observer in observers.iter_mut() {
                    observer.on_batch(chunk);
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::vmm::VmmSimulator;
    use leap_eviction::EvictionPolicy;
    use leap_remote::{FaultSpec, RecoveryPolicy};
    use leap_sim_core::units::MIB;
    use leap_workloads::{sequential_trace, stride_trace, AppKind, AppModel};
    use proptest::prelude::*;

    fn traces(processes: usize) -> Vec<AccessTrace> {
        traces_of(processes, MIB, 2_000)
    }

    /// Sequential and stride-10 passes over `bytes`, then application
    /// models of `accesses` accesses each, `processes` traces in all.
    fn traces_of(processes: usize, bytes: u64, accesses: usize) -> Vec<AccessTrace> {
        let mut traces = vec![sequential_trace(bytes, 3), stride_trace(bytes, 10, 3)];
        traces.extend((0..processes.saturating_sub(2)).map(|i| {
            AppModel::new(AppKind::ALL[i % AppKind::ALL.len()], 40 + i as u64)
                .with_working_set(bytes)
                .with_accesses(accesses)
                .generate()
        }));
        traces.truncate(processes);
        traces
    }

    fn config(cores: usize) -> crate::builder::SimConfigBuilder {
        SimConfig::builder()
            .memory_fraction(0.5)
            .cores(cores)
            .sched_quantum(Nanos::from_micros(100))
            .seed(23)
    }

    /// Splits a fresh simulator into its replay workers under the scheduler
    /// `run_multi` would build.
    fn split(
        config: SimConfig,
        traces: &[AccessTrace],
        tune: &dyn Fn(&mut VmmSimulator),
    ) -> (Vec<VmmSimulator>, CoreScheduler) {
        let lens: Vec<usize> = traces.iter().map(AccessTrace::len).collect();
        let sched = CoreScheduler::with_context_switch(
            &lens,
            config.cores,
            config.sched_quantum,
            config.seed,
            config.context_switch_cost,
        );
        let mut sim = VmmSimulator::new(config);
        tune(&mut sim);
        (sim.into_workers(traces, &sched), sched)
    }

    /// Steps every shard worker through the global scheduler's interleaving
    /// and checks that both modes' by-core runs produce equal partials
    /// (every field), makespan and `(core, seq)` event buffers.
    fn assert_by_core_matches_interleaving(
        config: SimConfig,
        traces: &[AccessTrace],
        tune: &dyn Fn(&mut VmmSimulator),
    ) -> RunResult {
        let (workers, sched) = split(config, traces, tune);
        assert_eq!(workers.len(), config.cores, "one shard worker per core");
        let oracle = replay_interleaved(workers, traces, sched, true);
        for mode in [ReplayMode::Serial, ReplayMode::Threaded] {
            let (workers, sched) = split(config, traces, tune);
            let by_core = replay(mode, workers, traces, sched, true);
            let case = format!("{} cores, {mode:?}", config.cores);
            assert_eq!(by_core.completion, oracle.completion, "{case}: makespan");
            assert_eq!(by_core.events, oracle.events, "{case}: event buffers");
            assert_eq!(by_core.partials, oracle.partials, "{case}: partials");
        }
        let total = oracle.events.iter().map(Vec::len).sum::<usize>();
        assert_eq!(total, traces.iter().map(AccessTrace::len).sum::<usize>());
        finish_sharded(oracle, &mut [])
    }

    #[test]
    fn by_core_replay_matches_the_interleaving_across_core_counts() {
        for cores in 1..=4 {
            let config = config(cores).build().expect("valid config");
            let result = assert_by_core_matches_interleaving(config, &traces(5), &|_| {});
            assert!(
                result.pages_swapped_out > 0,
                "{cores} cores swapped nothing"
            );
        }
    }

    #[test]
    fn idle_shards_match_the_interleaving() {
        // Fewer processes than cores: some shard workers get no run queue.
        for (cores, processes) in [(2, 1), (4, 2), (4, 3)] {
            let config = config(cores).build().expect("valid config");
            assert_by_core_matches_interleaving(config, &traces(processes), &|_| {});
        }
    }

    #[test]
    fn prepopulated_shards_match_the_interleaving() {
        for cores in [2, 3] {
            let config = config(cores).build().expect("valid config");
            let result = assert_by_core_matches_interleaving(config, &traces(4), &|sim| {
                sim.set_prepopulate_multi(true)
            });
            assert!(
                result.remote_accesses > 0,
                "{cores} cores: no remote access"
            );
        }
    }

    #[test]
    fn tenant_budgets_match_the_interleaving() {
        let config = config(2).build().expect("valid config");
        let result = assert_by_core_matches_interleaving(config, &traces(4), &|sim| {
            sim.set_tenant_budget_pages(Pid(1), 64);
            sim.set_tenant_budget_pages(Pid(3), 1_024);
        });
        assert!(result.tenant_evictions.contains_key(&1));
        assert!(!result.tenant_evictions.contains_key(&3));
    }

    #[test]
    fn faults_with_tail_tolerant_recovery_match_the_interleaving() {
        for cores in [2, 3] {
            let config = config(cores)
                .fault_plan(FaultSpec::canonical_storm())
                .recovery_policy(RecoveryPolicy::tail_tolerant())
                .build()
                .expect("valid config");
            let result = assert_by_core_matches_interleaving(config, &traces(4), &|sim| {
                sim.set_prepopulate_multi(true)
            });
            assert!(
                !result.fault_stats.is_quiet(),
                "{cores} cores: no fault hit"
            );
            let recovery = result.recovery_stats;
            assert!(
                recovery.retries + recovery.hedges_issued > 0,
                "{cores} cores: recovery never acted"
            );
        }
    }

    proptest! {
        /// Generated schedules: every core count from 1 to 4 over 1 to 6
        /// processes, a quantum from 50 µs to run-to-completion, and each of
        /// the canonical storm, tail-tolerant recovery, a tenant budget and
        /// prepopulation on or off. The four flags are packed into one
        /// integer: the vendored proptest shim's tuples stop at four
        /// strategies.
        #[test]
        fn prop_generated_schedules_match_the_interleaving(
            cores in 1usize..5,
            processes in 1usize..7,
            quantum in 0usize..4,
            flags in 0u8..16,
        ) {
            let quanta = [50, 100, 400, 3_600_000_000].map(Nanos::from_micros);
            let mut builder = config(cores).sched_quantum(quanta[quantum]);
            if flags & 1 != 0 {
                builder = builder.fault_plan(FaultSpec::canonical_storm());
            }
            if flags & 2 != 0 {
                builder = builder.recovery_policy(RecoveryPolicy::tail_tolerant());
            }
            let config = builder.build().expect("valid config");
            let (budget, prepopulate) = (flags & 4 != 0, flags & 8 != 0);
            let traces = traces_of(processes, MIB / 4, 500);
            assert_by_core_matches_interleaving(config, &traces, &|sim| {
                if budget {
                    sim.set_tenant_budget_pages(Pid(1), 64);
                }
                sim.set_prepopulate_multi(prepopulate);
            });
        }
    }

    /// Partials of real shard workers with every merged field populated:
    /// lazy eviction over a bounded cache (post-hit waits), a storm with
    /// tail-tolerant recovery (fault and recovery ledgers), a tenant budget
    /// (per-tenant evictions) and prepopulation (remote accesses).
    fn populated_partials(cores: usize) -> Vec<RunResult> {
        let config = config(cores)
            .eviction(EvictionPolicy::Lazy)
            .prefetch_cache_pages(64)
            .fault_plan(FaultSpec::canonical_storm())
            .recovery_policy(RecoveryPolicy::tail_tolerant())
            .build()
            .expect("valid config");
        let traces = traces(cores + 2);
        let (workers, sched) = split(config, &traces, &|sim| {
            sim.set_prepopulate_multi(true);
            sim.set_tenant_budget_pages(Pid(1), 64);
        });
        let partials = replay(ReplayMode::Serial, workers, &traces, sched, false).partials;
        // Checked on the partials themselves, not on a fold, so a broken
        // fold fails the laws below rather than this guard.
        let populated = |field: fn(&RunResult) -> bool| partials.iter().any(field);
        assert!(populated(|r| !r.remote_access_latency.is_empty()));
        assert!(populated(|r| !r.eviction_wait.is_empty()), "eviction waits");
        assert!(
            populated(|r| !r.allocation_wait.is_empty()),
            "allocation waits"
        );
        assert!(populated(|r| !r.prefetch_stats.timeliness_ref().is_empty()));
        assert!(populated(|r| !r.prefetch_outcomes.is_quiet()));
        assert!(populated(|r| !r.fault_stats.is_quiet()), "faults");
        assert!(populated(|r| !r.recovery_stats.is_quiet()), "recovery");
        assert!(populated(|r| !r.tenant_evictions.is_empty()));
        assert!(populated(|r| !r.tenant_recovery.is_empty()));
        partials
    }

    /// Every ordering of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        permutations(n - 1)
            .into_iter()
            .flat_map(|order| {
                (0..n).map(move |at| {
                    let mut order = order.clone();
                    order.insert(at, n - 1);
                    order
                })
            })
            .collect()
    }

    #[test]
    fn absorbing_an_empty_result_changes_nothing() {
        for cores in 2..=4 {
            for partial in populated_partials(cores) {
                let mut right = partial.clone();
                right.absorb_shard(RunResult::default());
                assert_eq!(right, partial, "{cores} cores: partial + empty");
                // Folded into an empty result, a partial comes back whole
                // apart from the fields the fold leaves to its caller.
                let mut left = RunResult {
                    config_label: partial.config_label.clone(),
                    workload: partial.workload.clone(),
                    completion_time: partial.completion_time,
                    ..RunResult::default()
                };
                left.absorb_shard(partial.clone());
                assert_eq!(left, partial, "{cores} cores: empty + partial");
            }
        }
    }

    #[test]
    fn absorbing_shards_in_any_order_gives_equal_results() {
        for cores in 2..=4 {
            let partials = populated_partials(cores);
            let fold = |order: &[usize]| {
                let mut result = RunResult::default();
                for &i in order {
                    result.absorb_shard(partials[i].clone());
                }
                result
            };
            let in_core_order = fold(&(0..cores).collect::<Vec<_>>());
            for order in permutations(cores) {
                assert_eq!(fold(&order), in_core_order, "{cores} cores, {order:?}");
            }
        }
    }
}
