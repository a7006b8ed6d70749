//! The unified [`Simulator`] trait and the stepwise [`Session`] API.
//!
//! Historically `VmmSimulator` and `VfsSimulator` were two unrelated structs
//! exposing only batch `run(trace) -> RunResult`. This module puts both
//! behind one trait and adds a streaming mode: a [`Session`] drives a
//! simulator access by access and hands every resulting [`FaultEvent`] to
//! [`Observer`] hooks *while the run executes*. The batch result is
//! unchanged — `Session::run` and `Simulator::run` replay the exact same
//! step sequence — so figures can be computed from the stream with
//! numerically identical output (see `leap-bench`'s Figure 2/7 percentile
//! rows).
//!
//! Multi-process replays ([`Simulator::run_multi`]) have one driver: the
//! front-end splits itself into replay workers
//! ([`Simulator::into_workers`]), which [`crate::parallel`] steps under the
//! time-sliced per-core scheduler in [`crate::sched`], one core at a time
//! or one thread per core. Every [`FaultEvent`] carries the core it ran on
//! and a per-core dense `seq`, so per-core streams (and Figure 13-style
//! scale-up curves) fall out of the same observer machinery — see
//! [`CoreActivity`] and [`EventLog`].

use crate::config::SimConfig;
use crate::parallel;
use crate::result::RunResult;
use crate::sched::CoreScheduler;
use leap_mem::{CacheOrigin, Pid};
use leap_metrics::LatencyHistogram;
use leap_sim_core::Nanos;
use leap_workloads::{Access, AccessTrace};

/// How one access was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The page was resident and mapped: a local DRAM reference.
    LocalHit,
    /// First touch: a demand-zero minor fault.
    MinorFault,
    /// A remote page access served from the swap/prefetch cache.
    CacheHit {
        /// How the entry got into the cache (prefetched vs demand-cached).
        origin: CacheOrigin,
    },
    /// A remote page access that traversed the data path to the backend.
    RemoteFetch,
    /// A buffered file write absorbed by the VFS cache (VFS front-end only).
    BufferedWrite,
}

impl AccessOutcome {
    /// True for the outcomes the paper counts as *remote page accesses*
    /// (everything that went to the remote-access machinery rather than
    /// plain resident memory).
    pub fn is_remote(self) -> bool {
        !matches!(self, AccessOutcome::LocalHit | AccessOutcome::MinorFault)
    }
}

/// One access's journey through the fault engine, as emitted to observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// 0-based index of the access in its core's stream, stamped by
    /// whatever delivers the event: a [`Session`] numbers the accesses it
    /// steps densely from zero, and a multi-process replay
    /// ([`Simulator::run_multi`]) numbers each core's accesses densely from
    /// zero and delivers the merged stream in `(core, seq)` order. Events
    /// returned straight from [`Simulator::step_access`] carry 0.
    pub seq: u64,
    /// The accessing process.
    pub pid: Pid,
    /// The CPU core the access ran on. Scheduled multi-process replays
    /// ([`Simulator::run_multi`]) report the scheduler's core placement;
    /// single-process replays attribute everything to core 0.
    pub core: usize,
    /// The virtual page (VMM) or file page (VFS) touched.
    pub page: u64,
    /// Whether the access was a write.
    pub is_write: bool,
    /// The access's compute (application think) time — copied from
    /// [`leap_workloads::Access::compute`] so stream consumers like
    /// [`crate::TraceRecorder`] can reconstruct application-time clocks
    /// without the replayed trace at hand.
    pub compute: Nanos,
    /// How the access was served.
    pub outcome: AccessOutcome,
    /// Latency charged to the access (what the latency histograms record).
    pub latency: Nanos,
    /// Simulated time when the access completed. In scheduled multi-core
    /// replays this is the *core-local* time, so it is monotonic per core
    /// but not across the whole event stream.
    pub completed_at: Nanos,
    /// Prefetch candidates issued on the back of this access.
    pub prefetches_issued: u32,
}

/// A hook receiving the event stream of a [`Session`] run.
///
/// Events are delivered in batches through an `EventRing`: the driving
/// loop buffers events and flushes a full slice at a time, so one virtual
/// call amortises over many events. Implement [`Observer::on_batch`] to
/// consume whole slices zero-copy; the default forwards each event to
/// [`Observer::on_event`], so per-event observers keep working unchanged.
pub trait Observer {
    /// Called for every access, in replay order.
    fn on_event(&mut self, event: &FaultEvent);

    /// Called with each flushed batch of events, in replay order. Exactly
    /// the concatenation of all batches equals the full event stream; every
    /// event is delivered exactly once.
    fn on_batch(&mut self, events: &[FaultEvent]) {
        for event in events {
            self.on_event(event);
        }
    }

    /// Called once with the finished result.
    fn on_complete(&mut self, _result: &RunResult) {}
}

/// A bounded buffer batching [`FaultEvent`] delivery to [`Observer`]s.
///
/// The driving loops push events into the ring; once
/// [`EventRing::DEFAULT_BATCH`] events accumulate (or the run finishes) the
/// buffered slice is handed to every observer's [`Observer::on_batch`] in
/// one call. With no observers attached, pushes are dropped without
/// buffering, so unobserved runs pay nothing.
#[derive(Debug)]
pub(crate) struct EventRing {
    buf: Vec<FaultEvent>,
    capacity: usize,
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::new(EventRing::DEFAULT_BATCH)
    }
}

impl EventRing {
    /// Default batch size: large enough to amortise observer dispatch, small
    /// enough to stay in cache.
    pub(crate) const DEFAULT_BATCH: usize = 256;

    /// Creates a ring flushing every `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring capacity must be nonzero");
        EventRing {
            buf: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Buffers one event, flushing to `observers` when the batch is full.
    /// With no observers the event is dropped immediately.
    pub(crate) fn push(&mut self, event: FaultEvent, observers: &mut [&mut dyn Observer]) {
        if observers.is_empty() {
            return;
        }
        self.buf.push(event);
        if self.buf.len() >= self.capacity {
            self.flush(observers);
        }
    }

    /// Delivers any buffered events to every observer and clears the buffer.
    pub(crate) fn flush(&mut self, observers: &mut [&mut dyn Observer]) {
        if self.buf.is_empty() {
            return;
        }
        for observer in observers.iter_mut() {
            observer.on_batch(&self.buf);
        }
        self.buf.clear();
    }
}

/// A paging/file front-end that replays access traces.
///
/// The required methods are the stepwise core ([`Simulator::prepare`], then
/// [`Simulator::step_access`] per access, then [`Simulator::into_result`])
/// and the two hooks of the multi-process driver
/// ([`Simulator::into_workers`], [`Simulator::enter_core`]); the batch entry
/// points [`Simulator::run`] and [`Simulator::run_multi`] are provided on
/// top of them, as is the observable [`Session`] wrapper.
///
/// Simulators are `Send` so a thread-parallel replay can move shard workers
/// onto their own OS threads.
pub trait Simulator: Sized + Send {
    /// The configuration this simulator was built with.
    fn config(&self) -> &SimConfig;

    /// The run label used in reports (component names + memory fraction).
    fn label(&self) -> &str;

    /// Sizes per-process state for the given traces (process `i` in
    /// `traces` becomes `Pid(i + 1)`) and stamps the result metadata.
    fn prepare(&mut self, traces: &[AccessTrace]);

    /// Replays the working set once without recording metrics (the paper's
    /// allocate-and-initialise phase). Front-ends without that notion keep
    /// the default no-op.
    fn prepopulate(&mut self, _pid: Pid, _trace: &AccessTrace) {}

    /// Executes one access for `pid`, charging its latency, and describes it.
    /// The event's `seq` is left 0 for the caller to stamp.
    fn step_access(&mut self, pid: Pid, access: Access) -> FaultEvent;

    /// The current simulated instant (the active core's local clock).
    fn now(&self) -> Nanos;

    /// Finishes the run and returns the accumulated result. For a replay
    /// worker this is its partial result; the driver folds the partials and
    /// stamps the makespan.
    fn into_result(self) -> RunResult;

    /// Splits this simulator into the replay workers of a scheduled
    /// multi-process replay of `traces` under `sched`: either one
    /// share-nothing worker per core, worker `c` owning exactly the
    /// processes `sched` dealt onto core `c`, or — when the front-end's
    /// state cannot be split per core — a single worker spanning every
    /// core. Either way the workers come back prepared (and prepopulated,
    /// where the front-end does that), with the run's label and workload
    /// name stamped on their results. See [`crate::parallel`].
    ///
    /// Several workers must share no mutable state: both replay modes run
    /// each one over its own core's schedule to completion, one after
    /// another or on parallel threads, never interleaved with the others.
    /// Returning a single worker keeps the global interleaving.
    fn into_workers(self, traces: &[AccessTrace], sched: &CoreScheduler) -> Vec<Self>;

    /// Moves the worker onto `core` at that core's local time `now`. The
    /// driver calls it before every access of a scheduled replay; `now`
    /// never runs behind the worker's own clock for that core.
    fn enter_core(&mut self, core: usize, now: Nanos);

    /// Replays a single-process trace to completion.
    fn run(mut self, trace: &AccessTrace) -> RunResult {
        self.prepare(std::slice::from_ref(trace));
        for access in trace.iter() {
            self.step_access(Pid(1), *access);
        }
        self.into_result()
    }

    /// Replays `traces` as N concurrent processes time-shared over
    /// [`SimConfig::cores`] cores by the deterministic scheduler in
    /// [`crate::sched`]: per-core run queues, one
    /// [`SimConfig::sched_quantum`] time slice per turn, per-core sharded
    /// swap/cache state. Process `i` in `traces` becomes `Pid(i + 1)`.
    ///
    /// The reported completion time is the *makespan* — the local time of
    /// the latest core — so throughput scales with cores the way the
    /// paper's Figure 13 setup does. Equal seeds (and quantum) reproduce
    /// the schedule, the per-core [`FaultEvent`] streams, and every
    /// aggregate statistic exactly, in either
    /// [`SimConfig::replay_mode`](crate::SimConfig::replay_mode).
    fn run_multi(self, traces: &[AccessTrace]) -> RunResult {
        self.run_multi_observed(traces, &mut [])
    }

    /// Like [`Simulator::run_multi`], additionally delivering every
    /// [`FaultEvent`] to `observers` in `(core, seq)` order, in batches
    /// (this is what [`Session::run_multi`] calls; `on_complete` is the
    /// session's job).
    ///
    /// Builds the scheduler, splits the front-end with
    /// [`Simulator::into_workers`], steps the workers in the configured
    /// [`crate::config::ReplayMode`], and folds their partial results (see
    /// [`crate::parallel`]).
    fn run_multi_observed(
        self,
        traces: &[AccessTrace],
        observers: &mut [&mut dyn Observer],
    ) -> RunResult {
        let config = self.config();
        let mode = config.replay_mode;
        let lens: Vec<usize> = traces.iter().map(AccessTrace::len).collect();
        let sched = CoreScheduler::with_context_switch(
            &lens,
            config.cores,
            config.sched_quantum,
            config.seed,
            config.context_switch_cost,
        );
        let workers = self.into_workers(traces, &sched);
        let outcome = parallel::replay(mode, workers, traces, sched, !observers.is_empty());
        parallel::finish_sharded(outcome, observers)
    }

    /// Wraps this simulator in an observable [`Session`].
    fn session<'obs>(self) -> Session<'obs, Self> {
        Session::new(self)
    }
}

/// Drives a [`Simulator`] step by step, fanning every [`FaultEvent`] out to
/// the attached [`Observer`]s.
///
/// # Examples
///
/// ```
/// use leap::prelude::*;
/// use leap_sim_core::units::MIB;
///
/// let trace = leap_workloads::stride_trace(4 * MIB, 10, 1);
/// let sim = SimConfig::builder().seed(7).build_vmm().unwrap();
/// let mut remote = HistogramObserver::remote_accesses();
/// let result = sim
///     .session()
///     .observe(&mut remote)
///     .run(&trace);
/// // The stream reproduces the batch histogram exactly.
/// assert_eq!(
///     remote.histogram().len(),
///     result.remote_access_latency.len()
/// );
/// ```
pub struct Session<'obs, S> {
    sim: S,
    observers: Vec<&'obs mut dyn Observer>,
    ring: EventRing,
    seq: u64,
}

impl<'obs, S: Simulator> Session<'obs, S> {
    /// Wraps a simulator.
    pub fn new(sim: S) -> Self {
        Session {
            sim,
            observers: Vec::new(),
            ring: EventRing::default(),
            seq: 0,
        }
    }

    /// Attaches an observer (chainable).
    pub fn observe(mut self, observer: &'obs mut dyn Observer) -> Self {
        self.observers.push(observer);
        self
    }

    /// Sizes per-process state for the given traces (see
    /// [`Simulator::prepare`]).
    pub fn prepare(&mut self, traces: &[AccessTrace]) {
        self.sim.prepare(traces);
    }

    /// Executes one access, stamps its `seq` (dense from zero over the
    /// session), and queues its event for the observers.
    ///
    /// Events are delivered in batches (see `EventRing`); any still-queued
    /// events are flushed by [`Session::finish`], so by the time the result
    /// is returned observers have seen the complete stream.
    pub fn step(&mut self, pid: Pid, access: Access) -> FaultEvent {
        let mut event = self.sim.step_access(pid, access);
        event.seq = self.seq;
        self.seq += 1;
        self.ring.push(event, &mut self.observers);
        event
    }

    /// Finishes the run, flushes any batched events, notifies the observers,
    /// and returns the result.
    pub fn finish(self) -> RunResult {
        let mut observers = self.observers;
        let mut ring = self.ring;
        ring.flush(&mut observers);
        let result = self.sim.into_result();
        for observer in &mut observers {
            observer.on_complete(&result);
        }
        result
    }

    /// Streamed equivalent of [`Simulator::run`]: numerically identical
    /// result, with every access also fanned out to the observers.
    pub fn run(mut self, trace: &AccessTrace) -> RunResult {
        self.prepare(std::slice::from_ref(trace));
        for access in trace.iter() {
            self.step(Pid(1), *access);
        }
        self.finish()
    }

    /// Streamed equivalent of `run` preceded by an unmetered population pass
    /// (see [`Simulator::prepopulate`]); the population phase is not
    /// observed, matching how the batch API excludes it from metrics.
    pub fn run_prepopulated(mut self, trace: &AccessTrace) -> RunResult {
        self.prepare(std::slice::from_ref(trace));
        self.sim.prepopulate(Pid(1), trace);
        for access in trace.iter() {
            self.step(Pid(1), *access);
        }
        self.finish()
    }

    /// Streamed equivalent of [`Simulator::run_multi`]: the identical
    /// replay (same scheduler, same seed, same [`crate::config::ReplayMode`]),
    /// with the merged per-core [`FaultEvent`] stream also fanned out to the
    /// observers in `(core, seq)` order.
    pub fn run_multi(mut self, traces: &[AccessTrace]) -> RunResult {
        let result = self.sim.run_multi_observed(traces, &mut self.observers);
        for observer in &mut self.observers {
            observer.on_complete(&result);
        }
        result
    }
}

/// An [`Observer`] that accumulates event latencies into a
/// [`LatencyHistogram`], filtered by outcome.
#[derive(Debug, Default)]
pub struct HistogramObserver {
    histogram: LatencyHistogram,
    remote_only: bool,
    events: u64,
}

impl HistogramObserver {
    /// Collects remote page accesses only (cache hits, remote fetches, and
    /// VFS buffered writes — exactly what `RunResult::remote_access_latency`
    /// records).
    pub fn remote_accesses() -> Self {
        HistogramObserver {
            remote_only: true,
            ..HistogramObserver::default()
        }
    }

    /// The accumulated histogram.
    pub fn histogram(&mut self) -> &mut LatencyHistogram {
        &mut self.histogram
    }

    /// Number of events that matched the filter.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Observer for HistogramObserver {
    fn on_event(&mut self, event: &FaultEvent) {
        if self.remote_only && !event.outcome.is_remote() {
            return;
        }
        self.events += 1;
        self.histogram.record(event.latency);
    }
}

/// An [`Observer`] counting outcomes, for quick stream-level sanity checks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Resident-page accesses.
    pub local_hits: u64,
    /// Demand-zero minor faults.
    pub minor_faults: u64,
    /// Remote accesses served from the cache.
    pub cache_hits: u64,
    /// Remote accesses that traversed the data path.
    pub remote_fetches: u64,
    /// Buffered VFS writes.
    pub buffered_writes: u64,
    /// Total prefetch candidates issued.
    pub prefetches_issued: u64,
}

impl Observer for OutcomeCounts {
    fn on_event(&mut self, event: &FaultEvent) {
        match event.outcome {
            AccessOutcome::LocalHit => self.local_hits += 1,
            AccessOutcome::MinorFault => self.minor_faults += 1,
            AccessOutcome::CacheHit { .. } => self.cache_hits += 1,
            AccessOutcome::RemoteFetch => self.remote_fetches += 1,
            AccessOutcome::BufferedWrite => self.buffered_writes += 1,
        }
        self.prefetches_issued += event.prefetches_issued as u64;
    }
}

/// Per-core aggregates of one core's slice of the event stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreStats {
    /// Accesses this core completed.
    pub accesses: u64,
    /// Of those, remote page accesses.
    pub remote_accesses: u64,
    /// Prefetch candidates issued from this core.
    pub prefetches_issued: u64,
    /// The core's local time when its last access completed.
    pub last_completed_at: Nanos,
}

/// An [`Observer`] splitting the event stream by core — the input for
/// Figure 13-style scale-up curves (throughput vs process count over C
/// cores), computed entirely from the stream.
///
/// # Examples
///
/// ```
/// use leap::prelude::*;
/// use leap_sim_core::units::MIB;
///
/// let traces = vec![
///     leap_workloads::sequential_trace(2 * MIB, 1),
///     leap_workloads::sequential_trace(2 * MIB, 1),
/// ];
/// let sim = SimConfig::builder().cores(2).seed(3).build_vmm().unwrap();
/// let mut cores = CoreActivity::default();
/// let result = sim.session().observe(&mut cores).run_multi(&traces);
/// // Both processes ran, one per core, and the makespan reported by the
/// // result is the latest core's local completion time.
/// assert_eq!(cores.total_accesses(), result.total_accesses);
/// assert_eq!(cores.completion_time(), result.completion_time);
/// ```
#[derive(Debug, Default, Clone)]
pub struct CoreActivity {
    per_core: Vec<CoreStats>,
}

impl CoreActivity {
    /// Stats per core, indexed by core id (cores that never ran an access
    /// are absent from the tail).
    pub fn per_core(&self) -> &[CoreStats] {
        &self.per_core
    }

    /// Number of cores that completed at least one access.
    pub fn active_cores(&self) -> usize {
        self.per_core.iter().filter(|c| c.accesses > 0).count()
    }

    /// Total accesses across all cores.
    pub fn total_accesses(&self) -> u64 {
        self.per_core.iter().map(|c| c.accesses).sum()
    }

    /// The stream's makespan: the latest per-core completion instant.
    pub fn completion_time(&self) -> Nanos {
        self.per_core
            .iter()
            .map(|c| c.last_completed_at)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Aggregate throughput over the makespan, in accesses per second.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        let secs = self.completion_time().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_accesses() as f64 / secs
    }
}

impl Observer for CoreActivity {
    fn on_event(&mut self, event: &FaultEvent) {
        if event.core >= self.per_core.len() {
            self.per_core.resize(event.core + 1, CoreStats::default());
        }
        let stats = &mut self.per_core[event.core];
        stats.accesses += 1;
        if event.outcome.is_remote() {
            stats.remote_accesses += 1;
        }
        stats.prefetches_issued += event.prefetches_issued as u64;
        stats.last_completed_at = stats.last_completed_at.max(event.completed_at);
    }
}

/// An [`Observer`] recording the full event stream, with per-core views —
/// what the scheduler-determinism tests compare run against run.
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    events: Vec<FaultEvent>,
}

impl EventLog {
    /// Every event, in global replay order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events that ran on `core`, in that core's replay order.
    pub fn for_core(&self, core: usize) -> Vec<FaultEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.core == core)
            .collect()
    }

    /// The highest core id observed plus one (0 for an empty log).
    pub fn cores_seen(&self) -> usize {
        self.events.iter().map(|e| e.core + 1).max().unwrap_or(0)
    }
}

impl Observer for EventLog {
    fn on_event(&mut self, event: &FaultEvent) {
        self.events.push(*event);
    }
}
