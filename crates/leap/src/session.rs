//! The unified [`Simulator`] trait and the observable [`Session`] API.
//!
//! Both front-ends (`VmmSimulator`, `VfsSimulator`) sit behind one trait,
//! and every replay — single-process ([`Simulator::run`],
//! [`Simulator::run_prepopulated`]) or multi-process
//! ([`Simulator::run_multi`]) — goes through one driver,
//! [`crate::parallel`], under the time-sliced per-core scheduler in
//! [`crate::sched`]. A single-process replay is the unsplit simulator as
//! the one worker of a one-core schedule; a multi-process replay first
//! splits the front-end into replay workers
//! ([`Simulator::into_workers`]), stepped one core at a time or one thread
//! per core.
//!
//! A [`Session`] runs the same replays with [`Observer`]s attached: the
//! driver buffers each core's [`FaultEvent`]s and, once the replay
//! finishes, hands them to the observers in batches. Observed and
//! unobserved runs take the same path, so their results are identical and
//! figures computed from the stream match the batch numbers (see
//! `leap-bench`'s Figure 2/7 percentile rows). Every event carries the core
//! it ran on and a per-core dense `seq`, so per-core streams (and Figure
//! 13-style scale-up curves) fall out of the same observer machinery — see
//! [`CoreActivity`] and [`EventLog`].

use crate::config::{ReplayMode, SimConfig};
use crate::parallel;
use crate::result::RunResult;
use crate::sched::CoreScheduler;
use leap_mem::{CacheOrigin, Pid};
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
    /// 0-based index of the access in its core's stream, stamped by the
    /// replay driver ([`crate::parallel`]) as it buffers each core's events:
    /// dense from zero per core, delivered in `(core, seq)` order. Events
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
/// Events are delivered in batches once the replay finishes: the driver
/// slices its per-core event buffers, so one virtual call amortises over
/// many events. Implement [`Observer::on_batch`] to consume whole slices
/// zero-copy; the default forwards each event to [`Observer::on_event`], so
/// per-event observers keep working unchanged.
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

/// A paging/file front-end that replays access traces.
///
/// The required methods are what the replay driver ([`crate::parallel`])
/// calls: [`Simulator::prepare`], then [`Simulator::enter_core`] and
/// [`Simulator::step_access`] per access, then [`Simulator::into_result`],
/// plus [`Simulator::into_workers`] to split a multi-process replay. The
/// entry points [`Simulator::run`], [`Simulator::run_prepopulated`] and
/// [`Simulator::run_multi`] are provided on top of them; each is the
/// matching [`Session`] method with no observer attached.
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
    /// The event's `seq` is left 0 for the driver to stamp.
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
    /// driver calls it before every access; `now` never runs behind the
    /// worker's own clock for that core.
    fn enter_core(&mut self, core: usize, now: Nanos);

    /// Replays a single-process trace to completion.
    fn run(self, trace: &AccessTrace) -> RunResult {
        self.session().run(trace)
    }

    /// Like [`Simulator::run`], but first touches the trace's working set
    /// once in address order without recording any metrics (see
    /// [`Simulator::prepopulate`]).
    ///
    /// This models the paper's microbenchmark methodology: the application
    /// allocates and initialises its working set (a sequential sweep, which
    /// also fixes the swap-slot layout to follow the address order), and
    /// only the subsequent pattern accesses are measured.
    fn run_prepopulated(self, trace: &AccessTrace) -> RunResult {
        self.session().run_prepopulated(trace)
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
        self.session().run_multi(traces)
    }

    /// Wraps this simulator in an observable [`Session`].
    fn session<'obs>(self) -> Session<'obs, Self> {
        Session::new(self)
    }
}

/// Runs a [`Simulator`]'s replays with [`Observer`]s attached, fanning
/// every [`FaultEvent`] out to them.
///
/// # Examples
///
/// ```
/// use leap::prelude::*;
/// use leap_sim_core::units::MIB;
///
/// let trace = leap_workloads::stride_trace(4 * MIB, 10, 1);
/// let sim = SimConfig::builder().seed(7).build_vmm().unwrap();
/// let mut counts = OutcomeCounts::default();
/// let result = sim.session().observe(&mut counts).run(&trace);
/// // The stream carries every remote access the result counts.
/// assert_eq!(
///     counts.cache_hits + counts.remote_fetches + counts.buffered_writes,
///     result.remote_accesses()
/// );
/// ```
pub struct Session<'obs, S> {
    sim: S,
    observers: Vec<&'obs mut dyn Observer>,
}

impl<'obs, S: Simulator> Session<'obs, S> {
    /// Wraps a simulator.
    pub fn new(sim: S) -> Self {
        Session {
            sim,
            observers: Vec::new(),
        }
    }

    /// Attaches an observer (chainable).
    pub fn observe(mut self, observer: &'obs mut dyn Observer) -> Self {
        self.observers.push(observer);
        self
    }

    /// Observed [`Simulator::run`]: the identical replay, with every access
    /// also fanned out to the observers.
    pub fn run(self, trace: &AccessTrace) -> RunResult {
        self.run_single(trace, false)
    }

    /// Observed [`Simulator::run_prepopulated`]. The population pass is not
    /// observed, matching how it is excluded from the metrics.
    pub fn run_prepopulated(self, trace: &AccessTrace) -> RunResult {
        self.run_single(trace, true)
    }

    /// Observed [`Simulator::run_multi`]: the identical replay (same
    /// scheduler, same seed, same [`crate::config::ReplayMode`]), with the
    /// merged per-core [`FaultEvent`] stream also fanned out to the
    /// observers in `(core, seq)` order.
    pub fn run_multi(self, traces: &[AccessTrace]) -> RunResult {
        let config = *self.sim.config();
        let lens: Vec<usize> = traces.iter().map(AccessTrace::len).collect();
        let sched = CoreScheduler::new(&lens, config.cores, config.sched_quantum, config.seed);
        let workers = self.sim.into_workers(traces, &sched);
        drive(config.replay_mode, workers, traces, sched, self.observers)
    }

    /// Replays `trace` as process 1 with the unsplit simulator as the one
    /// worker of a one-core schedule. With a single process the scheduler
    /// never rotates or charges a context switch, so every slot starts at
    /// the worker's own clock.
    fn run_single(mut self, trace: &AccessTrace, prepopulate: bool) -> RunResult {
        let config = *self.sim.config();
        let sched = CoreScheduler::new(&[trace.len()], 1, config.sched_quantum, config.seed);
        let traces = std::slice::from_ref(trace);
        self.sim.prepare(traces);
        if prepopulate {
            self.sim.prepopulate(Pid(1), trace);
        }
        drive(
            config.replay_mode,
            vec![self.sim],
            traces,
            sched,
            self.observers,
        )
    }
}

/// Replays `traces` over `workers` under `sched` in `mode`, folds the
/// partial results, delivers the event stream to `observers` and notifies
/// them of the result.
fn drive<S: Simulator>(
    mode: ReplayMode,
    workers: Vec<S>,
    traces: &[AccessTrace],
    sched: CoreScheduler,
    mut observers: Vec<&mut dyn Observer>,
) -> RunResult {
    let record_events = !observers.is_empty();
    let outcome = parallel::replay(mode, workers, traces, sched, record_events);
    let result = parallel::finish_sharded(outcome, &mut observers);
    for observer in &mut observers {
        observer.on_complete(&result);
    }
    result
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
