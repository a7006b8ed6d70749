//! The page access tracker: per-process prefetcher isolation (§4.1).
//!
//! Leap keeps one access history and prefetcher state per process, so
//! concurrent applications cannot pollute each other's trend detection. The
//! default Linux swap path, in contrast, makes its readahead decisions from
//! the single shared swap-in stream. [`PageAccessTracker`] models both modes:
//! with isolation every process gets its own prefetcher instance; without it
//! all processes share one.
//!
//! Isolated trend state is kept per `(process, core)`, matching the per-CPU
//! majority-trend state the kernel implementation of Leap keeps so cores
//! never contend on one history buffer. The scheduler pins every process
//! to one core for its lifetime, so a process meets exactly one instance
//! in a replay (core 0 in single-process replays). Instances sit in a
//! vector indexed by `pid × cores + core` (processes are numbered densely
//! from `Pid(1)`), so routing a fault is one index, not a hash probe.
//!
//! Prefetcher instances come from a [`PrefetcherFactory`], so any algorithm
//! — built-in or injected with
//! [`crate::SimConfigBuilder::custom_prefetcher`] — gets correct
//! per-process isolation for free.

use crate::components::{KindPrefetcherFactory, PrefetcherFactory};
use crate::config::SimConfig;
use crate::slots::{pid_slot, Slots};
use leap_mem::Pid;
use leap_prefetcher::{PageAddr, PrefetchDecision, Prefetcher, PrefetcherKind};
use std::sync::Arc;

pub use crate::components::build_prefetcher;

/// Routes fault and hit notifications to per-process (or shared) prefetchers.
///
/// # Examples
///
/// ```
/// use leap::tracker::PageAccessTracker;
/// use leap_mem::Pid;
/// use leap_prefetcher::{PageAddr, PrefetcherKind};
///
/// let mut tracker = PageAccessTracker::from_kind(PrefetcherKind::Leap, 32, 8, true);
/// let decision = tracker.on_fault(Pid(1), PageAddr(100));
/// assert!(decision.len() <= 8);
/// ```
#[derive(Debug)]
pub struct PageAccessTracker {
    factory: Arc<dyn PrefetcherFactory>,
    config: SimConfig,
    /// Isolated prefetcher instances at `pid × cores + core`.
    per_process: Slots<Box<dyn Prefetcher>>,
    /// `config.cores`: the stride between two processes' instances.
    cores: usize,
    shared: Box<dyn Prefetcher>,
}

impl PageAccessTracker {
    /// Creates a tracker that builds prefetchers with `factory` under the
    /// given configuration.
    ///
    /// With `config.per_process_isolation` each process gets its own
    /// prefetcher state (Leap's behaviour); otherwise a single shared
    /// prefetcher sees the merged access stream (the kernel's behaviour).
    pub fn new(factory: Arc<dyn PrefetcherFactory>, config: &SimConfig) -> Self {
        PageAccessTracker {
            shared: factory.build(config),
            factory,
            config: *config,
            per_process: Slots::default(),
            cores: config.cores.max(1),
        }
    }

    /// Convenience constructor from a built-in [`PrefetcherKind`] (mostly
    /// for tests and bare replay tools).
    pub fn from_kind(
        kind: PrefetcherKind,
        history_size: usize,
        max_window: usize,
        isolated: bool,
    ) -> Self {
        let mut config = SimConfig::leap_defaults();
        config.prefetcher = kind;
        config.history_size = history_size;
        config.max_prefetch_window = max_window;
        config.per_process_isolation = isolated;
        PageAccessTracker::new(Arc::new(KindPrefetcherFactory(kind)), &config)
    }

    /// Name of the prefetching algorithm the tracker instantiates.
    #[cfg(test)]
    fn prefetcher_name(&self) -> &'static str {
        self.factory.name()
    }

    /// Number of distinct processes with isolated prefetcher state so far.
    #[cfg(test)]
    fn tracked_processes(&self) -> usize {
        let mut pids: Vec<usize> = self
            .per_process
            .indices()
            .map(|slot| slot / self.cores)
            .collect();
        pids.dedup();
        pids.len()
    }

    /// Number of isolated prefetcher instances (one per `(process, core)`
    /// pair).
    #[cfg(test)]
    fn tracked_instances(&self) -> usize {
        self.per_process.indices().count()
    }

    fn prefetcher_for(&mut self, pid: Pid, core: usize) -> &mut Box<dyn Prefetcher> {
        if self.config.per_process_isolation {
            assert!(
                core < self.cores,
                "core {core} is outside the configured {} cores",
                self.cores
            );
            let (factory, config) = (&self.factory, &self.config);
            self.per_process
                .get_or_insert_with(pid_slot(pid) * self.cores + core, || factory.build(config))
        } else {
            &mut self.shared
        }
    }

    /// Records a remote page fault by `pid` at swap offset `addr` and returns
    /// the prefetch decision (single-core replays: core 0).
    ///
    /// # Panics
    ///
    /// As [`PageAccessTracker::on_fault_at`] on core 0.
    pub fn on_fault(&mut self, pid: Pid, addr: PageAddr) -> PrefetchDecision {
        self.on_fault_at(pid, 0, addr)
    }

    /// Records a remote page fault by `pid` running on `core` at swap offset
    /// `addr` and returns the prefetch decision.
    ///
    /// # Panics
    ///
    /// With per-process isolation, instances sit at `pid × cores + core`
    /// (`cores` is the configuration's core count), so this panics when
    /// that index reaches 2^20 — for example `Pid(131072)` with 8 cores —
    /// and when `core` is not below `cores`. Processes are numbered densely
    /// from `Pid(1)`, so neither happens in a replay.
    /// A shared (non-isolated) tracker accepts any pid and core.
    pub fn on_fault_at(&mut self, pid: Pid, core: usize, addr: PageAddr) -> PrefetchDecision {
        self.prefetcher_for(pid, core).on_fault(addr)
    }

    /// Records a prefetch-cache hit by `pid` running on `core` at swap
    /// offset `addr`.
    ///
    /// # Panics
    ///
    /// As [`PageAccessTracker::on_fault_at`].
    pub fn on_prefetch_hit_at(&mut self, pid: Pid, core: usize, addr: PageAddr) {
        self.prefetcher_for(pid, core).on_prefetch_hit(addr);
    }

    /// Resets all prefetcher state.
    pub fn reset(&mut self) {
        self.shared.reset();
        for p in self.per_process.values_mut() {
            p.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_kind() {
        for kind in [
            PrefetcherKind::None,
            PrefetcherKind::NextNLine,
            PrefetcherKind::Stride,
            PrefetcherKind::ReadAhead,
            PrefetcherKind::Leap,
        ] {
            let p = build_prefetcher(kind, 32, 8);
            assert_eq!(p.name(), kind.label());
        }
    }

    #[test]
    fn isolated_tracker_keeps_processes_apart() {
        let mut tracker = PageAccessTracker::from_kind(PrefetcherKind::Leap, 32, 8, true);
        // Process 1 faults sequentially; process 2 faults randomly in between.
        let mut last_p1_decision = PrefetchDecision::none();
        for i in 0..64u64 {
            last_p1_decision = tracker.on_fault(Pid(1), PageAddr(i));
            let scrambled = (i * 7919 + 13) % 100_000 + 10_000;
            let _ = tracker.on_fault(Pid(2), PageAddr(scrambled));
        }
        assert_eq!(tracker.tracked_processes(), 2);
        // Process 1's sequential trend survives process 2's noise.
        assert!(
            !last_p1_decision.is_empty(),
            "isolation should let process 1 keep prefetching"
        );
        assert!(last_p1_decision.contains(PageAddr(64)));
    }

    #[test]
    fn shared_tracker_mixes_streams() {
        let mut tracker = PageAccessTracker::from_kind(PrefetcherKind::Leap, 32, 8, false);
        let mut last_p1_decision = PrefetchDecision::none();
        for i in 0..64u64 {
            last_p1_decision = tracker.on_fault(Pid(1), PageAddr(i));
            let scrambled = (i * 7919 + 13) % 100_000 + 10_000;
            let _ = tracker.on_fault(Pid(2), PageAddr(scrambled));
        }
        assert_eq!(tracker.tracked_processes(), 0);
        // The interleaved random faults destroy the sequential trend, so the
        // shared prefetcher ends up throttled (or at best speculative).
        assert!(
            last_p1_decision.is_empty() || last_p1_decision.speculative,
            "shared stream should not sustain confident prefetching: {last_p1_decision:?}"
        );
    }

    #[test]
    fn per_core_mode_keeps_cores_apart() {
        let mut tracker = PageAccessTracker::from_kind(PrefetcherKind::Leap, 32, 8, true);
        // The same process faults sequentially on core 0 while core 1 sees a
        // scrambled stream; per-core state keeps core 0's trend intact.
        let mut last = PrefetchDecision::none();
        for i in 0..64u64 {
            last = tracker.on_fault_at(Pid(1), 0, PageAddr(i));
            let scrambled = (i * 7919 + 13) % 100_000 + 10_000;
            let _ = tracker.on_fault_at(Pid(1), 1, PageAddr(scrambled));
        }
        assert_eq!(tracker.tracked_processes(), 1);
        assert_eq!(tracker.tracked_instances(), 2);
        assert!(
            !last.is_empty(),
            "core 0's sequential trend should survive core 1's noise"
        );
    }

    #[test]
    fn hits_are_routed_to_the_right_process() {
        let mut tracker = PageAccessTracker::from_kind(PrefetcherKind::Leap, 32, 8, true);
        let _ = tracker.on_fault(Pid(1), PageAddr(10));
        tracker.on_prefetch_hit_at(Pid(1), 0, PageAddr(11));
        // Hitting for an unknown process lazily creates its prefetcher.
        tracker.on_prefetch_hit_at(Pid(9), 0, PageAddr(5));
        assert_eq!(tracker.tracked_processes(), 2);
    }

    #[test]
    fn reset_clears_state() {
        let mut tracker = PageAccessTracker::from_kind(PrefetcherKind::Leap, 32, 8, true);
        for i in 0..32u64 {
            let _ = tracker.on_fault(Pid(1), PageAddr(i));
        }
        tracker.reset();
        // After a reset, the very first fault cannot know any trend, so the
        // decision is at most a single-page one.
        let d = tracker.on_fault(Pid(1), PageAddr(500));
        assert!(d.len() <= 1);
    }

    #[test]
    fn accessors_report_configuration() {
        let tracker = PageAccessTracker::from_kind(PrefetcherKind::Stride, 32, 4, false);
        assert_eq!(tracker.prefetcher_name(), PrefetcherKind::Stride.label());
    }

    #[test]
    fn custom_factories_get_isolation_too() {
        #[derive(Debug)]
        struct Fixed;
        impl PrefetcherFactory for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn build(&self, _config: &SimConfig) -> Box<dyn Prefetcher> {
                build_prefetcher(PrefetcherKind::NextNLine, 1, 2)
            }
        }
        let mut config = SimConfig::leap_defaults();
        config.per_process_isolation = true;
        let mut tracker = PageAccessTracker::new(Arc::new(Fixed), &config);
        let _ = tracker.on_fault(Pid(1), PageAddr(10));
        let _ = tracker.on_fault(Pid(2), PageAddr(20));
        assert_eq!(tracker.tracked_processes(), 2);
        assert_eq!(tracker.prefetcher_name(), "fixed");
    }

    #[test]
    #[should_panic(expected = "past the dense pid range")]
    fn isolated_tracker_rejects_pids_past_the_dense_range() {
        // 131072 × 8 cores = 2^20, the first slot past the range.
        let mut tracker = PageAccessTracker::from_kind(PrefetcherKind::Leap, 32, 8, true);
        let _ = tracker.on_fault(Pid(131_071), PageAddr(1));
        let _ = tracker.on_fault(Pid(131_072), PageAddr(1));
    }

    #[test]
    #[should_panic(expected = "core 8 is outside the configured 8 cores")]
    fn per_core_tracker_rejects_cores_past_the_configured_count() {
        let mut tracker = PageAccessTracker::from_kind(PrefetcherKind::Leap, 32, 8, true);
        let _ = tracker.on_fault_at(Pid(1), 7, PageAddr(1));
        let _ = tracker.on_fault_at(Pid(1), 8, PageAddr(1));
    }

    #[test]
    fn only_isolated_per_core_routing_checks_pid_and_core() {
        // Without isolation one shared instance serves every pid and core.
        let mut shared = PageAccessTracker::from_kind(PrefetcherKind::Leap, 32, 8, false);
        let _ = shared.on_fault_at(Pid(u32::MAX), 99, PageAddr(1));
        shared.on_prefetch_hit_at(Pid(u32::MAX), 99, PageAddr(2));
    }
}
