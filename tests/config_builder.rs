//! Integration tests for the validated config builder and the `Simulator` /
//! `Session` APIs at workspace level (through the `leap-repro` umbrella).

use leap_repro::leap_sim_core::units::MIB;
use leap_repro::leap_workloads::{sequential_trace, stride_trace, AccessTrace};
use leap_repro::prelude::*;

#[test]
fn builder_rejects_each_invalid_knob_with_the_right_variant() {
    assert!(matches!(
        SimConfig::builder().memory_fraction(-0.5).build(),
        Err(ConfigError::MemoryFractionOutOfRange(_))
    ));
    assert!(matches!(
        SimConfig::builder().memory_fraction(2.0).build(),
        Err(ConfigError::MemoryFractionOutOfRange(_))
    ));
    assert!(matches!(
        SimConfig::builder().history_size(0).build(),
        Err(ConfigError::ZeroHistorySize)
    ));
    assert!(matches!(
        SimConfig::builder().max_prefetch_window(0).build(),
        Err(ConfigError::ZeroPrefetchWindow)
    ));
    assert!(matches!(
        SimConfig::builder().cores(0).build(),
        Err(ConfigError::ZeroCores)
    ));
    assert!(matches!(
        SimConfig::builder().prefetch_cache_pages(0).build(),
        Err(ConfigError::ZeroPrefetchCache)
    ));
    assert!(matches!(
        SimConfig::builder()
            .max_prefetch_window(32)
            .prefetch_cache_pages(16)
            .build(),
        Err(ConfigError::CacheSmallerThanWindow {
            cache_pages: 16,
            window: 32
        })
    ));
    // Errors render actionably.
    let msg = SimConfig::builder()
        .memory_fraction(7.0)
        .build()
        .unwrap_err()
        .to_string();
    assert!(msg.contains("memory_fraction"), "got {msg:?}");
}

#[test]
fn builder_knobs_reach_the_simulation() {
    let trace = stride_trace(4 * MIB, 10, 1);
    // More history + a wider window than the defaults still runs and keeps
    // the Leap coverage on a regular pattern.
    let result = SimConfig::builder()
        .memory_fraction(0.5)
        .history_size(64)
        .max_prefetch_window(16)
        .cores(4)
        .seed(3)
        .build_vmm()
        .expect("valid config")
        .run_prepopulated(&trace);
    assert!(result.cache_stats.hit_ratio() > 0.7);
}

#[test]
fn simulator_trait_is_front_end_agnostic() {
    fn drive<S: Simulator>(sim: S, trace: &leap_repro::leap_workloads::AccessTrace) -> RunResult {
        sim.run(trace)
    }
    let trace = stride_trace(2 * MIB, 10, 1);
    let config = SimConfig::builder().memory_fraction(0.5).build().unwrap();
    let vmm = drive(VmmSimulator::new(config), &trace);
    let vfs = drive(VfsSimulator::new(config), &trace);
    assert_eq!(vmm.total_accesses, trace.len() as u64);
    assert_eq!(vfs.total_accesses, trace.len() as u64);
}

#[test]
fn vfs_supports_multi_process_runs_via_the_trait() {
    let traces = vec![stride_trace(2 * MIB, 10, 1), stride_trace(2 * MIB, 3, 1)];
    let total: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let config = SimConfig::builder().memory_fraction(0.5).build().unwrap();
    // The time-sliced scheduler drives the replay...
    let result = VfsSimulator::new(config).run_multi(&traces);
    assert_eq!(result.total_accesses, total);
    assert!(result.workload.contains('+'));
    // ...through the same observable driver as the VMM: every access is
    // delivered once, attributed to the core it ran on.
    let mut cores = CoreActivity::default();
    let observed = VfsSimulator::new(config)
        .session()
        .observe(&mut cores)
        .run_multi(&traces);
    assert_eq!(cores.total_accesses(), total);
    assert_eq!(cores.completion_time(), observed.completion_time);
    assert_eq!(observed.completion_time, result.completion_time);
}

#[test]
fn session_stream_sees_every_access_in_order() {
    #[derive(Default)]
    struct SeqCheck {
        next: u64,
        remote: u64,
        completed: bool,
    }
    impl Observer for SeqCheck {
        fn on_event(&mut self, event: &FaultEvent) {
            assert_eq!(event.seq, self.next, "events arrive in replay order");
            self.next += 1;
            if event.outcome.is_remote() {
                self.remote += 1;
            }
        }
        fn on_complete(&mut self, result: &RunResult) {
            assert_eq!(self.next, result.total_accesses);
            self.completed = true;
        }
    }

    let trace = stride_trace(2 * MIB, 10, 1);
    let config = SimConfig::builder().memory_fraction(0.5).build().unwrap();
    let mut check = SeqCheck::default();
    let mut counts = OutcomeCounts::default();
    let result = VmmSimulator::new(config)
        .session()
        .observe(&mut check)
        .observe(&mut counts)
        .run_prepopulated(&trace);
    assert!(check.completed);
    assert_eq!(check.remote, result.remote_accesses);
    assert_eq!(
        counts.local_hits + counts.minor_faults + counts.cache_hits + counts.remote_fetches,
        result.total_accesses
    );
    assert_eq!(counts.cache_hits, result.cache_stats.hits());
    assert_eq!(counts.remote_fetches, result.cache_stats.misses());
}

/// Runs `entry` (`run`, `run_prepopulated` or `run_multi`) on `session`.
fn observed<S: Simulator>(
    entry: &str,
    session: Session<'_, S>,
    single: &AccessTrace,
    multi: &[AccessTrace],
) -> RunResult {
    match entry {
        "run" => session.run(single),
        "run_prepopulated" => session.run_prepopulated(single),
        _ => session.run_multi(multi),
    }
}

/// Runs `entry` through the `Simulator` trait, with no observer.
fn unobserved<S: Simulator>(
    entry: &str,
    sim: S,
    single: &AccessTrace,
    multi: &[AccessTrace],
) -> RunResult {
    match entry {
        "run" => sim.run(single),
        "run_prepopulated" => sim.run_prepopulated(single),
        _ => sim.run_multi(multi),
    }
}

/// Every entry point gives the same whole `RunResult` with and without an
/// `EventLog` attached, and the log holds one event per access, numbered
/// densely from zero on each core.
fn assert_observing_changes_nothing<S: Simulator>(
    case: &str,
    new: impl Fn() -> S,
    single: &AccessTrace,
    multi: &[AccessTrace],
) {
    for entry in ["run", "run_prepopulated", "run_multi"] {
        let case = format!("{case}, {entry}");
        let batch = unobserved(entry, new(), single, multi);
        let mut log = EventLog::default();
        let streamed = observed(entry, new().session().observe(&mut log), single, multi);
        assert!(batch.remote_accesses > 0, "{case}: no remote access");
        assert_eq!(batch, streamed, "{case}: observing changed the result");
        assert_eq!(
            log.events().len() as u64,
            streamed.total_accesses,
            "{case}: one event per access"
        );
        let mut next_seq = vec![0u64; log.cores_seen()];
        for event in log.events() {
            assert_eq!(event.seq, next_seq[event.core], "{case}: seq not dense");
            next_seq[event.core] += 1;
        }
        if entry != "run_multi" {
            assert_eq!(
                log.cores_seen(),
                1,
                "{case}: a single process ran on core 0"
            );
        }
    }
}

#[test]
fn session_run_is_numerically_identical_to_batch_run() {
    let single = stride_trace(2 * MIB, 10, 2);
    let multi = vec![
        sequential_trace(MIB, 2),
        stride_trace(MIB, 10, 2),
        AppModel::new(AppKind::Memcached, 21)
            .with_working_set(MIB)
            .with_accesses(1_000)
            .generate(),
    ];
    for mode in [ReplayMode::Serial, ReplayMode::Threaded] {
        let configure = |builder: SimConfigBuilder| {
            builder
                .memory_fraction(0.5)
                .cores(2)
                .seed(21)
                .replay_mode(mode)
                .build()
                .unwrap()
        };
        // Leap's defaults isolate each process (one shard worker per core);
        // Linux's share one read-ahead stream (one worker spanning every
        // core).
        let isolated = configure(SimConfig::builder());
        let shared = configure(SimConfig::linux_defaults().to_builder());
        assert!(isolated.per_process_isolation && !shared.per_process_isolation);
        let vmm = |config| move || VmmSimulator::new(config);
        assert_observing_changes_nothing(
            &format!("isolated vmm ({mode:?})"),
            vmm(isolated),
            &single,
            &multi,
        );
        assert_observing_changes_nothing(
            &format!("shared-readahead vmm ({mode:?})"),
            vmm(shared),
            &single,
            &multi,
        );
        assert_observing_changes_nothing(
            &format!("vfs ({mode:?})"),
            || VfsSimulator::new(isolated),
            &single,
            &multi,
        );
    }
}
