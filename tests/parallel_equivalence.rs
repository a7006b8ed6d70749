//! Serial/threaded replay equivalence: `ReplayMode::Threaded` must produce
//! bit-identical `RunResult` aggregates and the identical merged
//! `FaultEvent` stream as `ReplayMode::Serial` for the same seed and
//! quantum, across core counts — plus exactly-once delivery through the
//! batched event ring.
//!
//! Both modes run the same per-core code (each shard worker over its own
//! core's schedule, then one `(core, seq)` merge); they differ only in
//! running the shards one after another or on parallel threads. That the
//! by-core runs equal stepping every shard worker in the global
//! scheduler's interleaving is checked by `leap::parallel`'s unit tests,
//! which can reach the interleaving driver.

use leap_repro::leap_sim_core::units::MIB;
use leap_repro::leap_sim_core::Nanos;
use leap_repro::leap_workloads::ingest::ingest_path;
use leap_repro::leap_workloads::{sequential_trace, stride_trace, AccessTrace};
use leap_repro::prelude::*;

fn app_traces(n: usize, seed_base: u64) -> Vec<AccessTrace> {
    (0..n)
        .map(|i| {
            AppModel::new(AppKind::ALL[i % AppKind::ALL.len()], seed_base + i as u64)
                .with_working_set(4 * MIB)
                .with_accesses(4_000)
                .generate()
        })
        .collect()
}

fn config(cores: usize, seed: u64, mode: ReplayMode) -> SimConfig {
    SimConfig::builder()
        .memory_fraction(0.5)
        .cores(cores)
        .sched_quantum(Nanos::from_micros(250))
        .seed(seed)
        .replay_mode(mode)
        .build()
        .expect("valid config")
}

fn run_logged(config: SimConfig, traces: &[AccessTrace]) -> (EventLog, RunResult) {
    let mut log = EventLog::default();
    let result = VmmSimulator::new(config)
        .session()
        .observe(&mut log)
        .run_multi(traces);
    (log, result)
}

#[test]
fn threaded_replay_is_bit_identical_to_serial_across_core_counts() {
    let traces = app_traces(4, 40);
    for cores in 1..=4 {
        for seed in [3, 21] {
            let (log_serial, serial) = run_logged(config(cores, seed, ReplayMode::Serial), &traces);
            let (log_threaded, threaded) =
                run_logged(config(cores, seed, ReplayMode::Threaded), &traces);
            assert_eq!(
                log_serial.events(),
                log_threaded.events(),
                "merged event stream diverged at cores={cores} seed={seed}"
            );
            assert_eq!(serial, threaded);
        }
    }
}

#[test]
fn merged_stream_is_core_major_with_dense_per_core_seqs() {
    let traces = app_traces(4, 7);
    let shared_readahead = SimConfig::linux_defaults()
        .to_builder()
        .cores(3)
        .sched_quantum(Nanos::from_micros(250))
        .seed(11);
    // Every front-end shape: isolated shard workers, the shared-readahead
    // VMM and the VFS (one worker spanning every core), in both modes.
    for mode in [ReplayMode::Serial, ReplayMode::Threaded] {
        let shared = shared_readahead
            .clone()
            .replay_mode(mode)
            .build()
            .expect("valid config");
        let mut vfs_log = EventLog::default();
        VfsSimulator::new(config(3, 11, mode))
            .session()
            .observe(&mut vfs_log)
            .run_multi(&traces);
        let logs = [
            ("isolated vmm", run_logged(config(3, 11, mode), &traces).0),
            ("shared-readahead vmm", run_logged(shared, &traces).0),
            ("vfs", vfs_log),
        ];
        for (name, log) in logs {
            assert!(log.cores_seen() > 1, "{name}: work stayed on one core");
            // The merged stream is ordered by (core, seq)...
            let keys: Vec<(usize, u64)> = log.events().iter().map(|e| (e.core, e.seq)).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "{name} ({mode:?}): not in (core, seq) order");
            // ...and within each core the seqs are dense from zero.
            for core in 0..log.cores_seen() {
                let stream = log.for_core(core);
                for (i, event) in stream.iter().enumerate() {
                    assert_eq!(
                        event.seq, i as u64,
                        "{name} ({mode:?}): core {core} seq not dense"
                    );
                }
            }
        }
    }
}

#[test]
fn threaded_replay_is_deterministic_run_to_run() {
    let traces = app_traces(3, 90);
    let cfg = config(4, 5, ReplayMode::Threaded);
    let (log_a, result_a) = run_logged(cfg, &traces);
    let (log_b, result_b) = run_logged(cfg, &traces);
    assert_eq!(log_a.events(), log_b.events());
    assert_eq!(result_a, result_b);
}

#[test]
fn modes_agree_on_single_core_degenerate_case() {
    // One core means one worker in both modes; the whole machinery reduces
    // to the same single-queue schedule.
    let traces = vec![stride_trace(2 * MIB, 10, 1), sequential_trace(2 * MIB, 2)];
    let (log_serial, serial) = run_logged(config(1, 9, ReplayMode::Serial), &traces);
    let (log_threaded, threaded) = run_logged(config(1, 9, ReplayMode::Threaded), &traces);
    assert_eq!(log_serial.events(), log_threaded.events());
    assert_eq!(serial, threaded);
}

#[test]
fn more_workers_than_processes_leave_idle_shards_harmless() {
    let traces = app_traces(2, 60);
    let (log_serial, serial) = run_logged(config(4, 13, ReplayMode::Serial), &traces);
    let (log_threaded, threaded) = run_logged(config(4, 13, ReplayMode::Threaded), &traces);
    assert_eq!(log_serial.events(), log_threaded.events());
    assert_eq!(serial, threaded);
}

/// Ingested fault logs are first-class workloads: the serial/threaded
/// bit-identity contract holds for them exactly as for generated traces,
/// across core counts and both committed fixture formats.
#[test]
fn ingested_fault_logs_replay_identically_in_both_modes() {
    let fixtures = ["perf_faults.log", "damon_regions.log"];
    for fixture in fixtures {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(fixture);
        let traces = ingest_path(&path)
            .unwrap_or_else(|e| panic!("{fixture} must ingest: {e}"))
            .into_traces();
        for cores in [1, 2, 4] {
            let (log_serial, serial) = run_logged(config(cores, 2020, ReplayMode::Serial), &traces);
            let (log_threaded, threaded) =
                run_logged(config(cores, 2020, ReplayMode::Threaded), &traces);
            assert_eq!(
                log_serial.events(),
                log_threaded.events(),
                "{fixture}: merged stream diverged at cores={cores}"
            );
            assert_eq!(serial, threaded);
        }
    }
}

/// An observer that records both per-event and per-batch delivery so the
/// exactly-once contract of the event ring can be checked.
#[derive(Default)]
struct BatchAudit {
    batches: usize,
    largest_batch: usize,
    seqs: Vec<(usize, u64)>,
}

impl Observer for BatchAudit {
    fn on_event(&mut self, event: &FaultEvent) {
        self.seqs.push((event.core, event.seq));
    }

    fn on_batch(&mut self, events: &[FaultEvent]) {
        self.batches += 1;
        self.largest_batch = self.largest_batch.max(events.len());
        for event in events {
            self.on_event(event);
        }
    }
}

#[test]
fn event_ring_delivers_every_event_exactly_once_under_batching() {
    let traces = app_traces(3, 17);
    let total: usize = traces.iter().map(|t| t.len()).sum();
    for mode in [ReplayMode::Serial, ReplayMode::Threaded] {
        let mut audit = BatchAudit::default();
        let result = VmmSimulator::new(config(2, 33, mode))
            .session()
            .observe(&mut audit)
            .run_multi(&traces);
        assert_eq!(result.total_accesses, total as u64);
        assert_eq!(
            audit.seqs.len(),
            total,
            "{} events delivered, expected {total} ({mode:?})",
            audit.seqs.len()
        );
        // Exactly once: every (core, seq) pair is unique.
        let mut unique = audit.seqs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), total, "duplicate deliveries ({mode:?})");
        // Delivery really was batched (multiple events per flush).
        assert!(
            audit.batches < total,
            "every event arrived in its own batch ({mode:?})"
        );
        assert!(audit.largest_batch > 1, "no batch held >1 event ({mode:?})");
    }
}

#[test]
fn event_ring_batches_single_process_streams_too() {
    let trace = stride_trace(4 * MIB, 10, 1);
    let mut audit = BatchAudit::default();
    let result = SimConfig::builder()
        .memory_fraction(0.5)
        .seed(3)
        .build_vmm()
        .expect("valid config")
        .session()
        .observe(&mut audit)
        .run(&trace);
    assert_eq!(result.total_accesses, trace.len() as u64);
    assert_eq!(audit.seqs.len(), trace.len());
    assert!(audit.batches < trace.len());
}

#[test]
fn shared_prefetcher_configs_replay_as_one_worker_spanning_every_core() {
    // Without per-process isolation all processes share one prefetcher
    // stream across cores (the kernel's global readahead state), which
    // cannot be split into share-nothing workers — the simulator becomes
    // one worker spanning every core, which both modes step serially, so
    // they must agree exactly.
    let traces = app_traces(3, 25);
    let base = SimConfig::linux_defaults()
        .to_builder()
        .cores(3)
        .sched_quantum(Nanos::from_micros(250))
        .seed(19);
    let run = |mode: ReplayMode| {
        let config = base
            .clone()
            .replay_mode(mode)
            .build()
            .expect("valid config");
        run_logged(config, &traces)
    };
    let (log_serial, serial) = run(ReplayMode::Serial);
    let (log_threaded, threaded) = run(ReplayMode::Threaded);
    assert_eq!(log_serial.events(), log_threaded.events());
    assert_eq!(serial, threaded);
    // The shared stream really is shared: coverage for the noisy mix stays
    // below what isolated trend state achieves.
    let isolated_cfg = SimConfig::builder()
        .cores(3)
        .sched_quantum(Nanos::from_micros(250))
        .seed(19)
        .prefetcher(PrefetcherKind::Leap)
        .build()
        .expect("valid config");
    let (_, isolated) = run_logged(isolated_cfg, &traces);
    assert!(isolated.prefetch_stats.coverage() > 0.0);
}
