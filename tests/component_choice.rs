//! The data path and the eviction policy are plain enum choices
//! ([`DataPathKind`], [`EvictionPolicy`]): every built-in choice must run
//! end-to-end through `VmmSimulator`, really act under memory pressure, keep
//! the replay-mode bit-identity contract, and be selectable from the
//! builder.

use leap_repro::leap_sim_core::units::MIB;
use leap_repro::leap_sim_core::Nanos;
use leap_repro::leap_workloads::{sequential_trace, stride_trace, AccessTrace};
use leap_repro::prelude::*;

const EVICTIONS: [EvictionPolicy; 2] = [EvictionPolicy::Lazy, EvictionPolicy::Eager];
const DATA_PATHS: [DataPathKind; 2] = [DataPathKind::LinuxDefault, DataPathKind::Leap];
const PREFETCHERS: [PrefetcherKind; 5] = [
    PrefetcherKind::None,
    PrefetcherKind::NextNLine,
    PrefetcherKind::Stride,
    PrefetcherKind::ReadAhead,
    PrefetcherKind::Leap,
];

/// A tiny prefetch cache forces the engine to reclaim through the selected
/// policy; the run must page, evict, and name the policy in its label.
#[test]
fn each_eviction_policy_evicts_under_pressure() {
    let trace = stride_trace(4 * MIB, 10, 2);
    for policy in EVICTIONS {
        let result = SimConfig::builder()
            .memory_fraction(0.5)
            .prefetch_cache_pages(16)
            .eviction(policy)
            .seed(11)
            .build_vmm()
            .expect("valid config")
            .run_prepopulated(&trace);
        assert!(result.remote_accesses > 0, "{policy:?}: the run must page");
        assert!(
            result.cache_stats.evictions() > 0,
            "{policy:?}: a 16-page cache must evict"
        );
        assert!(
            result
                .config_label
                .ends_with(&format!("/{} @50%", policy.label())),
            "label {:?} should name the eviction policy",
            result.config_label
        );
    }
}

/// The two policies are different mechanisms, so on the same pressured run
/// they must not produce the same cache behaviour.
#[test]
fn eviction_choice_changes_the_cache_behaviour() {
    let trace = stride_trace(4 * MIB, 10, 2);
    let run = |policy: EvictionPolicy| {
        SimConfig::builder()
            .memory_fraction(0.5)
            .prefetch_cache_pages(16)
            .eviction(policy)
            .seed(11)
            .build_vmm()
            .expect("valid config")
            .run_prepopulated(&trace)
    };
    let lazy = run(EvictionPolicy::Lazy);
    let eager = run(EvictionPolicy::Eager);
    assert_eq!(lazy.total_accesses, eager.total_accesses);
    assert_ne!(lazy.cache_stats, eager.cache_stats);
}

/// Every data-path × eviction choice inherits the replay-mode contract:
/// serial and threaded multi-process replays agree event for event.
#[test]
fn each_data_path_and_eviction_is_bit_identical_across_replay_modes() {
    let traces: Vec<AccessTrace> = vec![
        stride_trace(2 * MIB, 10, 2),
        sequential_trace(2 * MIB, 2),
        stride_trace(2 * MIB, 7, 2),
    ];
    for data_path in DATA_PATHS {
        for eviction in EVICTIONS {
            let run = |mode: ReplayMode| {
                let sim = SimConfig::builder()
                    .memory_fraction(0.5)
                    .cores(2)
                    .sched_quantum(Nanos::from_micros(250))
                    .prefetch_cache_pages(24)
                    .data_path(data_path)
                    .eviction(eviction)
                    .seed(29)
                    .replay_mode(mode)
                    .build_vmm()
                    .expect("valid config");
                let mut log = EventLog::default();
                let result = sim.session().observe(&mut log).run_multi(&traces);
                (log, result)
            };
            let what = format!("{data_path:?}/{eviction:?}");
            let (log_serial, serial) = run(ReplayMode::Serial);
            let (log_threaded, threaded) = run(ReplayMode::Threaded);
            assert!(!log_serial.events().is_empty(), "{what}");
            assert_eq!(log_serial.events(), log_threaded.events(), "{what}");
            assert_eq!(serial, threaded, "{what}");
        }
    }
}

/// The builder selects every built-in prefetcher × data path × eviction
/// combination, and the run reports the combination it was built with.
#[test]
fn builder_selects_every_builtin_combination() {
    let trace = stride_trace(MIB, 3, 1);
    for prefetcher in PREFETCHERS {
        for data_path in DATA_PATHS {
            for eviction in EVICTIONS {
                let built = SimConfig::builder()
                    .memory_fraction(0.5)
                    .prefetcher(prefetcher)
                    .data_path(data_path)
                    .eviction(eviction)
                    .seed(3)
                    .build()
                    .expect("valid config");
                let result = VmmSimulator::new(built).run_prepopulated(&trace);
                assert_eq!(result.config_label, built.label());
                assert_eq!(result.total_accesses, trace.len() as u64);
            }
        }
    }
}
