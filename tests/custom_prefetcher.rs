//! The acceptance test for the prefetcher plug-in point: prefetchers defined
//! *outside* the `leap` crate run end-to-end through `VmmSimulator`,
//! injected via `SimConfigBuilder::custom_prefetcher` — without touching
//! `leap` itself.

use leap_repro::leap_prefetcher::{PageAddr, PrefetchDecision, Prefetcher, ProgrammedPrefetcher};
use leap_repro::leap_sim_core::units::MIB;
use leap_repro::leap_sim_core::Nanos;
use leap_repro::leap_workloads::stride_trace;
use leap_repro::prelude::*;

/// A prefetcher that exists only in this test file: it never prefetches, and
/// counts how many faults it observed so the test can prove the simulator
/// actually drove it.
#[derive(Debug, Default)]
struct CountingNoop {
    faults: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl Prefetcher for CountingNoop {
    fn on_fault(&mut self, _addr: PageAddr) -> PrefetchDecision {
        self.faults
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        PrefetchDecision::none()
    }

    fn on_prefetch_hit(&mut self, _addr: PageAddr) {}

    fn name(&self) -> &'static str {
        "counting-noop"
    }

    fn reset(&mut self) {}
}

#[derive(Debug, Default)]
struct CountingNoopFactory {
    faults: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl PrefetcherFactory for CountingNoopFactory {
    fn name(&self) -> &'static str {
        "counting-noop"
    }

    fn build(&self, _config: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(CountingNoop {
            faults: self.faults.clone(),
        })
    }
}

#[test]
fn custom_noop_prefetcher_runs_end_to_end_through_vmm() {
    let trace = stride_trace(4 * MIB, 10, 1);
    let faults = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sim = SimConfig::builder()
        .memory_fraction(0.5)
        .custom_prefetcher(CountingNoopFactory {
            faults: faults.clone(),
        })
        .build_vmm()
        .expect("valid config");
    let result = sim.run_prepopulated(&trace);

    // The custom prefetcher was consulted on every swap-cache miss...
    let observed = faults.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(observed, result.cache_stats.misses());
    assert!(observed > 0, "the run must actually fault");
    // ...and since it never prefetches, the cache never fills.
    assert_eq!(result.cache_stats.cache_adds(), 0);
    assert_eq!(result.cache_stats.hits(), 0);
    assert_eq!(result.prefetch_stats.pages_prefetched(), 0);
}

#[test]
fn custom_prefetcher_shows_up_in_the_run_label() {
    let trace = stride_trace(2 * MIB, 10, 1);
    let result = SimConfig::builder()
        .memory_fraction(0.5)
        .custom_prefetcher(CountingNoopFactory::default())
        .build_vmm()
        .expect("valid config")
        .run(&trace);
    assert!(
        result.config_label.contains("counting-noop"),
        "label {:?} should name the injected component",
        result.config_label
    );
}

/// Factory for the 3PO-style programmed prefetcher from `leap-prefetcher`:
/// the factory (the part `custom_prefetcher` takes) lives here, outside
/// `leap`.
#[derive(Debug)]
struct ProgramFactory {
    program: Vec<u64>,
    lookahead: usize,
}

impl PrefetcherFactory for ProgramFactory {
    fn name(&self) -> &'static str {
        "Programmed-3PO"
    }

    fn build(&self, _config: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(ProgrammedPrefetcher::from_pages(
            &self.program,
            self.lookahead,
        ))
    }
}

#[test]
fn programmed_oracle_beats_readahead_on_stride() {
    let trace = stride_trace(4 * MIB, 10, 1);
    // The "profiled program": the swap offsets the measured pass will fault
    // on. Prepopulation fixes swap slots to address order, so page == slot.
    let program = trace.page_sequence();

    let oracle = SimConfig::linux_defaults()
        .to_builder()
        .memory_fraction(0.5)
        .custom_prefetcher(ProgramFactory {
            program,
            lookahead: 8,
        })
        .build_vmm()
        .expect("valid config")
        .run_prepopulated(&trace);

    let readahead = SimConfig::linux_defaults()
        .to_builder()
        .memory_fraction(0.5)
        .build_vmm()
        .expect("valid config")
        .run_prepopulated(&trace);

    // Read-Ahead cannot learn Stride-10; the programmed oracle nails it.
    assert!(
        oracle.cache_stats.hit_ratio() > 0.7,
        "oracle hit ratio {}",
        oracle.cache_stats.hit_ratio()
    );
    assert!(oracle.cache_stats.hit_ratio() > readahead.cache_stats.hit_ratio() + 0.3);
    assert!(oracle.completion_time < readahead.completion_time);
}

#[test]
fn custom_prefetcher_gets_per_process_isolation() {
    // Two processes, isolation on: the factory must be invoked per process
    // (the scheduled replay shards trend state per (process, core) too).
    let a = stride_trace(2 * MIB, 10, 2);
    let b = stride_trace(2 * MIB, 7, 2);
    let traces = vec![a, b];
    let faults = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let result = SimConfig::builder()
        .memory_fraction(0.5)
        .per_process_isolation(true)
        .custom_prefetcher(CountingNoopFactory {
            faults: faults.clone(),
        })
        .build_vmm()
        .expect("valid config")
        .run_multi(&traces);
    assert!(result.remote_accesses > 0);
    assert_eq!(
        faults.load(std::sync::atomic::Ordering::Relaxed),
        result.cache_stats.misses()
    );
}

/// A plugged-in prefetcher inherits the replay-mode bit-identity contract:
/// serial and threaded multi-process replays agree event for event.
#[test]
fn custom_prefetcher_is_bit_identical_across_replay_modes() {
    let traces = vec![stride_trace(2 * MIB, 10, 2), stride_trace(2 * MIB, 7, 2)];
    let run = |mode: ReplayMode| {
        let sim = SimConfig::builder()
            .memory_fraction(0.5)
            .cores(2)
            .sched_quantum(Nanos::from_micros(250))
            .per_process_isolation(true)
            .custom_prefetcher(ProgramFactory {
                program: traces[0].page_sequence(),
                lookahead: 8,
            })
            .seed(29)
            .replay_mode(mode)
            .build_vmm()
            .expect("valid config");
        let mut log = EventLog::default();
        let result = sim.session().observe(&mut log).run_multi(&traces);
        (log, result)
    };
    let (log_serial, serial) = run(ReplayMode::Serial);
    let (log_threaded, threaded) = run(ReplayMode::Threaded);
    assert!(serial.config_label.contains("Programmed-3PO"));
    assert!(serial.cache_stats.prefetch_hits() > 0);
    assert_eq!(log_serial.events(), log_threaded.events());
    assert_eq!(serial, threaded);
}
