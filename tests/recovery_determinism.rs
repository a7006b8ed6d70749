//! Recovery-layer determinism: the three contracts that make the active
//! recovery layer safe to leave in the build.
//!
//! 1. `RecoveryPolicy::none()` is *byte-identical* to a build without the
//!    layer: same `RunResult`, same merged `FaultEvent` stream, healthy or
//!    stormy, in both replay modes.
//! 2. With the tail-tolerant policy active, every recovery counter —
//!    including the order-insensitive checksum — is bit-identical between
//!    `ReplayMode::Serial` and `ReplayMode::Threaded` across core counts,
//!    under both the canonical storm and the partition storm.
//! 3. Retries are pointwise monotone in deadline tightness: recovery
//!    decisions ride per-request streams derived from the request ordinal,
//!    so tightening the timeout can only add retries, never reshuffle them.

use leap_repro::leap_datapath::{DataPath, LeanDataPath};
use leap_repro::leap_remote::{recovery_stream_seed, FaultPlan};
use leap_repro::leap_sim_core::{DetRng, Nanos};
use leap_repro::leap_workloads::ingest::ingest_path;
use leap_repro::leap_workloads::AccessTrace;
use leap_repro::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn perf_traces() -> Vec<AccessTrace> {
    ingest_path(fixture("perf_faults.log"))
        .expect("perf fixture must ingest")
        .into_traces()
}

fn config(cores: usize, mode: ReplayMode, fault: FaultSpec, recovery: RecoveryPolicy) -> SimConfig {
    SimConfig::builder()
        .memory_fraction(0.5)
        .cores(cores)
        .sched_quantum(Nanos::from_micros(250))
        .seed(2020)
        .replay_mode(mode)
        .fault_plan(fault)
        .recovery_policy(recovery)
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

/// Every aggregate of two results, including the latency distributions and
/// the fault/recovery accounting.
fn assert_results_identical(mut a: RunResult, mut b: RunResult) {
    assert_eq!(a.completion_time, b.completion_time, "completion_time");
    assert_eq!(a.total_accesses, b.total_accesses, "total_accesses");
    assert_eq!(a.remote_accesses, b.remote_accesses, "remote_accesses");
    assert_eq!(a.cache_stats, b.cache_stats, "cache_stats");
    assert_eq!(
        a.access_latency.sorted_samples(),
        b.access_latency.sorted_samples()
    );
    assert_eq!(
        a.remote_access_latency.sorted_samples(),
        b.remote_access_latency.sorted_samples()
    );
    assert_eq!(a.pipeline, b.pipeline, "async pipeline counters");
    assert_eq!(a.fault_stats, b.fault_stats, "fault accounting");
    assert_eq!(a.recovery_stats, b.recovery_stats, "recovery accounting");
    assert_eq!(a.tenant_recovery, b.tenant_recovery, "per-tenant recovery");
}

// ---------------------------------------------------------------------------
// (a) The disabled policy is byte-identical to a build without the layer.
// ---------------------------------------------------------------------------

#[test]
fn none_policy_is_byte_identical_to_no_policy_at_all() {
    let traces = perf_traces();
    for fault in [FaultSpec::none(), FaultSpec::canonical_storm()] {
        for mode in [ReplayMode::Serial, ReplayMode::Threaded] {
            // The baseline never mentions recovery; the subject rides
            // `RecoveryPolicy::none()` through the config. Same RunResult,
            // same merged event stream, event for event.
            let baseline = SimConfig::builder()
                .memory_fraction(0.5)
                .cores(2)
                .sched_quantum(Nanos::from_micros(250))
                .seed(2020)
                .replay_mode(mode)
                .fault_plan(fault)
                .build()
                .expect("valid baseline");
            let (base_log, base) = run_logged(baseline, &traces);
            let (none_log, none) =
                run_logged(config(2, mode, fault, RecoveryPolicy::none()), &traces);
            assert!(
                none.recovery_stats.is_quiet(),
                "the disabled policy recorded recovery actions"
            );
            assert_eq!(
                base_log.events(),
                none_log.events(),
                "event streams diverged under the disabled policy"
            );
            assert_results_identical(base, none);
        }
    }
}

// ---------------------------------------------------------------------------
// (b) Recovery accounting is mode- and shard-count-invariant.
// ---------------------------------------------------------------------------

#[test]
fn recovery_stats_are_bit_identical_across_modes_and_cores() {
    let traces = perf_traces();
    let policy = RecoveryPolicy::tail_tolerant();
    let partition = FaultSpec::canonical_partition_storm();
    for storm in [FaultSpec::canonical_storm(), partition] {
        for cores in [1usize, 2, 4] {
            let serial = VmmSimulator::new(config(cores, ReplayMode::Serial, storm, policy))
                .run_multi(&traces);
            let threaded = VmmSimulator::new(config(cores, ReplayMode::Threaded, storm, policy))
                .run_multi(&traces);
            assert!(
                !serial.recovery_stats.is_quiet(),
                "the storm must trigger recovery actions on {cores} cores"
            );
            assert!(
                storm != partition || serial.recovery_stats.hedges_issued > 0,
                "the partition storm never triggered a hedge on {cores} cores"
            );
            assert_eq!(
                serial.recovery_stats.checksum, threaded.recovery_stats.checksum,
                "recovery checksum diverged on {cores} cores"
            );
            assert_results_identical(serial, threaded);
        }
    }
}

// ---------------------------------------------------------------------------
// (c) Property: retries are pointwise monotone in deadline tightness.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn retries_are_monotone_in_timeout_tightness(
        tight_us in 5u64..20,
        slack_us in 1u64..40,
        seed in 1u64..200,
    ) {
        // Replays the same fixed read schedule under two policies that
        // differ only in deadline; recovery decisions ride per-request
        // streams keyed by the request ordinal, so the attempt-latency
        // sequence each request observes is policy-invariant and a tighter
        // deadline can only convert completions into retries.
        let retries_with = |timeout: Nanos| {
            let mut path = LeanDataPath::with_default_cluster(DetRng::seed_from(seed));
            let storm = FaultSpec::canonical_storm();
            let machines = path.agent().cluster().len() as u32;
            path.agent_mut()
                .install_fault_plan(FaultPlan::from_spec(seed, &storm, machines));
            let policy = RecoveryPolicy {
                timeout,
                max_retries: 3,
                backoff_base: Nanos::from_micros(1),
                backoff_jitter: Nanos::from_nanos(500),
                hedge_delay: Nanos::ZERO,
            };
            assert!(policy.validate().is_ok());
            path.agent_mut()
                .install_recovery(policy, recovery_stream_seed(seed));
            let span = storm.horizon.saturating_sub(storm.start).as_nanos().max(1);
            const READS: u64 = 400;
            for i in 0..READS {
                let now = storm.start + Nanos::from_nanos(i * span / READS);
                path.read_page(i.wrapping_mul(7), (i % 4) as usize, now);
            }
            path.recovery_stats().retries
        };
        let tight = retries_with(Nanos::from_micros(tight_us));
        let loose = retries_with(Nanos::from_micros(tight_us + slack_us));
        prop_assert!(
            tight >= loose,
            "tightening the deadline lost retries: {} at {} us vs {} at {} us",
            tight, tight_us, loose, tight_us + slack_us,
        );
    }
}
