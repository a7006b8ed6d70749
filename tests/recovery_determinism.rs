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
//!
//! An inconsistent policy never reaches a run: the builder reports each
//! `RecoveryPolicy::validate` rule as a typed `InvalidRecoveryPolicy`.

use leap_repro::leap_datapath::{DataPath, LeanDataPath};
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
            assert_eq!(base, none);
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
            assert_eq!(serial, threaded);
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
            let policy = RecoveryPolicy {
                timeout,
                max_retries: 3,
                backoff_base: Nanos::from_micros(1),
                backoff_jitter: Nanos::from_nanos(500),
                hedge_delay: Nanos::ZERO,
            };
            assert!(policy.validate().is_ok());
            path.install_faults(seed, &storm, policy);
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

// ---------------------------------------------------------------------------
// Inconsistent policies are a typed build error, not a silent default.
// ---------------------------------------------------------------------------

#[test]
fn invalid_recovery_policies_are_a_typed_build_error() {
    let tail = RecoveryPolicy::tail_tolerant();
    let no_deadline = RecoveryPolicy {
        timeout: Nanos::ZERO,
        max_retries: 0,
        ..tail
    };
    let cases = [
        (
            RecoveryPolicy {
                max_retries: 0,
                ..tail
            },
            "a recovery timeout requires max_retries > 0",
        ),
        (
            RecoveryPolicy {
                timeout: Nanos::ZERO,
                ..tail
            },
            "recovery max_retries requires a non-zero timeout",
        ),
        (
            RecoveryPolicy {
                backoff_jitter: Nanos::ZERO,
                ..no_deadline
            },
            "recovery backoff_base requires a non-zero timeout",
        ),
        (
            RecoveryPolicy {
                backoff_base: Nanos::ZERO,
                ..no_deadline
            },
            "recovery backoff_jitter requires a non-zero timeout",
        ),
    ];
    for (policy, expected) in cases {
        let err = SimConfig::builder()
            .recovery_policy(policy)
            .build()
            .expect_err("an inconsistent policy must not build");
        assert_eq!(err, ConfigError::InvalidRecoveryPolicy { reason: expected });
        assert_eq!(
            err.to_string(),
            format!("invalid recovery policy: {expected}")
        );
    }
    // Hedging alone needs no deadline, and the presets are consistent.
    let hedge_only = RecoveryPolicy {
        hedge_delay: tail.hedge_delay,
        ..RecoveryPolicy::none()
    };
    for policy in [RecoveryPolicy::none(), tail, hedge_only] {
        assert!(SimConfig::builder().recovery_policy(policy).build().is_ok());
    }
}

#[test]
fn recovery_on_the_legacy_path_is_a_typed_build_error() {
    // The block-layer path has no recovery layer: an active policy there
    // must fail to build instead of running without deadlines or hedges.
    let hedge_only = RecoveryPolicy {
        hedge_delay: RecoveryPolicy::tail_tolerant().hedge_delay,
        ..RecoveryPolicy::none()
    };
    for policy in [RecoveryPolicy::tail_tolerant(), hedge_only] {
        let err = SimConfig::linux_defaults()
            .to_builder()
            .recovery_policy(policy)
            .build()
            .expect_err("recovery on the legacy path must not build");
        assert_eq!(err, ConfigError::RecoveryOnLegacyPath);
        assert!(err.to_string().contains("lean data path"), "{err}");
    }
    // No policy on the legacy path, and the policy on the lean path, build.
    let legacy = SimConfig::linux_defaults().to_builder();
    assert!(legacy
        .recovery_policy(RecoveryPolicy::none())
        .build()
        .is_ok());
    let lean = SimConfig::linux_defaults()
        .to_builder()
        .data_path(DataPathKind::Leap)
        .recovery_policy(RecoveryPolicy::tail_tolerant());
    assert!(lean.build().is_ok());
}
