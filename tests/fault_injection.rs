//! Chaos-replay suite: deterministic fault injection across the remote
//! tier.
//!
//! The contract under test: a [`FaultSpec`] riding the `SimConfig` expands
//! (from the run's seed, on a dedicated salted RNG stream) into the same
//! [`FaultPlan`] everywhere, every scheduled fault — latency-spike epochs,
//! degraded-bandwidth epochs, reconnect storms, machine failures with
//! re-replication — is delivered in virtual time, and the whole run stays
//! bit-identical between `ReplayMode::Serial` and `ReplayMode::Threaded`
//! for any plan. The empty plan reproduces healthy runs byte for byte, and
//! the canonical storm over the ingested perf fixture is golden-pinned.
//!
//! Regenerate the committed storm plan after an *intentional* spec change:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test fault_injection -- storm_plan_fixture_is_fresh
//! ```

mod common;

use common::fixture;
use leap_repro::leap_remote::{
    HostAgent, HostAgentConfig, RemoteCluster, RemoteIoKind, DEFAULT_SLAB_BYTES,
};
use leap_repro::leap_service::{AdmissionPolicy, FarMemoryService, TenantSpec};
use leap_repro::leap_sim_core::units::PAGE_SIZE;
use leap_repro::leap_sim_core::{DetRng, Nanos};
use leap_repro::leap_workloads::ingest::ingest_path;
use leap_repro::leap_workloads::{Access, AccessTrace};
use leap_repro::prelude::*;
use proptest::prelude::*;

fn perf_traces() -> Vec<AccessTrace> {
    ingest_path(fixture("perf_faults.log"))
        .expect("perf fixture must ingest")
        .into_traces()
}

fn replay_config(seed: u64, cores: usize, mode: ReplayMode, fault: FaultSpec) -> SimConfig {
    SimConfig::builder()
        .memory_fraction(0.5)
        .cores(cores)
        .sched_quantum(Nanos::from_micros(250))
        .seed(seed)
        .replay_mode(mode)
        .fault_plan(fault)
        .build()
        .expect("valid replay config")
}

// ---------------------------------------------------------------------------
// (a) Property: arbitrary plans round-trip through JSON and replay
// bit-identically Serial vs Threaded across core counts.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn arbitrary_plans_round_trip_and_replay_identically(
        spikes in 0u32..3,
        degraded in 0u32..3,
        chaos in 0u32..6,
        seed in 1u64..500,
    ) {
        // One generated variable covers the (failures, storms) cross
        // product: the vendored proptest shim's tuple strategies stop at
        // four elements.
        let failures = chaos % 3;
        let storms = chaos / 3;
        let spec = FaultSpec {
            latency_spikes: spikes,
            spike_multiplier_milli: 2500,
            degraded_epochs: degraded,
            degraded_multiplier_milli: 1500,
            machine_failures: failures,
            reconnect_storms: storms,
            reconnect_penalty: Nanos::from_micros(10),
            epoch: Nanos::from_micros(150),
            start: Nanos::from_micros(40),
            horizon: Nanos::from_micros(700),
            partition_epochs: 0,
            target_tenant: 0,
        };
        prop_assert!(spec.validate().is_ok());

        // JSON round trip, standalone and riding the SimConfig.
        let parsed = FaultSpec::from_json(&spec.to_json()).expect("round trip");
        prop_assert_eq!(parsed, spec);
        let config = replay_config(seed, 2, ReplayMode::Serial, spec);
        let rode = SimConfig::from_json(&config.to_json()).expect("config round trip");
        prop_assert_eq!(rode.fault, spec);

        // Plan expansion is a pure function of (seed, spec, machines).
        prop_assert_eq!(
            FaultPlan::from_spec(seed, &spec, 4),
            FaultPlan::from_spec(seed, &spec, 4)
        );

        // The replay is bit-identical across modes for every core count.
        let traces = perf_traces();
        for cores in [1usize, 2, 4] {
            let serial = VmmSimulator::new(replay_config(seed, cores, ReplayMode::Serial, spec))
                .run_multi(&traces);
            let threaded =
                VmmSimulator::new(replay_config(seed, cores, ReplayMode::Threaded, spec))
                    .run_multi(&traces);
            prop_assert_eq!(serial, threaded);
        }
    }
}

// ---------------------------------------------------------------------------
// (b) The empty plan is byte-identical to no plan at all.
// ---------------------------------------------------------------------------

#[test]
fn empty_plan_is_byte_identical_to_a_healthy_run() {
    let traces = perf_traces();
    for mode in [ReplayMode::Serial, ReplayMode::Threaded] {
        let no_plan = SimConfig::builder()
            .memory_fraction(0.5)
            .cores(2)
            .sched_quantum(Nanos::from_micros(250))
            .seed(2020)
            .replay_mode(mode)
            .build()
            .expect("valid config");
        let healthy = VmmSimulator::new(no_plan).run_multi(&traces);
        let empty =
            VmmSimulator::new(replay_config(2020, 2, mode, FaultSpec::none())).run_multi(&traces);
        assert!(empty.fault_stats.is_quiet(), "empty plan recorded faults");
        assert_eq!(healthy, empty);
    }
}

// ---------------------------------------------------------------------------
// (c) Golden-pinned aggregates: the canonical storm over the perf fixture.
// ---------------------------------------------------------------------------

#[test]
fn canonical_storm_over_perf_fixture_is_pinned() {
    let traces = perf_traces();
    let storm = FaultSpec::canonical_storm();
    let serial =
        VmmSimulator::new(replay_config(2020, 2, ReplayMode::Serial, storm)).run_multi(&traces);
    let threaded =
        VmmSimulator::new(replay_config(2020, 2, ReplayMode::Threaded, storm)).run_multi(&traces);

    // The healthy pins (104 accesses, completion 602_597 ns) come from
    // golden_traces.rs; the storm must not change what was replayed, only
    // how long it took and what the fault layer saw.
    assert_eq!(serial.total_accesses, 104);
    assert!(
        serial.completion_time.as_nanos() > 602_597,
        "the storm must slow the fixture replay ({} ns)",
        serial.completion_time.as_nanos()
    );
    assert!(!serial.fault_stats.is_quiet(), "the storm went unobserved");

    // Golden-pinned storm aggregates: any change means the fault layer's
    // virtual-time delivery, RNG discipline, or checksum words drifted.
    // Regenerate intentionally by updating these pins from a fresh run.
    assert_eq!(serial.completion_time.as_nanos(), 1_397_071);
    assert_eq!(serial.fault_stats.spiked_requests, 29);
    assert_eq!(serial.fault_stats.degraded_requests, 13);
    assert_eq!(serial.fault_stats.reconnect_requests, 21);
    assert_eq!(
        serial.fault_stats.reconnect_penalty_total,
        Nanos::from_nanos(525_000)
    );
    assert_eq!(serial.fault_stats.machines_failed, 2);
    assert_eq!(serial.fault_stats.cancelled_requests, 2);
    assert_eq!(serial.fault_stats.slabs_rereplicated, 1);
    assert_eq!(serial.fault_stats.slabs_lost, 0);
    assert_eq!(
        serial.fault_stats.reconstruction_cost_total,
        Nanos::from_nanos(298_048)
    );
    assert_eq!(serial.fault_stats.checksum, 4_255_149_869_353_675_325);

    assert_eq!(serial, threaded);
}

// ---------------------------------------------------------------------------
// 5-seed sweep: the canonical storm replays mode-identically per seed (the
// CI chaos-smoke job runs this).
// ---------------------------------------------------------------------------

#[test]
fn canonical_storm_replays_identically_across_five_seeds() {
    let traces = perf_traces();
    let storm = FaultSpec::canonical_storm();
    for seed in [1u64, 7, 42, 2020, 31_337] {
        let serial =
            VmmSimulator::new(replay_config(seed, 2, ReplayMode::Serial, storm)).run_multi(&traces);
        let threaded = VmmSimulator::new(replay_config(seed, 2, ReplayMode::Threaded, storm))
            .run_multi(&traces);
        assert_eq!(serial, threaded);
    }
}

// ---------------------------------------------------------------------------
// (d) Slab failure: every lost slab is re-replicated exactly once and
// re-reads succeed.
// ---------------------------------------------------------------------------

#[test]
fn failed_machine_slabs_are_rereplicated_exactly_once_and_rereads_succeed() {
    let pages_per_slab = DEFAULT_SLAB_BYTES / PAGE_SIZE;
    let mut agent = HostAgent::new(
        HostAgentConfig::default(),
        RemoteCluster::homogeneous(4, 64),
        DetRng::seed_from(7),
    );
    // Map 16 slabs while the cluster is healthy.
    let slabs: Vec<u64> = (0..16).collect();
    for &s in &slabs {
        agent.ensure_mapped(s * pages_per_slab).expect("capacity");
    }

    // Schedule one machine failure shortly after the warm-up.
    let spec = FaultSpec {
        machine_failures: 1,
        epoch: Nanos::from_micros(100),
        start: Nanos::from_micros(10),
        horizon: Nanos::from_micros(20),
        ..FaultSpec::none()
    };
    agent.install_fault_plan(FaultPlan::from_spec(11, &spec, 4));

    // Re-read every slab after the failure fires: all reads must succeed.
    let after = Nanos::from_micros(50);
    for &s in &slabs {
        let io = agent.remote_io(RemoteIoKind::Read, s * pages_per_slab, 0, after);
        assert!(io.is_some(), "slab {s} unreadable after failover");
    }
    let first = agent.fault_stats();
    assert_eq!(first.machines_failed, 1);
    assert!(first.slabs_rereplicated > 0, "no slab needed repair");
    assert_eq!(first.slabs_lost, 0, "replication 2 must cover one failure");
    assert!(first.reconstruction_cost_total > Nanos::ZERO);

    // Every mapped page still resolves to a live machine.
    for &s in &slabs {
        let machine = agent.ensure_mapped(s * pages_per_slab).expect("mapped");
        assert!(!agent.cluster().is_failed(machine), "primary still dead");
    }

    // Exactly once: a second full pass repairs nothing further.
    let again = Nanos::from_micros(60);
    for &s in &slabs {
        agent
            .remote_io(RemoteIoKind::Read, s * pages_per_slab, 0, again)
            .expect("re-read");
    }
    let second = agent.fault_stats();
    assert_eq!(second.slabs_rereplicated, first.slabs_rereplicated);
    assert_eq!(second.machines_failed, 1);
    assert_eq!(
        second.reconstruction_cost_total,
        first.reconstruction_cost_total
    );
}

// ---------------------------------------------------------------------------
// (e) Tenant isolation: a mid-run failure degrades only the tenants whose
// replay overlaps the fault window.
// ---------------------------------------------------------------------------

#[test]
fn mid_run_faults_degrade_only_overlapping_tenants() {
    // A tiny tenant that finishes long before the fault window opens, and a
    // long tenant that spans it.
    let tiny = AccessTrace::new(
        "tiny".to_string(),
        (0..8u64)
            .map(|i| Access {
                page: i,
                is_write: false,
                compute: Nanos::from_micros(1),
            })
            .collect(),
    );
    let long = AccessTrace::new(
        "long".to_string(),
        (0..4_000u64)
            .map(|i| Access {
                page: i % 512,
                is_write: false,
                compute: Nanos::from_micros(2),
            })
            .collect(),
    );

    let run = |fault: FaultSpec| {
        let config = SimConfig::builder()
            .memory_fraction(0.5)
            .cores(2)
            .sched_quantum(Nanos::from_micros(250))
            .seed(2020)
            .fault_plan(fault)
            .build()
            .expect("valid config");
        let mut svc = FarMemoryService::new(config, 10_000, AdmissionPolicy::Reject);
        svc.register(TenantSpec::new(tiny.clone(), 64));
        svc.register(TenantSpec::new(long.clone(), 128));
        svc.run()
    };

    // Storm windowed well after the tiny tenant's last access completes.
    let spec = FaultSpec::storm_over(Nanos::from_millis(2), Nanos::from_millis(30));
    let healthy = run(FaultSpec::none());
    let churned = run(spec);

    assert!(
        !churned.waves[0].result.fault_stats.is_quiet(),
        "the storm missed the wave entirely"
    );
    let tenant = |report: &leap_repro::leap_service::ServiceReport, i: usize| {
        report.waves[0].tenants[i].1.clone()
    };
    let tiny_healthy = tenant(&healthy, 0);
    let tiny_churned = tenant(&churned, 0);
    assert_eq!(
        tiny_healthy.behavior_checksum, tiny_churned.behavior_checksum,
        "tiny tenant's behavior changed"
    );
    assert_eq!(
        tiny_healthy.timing_checksum, tiny_churned.timing_checksum,
        "tiny tenant finished before the window yet its timing changed"
    );
    let long_healthy = tenant(&healthy, 1);
    let long_churned = tenant(&churned, 1);
    assert_ne!(
        long_healthy.timing_checksum, long_churned.timing_checksum,
        "long tenant spans the window but kept its healthy timing"
    );
}

// ---------------------------------------------------------------------------
// (f) Tenant targeting: a plan with `target_tenant` set degrades only that
// tenant; every other tenant's QoS checksums match the healthy run exactly.
// ---------------------------------------------------------------------------

#[test]
fn targeted_faults_leave_other_tenants_byte_identical() {
    // Two long tenants, one per core, both spanning the fault window.
    let trace = |name: &str| {
        AccessTrace::new(
            name.to_string(),
            (0..4_000u64)
                .map(|i| Access {
                    page: i % 512,
                    is_write: false,
                    compute: Nanos::from_micros(2),
                })
                .collect(),
        )
    };
    let run = |fault: FaultSpec| {
        let config = SimConfig::builder()
            .memory_fraction(0.5)
            .cores(2)
            .sched_quantum(Nanos::from_micros(250))
            .seed(2020)
            .fault_plan(fault)
            .build()
            .expect("valid config");
        let mut svc = FarMemoryService::new(config, 10_000, AdmissionPolicy::Reject);
        svc.register(TenantSpec::new(trace("alpha"), 128));
        svc.register(TenantSpec::new(trace("beta"), 128));
        svc.run()
    };

    // A modifier-only storm aimed at pid 2 (the wave's second tenant).
    // Machine failures stay global by design, so the targeted plan keeps
    // them at zero — only per-request modifiers are tenant-scoped.
    let spec = FaultSpec {
        machine_failures: 0,
        target_tenant: 2,
        ..FaultSpec::storm_over(Nanos::from_millis(1), Nanos::from_millis(40))
    };
    assert!(spec.validate().is_ok());
    let healthy = run(FaultSpec::none());
    let targeted = run(spec);

    assert!(
        !targeted.waves[0].result.fault_stats.is_quiet(),
        "the targeted storm missed the wave entirely"
    );
    let tenant = |report: &leap_repro::leap_service::ServiceReport, i: usize| {
        report.waves[0].tenants[i].1.clone()
    };
    let alpha_healthy = tenant(&healthy, 0);
    let alpha_targeted = tenant(&targeted, 0);
    assert_eq!(
        alpha_healthy.behavior_checksum, alpha_targeted.behavior_checksum,
        "non-targeted tenant's behavior changed"
    );
    assert_eq!(
        alpha_healthy.timing_checksum, alpha_targeted.timing_checksum,
        "the plan targets pid 2 yet pid 1's timing changed"
    );
    let beta_healthy = tenant(&healthy, 1);
    let beta_targeted = tenant(&targeted, 1);
    assert_eq!(
        beta_healthy.behavior_checksum, beta_targeted.behavior_checksum,
        "faults must not change what was replayed, only when"
    );
    assert_ne!(
        beta_healthy.timing_checksum, beta_targeted.timing_checksum,
        "the targeted tenant kept its healthy timing"
    );
}

// ---------------------------------------------------------------------------
// (g) Unknown or malformed `fault_*` JSON surfaces the typed error, not a
// silent default.
// ---------------------------------------------------------------------------

#[test]
fn unknown_fault_keys_are_a_typed_error() {
    let json = FaultSpec::canonical_storm().to_json().replacen(
        "fault_latency_spikes",
        "fault_warp_drive",
        1,
    );
    match FaultSpec::from_json(&json) {
        Err(FaultJsonError::UnknownKey(key)) => assert_eq!(key, "fault_warp_drive"),
        other => panic!("expected UnknownKey, got {other:?}"),
    }
}

#[test]
fn unparseable_fault_values_are_a_typed_error() {
    let json = FaultSpec::canonical_storm().to_json().replacen(
        "\"fault_machine_failures\":1",
        "\"fault_machine_failures\":\"lots\"",
        1,
    );
    match FaultSpec::from_json(&json) {
        Err(FaultJsonError::BadValue { key, value }) => {
            assert_eq!(key, "fault_machine_failures");
            assert_eq!(value, "\"lots\"");
        }
        other => panic!("expected BadValue, got {other:?}"),
    }
}

#[test]
fn non_object_fault_json_is_a_typed_error() {
    assert!(matches!(
        FaultSpec::from_json("[1,2,3]"),
        Err(FaultJsonError::NotAnObject)
    ));
    assert!(matches!(
        FaultSpec::from_json("{\"fault_latency_spikes\"}"),
        Err(FaultJsonError::MalformedPair(_))
    ));
}

// ---------------------------------------------------------------------------
// Fixture freshness: the committed storm plan is the canonical storm.
// ---------------------------------------------------------------------------

#[test]
fn storm_plan_fixture_is_fresh() {
    let rendered = FaultSpec::canonical_storm().to_json();
    common::assert_fixture_fresh("storm_plan.json", &format!("{rendered}\n"));
    // And the committed bytes parse back to the canonical spec, so the file
    // stays a plan `FaultSpec::from_json` loads as-is.
    let committed = std::fs::read_to_string(fixture("storm_plan.json")).expect("storm plan");
    let parsed = FaultSpec::from_json(committed.trim_end()).expect("fixture parses");
    assert_eq!(parsed, FaultSpec::canonical_storm());
}

#[test]
fn partition_plan_fixture_is_fresh() {
    let rendered = FaultSpec::canonical_partition_storm().to_json();
    common::assert_fixture_fresh("partition_plan.json", &format!("{rendered}\n"));
    let committed =
        std::fs::read_to_string(fixture("partition_plan.json")).expect("partition plan");
    let parsed = FaultSpec::from_json(committed.trim_end()).expect("fixture parses");
    assert_eq!(parsed, FaultSpec::canonical_partition_storm());
}
