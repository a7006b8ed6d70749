//! Service-layer determinism: for one `(seed, tenant set, async depth)` the
//! far-memory service must produce bit-identical per-tenant QoS statistics
//! and fault-event streams whichever `ReplayMode` executes the waves; and
//! changing only the async depth must change *when* things happened (more
//! overlap, higher aggregate paging throughput) while leaving *what*
//! happened — each tenant's per-event decisions — untouched.

use leap_repro::leap_service::{AdmissionPolicy, FarMemoryService, ServiceReport, TenantSpec};
use leap_repro::leap_sim_core::units::MIB;
use leap_repro::leap_workloads::{sequential_trace, stride_trace, AccessTrace};
use leap_repro::prelude::*;

/// Four tenants with regular patterns (so the prefetcher issues plenty of
/// asynchronous reads) squeezed to half their working sets.
fn tenants() -> Vec<TenantSpec> {
    let mut specs = Vec::new();
    for i in 0..4u64 {
        let base = if i % 2 == 0 {
            sequential_trace(MIB, 2)
        } else {
            stride_trace(MIB, 10, 2)
        };
        let trace = AccessTrace::new(format!("tenant{i}"), base.iter().copied().collect());
        specs.push(TenantSpec::new(trace, 128));
    }
    specs
}

fn run_service(mode: ReplayMode, depth: usize, seed: u64) -> ServiceReport {
    run_service_with_quantum(mode, depth, seed, Nanos::from_micros(250))
}

/// The scheduler context-switches on *simulated* time, so a bounded quantum
/// makes the per-core interleaving depend on access latencies — which the
/// async depth changes by design. Depth comparisons therefore use a
/// run-to-completion quantum (each process finishes its slice), making the
/// engine's decisions latency-independent; everything else still uses the
/// regular time-sharing quantum.
fn run_service_with_quantum(
    mode: ReplayMode,
    depth: usize,
    seed: u64,
    quantum: Nanos,
) -> ServiceReport {
    let config = SimConfig::builder()
        .memory_fraction(0.5)
        .cores(2)
        .seed(seed)
        .sched_quantum(quantum)
        .replay_mode(mode)
        .async_depth(depth)
        .build()
        .expect("valid config");
    let mut service = FarMemoryService::new(config, 10_000, AdmissionPolicy::Queue);
    for spec in tenants() {
        service.register(spec);
    }
    service.run()
}

/// Serial and threaded replays of the same service run are bit-identical —
/// per-tenant counters, latency percentiles, and the full timing checksums
/// over every tenant's event stream — at the default (unbounded) depth.
#[test]
fn qos_is_bit_identical_across_replay_modes() {
    for seed in [3, 41] {
        let serial = run_service(ReplayMode::Serial, usize::MAX, seed);
        let threaded = run_service(ReplayMode::Threaded, usize::MAX, seed);
        assert_eq!(serial, threaded);
    }
}

/// The same holds with a bounded in-flight budget: the virtual-time
/// reactor's stalls are part of the deterministic timing, not an artifact
/// of the executing thread count.
#[test]
fn bounded_depth_is_bit_identical_across_replay_modes() {
    for depth in [1, 4] {
        let serial = run_service(ReplayMode::Serial, depth, 17);
        let threaded = run_service(ReplayMode::Threaded, depth, 17);
        assert_eq!(serial, threaded);
    }
}

/// Raising the async depth overlaps remote I/O with compute: same per-tenant
/// fault-event decisions (latency-blind behavior checksums match event for
/// event), but the depth-1 run charges every submission synchronously and so
/// pays a longer makespan and a lower aggregate paging rate.
#[test]
fn deeper_pipelines_overlap_io_without_changing_behavior() {
    let run_to_completion = Nanos::from_secs(3_600);
    let shallow = run_service_with_quantum(ReplayMode::Serial, 1, 5, run_to_completion);
    let deep = run_service_with_quantum(ReplayMode::Serial, 8, 5, run_to_completion);
    assert_eq!(shallow.waves.len(), deep.waves.len());
    let mut saw_stall_gap = false;
    for (ws, wd) in shallow.waves.iter().zip(&deep.waves) {
        for ((is_, rs), (id, rd)) in ws.tenants.iter().zip(&wd.tenants) {
            assert_eq!(is_, id);
            assert_eq!(
                rs.behavior_checksum, rd.behavior_checksum,
                "per-event decisions diverged for {is_}"
            );
            assert_eq!(rs.accesses, rd.accesses);
            assert_eq!(rs.remote_accesses, rd.remote_accesses);
            assert_eq!(rs.cache_hits, rd.cache_hits);
        }
        // Identical traffic through the pipeline, different stall bills.
        assert_eq!(
            ws.result.pipeline.submitted(),
            wd.result.pipeline.submitted()
        );
        if ws.result.pipeline.total_stall > wd.result.pipeline.total_stall {
            saw_stall_gap = true;
        }
    }
    assert!(saw_stall_gap, "depth 1 should stall more than depth 8");
    let shallow_rate: f64 = shallow
        .waves
        .iter()
        .map(|w| w.aggregate_pages_per_sec)
        .sum();
    let deep_rate: f64 = deep.waves.iter().map(|w| w.aggregate_pages_per_sec).sum();
    assert!(
        deep_rate > shallow_rate,
        "depth 8 ({deep_rate:.0} pages/s) should out-page depth 1 ({shallow_rate:.0} pages/s)"
    );
}

/// The default depth is unbounded asynchrony: it never stalls, reproducing
/// the legacy free-overlap accounting bit for bit.
#[test]
fn unbounded_depth_never_stalls() {
    let report = run_service(ReplayMode::Serial, usize::MAX, 23);
    for wave in &report.waves {
        assert_eq!(
            wave.result.pipeline.total_stall,
            leap_repro::leap_sim_core::Nanos::ZERO
        );
        assert!(
            wave.result.pipeline.submitted() > 0,
            "prefetch traffic expected"
        );
    }
}
