//! Tenant budget enforcement: the engine's cgroup-style tenant ledger
//! (`leap_mem::MemoryLimit` registered per pid) must keep an over-budget
//! tenant's reclaim inside its own residency — evictions are charged to the
//! tenant that faulted, never to a co-scheduled tenant with headroom — and
//! explicit service-layer budget overrides must take precedence over the
//! `memory_fraction`-derived default.

use leap_repro::leap_service::{AdmissionPolicy, FarMemoryService, TenantSpec};
use leap_repro::leap_sim_core::units::MIB;
use leap_repro::leap_workloads::{sequential_trace, stride_trace};
use leap_repro::prelude::*;

fn config(seed: u64) -> SimConfig {
    SimConfig::builder()
        .memory_fraction(0.5)
        .cores(2)
        .seed(seed)
        .build()
        .expect("valid config")
}

/// An over-budget tenant pages; evictions land exclusively on its own pid.
#[test]
fn over_budget_tenant_evicts_only_its_own_pages() {
    let mut service = FarMemoryService::new(config(7), 100_000, AdmissionPolicy::Reject);
    // Tenant 0: 1 MiB working set (256 pages) squeezed into 64 pages.
    let tight = service.register(TenantSpec::new(sequential_trace(MIB, 3), 64));
    // Tenant 1: same working set with room for all of it (plus slack).
    let ample = service.register(TenantSpec::new(stride_trace(MIB, 10, 3), 512));
    let report = service.run();
    assert_eq!(report.admission.admitted_count(), 2);
    let wave = &report.waves[0];

    // The tight tenant ran as pid 1, the ample one as pid 2.
    let (tight_id, tight_qos) = &wave.tenants[0];
    let (ample_id, ample_qos) = &wave.tenants[1];
    assert_eq!(*tight_id, tight);
    assert_eq!(*ample_id, ample);

    // Budget pressure shows up only where it was configured.
    assert!(
        tight_qos.remote_accesses > 0,
        "64-page budget for a 256-page working set must page"
    );
    assert_eq!(
        ample_qos.remote_accesses, 0,
        "a tenant whose budget covers its working set must never fault remotely"
    );

    // Eviction accounting: every swap-out is attributed, and none of them
    // to the tenant with headroom.
    let evictions = &wave.result.tenant_evictions;
    let total: u64 = evictions.values().sum();
    assert_eq!(total, wave.result.pages_swapped_out);
    assert!(evictions.get(&1).copied().unwrap_or(0) > 0);
    assert_eq!(evictions.get(&2).copied().unwrap_or(0), 0);
}

/// The service-layer override replaces the `memory_fraction` default: the
/// same trace with a full-working-set override stops paging entirely.
#[test]
fn budget_override_takes_precedence_over_memory_fraction() {
    let trace = sequential_trace(MIB, 3);

    // memory_fraction 0.5 alone: 128 resident pages for 256 touched -> pages.
    let default_run = VmmSimulator::new(config(9)).run(&trace);
    assert!(default_run.remote_accesses > 0);

    // An explicit 512-page override on the same config: no paging.
    let mut sim = VmmSimulator::new(config(9));
    sim.set_tenant_budget_pages(leap_repro::leap_mem::Pid(1), 512);
    let overridden = sim.run(&trace);
    assert_eq!(overridden.remote_accesses, 0);
    assert_eq!(overridden.pages_swapped_out, 0);
    assert!(overridden.tenant_evictions.is_empty());
}

/// Swap-outs are counted per tenant and folded into `tenant_evictions` when
/// each replay worker seals. Both worker layouts — one shard worker per
/// core (isolation on) and one worker spanning every core (isolation off)
/// — must attribute every swap-out, to exactly the pids that swapped, with
/// and without a prepopulated working set (whose own swap-outs do not
/// count).
#[test]
fn tenant_evictions_attribute_every_swap_out_in_both_worker_layouts() {
    let traces = vec![
        sequential_trace(MIB, 3),
        stride_trace(MIB, 10, 3),
        sequential_trace(MIB / 2, 3),
        stride_trace(MIB / 2, 7, 3),
    ];
    for isolation in [true, false] {
        for prepopulate in [false, true] {
            let config = SimConfig::builder()
                .memory_fraction(0.5)
                .cores(2)
                .per_process_isolation(isolation)
                .seed(11)
                .build()
                .expect("valid config");
            let mut sim = VmmSimulator::new(config);
            sim.set_prepopulate_multi(prepopulate);
            // Pid 3's budget covers its working set, so it never swaps;
            // the others hold half of theirs and sweep it repeatedly.
            sim.set_tenant_budget_pages(leap_repro::leap_mem::Pid(3), 1_024);
            let result = sim.run_multi(&traces);
            let case = format!("isolation {isolation}, prepopulate {prepopulate}");
            assert!(result.pages_swapped_out > 0, "{case}");
            let evictions = &result.tenant_evictions;
            assert_eq!(
                evictions.values().sum::<u64>(),
                result.pages_swapped_out,
                "{case}"
            );
            assert_eq!(
                evictions.keys().copied().collect::<Vec<u32>>(),
                vec![1, 2, 4],
                "{case}"
            );
            assert!(evictions.values().all(|&pages| pages > 0), "{case}");
        }
    }
}

/// Stepping a process that was never registered fails loudly, whether its
/// pid is zero, just past the registered ones or far beyond them.
#[test]
fn unregistered_pids_still_panic() {
    use leap_repro::leap_mem::Pid;
    let trace = sequential_trace(MIB, 1);
    let access = *trace.iter().next().expect("one access");
    for pid in [0, 2, 1_000, u32::MAX] {
        let outcome = std::panic::catch_unwind(|| {
            let mut sim = VmmSimulator::new(config(3));
            sim.prepare(std::slice::from_ref(&trace));
            sim.step_access(Pid(pid), access);
        });
        let payload = outcome.expect_err("an unregistered pid must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(message, format!("process pid{pid} not registered"));
    }
}
