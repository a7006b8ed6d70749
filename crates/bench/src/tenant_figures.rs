//! The `fig_tenants` experiment: multi-tenant service scale-up.
//!
//! Not a figure of the paper — it measures the repository's *service layer*
//! (admission + per-tenant budgets + async fault pipeline) the way the
//! paper's Figure 13 measures multi-process scale-up. For each tenant count
//! the far-memory service admits the tenants under per-tenant budgets that
//! force paging and replays them twice: once with a synchronous fault
//! pipeline (`async_depth = 1`, every remote read and write-back billed
//! in-line) and once with a deep pipeline (`async_depth = 8`, remote I/O
//! overlapping compute under a bounded in-flight budget). The figure
//! reports aggregate paging throughput and the worst per-tenant p99 fault
//! latency for both depths.
//!
//! Two invariants are checked on every run, not just in the test suite:
//!
//! - every admitted tenant's *behavior* checksum (a latency-blind FNV fold
//!   over its entire fault-event stream) is identical at both depths — the
//!   pipeline changes **when** things complete, never **what** the engine
//!   decides; and
//! - budgets are enforced: with working sets four times the per-tenant budget,
//!   every tenant pages, and every eviction is attributed to the tenant
//!   that faulted it in.
//!
//! The scheduler quantum is run-to-completion: the time-sharing scheduler
//! context-switches on *simulated* time, so a bounded quantum would make
//! the process interleaving depend on access latencies — which the async
//! depth changes by design. Run-to-completion keeps the engine's decisions
//! latency-independent so the two depths are event-for-event comparable.

use crate::EXPERIMENT_SEED;
use leap::prelude::*;
use leap_metrics::TextTable;
use leap_service::{AdmissionPolicy, FarMemoryService, ServiceReport, TenantSpec};
use leap_sim_core::units::MIB;
use leap_workloads::{AccessTrace, AppKind, AppModel};

/// Per-tenant working set: 2 MiB = 512 pages.
const TENANT_WORKING_SET: u64 = 2 * MIB;
/// Per-tenant budget: a quarter of the working set. Half is not enough —
/// the hot-set-skewed (Memcached-style) tenant would evict only cold pages
/// it never re-touches and so never fault remotely; at a quarter even the
/// hot set overflows and every tenant pages.
pub const TENANT_BUDGET_PAGES: u64 = 128;

/// `n` tenants drawn round-robin from the paper's application mix, each
/// with a distinct seed, a 2 MiB working set, `accesses` accesses, and a
/// half-working-set budget.
pub(crate) fn tenant_specs(n: usize, accesses: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| {
            let kind = AppKind::ALL[i % AppKind::ALL.len()];
            let base = AppModel::new(kind, EXPERIMENT_SEED + i as u64)
                .with_working_set(TENANT_WORKING_SET)
                .with_accesses(accesses)
                .generate();
            let trace = AccessTrace::new(
                format!("tenant{i}-{}", base.name()),
                base.iter().copied().collect(),
            );
            TenantSpec::new(trace, TENANT_BUDGET_PAGES)
        })
        .collect()
}

/// The service `SimConfig` for tenant experiments: run-to-completion
/// quantum (see the module docs) and an explicit async depth.
pub fn service_config(cores: usize, depth: usize, mode: ReplayMode) -> SimConfig {
    SimConfig::builder()
        .memory_fraction(0.5)
        .cores(cores)
        .sched_quantum(Nanos::from_secs(3_600))
        .seed(EXPERIMENT_SEED)
        .replay_mode(mode)
        .async_depth(depth)
        .build()
        .expect("valid tenant config")
}

/// Runs `n` tenants through the service at `depth`, admitting them all in
/// one wave (capacity = sum of budgets).
pub(crate) fn run_tenants(
    n: usize,
    accesses: usize,
    depth: usize,
    mode: ReplayMode,
) -> ServiceReport {
    let specs = tenant_specs(n, accesses);
    let capacity: u64 = specs.iter().map(|s| s.budget_pages).sum();
    let mut service = FarMemoryService::new(
        service_config(4, depth, mode),
        capacity,
        AdmissionPolicy::Reject,
    );
    for spec in specs {
        service.register(spec);
    }
    service.run()
}

/// Panics unless `shallow` (depth 1) and `deep` (depth > 1) agree on every
/// tenant's behavior checksum and both enforce the budgets.
fn check_depth_invariants(n: usize, shallow: &ServiceReport, deep: &ServiceReport) {
    assert_eq!(shallow.admission.admitted_count(), n, "admission shortfall");
    assert_eq!(deep.admission.admitted_count(), n);
    for (ws, wd) in shallow.waves.iter().zip(&deep.waves) {
        for ((is_, rs), (id, rd)) in ws.tenants.iter().zip(&wd.tenants) {
            assert_eq!(is_, id, "tenant order diverged");
            assert_eq!(
                rs.behavior_checksum, rd.behavior_checksum,
                "async depth changed {is_}'s fault-event decisions"
            );
            assert!(rs.remote_accesses > 0, "{is_} never paged under budget");
        }
        let attributed: u64 = ws.result.tenant_evictions.values().sum();
        assert_eq!(
            attributed, ws.result.pages_swapped_out,
            "evictions not fully attributed to tenants"
        );
    }
}

/// Aggregate paging throughput over all waves, pages per second of makespan.
fn aggregate_pages_per_sec(report: &ServiceReport) -> f64 {
    report.waves.iter().map(|w| w.aggregate_pages_per_sec).sum()
}

/// Worst per-tenant p99 fault latency across all waves.
fn worst_p99(report: &ServiceReport) -> Nanos {
    report
        .waves
        .iter()
        .flat_map(|w| w.tenants.iter())
        .map(|(_, r)| r.p99_fault_latency)
        .max()
        .unwrap_or(Nanos::ZERO)
}

/// The `fig_tenants` table: aggregate pages/sec and worst p99 fault latency
/// vs tenant count, synchronous (depth 1) vs pipelined (depth 8) faults.
pub fn fig_tenants(counts: &[usize], accesses: usize) -> String {
    let mut table = TextTable::new(vec![
        "tenants",
        "depth-1 pages/s",
        "depth-8 pages/s",
        "speedup",
        "depth-1 p99 (us)",
        "depth-8 p99 (us)",
        "identical streams",
    ])
    .with_title(format!(
        "fig_tenants: service scale-up, async depth 8 vs synchronous faults \
         ({accesses} accesses/tenant, {TENANT_BUDGET_PAGES}-page budgets)"
    ));
    for &n in counts {
        let shallow = run_tenants(n, accesses, 1, ReplayMode::Serial);
        let deep = run_tenants(n, accesses, 8, ReplayMode::Serial);
        check_depth_invariants(n, &shallow, &deep);
        let (s_rate, d_rate) = (
            aggregate_pages_per_sec(&shallow),
            aggregate_pages_per_sec(&deep),
        );
        table.add_row(vec![
            format!("{n}"),
            format!("{s_rate:.0}"),
            format!("{d_rate:.0}"),
            format!("{:.2}x", d_rate / s_rate),
            format!("{:.1}", worst_p99(&shallow).as_nanos() as f64 / 1e3),
            format!("{:.1}", worst_p99(&deep).as_nanos() as f64 / 1e3),
            "yes".to_string(), // check_depth_invariants would have panicked
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_specs_are_distinct_and_budgeted() {
        let specs = tenant_specs(8, 400);
        assert_eq!(specs.len(), 8);
        assert!(specs.iter().all(|s| s.budget_pages == TENANT_BUDGET_PAGES));
        let names: std::collections::BTreeSet<_> =
            specs.iter().map(|s| s.trace.name().to_string()).collect();
        assert_eq!(names.len(), 8, "tenant names must be unique");
    }

    #[test]
    fn fig_tenants_renders_small_counts() {
        let t = fig_tenants(&[1, 2], 400);
        for needle in ["tenants", "depth-8", "speedup", "identical"] {
            assert!(t.contains(needle), "missing {needle:?} in:\n{t}");
        }
    }

    #[test]
    fn deep_pipeline_beats_synchronous_faults() {
        let shallow = run_tenants(2, 400, 1, ReplayMode::Serial);
        let deep = run_tenants(2, 400, 8, ReplayMode::Serial);
        check_depth_invariants(2, &shallow, &deep);
        assert!(aggregate_pages_per_sec(&deep) > aggregate_pages_per_sec(&shallow));
    }
}
