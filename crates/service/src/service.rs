//! The far-memory paging service: admission → waves of multi-tenant
//! replays → per-tenant QoS reports.

use crate::qos::{TenantQos, TenantQosReport};
use crate::tenant::{AdmissionPolicy, AdmissionReport, TenantId, TenantRegistry, TenantSpec};
use leap::{RunResult, SimConfig, Simulator, TraceRecorder, VmmSimulator};
use leap_mem::Pid;
use leap_sim_core::Nanos;
use leap_workloads::{AccessTrace, IngestedLog};

/// One executed wave: the co-scheduled tenants' QoS numbers plus the wave's
/// aggregate replay result.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveReport {
    /// Per-tenant QoS, paired with the tenant each pid mapped to, in pid
    /// order (pid `j + 1` is the wave's `j`-th admitted tenant).
    pub tenants: Vec<(TenantId, TenantQosReport)>,
    /// The wave's makespan (latest core's local completion time).
    pub makespan: Nanos,
    /// Aggregate paging throughput: all tenants' accesses per second of
    /// makespan.
    pub aggregate_pages_per_sec: f64,
    /// The wave's merged engine result (pipeline counters, per-tenant
    /// eviction counts, latency distributions).
    pub result: RunResult,
}

/// Everything one service run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// The admission plan the run executed.
    pub admission: AdmissionReport,
    /// One report per executed wave, in execution order.
    pub waves: Vec<WaveReport>,
}

impl ServiceReport {
    /// Every admitted tenant's QoS report, in execution order.
    pub fn tenant_reports(&self) -> impl Iterator<Item = &(TenantId, TenantQosReport)> + '_ {
        self.waves.iter().flat_map(|w| w.tenants.iter())
    }
}

/// A multi-tenant far-memory paging service over the Leap engine.
///
/// Tenants register traces (typically ingested fault logs) with a resident
/// memory budget; [`FarMemoryService::run`] plans admission, replays each
/// wave of co-scheduled tenants through a [`VmmSimulator`] whose engine
/// enforces the per-tenant budgets, and reports per-tenant QoS. The whole
/// run is deterministic for a fixed `(SimConfig, tenant set)` — including
/// across [`leap::ReplayMode`]s.
///
/// Fault injection rides the same config: a [`leap::FaultSpec`] set via
/// `SimConfigBuilder::fault_plan` schedules latency spikes, degraded
/// bandwidth, reconnect storms and machine failures inside every wave's
/// replay. Each wave's [`WaveReport::result`] then carries the fault
/// accounting (`result.fault_stats`), and tenants whose replay finishes
/// before the first fault epoch keep the QoS checksums they report on a
/// healthy fabric — churn degrades only the tenants it actually touches.
#[derive(Debug, Clone)]
pub struct FarMemoryService {
    sim: SimConfig,
    registry: TenantRegistry,
}

impl FarMemoryService {
    /// A service replaying tenants under `sim` with `capacity_pages` of
    /// local memory to hand out at admission.
    pub fn new(sim: SimConfig, capacity_pages: u64, policy: AdmissionPolicy) -> Self {
        FarMemoryService {
            sim,
            registry: TenantRegistry::new(capacity_pages, policy),
        }
    }

    /// Registers one tenant.
    pub fn register(&mut self, spec: TenantSpec) -> TenantId {
        self.registry.register(spec)
    }

    /// Admits every per-process trace of an ingested fault log as its own
    /// tenant; `budget_pages` assigns each trace's budget.
    pub fn register_ingested<F>(&mut self, log: IngestedLog, mut budget_pages: F) -> Vec<TenantId>
    where
        F: FnMut(&AccessTrace) -> u64,
    {
        log.into_traces()
            .into_iter()
            .map(|trace| {
                let budget = budget_pages(&trace);
                self.registry.register(TenantSpec::new(trace, budget))
            })
            .collect()
    }

    /// The registry backing this service.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Plans admission and replays every wave, producing per-tenant QoS.
    pub fn run(&self) -> ServiceReport {
        let admission = self.registry.admit();
        let waves = admission
            .waves
            .iter()
            .map(|wave| self.run_wave(wave, false).0)
            .collect();
        ServiceReport { admission, waves }
    }

    /// Like [`FarMemoryService::run`], but additionally records every wave's
    /// fault stream through a [`TraceRecorder`] and returns each wave's
    /// canonical fault log alongside the report. Re-ingesting a wave's log
    /// (`leap_workloads::ingest`) reproduces that wave's tenant traces
    /// bit-identically, so a recorded service run can be re-admitted as
    /// tenants of a fresh service — the round trip the ingest tests pin.
    pub fn run_recorded(&self) -> (ServiceReport, Vec<String>) {
        let admission = self.registry.admit();
        let mut logs = Vec::with_capacity(admission.waves.len());
        let waves = admission
            .waves
            .iter()
            .map(|wave| {
                let (report, log) = self.run_wave(wave, true);
                logs.push(log.expect("recording was requested"));
                report
            })
            .collect();
        (ServiceReport { admission, waves }, logs)
    }

    /// Replays one wave: tenant `wave[j]` runs as pid `j + 1` with its
    /// admitted budget enforced by the engine's tenant ledger. With `record`
    /// set, the wave's fault stream is also exported as a canonical log.
    fn run_wave(&self, wave: &[TenantId], record: bool) -> (WaveReport, Option<String>) {
        let traces: Vec<AccessTrace> = wave
            .iter()
            .map(|id| self.registry.spec(*id).trace.clone())
            .collect();
        let mut sim = VmmSimulator::new(self.sim);
        for (j, id) in wave.iter().enumerate() {
            sim.set_tenant_budget_pages(Pid(j as u32 + 1), self.registry.spec(*id).budget_pages);
        }
        let mut qos = TenantQos::new();
        let mut recorder = TraceRecorder::for_traces(&traces);
        let result = if record {
            sim.session()
                .observe(&mut qos)
                .observe(&mut recorder)
                .run_multi(&traces)
        } else {
            sim.session().observe(&mut qos).run_multi(&traces)
        };
        let makespan = qos.makespan();
        let tenants = qos
            .into_reports()
            .into_iter()
            .map(|report| {
                let id = wave[report.pid as usize - 1];
                (id, report)
            })
            .collect();
        let report = WaveReport {
            tenants,
            makespan,
            aggregate_pages_per_sec: result.throughput_ops_per_sec(),
            result,
        };
        (report, record.then(|| recorder.to_log()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_sim_core::units::MIB;
    use leap_workloads::sequential_trace;

    fn service(policy: AdmissionPolicy, capacity: u64) -> FarMemoryService {
        let config = SimConfig::builder()
            .memory_fraction(0.5)
            .seed(11)
            .build()
            .unwrap();
        FarMemoryService::new(config, capacity, policy)
    }

    #[test]
    fn budgets_are_enforced_per_tenant() {
        let mut svc = service(AdmissionPolicy::Reject, 10_000);
        // 256-page working set, 64-page budget: the tenant must page.
        svc.register(TenantSpec::new(sequential_trace(MIB, 3), 64));
        let report = svc.run();
        assert_eq!(report.admission.admitted_count(), 1);
        let wave = &report.waves[0];
        assert!(wave.result.remote_accesses > 0, "tight budget must page");
        let evicted: u64 = wave.result.tenant_evictions.values().sum();
        assert_eq!(wave.result.pages_swapped_out, evicted);
    }

    #[test]
    fn queued_tenants_run_in_later_waves() {
        let mut svc = service(AdmissionPolicy::Queue, 300);
        for _ in 0..3 {
            svc.register(TenantSpec::new(sequential_trace(MIB, 2), 200));
        }
        let report = svc.run();
        assert_eq!(report.waves.len(), 3);
        assert_eq!(report.admission.admitted_count(), 3);
        assert!(report.admission.rejected.is_empty());
        for wave in &report.waves {
            assert_eq!(wave.tenants.len(), 1);
            assert!(wave.tenants[0].1.accesses > 0);
        }
    }

    #[test]
    fn churn_runs_are_deterministic_and_counted() {
        use leap::FaultSpec;

        let config = SimConfig::builder()
            .memory_fraction(0.5)
            .seed(11)
            .fault_plan(FaultSpec::canonical_storm())
            .build()
            .unwrap();
        let mut svc = FarMemoryService::new(config, 10_000, AdmissionPolicy::Reject);
        svc.register(TenantSpec::new(sequential_trace(MIB, 3), 64));
        let a = svc.run();
        let b = svc.run();
        let wave = &a.waves[0];
        assert!(
            !wave.result.fault_stats.is_quiet(),
            "the storm plan must touch the wave's replay"
        );
        assert_eq!(
            wave.result.fault_stats, b.waves[0].result.fault_stats,
            "fault accounting must replay bit-identically"
        );
        assert_eq!(wave.tenants[0].1, b.waves[0].tenants[0].1);
    }

    #[test]
    fn recovery_actions_surface_in_tenant_qos() {
        use leap::{FaultSpec, RecoveryPolicy};

        let config = SimConfig::builder()
            .memory_fraction(0.5)
            .seed(11)
            .fault_plan(FaultSpec::canonical_partition_storm())
            .recovery_policy(RecoveryPolicy::tail_tolerant())
            .build()
            .unwrap();
        let mut svc = FarMemoryService::new(config, 10_000, AdmissionPolicy::Reject);
        svc.register(TenantSpec::new(sequential_trace(MIB, 3), 64));
        let a = svc.run();
        let b = svc.run();
        let wave = &a.waves[0];
        assert!(
            !wave.result.recovery_stats.is_quiet(),
            "the partition storm must exercise the recovery layer"
        );
        // Every measured access is tagged with its pid, so the tenant
        // ledger can only account a subset of the global stats (the
        // prepopulation phase runs untagged).
        let ledger = wave.tenants[0].1.recovery;
        let stats = &wave.result.recovery_stats;
        assert!(ledger.retries <= stats.retries);
        assert!(ledger.hedges_won <= stats.hedges_won);
        assert!(ledger.degraded_reads <= stats.degraded_reads);
        assert_eq!(
            wave.tenants[0].1, b.waves[0].tenants[0].1,
            "per-tenant recovery QoS must replay bit-identically"
        );
        assert_eq!(wave.result.recovery_stats, b.waves[0].result.recovery_stats);
    }

    #[test]
    fn service_runs_are_deterministic() {
        let mut svc = service(AdmissionPolicy::Reject, 10_000);
        for seed in 0..3 {
            let base = sequential_trace(MIB, 2);
            let trace = AccessTrace::new(format!("t{seed}"), base.iter().copied().collect());
            svc.register(TenantSpec::new(trace, 128));
        }
        let a = svc.run();
        let b = svc.run();
        assert_eq!(a.admission, b.admission);
        for (wa, wb) in a.waves.iter().zip(&b.waves) {
            assert_eq!(wa.makespan, wb.makespan);
            for ((ia, ra), (ib, rb)) in wa.tenants.iter().zip(&wb.tenants) {
                assert_eq!(ia, ib);
                assert_eq!(ra, rb);
            }
        }
    }
}
