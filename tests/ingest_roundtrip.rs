//! Property tests for the record/ingest round trip: any generated
//! `AccessTrace` set, exported through `TraceRecorder` (either fed directly
//! from a multi-pid event stream in any generated global order, or recorded
//! off a real simulated run), must ingest back bit-identically: pages,
//! read/write flags, compute costs, names, and per-process order.

use leap_repro::leap_mem::Pid;
use leap_repro::leap_sim_core::units::MIB;
use leap_repro::leap_sim_core::Nanos;
use leap_repro::leap_workloads::ingest::{ingest_str, LogFormat};
use leap_repro::leap_workloads::{Access, AccessTrace};
use leap_repro::prelude::*;
use proptest::prelude::*;

/// Builds generated traces from per-process access specs. Page numbers stay
/// below 2^40 (well inside the 52-bit range a byte address can carry),
/// computes below 1 ms so multi-trace clocks stay far from overflow.
fn traces_from(specs: &[Vec<(u64, bool, u64)>]) -> Vec<AccessTrace> {
    specs
        .iter()
        .enumerate()
        .map(|(i, accesses)| {
            AccessTrace::new(
                format!("app{i}"),
                accesses
                    .iter()
                    .map(|&(page, is_write, compute)| Access {
                        page,
                        is_write,
                        compute: Nanos(compute),
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Most accesses a generated trace set holds (3 processes of under 30), so
/// a pick vector this long chooses every step of any interleaving.
const MAX_STEPS: usize = 90;

/// Feeds the recorder the traces' accesses in the global order `picks`
/// chooses, by synthesizing the fault events a replay would emit (the
/// recorder only reads pid/page/write/compute). Step `seq` takes the next
/// access of the `picks[seq] % live`-th of the `live` processes that still
/// have one, so every interleaving of the traces has a pick vector.
fn record_interleaved(traces: &[AccessTrace], picks: &[usize]) -> TraceRecorder {
    let mut recorder = TraceRecorder::for_traces(traces);
    let mut next = vec![0usize; traces.len()];
    let steps: usize = traces.iter().map(AccessTrace::len).sum();
    assert!(picks.len() >= steps, "one pick per step");
    for (seq, &pick) in picks.iter().take(steps).enumerate() {
        let live: Vec<usize> = (0..traces.len())
            .filter(|&p| next[p] < traces[p].len())
            .collect();
        let process = live[pick % live.len()];
        let access = traces[process].accesses()[next[process]];
        next[process] += 1;
        let event = FaultEvent {
            seq: seq as u64,
            pid: Pid(process as u32 + 1),
            core: process % 4,
            page: access.page,
            is_write: access.is_write,
            compute: access.compute,
            outcome: AccessOutcome::RemoteFetch,
            latency: Nanos::ZERO,
            completed_at: Nanos::ZERO,
            prefetches_issued: 0,
        };
        recorder.on_event(&event);
    }
    recorder
}

proptest! {
    /// Interleave → record → ingest is the identity on the traces: the
    /// demultiplexer inverts any global order of the processes' accesses.
    #[test]
    fn interleaved_export_reingests_bit_identical(
        lens in proptest::collection::vec(1usize..30, 1..4),
        picks in proptest::collection::vec(any::<usize>(), MAX_STEPS..MAX_STEPS + 1),
        page_scale in 1u64..1_000_000,
    ) {
        let specs: Vec<Vec<(u64, bool, u64)>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                (0..len as u64)
                    .map(|j| {
                        let page = ((i as u64) << 24) | ((j * page_scale) % (1 << 20));
                        let is_write = (j + i as u64).is_multiple_of(3);
                        let compute = (j * 977 + i as u64 * 131) % 1_000_000;
                        (page, is_write, compute)
                    })
                    .collect()
            })
            .collect();
        let traces = traces_from(&specs);
        let recorder = record_interleaved(&traces, &picks);
        let log = recorder.to_log();
        let reingested = ingest_str(&log, LogFormat::PerfScript).expect("export ingests");
        prop_assert_eq!(reingested.traces(), &traces[..]);
    }

    /// Zero compute costs (ties in the global timestamp order) still round
    /// trip: the stable sort keeps every pid's internal order.
    #[test]
    fn all_zero_compute_round_trips(
        lens in proptest::collection::vec(1usize..20, 1..4),
        picks in proptest::collection::vec(any::<usize>(), MAX_STEPS..MAX_STEPS + 1),
    ) {
        let specs: Vec<Vec<(u64, bool, u64)>> = lens
            .iter()
            .map(|&len| {
                (0..len as u64)
                    .map(|j| (j * 7, j.is_multiple_of(2), 0))
                    .collect()
            })
            .collect();
        let traces = traces_from(&specs);
        let recorder = record_interleaved(&traces, &picks);
        let reingested = ingest_str(&recorder.to_log(), LogFormat::PerfScript)
            .expect("export ingests");
        prop_assert_eq!(reingested.traces(), &traces[..]);
    }

    /// Recording an actual scheduled multi-core replay (not a synthetic
    /// event feed) round-trips too: the merged (core, seq) delivery order
    /// still yields a globally sorted, per-pid-ordered log.
    #[test]
    fn simulated_run_export_reingests_bit_identical(
        cores in 1usize..4,
        seed in 0u64..1_000,
        procs in 1usize..4,
    ) {
        let traces: Vec<AccessTrace> = (0..procs)
            .map(|i| {
                AppModel::new(AppKind::ALL[i % AppKind::ALL.len()], seed + i as u64)
                    .with_working_set(MIB)
                    .with_accesses(300)
                    .generate()
            })
            .collect();
        let config = SimConfig::builder()
            .memory_fraction(0.5)
            .cores(cores)
            .seed(seed)
            .build()
            .expect("valid config");
        let mut recorder = TraceRecorder::for_traces(&traces);
        VmmSimulator::new(config)
            .session()
            .observe(&mut recorder)
            .run_multi(&traces);
        let reingested = ingest_str(&recorder.to_log(), LogFormat::PerfScript)
            .expect("export ingests");
        prop_assert_eq!(reingested.traces(), &traces[..]);
    }
}

/// A recorded multi-tenant *service* run round-trips through ingestion and
/// re-admission: each wave's exported fault log reproduces that wave's
/// tenant traces bit-identically, and a fresh service built from the
/// ingested logs (same budgets, same config) replays with bit-identical
/// per-tenant QoS — counters, latency percentiles, and both event-stream
/// checksums — plus identical engine aggregates.
#[test]
fn recorded_service_run_readmits_bit_identically() {
    use leap_repro::leap_service::{AdmissionPolicy, FarMemoryService, TenantSpec};
    use leap_repro::leap_workloads::{sequential_trace, stride_trace};

    let config = SimConfig::builder()
        .memory_fraction(0.5)
        .cores(2)
        .seed(2020)
        .build()
        .expect("valid config");
    // Three tenants per wave capacity-wise: 300-page budgets against a
    // 1000-page service force two waves (3 + 1), so the round trip covers
    // the multi-wave path too.
    let mut service = FarMemoryService::new(config, 1_000, AdmissionPolicy::Queue);
    let budgets = [300u64, 300, 300, 300];
    for (i, budget) in budgets.iter().enumerate() {
        let base = if i % 2 == 0 {
            sequential_trace(MIB, 2)
        } else {
            stride_trace(MIB, 10, 2)
        };
        let trace = AccessTrace::new(format!("svc{i}"), base.iter().copied().collect());
        service.register(TenantSpec::new(trace, *budget));
    }
    let (original, logs) = service.run_recorded();
    assert_eq!(original.waves.len(), 2, "3 + 1 admission expected");
    assert_eq!(logs.len(), original.waves.len());

    // Re-admit: every wave's log ingests back to exactly the traces that
    // wave replayed, and becomes the tenant set of a fresh service.
    let mut readmitted = FarMemoryService::new(config, 1_000, AdmissionPolicy::Queue);
    for (wave, log) in original.admission.waves.iter().zip(&logs) {
        let ingested = ingest_str(log, LogFormat::PerfScript).expect("recorded log ingests");
        let wave_traces: Vec<AccessTrace> = wave
            .iter()
            .map(|id| service.registry().spec(*id).trace.clone())
            .collect();
        assert_eq!(ingested.traces(), &wave_traces[..], "wave traces diverged");
        let budget_of = |trace: &AccessTrace| {
            let idx: usize = trace.name().strip_prefix("svc").unwrap().parse().unwrap();
            budgets[idx]
        };
        readmitted.register_ingested(ingested, budget_of);
    }
    let replayed = readmitted.run();

    // Tenants were re-registered in executed-wave order, so first-fit
    // reproduces the same wave partition; everything downstream must be
    // bit-identical.
    assert_eq!(replayed.waves.len(), original.waves.len());
    for (wo, wr) in original.waves.iter().zip(&replayed.waves) {
        assert_eq!(wo.makespan, wr.makespan, "wave makespan");
        assert_eq!(wo.result.pipeline, wr.result.pipeline, "pipeline stats");
        assert_eq!(wo.result.tenant_evictions, wr.result.tenant_evictions);
        assert_eq!(wo.result.completion_time, wr.result.completion_time);
        assert_eq!(wo.tenants.len(), wr.tenants.len());
        for ((_, ro), (_, rr)) in wo.tenants.iter().zip(&wr.tenants) {
            assert_eq!(ro, rr, "per-tenant QoS diverged for {}", ro.pid);
        }
    }
}

/// Non-property pin: the recorder's header and line shape are exactly the
/// canonical grammar (one sample, human-auditable).
#[test]
fn export_shape_is_the_canonical_grammar() {
    let trace = AccessTrace::new(
        "demo",
        vec![
            Access::read(0x7f8a2c000, Nanos::from_micros(2)),
            Access::write(0x7f8a2c001, Nanos::from_micros(3)),
        ],
    );
    let recorder = record_interleaved(std::slice::from_ref(&trace), &[0, 0]);
    let log = recorder.to_log();
    let expected = "\
# t0: 0.000000000
demo 1 [000] 0.000002000: page-faults: addr=0x7f8a2c000000 R
demo 1 [000] 0.000005000: page-faults: addr=0x7f8a2c001000 W
";
    assert_eq!(log, expected);
}
