//! Microbenchmark figures: data-path breakdowns and latency CDFs
//! (Figures 1, 2, 4, 7, and 8a of the paper).

use crate::{EXPERIMENT_SEED, MICRO_WORKING_SET};
use leap::prelude::*;
use leap_datapath::{DataPath, LeanDataPath, LegacyDataPath, Stage};
use leap_metrics::{LatencyHistogram, TextTable};
use leap_sim_core::DetRng;
use leap_workloads::{sequential_trace, stride_trace, AccessTrace};

/// Returns the standard Sequential and Stride-10 microbenchmark traces.
fn micro_traces() -> Vec<(&'static str, AccessTrace)> {
    vec![
        ("Sequential", sequential_trace(MICRO_WORKING_SET, 1)),
        ("Stride-10", stride_trace(MICRO_WORKING_SET, 10, 1)),
    ]
}

fn percentile_row(label: &str, hist: &mut LatencyHistogram) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{:.2}", hist.median().as_micros_f64()),
        format!("{:.2}", hist.percentile(90.0).as_micros_f64()),
        format!("{:.2}", hist.percentile(99.0).as_micros_f64()),
        format!("{:.2}", hist.mean().as_micros_f64()),
    ]
}

/// Figure 1: average time spent in each stage of the page-request life cycle
/// on the default Linux data path versus Leap's path, over an RDMA backend
/// (plus the raw device numbers for HDD/SSD/RDMA).
pub(crate) fn fig01_datapath_breakdown() -> String {
    let samples = 20_000u64;
    let mut rng = DetRng::seed_from(EXPERIMENT_SEED);

    let mut legacy = LegacyDataPath::new(BackendKind::Rdma, rng.fork());
    let mut lean = LeanDataPath::with_default_cluster(rng.fork());

    let stages = [
        Stage::CacheLookup,
        Stage::BioPreparation,
        Stage::QueueingAndBatching,
        Stage::Dispatch,
        Stage::Prefetcher,
        Stage::RemoteInterface,
        Stage::DeviceTransfer,
        Stage::MmuUpdate,
    ];
    let mut legacy_totals = vec![0u128; stages.len()];
    let mut lean_totals = vec![0u128; stages.len()];
    for i in 0..samples {
        // Space requests out so dispatch-queue effects do not dominate.
        let now = Nanos::from_micros(50 * i);
        let lb = legacy.read_page(i, (i % 8) as usize, now);
        let nb = lean.read_page(i, (i % 8) as usize, now);
        for (s, stage) in stages.iter().enumerate() {
            legacy_totals[s] += lb.stage_total(*stage).as_nanos() as u128;
            lean_totals[s] += nb.stage_total(*stage).as_nanos() as u128;
        }
    }

    let mut table = TextTable::new(vec!["stage", "linux default (us)", "leap data path (us)"])
        .with_title("Figure 1: average time per data-path stage (RDMA backend, 4KB reads)");
    for (s, stage) in stages.iter().enumerate() {
        table.add_row(vec![
            stage.label().to_string(),
            format!("{:.2}", legacy_totals[s] as f64 / samples as f64 / 1_000.0),
            format!("{:.2}", lean_totals[s] as f64 / samples as f64 / 1_000.0),
        ]);
    }
    let legacy_total: u128 = legacy_totals.iter().sum();
    let lean_total: u128 = lean_totals.iter().sum();
    table.add_row(vec![
        "TOTAL".to_string(),
        format!("{:.2}", legacy_total as f64 / samples as f64 / 1_000.0),
        format!("{:.2}", lean_total as f64 / samples as f64 / 1_000.0),
    ]);

    let mut devices = TextTable::new(vec!["device", "nominal 4KB access (us)"])
        .with_title("Raw backend costs (paper Figure 1 reference points)");
    for kind in [BackendKind::Hdd, BackendKind::Ssd, BackendKind::Rdma] {
        devices.add_row(vec![
            kind.label().to_string(),
            format!("{:.2}", kind.nominal_latency().as_micros_f64()),
        ]);
    }
    format!("{table}\n{devices}")
}

/// Figure 2: 4 KB access-latency distributions on the *default* data path for
/// Disk, disaggregated VMM, and disaggregated VFS, under Sequential and
/// Stride-10 access patterns.
///
/// This figure is computed from the streaming [`Session`]/[`Observer`] API:
/// a [`HistogramObserver`] accumulates the remote-access latencies from the
/// replay's event stream, instead of reading the batch
/// `RunResult::remote_access_latency` afterwards. The numbers are identical
/// by construction (the stream and the batch histogram record the same
/// samples); `stream_matches_batch_histogram` in this module's tests pins
/// that equivalence.
pub(crate) fn fig02_default_datapath_cdf() -> String {
    let mut out = String::new();
    for (name, trace) in micro_traces() {
        let mut table = TextTable::new(vec![
            "configuration",
            "median (us)",
            "p90 (us)",
            "p99 (us)",
            "mean (us)",
        ])
        .with_title(format!(
            "Figure 2 ({name}): default Linux data path, 50% local memory"
        ));

        let disk_config = SimConfig::disk_defaults(BackendKind::Hdd)
            .to_builder()
            .memory_fraction(0.5)
            .seed(EXPERIMENT_SEED)
            .build()
            .expect("valid config");
        let mut disk = HistogramObserver::remote_accesses();
        VmmSimulator::new(disk_config)
            .session()
            .observe(&mut disk)
            .run_prepopulated(&trace);
        table.add_row(percentile_row("Disk (HDD)", disk.histogram()));

        let linux_config = SimConfig::linux_defaults()
            .to_builder()
            .memory_fraction(0.5)
            .seed(EXPERIMENT_SEED)
            .build()
            .expect("valid config");
        let mut dvmm = HistogramObserver::remote_accesses();
        VmmSimulator::new(linux_config)
            .session()
            .observe(&mut dvmm)
            .run_prepopulated(&trace);
        table.add_row(percentile_row("Disaggregated VMM", dvmm.histogram()));

        let mut dvfs = HistogramObserver::remote_accesses();
        VfsSimulator::new(linux_config)
            .session()
            .observe(&mut dvfs)
            .run(&trace);
        table.add_row(percentile_row("Disaggregated VFS", dvfs.histogram()));

        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// Figure 4: how long consumed prefetched pages sit in the cache before the
/// lazy background reclaimer frees them (CDF summary), contrasted with eager
/// eviction where the wait is zero by construction.
pub(crate) fn fig04_lazy_eviction_wait() -> String {
    let trace = stride_trace(MICRO_WORKING_SET, 10, 2);
    // Constrain the prefetch cache so the background reclaimer actually runs.
    let lazy_config = SimConfig::linux_defaults()
        .to_builder()
        .memory_fraction(0.5)
        .prefetcher(PrefetcherKind::Leap)
        .data_path(DataPathKind::Leap)
        .eviction(EvictionPolicy::Lazy)
        .prefetch_cache_pages(512)
        .seed(EXPERIMENT_SEED)
        .build()
        .expect("valid config");
    let mut lazy = VmmSimulator::new(lazy_config).run_prepopulated(&trace);
    let eager_config = SimConfig::builder()
        .memory_fraction(0.5)
        .prefetch_cache_pages(512)
        .seed(EXPERIMENT_SEED)
        .build()
        .expect("valid config");
    let eager = VmmSimulator::new(eager_config).run_prepopulated(&trace);

    let mut table = TextTable::new(vec!["quantile", "lazy eviction wait (us)"])
        .with_title("Figure 4: time a consumed prefetched page waits in the cache before reclaim");
    for q in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
        table.add_row(vec![
            format!("p{q:.0}"),
            format!("{:.1}", lazy.eviction_wait.percentile(q).as_micros_f64()),
        ]);
    }
    format!(
        "{}\nlazy policy: {} consumed prefetched pages waited for the background reclaimer\n\
         eager policy (Leap): {} pages waited (freed immediately on hit)\n",
        table.render(),
        lazy.eviction_wait.len(),
        eager.eviction_wait.len()
    )
}

/// Figure 7: 4 KB access-latency distributions with and without Leap, for the
/// disaggregated VMM and VFS front-ends under Sequential and Stride-10.
pub(crate) fn fig07_leap_datapath_cdf() -> String {
    let mut out = String::new();
    for (name, trace) in micro_traces() {
        let mut table = TextTable::new(vec![
            "configuration",
            "median (us)",
            "p90 (us)",
            "p99 (us)",
            "mean (us)",
        ])
        .with_title(format!(
            "Figure 7 ({name}): Leap vs default, 50% local memory"
        ));

        let linux_config = SimConfig::linux_defaults()
            .to_builder()
            .memory_fraction(0.5)
            .seed(EXPERIMENT_SEED)
            .build()
            .expect("valid config");
        let leap_config = SimConfig::builder()
            .memory_fraction(0.5)
            .seed(EXPERIMENT_SEED)
            .build()
            .expect("valid config");

        let mut dvmm = VmmSimulator::new(linux_config).run_prepopulated(&trace);
        table.add_row(percentile_row("D-VMM", &mut dvmm.remote_access_latency));

        let mut dvmm_leap = VmmSimulator::new(leap_config).run_prepopulated(&trace);
        table.add_row(percentile_row(
            "D-VMM + Leap",
            &mut dvmm_leap.remote_access_latency,
        ));

        let mut dvfs = VfsSimulator::new(linux_config).run(&trace);
        table.add_row(percentile_row("D-VFS", &mut dvfs.remote_access_latency));

        let mut dvfs_leap = VfsSimulator::new(leap_config).run(&trace);
        table.add_row(percentile_row(
            "D-VFS + Leap",
            &mut dvfs_leap.remote_access_latency,
        ));

        // Improvement factors the paper headlines.
        let vmm_median_x = dvmm.remote_access_latency.median().as_micros_f64()
            / dvmm_leap
                .remote_access_latency
                .median()
                .as_micros_f64()
                .max(0.001);
        let vmm_p99_x = dvmm.remote_access_latency.percentile(99.0).as_micros_f64()
            / dvmm_leap
                .remote_access_latency
                .percentile(99.0)
                .as_micros_f64()
                .max(0.001);
        out.push_str(&table.render());
        out.push_str(&format!(
            "D-VMM improvement with Leap: {vmm_median_x:.1}x median, {vmm_p99_x:.1}x p99\n\n"
        ));
    }
    out
}

/// Figure 8a: benefit breakdown on the Stride-10 microbenchmark — the lean
/// data path alone, plus the prefetcher, plus eager eviction.
pub(crate) fn fig08a_benefit_breakdown() -> String {
    let trace = stride_trace(MICRO_WORKING_SET, 10, 1);
    let configs = [
        (
            "data path optimisations only",
            SimConfig::builder()
                .prefetcher(PrefetcherKind::None)
                .eviction(EvictionPolicy::Lazy),
        ),
        (
            "+ prefetcher",
            SimConfig::builder().eviction(EvictionPolicy::Lazy),
        ),
        ("+ prefetcher + eager eviction", SimConfig::builder()),
    ];
    let mut table = TextTable::new(vec![
        "configuration",
        "median (us)",
        "p90 (us)",
        "p99 (us)",
        "mean (us)",
    ])
    .with_title("Figure 8a: Leap benefit breakdown (Stride-10, 50% local memory)");
    for (label, builder) in configs {
        let config = builder
            .memory_fraction(0.5)
            .seed(EXPERIMENT_SEED)
            .build()
            .expect("valid config");
        let mut result = VmmSimulator::new(config).run_prepopulated(&trace);
        table.add_row(percentile_row(label, &mut result.remote_access_latency));
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_reports_all_stages_and_devices() {
        let report = fig01_datapath_breakdown();
        for needle in ["bio preparation", "device transfer", "HDD", "RDMA", "TOTAL"] {
            assert!(report.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn fig08a_has_three_rows() {
        let report = fig08a_benefit_breakdown();
        assert!(report.contains("data path optimisations only"));
        assert!(report.contains("+ prefetcher + eager eviction"));
    }

    /// Figure 2 is computed from the Session/Observer stream; this pins that
    /// the stream reproduces the batch `remote_access_latency` histogram
    /// sample for sample (identical percentiles, so identical figure rows).
    #[test]
    fn stream_matches_batch_histogram() {
        let trace = stride_trace(2 * leap_sim_core::units::MIB, 10, 1);
        let config = SimConfig::linux_defaults()
            .to_builder()
            .memory_fraction(0.5)
            .seed(EXPERIMENT_SEED)
            .build()
            .expect("valid config");

        let mut streamed = HistogramObserver::remote_accesses();
        let mut from_stream = VmmSimulator::new(config)
            .session()
            .observe(&mut streamed)
            .run_prepopulated(&trace);
        let mut batch = VmmSimulator::new(config).run_prepopulated(&trace);

        // Stream vs the result of its own run...
        assert_eq!(
            streamed.histogram().len(),
            from_stream.remote_access_latency.len()
        );
        // ...and vs an independent batch run (sessions do not perturb the
        // simulation).
        for q in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(
                streamed.histogram().percentile(q),
                batch.remote_access_latency.percentile(q),
                "p{q} diverged between stream and batch"
            );
            assert_eq!(
                streamed.histogram().percentile(q),
                from_stream.remote_access_latency.percentile(q),
            );
        }
        assert_eq!(batch.remote_accesses, streamed.events());

        // The VFS front-end streams identically too.
        let mut vfs_streamed = HistogramObserver::remote_accesses();
        VfsSimulator::new(config)
            .session()
            .observe(&mut vfs_streamed)
            .run(&trace);
        let mut vfs_batch = VfsSimulator::new(config).run(&trace);
        assert_eq!(
            vfs_streamed.histogram().len(),
            vfs_batch.remote_access_latency.len()
        );
        assert_eq!(
            vfs_streamed.histogram().median(),
            vfs_batch.remote_access_latency.median()
        );
    }
}
