//! Application-level figures: pattern mixes, prefetcher comparisons,
//! application performance, constrained caches, and multi-tenancy
//! (Figures 3, 8b, 9, 10, 11, 12, 13 and Table 1 of the paper).

use crate::{APP_ACCESSES, EXPERIMENT_SEED};
use leap::prelude::*;
use leap_metrics::TextTable;
use leap_prefetcher::PrefetcherKind;
use leap_remote::BackendKind;
use leap_workloads::{classify_windows, AccessTrace, PatternMode};

fn app_trace(kind: AppKind) -> AccessTrace {
    AppModel::new(kind, EXPERIMENT_SEED)
        .with_accesses(APP_ACCESSES)
        .generate()
}

/// The PowerGraph-style trace used by the prefetcher-comparison figures
/// (the paper picks PowerGraph because it mixes all three pattern types).
fn powergraph_trace() -> AccessTrace {
    app_trace(AppKind::PowerGraph)
}

/// Figure 3: fraction of sequential / stride / other page-fault windows of
/// length 2, 4, and 8 for the four applications, under strict matching and
/// (for window 8) majority matching.
pub(crate) fn fig03_pattern_windows() -> String {
    let mut table = TextTable::new(vec![
        "application",
        "window",
        "mode",
        "sequential",
        "stride",
        "other",
    ])
    .with_title("Figure 3: access-pattern windows per application (fault streams at 50% memory)");
    for kind in AppKind::ALL {
        let trace = app_trace(kind);
        // The prefetcher sees the *fault* stream; approximate it by the full
        // access stream of the app model (every access would fault at low
        // local memory), which is also what the paper's Figure 3 caption does.
        let pages = trace.page_sequence();
        for window in [2usize, 4, 8] {
            let strict = classify_windows(&pages, window, PatternMode::Strict);
            table.add_row(vec![
                kind.label().to_string(),
                format!("{window}"),
                "strict".to_string(),
                format!("{:.1}%", 100.0 * strict.sequential_fraction()),
                format!("{:.1}%", 100.0 * strict.stride_fraction()),
                format!("{:.1}%", 100.0 * strict.other_fraction()),
            ]);
        }
        let majority = classify_windows(&pages, 8, PatternMode::Majority);
        table.add_row(vec![
            kind.label().to_string(),
            "8".to_string(),
            "majority".to_string(),
            format!("{:.1}%", 100.0 * majority.sequential_fraction()),
            format!("{:.1}%", 100.0 * majority.stride_fraction()),
            format!("{:.1}%", 100.0 * majority.other_fraction()),
        ]);
    }
    table.render()
}

/// Table 1: qualitative comparison of prefetching techniques.
pub(crate) fn table1_prefetcher_comparison() -> String {
    let mut table = TextTable::new(vec![
        "technique",
        "low compute",
        "low memory",
        "unmodified app",
        "hw/sw independent",
        "temporal locality",
        "spatial locality",
        "high utilisation",
    ])
    .with_title("Table 1: comparison of prefetching techniques");
    let yes = "yes";
    let no = "no";
    table.add_row(
        ["Next-N-Line", yes, yes, yes, yes, no, yes, no]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    table.add_row(
        ["Stride", yes, yes, yes, yes, no, yes, no]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    table.add_row(
        ["GHB PC", no, no, yes, no, yes, yes, yes]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    table.add_row(
        ["Instruction prefetch", no, no, no, no, yes, yes, yes]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    table.add_row(
        ["Linux Read-Ahead", yes, yes, yes, yes, yes, yes, no]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    table.add_row(
        ["Leap prefetcher", yes, yes, yes, yes, yes, yes, yes]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    table.render()
}

/// Figure 8b: the Leap prefetcher plugged into the default data path while
/// paging to slow local storage (SSD and HDD), versus Linux Read-Ahead.
pub(crate) fn fig08b_slow_storage() -> String {
    let trace = powergraph_trace();
    let mut table = TextTable::new(vec!["configuration", "completion time (s)"])
        .with_title("Figure 8b: prefetcher benefit when paging to slow storage (PowerGraph, 50%)");
    for (label, backend, prefetcher) in [
        (
            "SSD + Read-Ahead",
            BackendKind::Ssd,
            PrefetcherKind::ReadAhead,
        ),
        (
            "SSD + Leap prefetcher",
            BackendKind::Ssd,
            PrefetcherKind::Leap,
        ),
        (
            "HDD + Read-Ahead",
            BackendKind::Hdd,
            PrefetcherKind::ReadAhead,
        ),
        (
            "HDD + Leap prefetcher",
            BackendKind::Hdd,
            PrefetcherKind::Leap,
        ),
    ] {
        let config = SimConfig::disk_defaults(backend)
            .to_builder()
            .prefetcher(prefetcher)
            .memory_fraction(0.5)
            .seed(EXPERIMENT_SEED)
            .build()
            .expect("valid config");
        let result = VmmSimulator::new(config).run_prepopulated(&trace);
        table.add_row(vec![
            label.to_string(),
            format!("{:.3}", result.completion_seconds()),
        ]);
    }
    table.render()
}

/// Figures 9a and 9b: cache adds, cache misses, and application completion
/// time for the four prefetching algorithms on the PowerGraph trace (default
/// data path, paging to disk, 50 % memory — isolating the prefetcher itself).
pub fn fig09_prefetcher_cache() -> String {
    let trace = powergraph_trace();
    let mut table = TextTable::new(vec![
        "prefetcher",
        "cache adds",
        "cache misses",
        "completion time (s)",
    ])
    .with_title("Figure 9: prefetcher impact on the cache and on completion time (PowerGraph)");
    for kind in PrefetcherKind::EVALUATED {
        let config = SimConfig::disk_defaults(BackendKind::Hdd)
            .to_builder()
            .prefetcher(kind)
            .memory_fraction(0.5)
            .seed(EXPERIMENT_SEED)
            .build()
            .expect("valid config");
        let result = VmmSimulator::new(config).run_prepopulated(&trace);
        table.add_row(vec![
            kind.label().to_string(),
            result.cache_stats.cache_adds().to_string(),
            result.cache_stats.misses().to_string(),
            format!("{:.3}", result.completion_seconds()),
        ]);
    }
    table.render()
}

/// Figures 10a and 10b: accuracy, coverage, and timeliness of the four
/// prefetching algorithms on the PowerGraph trace.
pub(crate) fn fig10_prefetch_effectiveness() -> String {
    let trace = powergraph_trace();
    let mut table = TextTable::new(vec![
        "prefetcher",
        "accuracy",
        "coverage",
        "timeliness p50 (us)",
        "timeliness p99 (us)",
    ])
    .with_title("Figure 10: prefetch accuracy, coverage, and timeliness (PowerGraph)");
    for kind in PrefetcherKind::EVALUATED {
        let config = SimConfig::disk_defaults(BackendKind::Hdd)
            .to_builder()
            .prefetcher(kind)
            .memory_fraction(0.5)
            .seed(EXPERIMENT_SEED)
            .build()
            .expect("valid config");
        let mut result = VmmSimulator::new(config).run_prepopulated(&trace);
        let accuracy = result.prefetch_stats.accuracy();
        let coverage = result.prefetch_stats.coverage();
        let t50 = result.prefetch_stats.timeliness().median();
        let t99 = result.prefetch_stats.timeliness().percentile(99.0);
        table.add_row(vec![
            kind.label().to_string(),
            format!("{:.1}%", 100.0 * accuracy),
            format!("{:.1}%", 100.0 * coverage),
            format!("{:.1}", t50.as_micros_f64()),
            format!("{:.1}", t99.as_micros_f64()),
        ]);
    }
    table.render()
}

/// Figure 11: application-level performance (completion time for PowerGraph
/// and NumPy, throughput for VoltDB and Memcached) for Disk, D-VMM, and
/// D-VMM+Leap at 100 %, 50 %, and 25 % local memory.
pub(crate) fn fig11_applications() -> String {
    let mut out = String::new();
    for kind in AppKind::ALL {
        let trace = app_trace(kind);
        let metric = if kind.is_throughput_oriented() {
            "throughput (kops/s)"
        } else {
            "completion time (s)"
        };
        let mut table = TextTable::new(vec![
            "memory limit",
            &format!("Disk — {metric}"),
            &format!("D-VMM — {metric}"),
            &format!("D-VMM+Leap — {metric}"),
        ])
        .with_title(format!("Figure 11 ({kind})"));
        for fraction in [1.0, 0.5, 0.25] {
            let mut cells = vec![format!("{:.0}%", fraction * 100.0)];
            for config in [
                SimConfig::disk_defaults(BackendKind::Ssd),
                SimConfig::linux_defaults(),
                SimConfig::leap_defaults(),
            ] {
                let config = config
                    .to_builder()
                    .memory_fraction(fraction)
                    .seed(EXPERIMENT_SEED)
                    .build()
                    .expect("valid config");
                let result = VmmSimulator::new(config).run_prepopulated(&trace);
                let value = if kind.is_throughput_oriented() {
                    format!("{:.1}", result.throughput_ops_per_sec() / 1_000.0)
                } else {
                    format!("{:.3}", result.completion_seconds())
                };
                cells.push(value);
            }
            table.add_row(cells);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// Figure 12: Leap performance with constrained prefetch-cache sizes
/// (unlimited, 320 MB, 32 MB, 3.2 MB) at 50 % memory.
pub(crate) fn fig12_constrained_cache() -> String {
    let mut out = String::new();
    let sizes = [
        ("No limit", u64::MAX),
        ("320 MB", 320 * 256),
        ("32 MB", 32 * 256),
        ("3.2 MB", 819),
    ];
    for kind in AppKind::ALL {
        let trace = app_trace(kind);
        let metric = if kind.is_throughput_oriented() {
            "throughput (kops/s)"
        } else {
            "completion time (s)"
        };
        let mut table = TextTable::new(vec!["prefetch cache", metric]).with_title(format!(
            "Figure 12 ({kind}): constrained prefetch cache, 50% memory"
        ));
        for (label, pages) in sizes {
            let config = SimConfig::builder()
                .memory_fraction(0.5)
                .prefetch_cache_pages(pages)
                .seed(EXPERIMENT_SEED)
                .build()
                .expect("valid config");
            let result = VmmSimulator::new(config).run_prepopulated(&trace);
            let value = if kind.is_throughput_oriented() {
                format!("{:.1}", result.throughput_ops_per_sec() / 1_000.0)
            } else {
                format!("{:.3}", result.completion_seconds())
            };
            table.add_row(vec![label.to_string(), value]);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// Figure 13: all four applications running concurrently on 4 cores under
/// the time-sliced scheduler, D-VMM vs D-VMM+Leap.
pub(crate) fn fig13_multi_app() -> String {
    let traces: Vec<AccessTrace> = AppKind::ALL.iter().map(|&k| app_trace(k)).collect();

    let mut table = TextTable::new(vec![
        "configuration",
        "median remote access (us)",
        "p99 (us)",
        "prefetch coverage",
        "makespan (s)",
    ])
    .with_title(
        "Figure 13: four applications paging concurrently (4 cores, 1 ms quantum, 50% memory each)",
    );
    for (label, config) in [
        ("D-VMM", SimConfig::linux_defaults()),
        ("D-VMM + Leap", SimConfig::leap_defaults()),
    ] {
        let config = config
            .to_builder()
            .memory_fraction(0.5)
            .cores(4)
            .seed(EXPERIMENT_SEED)
            .build()
            .expect("valid config");
        let mut result = VmmSimulator::new(config).run_multi(&traces);
        table.add_row(vec![
            label.to_string(),
            format!("{:.2}", result.median_remote_latency().as_micros_f64()),
            format!("{:.2}", result.p99_remote_latency().as_micros_f64()),
            format!("{:.1}%", 100.0 * result.prefetch_stats.coverage()),
            format!("{:.3}", result.completion_seconds()),
        ]);
    }
    table.render()
}

/// Figure 13 scale-up: aggregate throughput as 1..=4 applications page
/// concurrently over 4 cores, computed entirely from the per-core
/// [`FaultEvent`] streams (a [`CoreActivity`] observer, not the batch
/// result): per-core completion instants give the makespan, event counts
/// give the volume.
pub(crate) fn fig13_scaleup() -> String {
    const CORES: usize = 4;
    let mut table = TextTable::new(vec![
        "processes",
        "configuration",
        "active cores",
        "throughput (kops/s)",
        "makespan (s)",
        "prefetch coverage",
    ])
    .with_title(format!(
        "Figure 13 scale-up: throughput vs process count ({CORES} cores, from per-core event streams)"
    ));
    for n in 1..=AppKind::ALL.len() {
        let traces: Vec<AccessTrace> = AppKind::ALL[..n]
            .iter()
            .map(|&kind| {
                AppModel::new(kind, EXPERIMENT_SEED)
                    .with_accesses(APP_ACCESSES / 2)
                    .generate()
            })
            .collect();
        for (label, preset) in [
            ("D-VMM", SimConfig::linux_defaults()),
            ("D-VMM + Leap", SimConfig::leap_defaults()),
        ] {
            let config = preset
                .to_builder()
                .memory_fraction(0.5)
                .cores(CORES)
                .seed(EXPERIMENT_SEED)
                .build()
                .expect("valid config");
            let mut activity = CoreActivity::default();
            let result = VmmSimulator::new(config)
                .session()
                .observe(&mut activity)
                .run_multi(&traces);
            table.add_row(vec![
                format!("{n}"),
                label.to_string(),
                format!("{}", activity.active_cores()),
                format!("{:.1}", activity.throughput_ops_per_sec() / 1_000.0),
                format!("{:.3}", activity.completion_time().as_secs_f64()),
                format!("{:.1}%", 100.0 * result.prefetch_stats.coverage()),
            ]);
        }
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_techniques() {
        let t = table1_prefetcher_comparison();
        for needle in [
            "Next-N-Line",
            "Stride",
            "Linux Read-Ahead",
            "Leap prefetcher",
        ] {
            assert!(t.contains(needle));
        }
    }

    #[test]
    fn fig13_scaleup_reports_every_process_count() {
        let t = fig13_scaleup();
        for needle in ["1", "2", "3", "4", "D-VMM + Leap", "throughput"] {
            assert!(t.contains(needle), "missing {needle:?} in:\n{t}");
        }
    }

    #[test]
    fn fig03_covers_all_apps_and_windows() {
        let t = fig03_pattern_windows();
        for needle in ["PowerGraph", "NumPy", "VoltDB", "Memcached", "majority"] {
            assert!(t.contains(needle));
        }
    }
}
