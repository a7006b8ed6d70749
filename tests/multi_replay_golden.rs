//! Golden fingerprints of scheduled multi-process replays.
//!
//! Four fixed-seed `run_multi` replays over the four application traces on
//! 2 cores are pinned to `tests/fixtures/multi_replay_golden.txt`:
//!
//! - a `linux_defaults` VMM (shared read-ahead state across processes, so
//!   one replay worker spans every core);
//! - a `VfsSimulator` (one file cache shared by every core);
//! - a `leap_defaults` VMM (per-process isolation, one shard worker per
//!   core);
//! - the `linux_defaults` VMM with a 256-page prefetch cache, the one run
//!   whose lazy reclaimer evicts, so its eviction-wait histogram is not
//!   empty.
//!
//! The fingerprint covers completion time, accesses, `CacheStats`, the
//! prefetch-outcome, fault, recovery and pipeline checksums, the mean and
//! p99 remote-access latency, and the sample count, p50, p99 and max of the
//! eviction-wait, allocation-wait and prefetch-timeliness histograms (so a
//! shard merge that drops one of them cannot go unnoticed). Both replay
//! modes must reproduce the committed values exactly.
//!
//! Regenerate after an *intentional* behaviour change:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test multi_replay_golden
//! ```

use leap_repro::leap_sim_core::units::MIB;
use leap_repro::leap_workloads::AccessTrace;
use leap_repro::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

fn app_traces() -> Vec<AccessTrace> {
    AppKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            AppModel::new(kind, 500 + i as u64)
                .with_working_set(4 * MIB)
                .with_accesses(5_000)
                .generate()
        })
        .collect()
}

fn configure(base: SimConfig, mode: ReplayMode) -> SimConfig {
    base.to_builder()
        .memory_fraction(0.5)
        .cores(2)
        .sched_quantum(Nanos::from_micros(250))
        .seed(1_234)
        .replay_mode(mode)
        .build()
        .expect("valid config")
}

/// Renders every pinned field of `result` as `key value` lines.
fn fingerprint(name: &str, mut result: RunResult) -> String {
    let mut out = String::new();
    let mut line = |key: &str, value: String| {
        let _ = writeln!(out, "{name}.{key} {value}");
    };
    line("config_label", result.config_label.clone());
    line("workload", result.workload.clone());
    line(
        "completion_ns",
        result.completion_time.as_nanos().to_string(),
    );
    line("total_accesses", result.total_accesses.to_string());
    line("remote_accesses", result.remote_accesses.to_string());
    line("cache_stats", format!("{:?}", result.cache_stats));
    line(
        "prefetch_outcomes_checksum",
        format!("{:#018x}", result.prefetch_outcomes.checksum()),
    );
    line(
        "fault_checksum",
        format!("{:#018x}", result.fault_stats.checksum),
    );
    line(
        "recovery_checksum",
        format!("{:#018x}", result.recovery_stats.checksum),
    );
    line(
        "pipeline_checksum",
        format!("{:#018x}", result.pipeline.completion_checksum),
    );
    line(
        "remote_mean_ns",
        result.remote_access_latency.mean().as_nanos().to_string(),
    );
    line(
        "remote_p99_ns",
        result.p99_remote_latency().as_nanos().to_string(),
    );
    for (hist_name, hist) in [
        ("eviction_wait", &mut result.eviction_wait),
        ("allocation_wait", &mut result.allocation_wait),
        ("timeliness", result.prefetch_stats.timeliness()),
    ] {
        line(&format!("{hist_name}_len"), hist.len().to_string());
        for (label, p) in [("p50", 50.0), ("p99", 99.0)] {
            let ns = hist.percentile(p).as_nanos();
            line(&format!("{hist_name}_{label}_ns"), ns.to_string());
        }
        line(
            &format!("{hist_name}_max_ns"),
            hist.max().as_nanos().to_string(),
        );
    }
    out
}

fn render(mode: ReplayMode) -> String {
    let traces = app_traces();
    let dvmm = VmmSimulator::new(configure(SimConfig::linux_defaults(), mode)).run_multi(&traces);
    let vfs = VfsSimulator::new(configure(SimConfig::leap_defaults(), mode)).run_multi(&traces);
    let leap = VmmSimulator::new(configure(SimConfig::leap_defaults(), mode)).run_multi(&traces);
    let small_cache = SimConfig::linux_defaults()
        .to_builder()
        .prefetch_cache_pages(256)
        .build()
        .expect("valid config");
    let reclaimed = VmmSimulator::new(configure(small_cache, mode)).run_multi(&traces);
    [
        fingerprint("linux_vmm", dvmm),
        fingerprint("vfs", vfs),
        fingerprint("leap_vmm", leap),
        fingerprint("linux_vmm_small_cache", reclaimed),
    ]
    .concat()
}

#[test]
fn multi_process_replays_match_the_committed_fingerprints() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("multi_replay_golden.txt");
    let serial = render(ReplayMode::Serial);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &serial).expect("write golden");
    }
    let committed = std::fs::read_to_string(&path).expect(
        "tests/fixtures/multi_replay_golden.txt missing — regenerate with \
         REGEN_GOLDEN=1 cargo test --test multi_replay_golden",
    );
    assert_eq!(serial, committed, "serial replay drifted from the golden");
    assert_eq!(
        render(ReplayMode::Threaded),
        committed,
        "threaded replay drifted from the golden"
    );
}
