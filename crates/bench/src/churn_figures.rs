//! The churn figure: Leap vs the default data path while the remote tier
//! misbehaves.
//!
//! The paper evaluates Leap on a healthy RDMA fabric; this figure asks what
//! survives of its advantage when the fabric churns. A seeded
//! [`FaultSpec`] schedules latency-spike epochs, degraded-bandwidth epochs,
//! reconnect storms and machine failures inside the replay window at three
//! intensities (plus the steady-state baseline), and both configurations
//! replay the same trace under the same plan. Everything is derived from
//! `(EXPERIMENT_SEED, spec)`, so the figure is bit-reproducible.

use crate::{APP_ACCESSES, EXPERIMENT_SEED};
use leap::prelude::*;
use leap::FaultSpec;
use leap_metrics::TextTable;
use leap_sim_core::Nanos;
use leap_workloads::AccessTrace;

const CORES: usize = 4;

/// The trace the churn figure replays: the PowerGraph-style mix (the same
/// pick as the prefetcher-comparison figures — it mixes all three pattern
/// types, so prefetch quality matters).
fn churn_trace() -> AccessTrace {
    AppModel::new(AppKind::PowerGraph, EXPERIMENT_SEED)
        .with_accesses(APP_ACCESSES / 2)
        .generate()
}

fn churn_config(preset: SimConfig, spec: FaultSpec) -> SimConfig {
    preset
        .to_builder()
        .memory_fraction(0.5)
        .cores(CORES)
        .seed(EXPERIMENT_SEED)
        .fault_plan(spec)
        .build()
        .expect("valid churn config")
}

/// The fault window used by every intensity: the middle 80% of the healthy
/// D-VMM run, so both configurations spend the bulk of their replay inside
/// the churn regardless of how fast they finish.
pub(crate) fn churn_window() -> (Nanos, Nanos) {
    let result = VmmSimulator::new(churn_config(SimConfig::linux_defaults(), FaultSpec::none()))
        .session()
        .run(&churn_trace());
    let t = result.completion_time.as_nanos().max(10);
    (Nanos::from_nanos(t / 10), Nanos::from_nanos(t * 9 / 10))
}

/// The three fault intensities (plus the healthy baseline) over a window.
pub(crate) fn churn_intensities(start: Nanos, horizon: Nanos) -> Vec<(&'static str, FaultSpec)> {
    let epoch = Nanos::from_nanos((horizon.as_nanos().saturating_sub(start.as_nanos()) / 4).max(1));
    vec![
        ("steady state", FaultSpec::none()),
        (
            "mild",
            FaultSpec {
                latency_spikes: 1,
                spike_multiplier_milli: 2000,
                epoch,
                start,
                horizon,
                ..FaultSpec::none()
            },
        ),
        ("storm", FaultSpec::storm_over(start, horizon)),
        (
            "severe",
            FaultSpec {
                latency_spikes: 4,
                spike_multiplier_milli: 8000,
                degraded_epochs: 2,
                degraded_multiplier_milli: 4000,
                machine_failures: 2,
                reconnect_storms: 2,
                reconnect_penalty: Nanos::from_micros(50),
                epoch,
                start,
                horizon,
                partition_epochs: 0,
                target_tenant: 0,
            },
        ),
    ]
}

/// Replays the churn trace once under `(preset, spec)`.
pub(crate) fn run_churn(preset: SimConfig, spec: FaultSpec) -> RunResult {
    VmmSimulator::new(churn_config(preset, spec))
        .session()
        .run(&churn_trace())
}

/// The churn figure: p50/p99 remote latency and paging throughput vs fault
/// intensity, Leap against the default data path.
///
/// Machine failures only exist on Leap's lean path (the legacy path models a
/// local block device, which has no remote cluster to lose) — both paths see
/// the same latency-spike, degraded-bandwidth and reconnect-storm epochs.
pub fn fig_churn() -> String {
    let (start, horizon) = churn_window();
    let mut table = TextTable::new(vec![
        "intensity",
        "configuration",
        "p50 (us)",
        "p99 (us)",
        "pages/sec (k)",
        "completion (s)",
        "faulted reqs",
        "machines lost",
    ])
    .with_title(format!(
        "Leap under churn: fault intensity sweep over [{:.0} us, {:.0} us) ({CORES} cores, seed {EXPERIMENT_SEED})",
        start.as_micros_f64(),
        horizon.as_micros_f64(),
    ));
    for (intensity, spec) in churn_intensities(start, horizon) {
        for (label, preset) in [
            ("D-VMM", SimConfig::linux_defaults()),
            ("D-VMM + Leap", SimConfig::leap_defaults()),
        ] {
            let mut result = run_churn(preset, spec);
            let faults = &result.fault_stats;
            let faulted =
                faults.spiked_requests + faults.degraded_requests + faults.reconnect_requests;
            let row = vec![
                intensity.to_string(),
                label.to_string(),
                format!("{:.2}", result.median_remote_latency().as_micros_f64()),
                format!("{:.2}", result.p99_remote_latency().as_micros_f64()),
                format!("{:.1}", result.throughput_ops_per_sec() / 1_000.0),
                format!("{:.3}", result.completion_seconds()),
                format!("{faulted}"),
                format!("{}", result.fault_stats.machines_failed),
            ];
            table.add_row(row);
        }
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_window_covers_the_middle_of_the_run() {
        let (start, horizon) = churn_window();
        assert!(start < horizon);
        assert!(!start.is_zero());
    }

    #[test]
    fn every_intensity_produces_a_valid_spec() {
        let (start, horizon) = churn_window();
        for (name, spec) in churn_intensities(start, horizon) {
            assert!(spec.validate().is_ok(), "intensity {name} invalid");
        }
    }

    #[test]
    fn storms_actually_touch_both_configurations() {
        let (start, horizon) = churn_window();
        let spec = FaultSpec::storm_over(start, horizon);
        for preset in [SimConfig::linux_defaults(), SimConfig::leap_defaults()] {
            let result = run_churn(preset, spec);
            assert!(
                !result.fault_stats.is_quiet(),
                "{} saw no faults",
                result.config_label
            );
        }
    }

    #[test]
    fn leap_retains_completion_advantage_under_the_canonical_storm() {
        // The acceptance pin: churn hurts both paths, but Leap keeps at
        // least a 1.5x completion-time advantage over the default data path
        // under the storm plan.
        let (start, horizon) = churn_window();
        let spec = FaultSpec::storm_over(start, horizon);
        let dvmm = run_churn(SimConfig::linux_defaults(), spec);
        let leap = run_churn(SimConfig::leap_defaults(), spec);
        let ratio = dvmm.completion_time.as_secs_f64() / leap.completion_time.as_secs_f64();
        assert!(
            ratio >= 1.5,
            "Leap's completion advantage under the storm fell to {ratio:.2}x"
        );
    }

    #[test]
    fn fig_churn_renders_every_intensity() {
        let t = fig_churn();
        for needle in ["steady state", "mild", "storm", "severe", "D-VMM + Leap"] {
            assert!(t.contains(needle), "missing {needle:?} in:\n{t}");
        }
    }
}
