//! The hedging figure: tail latency under churn with the recovery layer on.
//!
//! [`fig_churn`](crate::fig_churn) shows what churn does to Leap's latency
//! distribution; this figure shows what the recovery layer buys back. The
//! same canonical storm (and its partitioned variant) replays a read stream
//! through the lean data path twice — once bare, once with the
//! tail-tolerant policy (deadlines + retries + hedged reads) — and the
//! table compares p50/p99 alongside the recovery counters. The headline
//! result, pinned by a test, is that hedging flattens the storm's p99 to
//! at most half of the unprotected tail.
//!
//! Everything derives from `(EXPERIMENT_SEED, spec, policy)`: the fault
//! schedule comes from the fault-salted stream, recovery decisions from the
//! recovery-salted stream, so the bare and hedged runs see byte-identical
//! fault plans and workload draws.

use crate::EXPERIMENT_SEED;
use leap_datapath::{DataPath, LeanDataPath};
use leap_metrics::{LatencyHistogram, TextTable};
use leap_remote::{FaultSpec, RecoveryPolicy, RecoveryStats};
use leap_sim_core::{DetRng, Nanos};

/// Reads per run; spread uniformly over the canonical storm window so every
/// fault epoch is sampled.
const READS: u64 = 2_000;

const CORES: usize = 4;

/// The fault intensities the figure sweeps.
pub(crate) fn hedging_intensities() -> Vec<(&'static str, FaultSpec)> {
    vec![
        ("steady state", FaultSpec::none()),
        ("canonical storm", FaultSpec::canonical_storm()),
        ("partition storm", FaultSpec::canonical_partition_storm()),
    ]
}

/// Replays the read stream through the lean data path under `(spec,
/// policy)`, returning the latency distribution and the recovery counters.
pub(crate) fn run_hedged(
    spec: &FaultSpec,
    policy: RecoveryPolicy,
) -> (LatencyHistogram, RecoveryStats) {
    let mut path = LeanDataPath::with_default_cluster(DetRng::seed_from(EXPERIMENT_SEED));
    path.install_faults(EXPERIMENT_SEED, spec, policy);
    // Issue every read inside the canonical storm window (also used for the
    // steady-state baseline, where the instants are inert) so the tail of
    // the distribution is shaped by the faults, not by healthy padding.
    let window = FaultSpec::canonical_storm();
    let span = window
        .horizon
        .saturating_sub(window.start)
        .as_nanos()
        .max(1);
    let mut latencies = LatencyHistogram::default();
    for i in 0..READS {
        let now = window.start + Nanos::from_nanos(i * span / READS);
        let breakdown = path.read_page(i.wrapping_mul(11), (i % CORES as u64) as usize, now);
        latencies.record(breakdown.total());
    }
    (latencies, path.recovery_stats())
}

/// The hedging figure: p50/p99 read latency and recovery counters vs fault
/// intensity, recovery off against the tail-tolerant policy.
pub(crate) fn fig_hedging() -> String {
    let mut table = TextTable::new(vec![
        "intensity",
        "recovery",
        "p50 (us)",
        "p99 (us)",
        "hedges won",
        "hedges wasted",
        "retries",
        "degraded",
        "failfasts",
    ])
    .with_title(format!(
        "Hedged reads under churn: {READS} reads over the canonical storm window \
         ({CORES} cores, seed {EXPERIMENT_SEED})",
    ));
    for (intensity, spec) in hedging_intensities() {
        for (label, policy) in [
            ("off", RecoveryPolicy::none()),
            ("tail-tolerant", RecoveryPolicy::tail_tolerant()),
        ] {
            let (mut latencies, stats) = run_hedged(&spec, policy);
            table.add_row(vec![
                intensity.to_string(),
                label.to_string(),
                format!("{:.2}", latencies.median().as_micros_f64()),
                format!("{:.2}", latencies.percentile(99.0).as_micros_f64()),
                format!("{}", stats.hedges_won),
                format!("{}", stats.hedges_wasted),
                format!("{}", stats.retries),
                format!("{}", stats.degraded_reads),
                format!("{}", stats.partition_failfasts),
            ]);
        }
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hedging_halves_the_storm_p99() {
        // The acceptance pin: under the canonical storm, the tail-tolerant
        // policy's measured p99 read latency is at most half of the
        // unprotected p99.
        let storm = FaultSpec::canonical_storm();
        let (mut bare, bare_stats) = run_hedged(&storm, RecoveryPolicy::none());
        let (mut hedged, stats) = run_hedged(&storm, RecoveryPolicy::tail_tolerant());
        assert!(bare_stats.is_quiet(), "no policy, no recovery actions");
        assert!(stats.hedges_issued > 0, "the storm must trigger hedges");
        assert!(stats.hedges_won > 0, "some hedges must win");
        let bare_p99 = bare.percentile(99.0);
        let hedged_p99 = hedged.percentile(99.0);
        assert!(
            hedged_p99.as_nanos() * 2 <= bare_p99.as_nanos(),
            "hedging must at least halve the storm p99: \
             {hedged_p99} hedged vs {bare_p99} bare"
        );
    }

    #[test]
    fn recovery_never_inflates_the_healthy_median() {
        let healthy = FaultSpec::none();
        let (mut bare, _) = run_hedged(&healthy, RecoveryPolicy::none());
        let (mut hedged, _) = run_hedged(&healthy, RecoveryPolicy::tail_tolerant());
        // Hedges only replace a sample when the hedge completes sooner, so
        // the steady-state median must not regress.
        assert!(hedged.median() <= bare.median());
    }

    #[test]
    fn partition_storm_reroutes_instead_of_stalling() {
        let spec = FaultSpec::canonical_partition_storm();
        let (_, stats) = run_hedged(&spec, RecoveryPolicy::tail_tolerant());
        assert!(
            stats.partition_failfasts > 0 || stats.degraded_reads > 0,
            "three partition epochs must force reroutes or degradation: {stats:?}"
        );
    }

    #[test]
    fn fig_hedging_renders_every_intensity() {
        let t = fig_hedging();
        for needle in [
            "steady state",
            "canonical storm",
            "partition storm",
            "tail-tolerant",
            "hedges won",
        ] {
            assert!(t.contains(needle), "missing {needle:?} in:\n{t}");
        }
    }
}
