//! Hedged reads under the canonical storm: what the recovery layer buys
//! back at the tail.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example hedged_reads
//! ```
//!
//! The demo replays the same read stream through the lean data path twice
//! over [`FaultSpec::canonical_storm`] — once bare, once with
//! [`RecoveryPolicy::tail_tolerant`] (deadlines + retries + hedged reads) —
//! and prints the p50/p99 latencies side by side with the recovery
//! counters. Both runs are fully deterministic: the fault schedule comes
//! from the fault-salted RNG stream, recovery decisions from the
//! recovery-salted stream, so the two runs see byte-identical fault plans
//! and workload draws and the table reproduces bit-for-bit.

use leap_repro::leap_datapath::{DataPath, LeanDataPath};
use leap_repro::leap_metrics::{LatencyHistogram, TextTable};
use leap_repro::leap_remote::{FaultSpec, RecoveryPolicy, RecoveryStats};
use leap_repro::leap_sim_core::{DetRng, Nanos};

const SEED: u64 = 2020;
const READS: u64 = 4_000;
const CORES: u64 = 4;

/// Replays `READS` page reads spread uniformly over the storm window.
fn run(spec: &FaultSpec, policy: RecoveryPolicy) -> (LatencyHistogram, RecoveryStats) {
    let mut path = LeanDataPath::with_default_cluster(DetRng::seed_from(SEED));
    path.install_faults(SEED, spec, policy);
    let span = spec.horizon.saturating_sub(spec.start).as_nanos().max(1);
    let mut latencies = LatencyHistogram::default();
    for i in 0..READS {
        let now = spec.start + Nanos::from_nanos(i * span / READS);
        let breakdown = path.read_page(i.wrapping_mul(11), (i % CORES) as usize, now);
        latencies.record(breakdown.total());
    }
    (latencies, path.recovery_stats())
}

fn main() {
    let storm = FaultSpec::canonical_storm();
    println!(
        "canonical storm: {} latency-spike epoch(s), {} degraded epoch(s), \
         {} reconnect storm(s), {} machine failure(s) over [{:.0} us, {:.0} us)\n",
        storm.latency_spikes,
        storm.degraded_epochs,
        storm.reconnect_storms,
        storm.machine_failures,
        storm.start.as_micros_f64(),
        storm.horizon.as_micros_f64(),
    );

    let mut table = TextTable::new(vec![
        "recovery",
        "p50 (us)",
        "p99 (us)",
        "hedges issued",
        "hedges won",
        "hedges wasted",
        "retries",
        "deadline timeouts",
    ])
    .with_title(format!(
        "Hedged reads under the canonical storm ({READS} reads, seed {SEED})"
    ));
    let mut p99 = Vec::new();
    for (label, policy) in [
        ("off", RecoveryPolicy::none()),
        ("tail-tolerant", RecoveryPolicy::tail_tolerant()),
    ] {
        let (mut latencies, stats) = run(&storm, policy);
        p99.push(latencies.percentile(99.0));
        table.add_row(vec![
            label.to_string(),
            format!("{:.2}", latencies.median().as_micros_f64()),
            format!("{:.2}", latencies.percentile(99.0).as_micros_f64()),
            format!("{}", stats.hedges_issued),
            format!("{}", stats.hedges_won),
            format!("{}", stats.hedges_wasted),
            format!("{}", stats.retries),
            format!("{}", stats.deadline_timeouts),
        ]);
    }
    println!("{}", table.render());

    let (bare, hedged) = (p99[0], p99[1]);
    println!(
        "\nhedging flattened the storm p99 from {:.2} us to {:.2} us ({:.1}x)",
        bare.as_micros_f64(),
        hedged.as_micros_f64(),
        bare.as_nanos() as f64 / hedged.as_nanos().max(1) as f64,
    );
}
