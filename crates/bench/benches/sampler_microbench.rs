//! Criterion microbenchmarks for the latency sampler: the precomputed
//! inverse-CDF quantile table (one RNG draw + a linear interpolation),
//! plain and fault-scaled. These are the numbers behind the table-sampler
//! entry in EXPERIMENTS.md.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use leap_sim_core::{DetRng, Nanos, TableLatency};

/// The legacy block layer's queueing stage (the hottest log-normal in the
/// workspace): median 17.5 µs, sigma 0.6, floor 1 µs.
fn table() -> TableLatency {
    TableLatency::from_lognormal(Nanos::from_micros_f64(17.5), 0.6, Nanos::from_micros(1))
}

fn bench_single_sample(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampler_single");
    group.bench_function("lognormal/table", |b| {
        let sampler = table();
        let mut rng = DetRng::seed_from(1);
        b.iter(|| black_box(sampler.sample(&mut rng)))
    });
    group.finish();
}

fn bench_scaled_sample(c: &mut Criterion) {
    // A degraded-epoch multiplier on the table path: the scale is integer
    // arithmetic after the draw, so it should cost next to nothing.
    let mut group = c.benchmark_group("sampler_scaled");
    group.bench_function("table/identity_multiplier", |b| {
        let sampler = table();
        let mut rng = DetRng::seed_from(3);
        b.iter(|| black_box(sampler.sample_scaled(&mut rng, 1_000)))
    });
    group.bench_function("table/degraded_multiplier", |b| {
        let sampler = table();
        let mut rng = DetRng::seed_from(3);
        b.iter(|| black_box(sampler.sample_scaled(&mut rng, 2_500)))
    });
    group.finish();
}

criterion_group!(benches, bench_single_sample, bench_scaled_sample);
criterion_main!(benches);
