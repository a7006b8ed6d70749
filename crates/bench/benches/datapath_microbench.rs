//! Criterion microbenchmarks for the simulated data paths and the eviction
//! machinery (simulation-cost benchmarks, not latency-model outputs).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use leap_datapath::{DataPath, LeanDataPath, LegacyDataPath};
use leap_mem::{CacheOrigin, EvictionPolicy, Pid, SwapCache, SwapSlot};
use leap_remote::BackendKind;
use leap_sim_core::{DetRng, Nanos};

fn bench_data_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("data_path_read");
    group.bench_function("legacy/rdma", |b| {
        let mut path = LegacyDataPath::new(BackendKind::Rdma, DetRng::seed_from(1));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(path.read_page(i, (i % 8) as usize, Nanos::from_micros(50 * i)))
        })
    });
    group.bench_function("lean/rdma", |b| {
        let mut path = LeanDataPath::with_default_cluster(DetRng::seed_from(1));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(path.read_page(i, (i % 8) as usize, Nanos::from_micros(50 * i)))
        })
    });
    group.finish();
}

fn bench_eviction(c: &mut Criterion) {
    let mut group = c.benchmark_group("eviction");
    group.bench_function("eager/hit_and_free", |b| {
        b.iter_with_setup(
            || {
                let mut cache = SwapCache::unbounded(EvictionPolicy::Eager);
                for i in 0..256u64 {
                    cache.insert_fresh(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
                }
                cache
            },
            |mut cache| {
                for i in 0..256u64 {
                    black_box(cache.record_hit(SwapSlot(i), Nanos::from_micros(i)));
                }
            },
        )
    });
    group.bench_function("lazy/reclaim_256_of_1024", |b| {
        b.iter_with_setup(
            || {
                let mut cache = SwapCache::unbounded(EvictionPolicy::Lazy);
                for i in 0..1024u64 {
                    cache.insert(SwapSlot(i), Pid(1), CacheOrigin::Prefetch, Nanos::ZERO);
                }
                cache
            },
            |mut cache| {
                black_box(cache.make_space(256, Nanos::from_millis(1)));
            },
        )
    });
    group.finish();
}

criterion_group!(benches, bench_data_paths, bench_eviction);
criterion_main!(benches);
