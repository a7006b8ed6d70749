//! Criterion microbenchmarks for the prefetching algorithms.
//!
//! These support the complexity claims in §3.3 of the paper: `FindTrend` is
//! linear in the history size with O(1) space, and the whole per-fault
//! decision (history update + trend detection + window sizing) costs well
//! under a microsecond even for `Hsize = 32`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use leap_prefetcher::{
    find_trend, AccessHistory, LeapConfig, LeapPrefetcher, NextNLinePrefetcher, PageAddr,
    Prefetcher, ReadAheadPrefetcher, StridePrefetcher,
};

fn history_with_stride(size: usize, stride: u64) -> AccessHistory {
    let mut h = AccessHistory::new(size);
    for i in 0..(size as u64 * 2) {
        h.record(PageAddr(1_000 + stride * i));
    }
    h
}

fn bench_find_trend(c: &mut Criterion) {
    let mut group = c.benchmark_group("find_trend");
    for hsize in [8usize, 16, 32, 64, 128] {
        let history = history_with_stride(hsize, 7);
        group.bench_with_input(
            BenchmarkId::new("steady_stride", hsize),
            &history,
            |b, h| b.iter(|| find_trend(black_box(h), 4)),
        );
    }
    // Worst case: no majority anywhere, so the window doubles to the full
    // history before giving up.
    for hsize in [8usize, 32, 128] {
        let mut history = AccessHistory::new(hsize);
        for i in 0..(hsize as u64 * 2) {
            history.record(PageAddr((i * i * 2_654_435_761) % 1_000_003));
        }
        group.bench_with_input(BenchmarkId::new("no_majority", hsize), &history, |b, h| {
            b.iter(|| find_trend(black_box(h), 4))
        });
    }
    group.finish();
}

fn bench_on_fault(c: &mut Criterion) {
    let mut group = c.benchmark_group("on_fault");
    group.bench_function("leap/sequential", |b| {
        let mut p = LeapPrefetcher::new(LeapConfig::default());
        let mut addr = 0u64;
        b.iter(|| {
            addr += 1;
            black_box(p.on_fault(PageAddr(addr)))
        })
    });
    group.bench_function("leap/random", |b| {
        let mut p = LeapPrefetcher::new(LeapConfig::default());
        let mut x = 88172645463325252u64;
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            black_box(p.on_fault(PageAddr(x % 1_000_000)))
        })
    });
    group.bench_function("read_ahead/sequential", |b| {
        let mut p = ReadAheadPrefetcher::default();
        let mut addr = 0u64;
        b.iter(|| {
            addr += 1;
            black_box(p.on_fault(PageAddr(addr)))
        })
    });
    group.bench_function("stride/sequential", |b| {
        let mut p = StridePrefetcher::default();
        let mut addr = 0u64;
        b.iter(|| {
            addr += 7;
            black_box(p.on_fault(PageAddr(addr)))
        })
    });
    group.bench_function("next_n_line", |b| {
        let mut p = NextNLinePrefetcher::default();
        let mut addr = 0u64;
        b.iter(|| {
            addr += 1;
            black_box(p.on_fault(PageAddr(addr)))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_find_trend, bench_on_fault);
criterion_main!(benches);
