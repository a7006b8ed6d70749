//! SipHash vs the specialized FxHash on the fault path's map shapes.
//!
//! The hot maps (page table, swap cache, swap-slot ownership, LRU index)
//! are probed several times per fault with small integer keys the
//! simulator itself generates. This bench pins the reason they use
//! `leap_sim_core::hash::FxHashMap` instead of the std SipHash default:
//! same map, same keys, only the hasher differs — plus the end-to-end
//! `PageTable` probe as actually shipped.
//!
//! ```text
//! cargo bench -p leap-bench --bench hashing_microbench
//! ```

use std::collections::HashMap;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use leap_mem::{PageTable, VirtPage};
use leap_sim_core::hash::FxHashMap;

const TABLE_PAGES: u64 = 4_096; // a 16 MiB working set, the harness's shape

fn bench_map_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashing");

    let mut sip: HashMap<VirtPage, u64> = HashMap::new();
    let mut fx: FxHashMap<VirtPage, u64> = FxHashMap::default();
    for p in 0..TABLE_PAGES {
        sip.insert(VirtPage(p), p);
        fx.insert(VirtPage(p), p);
    }

    for (name, stride) in [("sequential", 1u64), ("stride10", 10u64)] {
        group.bench_with_input(BenchmarkId::new("siphash_map", name), &stride, |b, &s| {
            let mut p = 0u64;
            b.iter(|| {
                p = (p + s) % TABLE_PAGES;
                black_box(sip.get(&VirtPage(p)))
            })
        });
        group.bench_with_input(BenchmarkId::new("fx_map", name), &stride, |b, &s| {
            let mut p = 0u64;
            b.iter(|| {
                p = (p + s) % TABLE_PAGES;
                black_box(fx.get(&VirtPage(p)))
            })
        });
    }
    group.finish();
}

/// The shipped `PageTable` probe (Fx-hashed, pre-reserved) under the access
/// patterns the replay engine produces.
fn bench_page_table_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_table");
    let mut pt = PageTable::with_capacity(TABLE_PAGES as usize);
    for p in 0..TABLE_PAGES {
        pt.map(VirtPage(p));
    }
    group.bench_function("lookup/sequential", |b| {
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) % TABLE_PAGES;
            black_box(pt.lookup(VirtPage(p)))
        })
    });
    group.bench_function("lookup/random", |b| {
        let mut x = 88172645463325252u64;
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            black_box(pt.lookup(VirtPage(x % TABLE_PAGES)))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_map_probes, bench_page_table_probe);
criterion_main!(benches);
