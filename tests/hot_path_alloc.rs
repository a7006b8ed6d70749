//! Zero per-fault heap allocations on the fault hot path.
//!
//! The fault hot path — access-history update, trend detection, window
//! sizing, and candidate generation into the `PrefetchDecision` inline
//! buffer, the eager eviction FIFO, the page table's resident LRU, the
//! bounded swap cache, and remote I/O — must not touch the heap once per-process
//! state exists, for any window up to the inline capacity. This test binary
//! installs a global allocator that counts each thread's allocations and
//! pins that contract for the Leap prefetcher, the baselines, the tracker
//! layer the engine calls into, and the memory-management structures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use leap_repro::leap::tracker::PageAccessTracker;
use leap_repro::leap_datapath::{DataPath, LeanDataPath};
use leap_repro::leap_eviction::PrefetchFifoLru;
use leap_repro::leap_mem::{
    CacheOrigin, FrameId, PageState, PageTable, Pid, SwapCache, SwapSlot, VirtPage,
};
use leap_repro::leap_prefetcher::{
    IncrementalTrendDetector, LeapConfig, LeapPrefetcher, PageAddr, Prefetcher, PrefetcherKind,
    INLINE_DECISION_PAGES,
};
use leap_repro::leap_remote::{
    FaultPlan, FaultSpec, HostAgent, HostAgentConfig, RemoteCluster, RemoteIoKind,
};
use leap_repro::leap_sim_core::{DetRng, Nanos};

/// Counts every allocation (and reallocation) made through the global
/// allocator, per thread: a test reads only its own thread's count, so the
/// test harness's threads (and tests running in parallel) cannot add to it.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` because the allocator also runs while a thread's locals
    // are being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The number of heap allocations `f` makes on the calling thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn leap_prefetcher_steady_state_faults_do_not_allocate() {
    let mut p = LeapPrefetcher::new(LeapConfig::default());
    // Warm up: build the history and lock in a sequential trend.
    for i in 0..128u64 {
        let _ = p.on_fault(PageAddr(i));
    }
    let allocs = count_allocs(|| {
        for i in 128..8_320u64 {
            let d = p.on_fault(PageAddr(i));
            assert!(!d.spilled(), "paper-default window must stay inline");
            if i % 3 == 0 {
                p.on_prefetch_hit(PageAddr(i + 1));
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "Leap fault hot path performed {allocs} heap allocations over 8192 faults"
    );
}

#[test]
fn incremental_trend_detector_records_do_not_allocate() {
    // The detector's per-tier count maps are pre-reserved to their maximum
    // window population, so steady-state records — even a worst-case stream
    // of all-distinct deltas churning every tier — stay off the heap.
    let mut det = IncrementalTrendDetector::new(32, 4);
    let mut addr = 0u64;
    for i in 0..256u64 {
        addr += i % 7 + 1;
        det.record(PageAddr(addr));
    }
    let allocs = count_allocs(|| {
        let mut gap = 1u64;
        for i in 0..8_192u64 {
            // Alternate a steady stride with distinct-delta bursts to slide
            // majorities in and out of every tier.
            if i % 64 < 48 {
                addr += 3;
            } else {
                gap += i % 13 + 2;
                addr += gap;
            }
            det.record(PageAddr(addr));
            let _ = det.trend();
        }
    });
    assert_eq!(
        allocs, 0,
        "incremental detector performed {allocs} heap allocations over 8192 records"
    );
}

#[test]
fn irregular_and_speculative_decisions_do_not_allocate_either() {
    let mut p = LeapPrefetcher::new(LeapConfig::default());
    for i in 0..128u64 {
        let _ = p.on_fault(PageAddr(i * 3));
    }
    // A pseudo-random walk drives the window down, through the speculative
    // path and into suspension — none of which may allocate.
    let mut x: u64 = 99;
    let allocs = count_allocs(|| {
        for i in 0..4_096u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let _ = p.on_fault(PageAddr(1_000_000 + (x >> 40) + i));
        }
    });
    assert_eq!(allocs, 0, "irregular fault path allocated {allocs} times");
}

#[test]
fn windows_up_to_the_inline_capacity_stay_on_the_stack() {
    let mut p = LeapPrefetcher::new(LeapConfig {
        max_prefetch_window: INLINE_DECISION_PAGES,
        ..LeapConfig::default()
    });
    for i in 0..256u64 {
        let _ = p.on_fault(PageAddr(i));
    }
    let allocs = count_allocs(|| {
        for i in 256..2_304u64 {
            let d = p.on_fault(PageAddr(i));
            assert!(d.len() <= INLINE_DECISION_PAGES);
            assert!(!d.spilled());
            p.on_prefetch_hit(PageAddr(i + 1));
        }
    });
    assert_eq!(
        allocs, 0,
        "inline-capacity windows allocated {allocs} times"
    );
}

#[test]
fn oversized_windows_spill_but_still_work() {
    // Windows past the inline capacity are allowed to allocate — but must
    // produce the full candidate list.
    let mut p = LeapPrefetcher::new(LeapConfig {
        max_prefetch_window: INLINE_DECISION_PAGES * 2,
        ..LeapConfig::default()
    });
    // Replay a sequential stream against a cache model so prefetch hits feed
    // back and the adaptive window can grow to its (oversized) maximum.
    let mut cache = std::collections::HashSet::new();
    let mut largest = 0usize;
    for i in 0..4_096u64 {
        let addr = PageAddr(i);
        if cache.remove(&addr) {
            p.on_prefetch_hit(addr);
            continue;
        }
        let d = p.on_fault(addr);
        assert!(!d.contains(addr), "prefetched the demanded page");
        largest = largest.max(d.len());
        for c in d.iter() {
            cache.insert(*c);
        }
    }
    assert!(
        largest > INLINE_DECISION_PAGES,
        "window never exceeded the inline capacity (got {largest})"
    );
}

#[test]
fn baseline_prefetchers_do_not_allocate_in_steady_state() {
    for kind in [
        PrefetcherKind::None,
        PrefetcherKind::NextNLine,
        PrefetcherKind::Stride,
        PrefetcherKind::ReadAhead,
    ] {
        let mut p = leap_repro::leap::tracker::build_prefetcher(kind, 32, 8);
        for i in 0..64u64 {
            let _ = p.on_fault(PageAddr(i));
        }
        let allocs = count_allocs(|| {
            for i in 64..4_160u64 {
                let _ = p.on_fault(PageAddr(i));
            }
        });
        assert_eq!(
            allocs,
            0,
            "{} fault hot path allocated {allocs} times",
            kind.label()
        );
    }
}

#[test]
fn tracker_layer_adds_no_allocations_once_instances_exist() {
    // The engine consults the prefetcher through PageAccessTracker (one
    // instance per (pid, core)); after the instances exist, routing a fault
    // through the tracker must be as allocation-free as the prefetcher
    // itself.
    let mut tracker = PageAccessTracker::from_kind(PrefetcherKind::Leap, 32, 8, true);
    tracker.set_per_core(true);
    for core in 0..2 {
        for i in 0..128u64 {
            let _ = tracker.on_fault_at(Pid(1), core, PageAddr(i));
            let _ = tracker.on_fault_at(Pid(2), core, PageAddr(500_000 + i));
        }
    }
    let allocs = count_allocs(|| {
        for core in 0..2 {
            for i in 128..2_176u64 {
                let _ = tracker.on_fault_at(Pid(1), core, PageAddr(i));
                let _ = tracker.on_fault_at(Pid(2), core, PageAddr(500_000 + i));
                tracker.on_prefetch_hit_at(Pid(1), core, PageAddr(i + 1));
            }
        }
    });
    assert_eq!(allocs, 0, "tracker fault routing allocated {allocs} times");
}

#[test]
fn remote_io_does_not_allocate_in_steady_state() {
    // The agent's one request path — slab lookup, table-sampled transport
    // latency, fault-modifier bookkeeping and the dispatch queue — must not
    // touch the heap once the slabs are mapped, even while
    // spike/degraded/reconnect epochs are live.
    let mut agent = HostAgent::new(
        HostAgentConfig::default(),
        RemoteCluster::homogeneous(4, 64),
        DetRng::seed_from(11),
    );
    let spec = FaultSpec {
        latency_spikes: 8,
        spike_multiplier_milli: 4_000,
        degraded_epochs: 4,
        degraded_multiplier_milli: 2_500,
        reconnect_storms: 4,
        reconnect_penalty: Nanos::from_micros(25),
        epoch: Nanos::from_micros(400),
        start: Nanos::from_micros(5),
        horizon: Nanos::from_millis(40),
        ..FaultSpec::none()
    };
    agent.install_fault_plan(FaultPlan::from_spec(21, &spec, 8));
    let pages: Vec<u64> = (0..8u64).map(|i| i * 3).collect();
    // Warm up: map every slab the requests touch.
    let mut now = Nanos::ZERO;
    for _ in 0..32 {
        now = now.saturating_add(Nanos::from_micros(10));
        for &page in &pages {
            let _ = agent.remote_io(RemoteIoKind::Read, page, 0, now);
        }
    }
    let allocs = count_allocs(|| {
        for step in 0..2_048u64 {
            now = now.saturating_add(Nanos::from_micros(5));
            for &page in &pages {
                let io = agent.remote_io(RemoteIoKind::Read, page, (step % 8) as usize, now);
                assert!(io.is_some());
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "remote I/O allocated {allocs} times in steady state"
    );
}

#[test]
fn lean_data_path_span_reads_do_not_allocate_in_steady_state() {
    // A span read is the per-page loop over the lean path, each page's
    // breakdown a fixed-size value folded into the span's aggregate; after
    // warm-up a whole span costs zero heap traffic.
    let mut path = LeanDataPath::with_default_cluster(DetRng::seed_from(13));
    let pages: Vec<u64> = (0..8u64).collect();
    let mut totals = Vec::with_capacity(pages.len());
    let mut now = Nanos::ZERO;
    for _ in 0..32 {
        now = now.saturating_add(Nanos::from_micros(10));
        totals.clear();
        let _ = path.read_span(&pages, 0, now, &mut totals);
    }
    let allocs = count_allocs(|| {
        for step in 0..2_048u64 {
            now = now.saturating_add(Nanos::from_micros(5));
            totals.clear();
            let breakdown = path.read_span(&pages, (step % 4) as usize, now, &mut totals);
            assert_eq!(totals.len(), pages.len());
            assert!(!breakdown.total().is_zero());
        }
    });
    assert_eq!(
        allocs, 0,
        "lean span reads allocated {allocs} times in steady state"
    );
}

#[test]
fn bounded_swap_cache_churn_does_not_allocate() {
    // A bounded cache filled to its capacity and then churned the way the
    // engine drives it — evict the oldest page, insert a fresh one — must
    // never outgrow the map `SwapCache::new` reserved. Evictions leave
    // tombstones behind, so a map reserved for exactly its peak population
    // can still grow into a larger table. Slots are scattered, as a
    // prefetch window's are across processes and swap regions.
    for capacity in [64u64, 256, 1_000, 1_024] {
        let mut cache = SwapCache::new(capacity);
        let mut fifo = VecDeque::with_capacity(capacity as usize);
        let mut x = 88_172_645_463_325_252u64 ^ capacity;
        let allocs = count_allocs(|| {
            for step in 0..(64 * capacity) {
                if cache.is_full() {
                    let oldest = fifo.pop_front().expect("a full cache has a page");
                    assert!(cache.remove(SwapSlot(oldest)).is_some());
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let now = Nanos::from_nanos(step);
                assert!(cache.insert(SwapSlot(x), Pid(1), CacheOrigin::Prefetch, now));
                fifo.push_back(x);
            }
        });
        assert_eq!(
            allocs, 0,
            "bounded cache of {capacity} pages allocated {allocs} times under churn"
        );
        assert_eq!(cache.len(), capacity);
    }
}

#[test]
fn eager_fifo_insert_hit_reclaim_cycle_does_not_allocate() {
    // The eager policy's steady state: every fault admits a span of fresh
    // prefetched slots, most of them are hit (freed on hit), and the rest
    // are reclaimed in FIFO order to keep the cache at its budget. Once
    // the queue, the count map and the cache have grown to that working
    // size, none of it may touch the heap — compaction included.
    const SPAN: u64 = 8;
    const BUDGET: u64 = 256;
    let mut cache = SwapCache::unbounded();
    let mut fifo = PrefetchFifoLru::new();
    let mut span: Vec<SwapSlot> = Vec::with_capacity(SPAN as usize);
    let mut freed: Vec<SwapSlot> = Vec::with_capacity(BUDGET as usize);
    let mut next = 0u64;
    let mut cycle = |steps: u64| {
        for step in 0..steps {
            let now = Nanos::from_micros(step);
            span.clear();
            span.extend((next..next + SPAN).map(SwapSlot));
            next += SPAN;
            for &slot in &span {
                cache.insert_fresh(slot, Pid(1), CacheOrigin::Prefetch, now);
            }
            fifo.on_prefetch_insert_span(&span);
            // Every slot but the span's last is consumed, out of order.
            for &slot in span[..SPAN as usize - 1].iter().rev() {
                let (_, taken) = cache
                    .record_hit_take(slot, now, true)
                    .expect("prefetched slot is cached");
                assert!(taken);
                assert!(fifo.on_hit_freed(slot));
            }
            if cache.len() > BUDGET {
                freed.clear();
                let over = cache.len() - BUDGET;
                assert_eq!(fifo.reclaim_fifo(&mut cache, over, &mut freed), over);
            }
        }
    };
    cycle(4_096);
    let allocs = count_allocs(|| cycle(8_192));
    assert_eq!(
        allocs, 0,
        "eager FIFO insert/hit/reclaim cycle allocated {allocs} times"
    );
    assert_eq!(fifo.len() as u64, cache.len());
}

#[test]
fn page_table_touch_evict_map_cycle_does_not_allocate() {
    // The VMM's steady state over one process: a resident hit is a
    // `lookup_touch`, a fault on a swapped page evicts the LRU page and maps
    // the faulting one back in. With the table pre-sized to the working set
    // nothing here may touch the heap.
    const PAGES: u64 = 4_096;
    const RESIDENT: u64 = 1_024;
    let mut table = PageTable::with_capacity(PAGES as usize);
    let mut slot = 0u64;
    let mut access = |table: &mut PageTable, page: VirtPage| match table.lookup_touch(page) {
        PageState::Resident(_) => {}
        PageState::Untouched | PageState::Swapped(_) => {
            if table.resident_pages() >= RESIDENT {
                slot += 1;
                let (_, frame) = table
                    .swap_out_lru(SwapSlot(slot))
                    .expect("a resident page to evict");
                table.map(page, frame);
            } else {
                table.map(page, FrameId(page.0));
            }
        }
    };
    for p in 0..PAGES {
        access(&mut table, VirtPage(p));
    }
    let mut x = 88_172_645_463_325_252u64;
    let allocs = count_allocs(|| {
        for i in 0..16_384u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // A hot quarter of the pages takes most accesses.
            let page = if i % 4 == 0 {
                x % PAGES
            } else {
                x % (PAGES / 4)
            };
            access(&mut table, VirtPage(page));
        }
    });
    assert_eq!(
        allocs, 0,
        "page table touch/evict/map cycle allocated {allocs} times"
    );
    assert_eq!(table.resident_pages(), RESIDENT);
    assert_eq!(table.touched_pages(), PAGES);
}
