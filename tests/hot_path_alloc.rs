//! Zero per-fault heap allocations on the fault hot path.
//!
//! The fault hot path — access-history update, trend detection, window
//! sizing, and candidate generation into the `PrefetchDecision` inline
//! buffer, the swap cache's eviction lists, the page table's resident LRU,
//! the bounded swap cache, the swap space, remote I/O, and the async pipeline's
//! completion ring — must not touch the heap once per-process state exists,
//! for any window up to the inline capacity. This test binary installs a global allocator that counts each
//! thread's allocations and pins that contract for the Leap prefetcher, the
//! baselines, the tracker layer the engine calls into, and the
//! memory-management structures. It also pins the two memoized set-up
//! computations that every generated access and every replay repeat: a zipf
//! draw, and a trace's working set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use leap_repro::leap::tracker::PageAccessTracker;
use leap_repro::leap::{AsyncPipeline, IoKind};
use leap_repro::leap_datapath::{DataPath, LeanDataPath};
use leap_repro::leap_mem::{
    CacheOrigin, EvictionPolicy, PageState, PageTable, Pid, SwapCache, SwapSlot, SwapSpace,
    VirtPage,
};
use leap_repro::leap_prefetcher::{
    LeapConfig, LeapPrefetcher, PageAddr, Prefetcher, PrefetcherKind, INLINE_DECISION_PAGES,
};
use leap_repro::leap_remote::{
    FaultSpec, HostAgent, HostAgentConfig, RecoveryPolicy, RemoteCluster, RemoteIoKind,
};
use leap_repro::leap_sim_core::{DetRng, Nanos};
use leap_repro::leap_workloads::{Access, AccessTrace};

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
    // instance per (pid, core), at index pid × cores + core of a vector);
    // after the instances exist, routing a fault
    // through the tracker must be as allocation-free as the prefetcher
    // itself.
    let mut tracker = PageAccessTracker::from_kind(PrefetcherKind::Leap, 32, 8, true);
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
    agent.install_faults(21, &spec, RecoveryPolicy::none());
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
        let mut cache = SwapCache::new(capacity, EvictionPolicy::Lazy);
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
fn sliding_swap_allocate_free_cycle_does_not_allocate() {
    // A replay's swap traffic: pages are swapped out in bursts and swapped
    // back in a while later, not in the order they left. Once the window
    // of slots in use has reached its working size, allocating and freeing
    // must not touch the heap — however many swap-outs the run has made.
    const BURST: u64 = 8;
    const LIVE_BURSTS: usize = 64;
    let mut swap = SwapSpace::new(u64::MAX / 2);
    let mut held: VecDeque<[SwapSlot; BURST as usize]> = VecDeque::with_capacity(LIVE_BURSTS + 1);
    let mut page = 0u64;
    let mut cycle = |steps: u64| {
        for _ in 0..steps {
            let burst = std::array::from_fn(|_| {
                page += 1;
                swap.allocate(Pid(1), VirtPage(page))
                    .expect("the region is far from full")
            });
            held.push_back(burst);
            if held.len() > LIVE_BURSTS {
                let oldest = held.pop_front().expect("more than LIVE_BURSTS held");
                // Newest first, so the window's front moves only on the
                // burst's last free.
                for &slot in oldest.iter().rev() {
                    assert!(swap.owner(slot).is_some());
                    swap.free(slot);
                }
            }
        }
    };
    cycle(4_096);
    let allocs = count_allocs(|| cycle(8_192));
    assert_eq!(
        allocs, 0,
        "sliding swap allocate/free cycle allocated {allocs} times"
    );
    assert_eq!(swap.used_slots(), LIVE_BURSTS as u64 * BURST);
}

#[test]
fn async_pipeline_submit_retire_cycle_does_not_allocate() {
    // A shard's asynchronous traffic: a submit per step with service times
    // out of order, retired as the clock passes them. Once the completion
    // ring has grown to the peak in-flight count, submits and retires must
    // not touch the heap, stalling (depths 2 and 8) or not (unbounded).
    const SERVICES: [u64; 5] = [300, 2_000, 700, 5_000, 700];
    for depth in [2, 8, usize::MAX] {
        let mut pipeline = AsyncPipeline::new(depth);
        let mut now = Nanos::ZERO;
        let mut cycle = |steps: usize| {
            for step in 0..steps {
                now = now.saturating_add(Nanos(100));
                let kind = if step % 3 == 0 {
                    IoKind::WriteBack
                } else {
                    IoKind::PrefetchRead
                };
                let out = pipeline.submit(now, Nanos(SERVICES[step % SERVICES.len()]), kind);
                now = now.saturating_add(out.stall);
                pipeline.retire(now);
            }
        };
        cycle(1_000);
        let allocs = count_allocs(|| cycle(10_000));
        assert_eq!(
            allocs, 0,
            "depth {depth}: submit/retire cycle allocated {allocs} times"
        );
        pipeline.drain();
        assert_eq!(pipeline.stats().completed, 11_000);
    }
}

#[test]
fn eager_fifo_insert_hit_reclaim_cycle_does_not_allocate() {
    // The eager policy's steady state: every fault admits a span of fresh
    // prefetched slots onto the cache's FIFO, most of them are hit (freed
    // on hit, unlinked in place), and the rest are reclaimed in FIFO order
    // to keep the cache at its budget. Once the slab and the index have
    // grown to that working size, none of it may touch the heap.
    const SPAN: u64 = 8;
    const BUDGET: u64 = 256;
    let mut cache = SwapCache::unbounded(EvictionPolicy::Eager);
    let mut next = 0u64;
    let mut cycle = |steps: u64| {
        for step in 0..steps {
            let now = Nanos::from_micros(step);
            let span = next..next + SPAN;
            next += SPAN;
            for slot in span.clone().map(SwapSlot) {
                cache.insert_fresh(slot, Pid(1), CacheOrigin::Prefetch, now);
            }
            // Every slot but the span's last is consumed, out of order.
            for slot in span.rev().skip(1).map(SwapSlot) {
                cache
                    .record_hit(slot, now)
                    .expect("prefetched slot is cached");
                assert!(!cache.contains(slot), "a hit frees the prefetch");
            }
            if cache.len() > BUDGET {
                let over = cache.len() - BUDGET;
                let report = cache.make_space(over, now);
                assert_eq!(report.freed_unused_prefetches, over);
            }
        }
    };
    cycle(4_096);
    let allocs = count_allocs(|| cycle(8_192));
    assert_eq!(
        allocs, 0,
        "eager FIFO insert/hit/reclaim cycle allocated {allocs} times"
    );
    assert_eq!(cache.tracked_pages(), cache.len());
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
        PageState::Resident => {}
        PageState::Untouched | PageState::Swapped(_) => {
            if table.resident_pages() >= RESIDENT {
                slot += 1;
                table
                    .swap_out_lru(SwapSlot(slot))
                    .expect("a resident page to evict");
            }
            table.map(page);
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

#[test]
fn zipf_draws_do_not_allocate() {
    let mut rng = DetRng::seed_from(17);
    let allocs = count_allocs(|| {
        for i in 0..4_096usize {
            // Alternate keys so the memo is recomputed as well as hit.
            let (n, theta) = if i % 512 < 500 {
                (2_048, 0.99)
            } else {
                (512, 0.7)
            };
            assert!(rng.zipf(n, theta) < n);
        }
    });
    assert_eq!(allocs, 0, "4096 zipf draws allocated {allocs} times");
}

#[test]
fn repeated_working_set_queries_do_not_allocate() {
    let trace = AccessTrace::new(
        "ws",
        (0..4_096u64)
            .map(|i| Access::read(i * 7 % 1_000, Nanos::ZERO))
            .collect(),
    );
    assert_eq!(trace.working_set_pages(), 1_000);
    let allocs = count_allocs(|| {
        assert_eq!(trace.working_set_pages(), 1_000);
    });
    assert_eq!(
        allocs, 0,
        "a second working-set query allocated {allocs} times"
    );
}
