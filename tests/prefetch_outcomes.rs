//! Engine-level tests for the prefetch-outcome ledger (`PrefetchOutcomes`):
//! hand-built ~10-access traces driven through `VmmSimulator` with a
//! deterministic test prefetcher, asserting *exact* counter values derived
//! by hand from the replay mechanics, plus the commutative-merge contract
//! the sharded replay relies on.
//!
//! The hand derivations lean on three pinned mechanics:
//!
//! 1. `run_prepopulated` touches the trace's distinct pages in address
//!    order, so with a resident limit of L pages the first `W - L` pages
//!    (address order) end up swapped out, in slots `s0, s1, ...` in that
//!    order.
//! 2. The swap allocator hands out *fresh* slots (a high-water mark) until
//!    capacity is exhausted; freed slots are only reused after that. The
//!    measured runs below never exhaust capacity, so every eviction gets a
//!    brand-new slot above the prepopulated range.
//! 3. The prefetcher is consulted on swap-cache *misses* only, with the
//!    faulting swap slot as its address; candidates are interpreted as swap
//!    slots and admitted only if currently owned (swapped out) and not
//!    resident.

use leap_repro::leap_mem::Pid;
use leap_repro::leap_metrics::PrefetchOutcomes;
use leap_repro::leap_prefetcher::{PageAddr, PrefetchDecision, Prefetcher};
use leap_repro::leap_sim_core::Nanos;
use leap_repro::leap_workloads::{Access, AccessTrace};
use leap_repro::prelude::*;

/// The simplest non-trivial prefetcher: on every consulted fault at slot
/// `s`, ask for slot `s + 1`. Stateless and RNG-free, so every outcome is
/// hand-derivable.
#[derive(Debug, Clone, Copy)]
struct PlusOne;

impl Prefetcher for PlusOne {
    fn on_fault(&mut self, addr: PageAddr) -> PrefetchDecision {
        let mut d = PrefetchDecision::none();
        d.push(PageAddr(addr.0 + 1));
        d
    }

    fn on_prefetch_hit(&mut self, _addr: PageAddr) {}

    fn name(&self) -> &'static str {
        "plus-one"
    }

    fn reset(&mut self) {}
}

#[derive(Debug, Clone, Copy)]
struct PlusOneFactory;

impl PrefetcherFactory for PlusOneFactory {
    fn name(&self) -> &'static str {
        "plus-one"
    }

    fn build(&self, _config: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(PlusOne)
    }
}

fn trace_of(pages: &[u64]) -> AccessTrace {
    AccessTrace::new(
        "hand-built",
        pages
            .iter()
            .map(|&p| Access::read(p, Nanos::ZERO))
            .collect(),
    )
}

/// Working set {0..=5}, limit 3 (fraction 0.5): prepopulation touches
/// 0,1,2,3,4,5 in order and LRU-evicts 0→s0, 1→s1, 2→s2, leaving {3,4,5}
/// resident.
fn run(pages: &[u64], cache_pages: u64) -> RunResult {
    SimConfig::builder()
        .memory_fraction(0.5)
        .cores(1)
        .seed(7)
        .prefetch_cache_pages(cache_pages)
        .custom_prefetcher(PlusOneFactory)
        .build_setup()
        .expect("valid config")
        .vmm()
        .run_prepopulated(&trace_of(pages))
}

/// Like [`run`], but with a one-page prefetch cache (the prefetch window
/// must be clamped alongside it to pass config validation).
fn run_small_cache(pages: &[u64]) -> RunResult {
    SimConfig::builder()
        .memory_fraction(0.5)
        .cores(1)
        .seed(7)
        .prefetch_cache_pages(1)
        .max_prefetch_window(1)
        .custom_prefetcher(PlusOneFactory)
        .build_setup()
        .expect("valid config")
        .vmm()
        .run_prepopulated(&trace_of(pages))
}

#[test]
fn covered_prefetches_count_exactly() {
    // Measured accesses (10), with the prepopulated layout above:
    //   a1  page0: miss s0  → admit s1 (page1)        prefetched=1
    //                          evict 3 → fresh s3
    //   a2  page1: HIT  s1  → covered=1; evict 4 → s4
    //   a3  page2: miss s2  → admit s3 (page3, evicted at a1) prefetched=2
    //                          evict 5 → s5
    //   a4  page3: HIT  s3  → covered=2; evict 0 → s6
    //   a5  page0: miss s6  → candidate s7 unallocated, skip; evict 1 → s7
    //   a6  page1: miss s7  → candidate s8 unallocated, skip; evict 2 → s8
    //   a7  page2: miss s8  → skip; evict 3 → s9
    //   a8  page3: miss s9  → skip; evict 0 → s10
    //   a9  page4: miss s4  → admit s5 (page5, evicted at a3) prefetched=3
    //                          evict 1 → s11
    //   a10 page5: HIT  s5  → covered=3
    let result = run(&[0, 1, 2, 3, 0, 1, 2, 3, 4, 5], u64::MAX);
    let outcomes = result.prefetch_outcomes;
    assert_eq!(result.total_accesses, 10);
    assert_eq!(result.remote_accesses, 10, "every access faults remotely");
    assert_eq!(outcomes.prefetched(), 3);
    assert_eq!(outcomes.covered(), 3);
    assert_eq!(outcomes.wasted_evicted(), 0);
    assert_eq!(outcomes.wasted_unconsumed(), 0);
    assert_eq!(outcomes.wasted(), 0);
    assert_eq!(outcomes.wasted_ratio(), 0.0);
    // The §3.1 ratios agree with the ledger: 3 hits over 10 remote
    // requests, every prefetched page hit.
    assert_eq!(result.prefetch_stats.prefetch_hits(), 3);
    assert_eq!(result.prefetch_stats.pages_prefetched(), 3);
    assert!((result.prefetch_stats.coverage() - 0.3).abs() < 1e-9);
    assert!((result.prefetch_stats.accuracy() - 1.0).abs() < 1e-9);
}

#[test]
fn unconsumed_prefetches_are_wasted_at_seal() {
    // With an unbounded cache a prefetched page can only seal unconsumed if
    // it was admitted *after* its last access — anything admitted earlier
    // is eventually demanded while swapped and counts covered. So the
    // trace's final fault admits a page that never recurs:
    //   a1  page5: resident HIT (no consultation)
    //   a2  page0: miss s0  → admit s1 (page1)        prefetched=1
    //                          evict 3 → fresh s3
    //   a3  page1: HIT  s1  → covered=1; evict 4 → s4
    //   a4  page2: miss s2  → admit s3 (page3)        prefetched=2
    //                          evict 5 → s5
    //   a5  page3: HIT  s3  → covered=2; evict 0 → s6
    //   a6..a9 pages 0,1,2,3: misses on fresh slots s6..s9, candidates
    //                          s7..s10 unallocated → skip
    //   a10 page4: miss s4  → admit s5 (page5, last touched at a1)
    //                          prefetched=3
    // Page 5 is never demanded again, so s5 is still cached at seal.
    let outcomes = run(&[5, 0, 1, 2, 3, 0, 1, 2, 3, 4], u64::MAX).prefetch_outcomes;
    assert_eq!(outcomes.prefetched(), 3);
    assert_eq!(outcomes.covered(), 2);
    assert_eq!(outcomes.wasted_evicted(), 0);
    assert_eq!(outcomes.wasted_unconsumed(), 1);
    assert_eq!(outcomes.wasted(), 1);
    assert!((outcomes.wasted_ratio() - 1.0 / 3.0).abs() < 1e-9);
}

#[test]
fn cache_pressure_turns_unconsumed_into_evicted_waste() {
    // A one-page prefetch cache (window clamped to match): the second
    // admission must evict the first, which was never hit. Working set
    // {0..=7}, limit 4: prepopulation swaps 0→s0, 1→s1, 2→s2, 3→s3 and
    // leaves {4,5,6,7} resident, LRU in that order.
    //   a1..a4 pages 4,5,6,7: resident hits (fix LRU order)
    //   a5 page1: miss s1 → admit s2 (page2)           prefetched=1
    //                        evict 4 → s4
    //   a6 page3: miss s3 → admit s4 (page4): cache full, force-evict the
    //                        unused s2 → wasted_evicted=1; prefetched=2
    //                        evict 5 → s5
    //   a7 page0: miss s0 → candidate s1 freed at a5 → skip; evict 6 → s6
    //   a8 page2: miss s2 → candidate s3 freed at a6 → skip; evict 7 → s7
    // Page 4 is never demanded after its admission, so s4 seals unconsumed.
    let outcomes = run_small_cache(&[4, 5, 6, 7, 1, 3, 0, 2]).prefetch_outcomes;
    assert_eq!(outcomes.prefetched(), 2);
    assert_eq!(outcomes.covered(), 0);
    assert_eq!(outcomes.wasted_evicted(), 1);
    assert_eq!(outcomes.wasted_unconsumed(), 1);
    assert_eq!(outcomes.wasted(), 2);
    assert_eq!(outcomes.wasted_ratio(), 1.0);
}

/// A VFS replay with a three-page cache and the plus-one prefetcher, one
/// outcome per access.
fn run_vfs_stepped(policy: EvictionPolicy, accesses: &[Access]) -> (Vec<AccessOutcome>, RunResult) {
    let sim = SimConfig::builder()
        .eviction(policy)
        .memory_fraction(1.0)
        .cores(1)
        .seed(7)
        .prefetch_cache_pages(3)
        .max_prefetch_window(1)
        .custom_prefetcher(PlusOneFactory)
        .build_setup()
        .expect("valid config")
        .vfs();
    let trace = AccessTrace::new("vfs-hand-built", accesses.to_vec());
    let mut session = Session::new(sim);
    session.prepare(std::slice::from_ref(&trace));
    let outcomes = trace
        .iter()
        .map(|&access| session.step(Pid(1), access).outcome)
        .collect();
    (outcomes, session.finish())
}

#[test]
fn buffered_write_over_an_unread_prefetch_is_wasted_once_under_both_policies() {
    // The VFS keys its cache by file page, so a buffered write can land on
    // a page the prefetcher read ahead and nobody has read yet. Three-page
    // cache, plus-one prefetcher (the file-cache budget, the whole working
    // set of 4 pages, never binds):
    //   r0   miss → demand 0, admit 1                   prefetched=1
    //   w1   lands on unread prefetch 1: booked wasted  wasted_evicted=1,
    //        the entry turns demand
    //   r10  miss → demand 10; admitting 11 evicts one page
    //   r20  miss → evicts for demand 20 and for prefetch 21
    //   r1   miss: page 1 left the cache as a demand page
    //        → evicts for demand 1 and for prefetch 2   prefetched=4
    // Eager frees 1 (FIFO front, kept there by the write), 11 (unused),
    // 0 (FIFO empty: demand LRU), 21 (unused), 10. Lazy frees 0, 1, 10,
    // 11 (unused), 20 from the LRU end, and seals 21 and 2 unconsumed.
    let accesses = [
        Access::read(0, Nanos::ZERO),
        Access::write(1, Nanos::ZERO),
        Access::read(10, Nanos::ZERO),
        Access::read(20, Nanos::ZERO),
        Access::read(1, Nanos::ZERO),
    ];
    for (policy, unused_evictions, unconsumed) in
        [(EvictionPolicy::Eager, 2, 1), (EvictionPolicy::Lazy, 1, 2)]
    {
        let (outcomes, result) = run_vfs_stepped(policy, &accesses);
        let case = policy.label();
        assert_eq!(outcomes[1], AccessOutcome::BufferedWrite, "{case}");
        assert_eq!(
            outcomes[4],
            AccessOutcome::RemoteFetch,
            "{case}: page 1 evicted"
        );
        let ledger = result.prefetch_outcomes;
        let stats = result.cache_stats;
        assert_eq!(ledger.prefetched(), 4, "{case}");
        assert_eq!(ledger.covered(), 0, "{case}");
        assert_eq!(stats.evictions(), 5, "{case}");
        assert_eq!(
            stats.evicted_unused_prefetches(),
            unused_evictions,
            "{case}"
        );
        // The write books its prefetch wasted exactly once: the entry it
        // leaves behind is reclaimed as a demand page, not as pollution.
        assert_eq!(ledger.wasted_evicted(), unused_evictions + 1, "{case}");
        assert_eq!(ledger.wasted_unconsumed(), unconsumed, "{case}");
        assert_eq!(
            ledger.covered() + ledger.wasted_evicted() + ledger.wasted_unconsumed(),
            ledger.prefetched(),
            "{case}: outcome identity"
        );
    }
}

#[test]
fn quiet_runs_leave_the_ledger_at_its_seed() {
    // Every measured access is resident after prepopulation re-touches the
    // working set... except the swapped-out third, so touch only the
    // resident tail {3,4,5}: no remote access, no consultation, no events.
    let outcomes = run(&[3, 4, 5], u64::MAX).prefetch_outcomes;
    assert!(outcomes.is_quiet(), "{outcomes:?}");
    assert_eq!(outcomes.checksum(), PrefetchOutcomes::default().checksum());
}

#[test]
fn merge_is_commutative_and_quiet_shards_are_identity() {
    // The exact shard-merge used by `RunResult::absorb_shard`: fold two
    // shards' ledgers in both orders and require bit-identical aggregates —
    // the property that makes Serial and Threaded replays agree.
    let mut a = PrefetchOutcomes::default();
    a.record_prefetched(10);
    a.record_prefetched(11);
    a.record_covered(10);
    a.record_wasted_evicted(1);
    let mut b = PrefetchOutcomes::default();
    b.record_prefetched(42);
    b.record_wasted_unconsumed(1);

    let mut ab = a;
    ab.merge(&b);
    let mut ba = b;
    ba.merge(&a);
    assert_eq!(ab, ba, "merge must be commutative, checksum included");
    assert_eq!(ab.prefetched(), 3);
    assert_eq!(ab.covered(), 1);
    assert_eq!(ab.wasted(), 2);

    let mut with_quiet = a;
    with_quiet.merge(&PrefetchOutcomes::default());
    assert_eq!(with_quiet, a, "a quiet shard must not move the aggregate");
}

#[test]
fn outcome_ledger_is_mode_identical_for_scheduled_replays() {
    // The same hand-built traces as a two-process scheduled replay: the
    // per-shard ledgers merge to the same aggregate (counters *and*
    // checksum) whichever mode ran, and prepopulated multi-run replays
    // carry outcome events end to end.
    let traces = vec![
        trace_of(&[0, 1, 2, 3, 0, 1, 2, 3, 4, 5]),
        trace_of(&[0, 2, 4]),
    ];
    let run_mode = |mode: ReplayMode| {
        let config = SimConfig::builder()
            .memory_fraction(0.5)
            .cores(2)
            .sched_quantum(Nanos::from_micros(250))
            .seed(7)
            .replay_mode(mode)
            .custom_prefetcher(PlusOneFactory)
            .build_setup()
            .expect("valid config");
        let mut sim = config.vmm();
        sim.set_prepopulate_multi(true);
        sim.run_multi(&traces)
    };
    let serial = run_mode(ReplayMode::Serial);
    let threaded = run_mode(ReplayMode::Threaded);
    assert!(serial.prefetch_outcomes.prefetched() > 0);
    assert_eq!(serial.prefetch_outcomes, threaded.prefetch_outcomes);
    assert_eq!(
        serial.prefetch_outcomes.checksum(),
        threaded.prefetch_outcomes.checksum()
    );
}

/// On every consulted fault at slot `s`, asks for `s + 1` and `s + 2` —
/// each twice in a row when `twice` is set. Prefetchers outside the engine
/// may emit duplicate candidates; admission must treat the repeat as
/// already present.
#[derive(Debug, Clone, Copy)]
struct NextTwo {
    twice: bool,
}

impl Prefetcher for NextTwo {
    fn on_fault(&mut self, addr: PageAddr) -> PrefetchDecision {
        let mut d = PrefetchDecision::none();
        for delta in [1, 2] {
            d.push(PageAddr(addr.0 + delta));
            if self.twice {
                d.push(PageAddr(addr.0 + delta));
            }
        }
        d
    }

    fn on_prefetch_hit(&mut self, _addr: PageAddr) {}

    fn name(&self) -> &'static str {
        "next-two"
    }

    fn reset(&mut self) {}
}

impl PrefetcherFactory for NextTwo {
    fn name(&self) -> &'static str {
        "next-two"
    }

    fn build(&self, _config: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(*self)
    }
}

/// Sequential sweeps, a stride-3 sweep and a scrambled pass over a 64-page
/// working set, with a write every seventh access: enough remote faults,
/// prefetch hits and (with a small cache) mid-span evictions to tell two
/// admission orders apart.
fn dup_trace(offset: u64) -> AccessTrace {
    let mut pages: Vec<u64> = Vec::new();
    for _ in 0..3 {
        pages.extend(0..64);
    }
    pages.extend((0..64).step_by(3));
    pages.extend((0..128u64).map(|i| (i * 37 + 11) % 64));
    pages.extend(0..64);
    AccessTrace::new(
        "dup-candidates",
        pages
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                if i % 7 == 6 {
                    Access::write(p + offset, Nanos::from_nanos(50))
                } else {
                    Access::read(p + offset, Nanos::from_nanos(50))
                }
            })
            .collect(),
    )
}

fn dup_config(twice: bool, cache_pages: u64, cores: usize, mode: ReplayMode) -> SimSetup {
    let mut builder = SimConfig::builder()
        .memory_fraction(0.5)
        .cores(cores)
        .sched_quantum(Nanos::from_micros(20))
        .seed(11)
        .replay_mode(mode)
        .prefetch_cache_pages(cache_pages)
        .custom_prefetcher(NextTwo { twice });
    if cache_pages != u64::MAX {
        builder = builder.max_prefetch_window(cache_pages as usize);
    }
    builder.build_setup().expect("valid config")
}

fn assert_same_admission(dup: RunResult, once: RunResult, bounded: bool, case: &str) {
    assert_eq!(dup.cache_stats, once.cache_stats, "{case}: cache_stats");
    assert_eq!(
        dup.prefetch_outcomes, once.prefetch_outcomes,
        "{case}: prefetch_outcomes"
    );
    assert_eq!(
        dup.prefetch_stats, once.prefetch_stats,
        "{case}: prefetch_stats"
    );
    assert_eq!(dup.completion_time, once.completion_time, "{case}");
    // The comparison is only meaningful if admission actually ran: with
    // the unbounded cache prefetches get hit, with the 2-page cache the
    // second candidate of a span has to evict.
    assert!(
        once.prefetch_outcomes.prefetched() > 0,
        "{case}: no prefetch"
    );
    if bounded {
        assert!(once.cache_stats.evictions() > 0, "{case}: no eviction");
    } else {
        assert!(
            once.prefetch_outcomes.covered() > 0,
            "{case}: no prefetch hit"
        );
    }
}

#[test]
fn duplicate_candidates_are_admitted_once() {
    for cache_pages in [u64::MAX, 2] {
        let bounded = cache_pages != u64::MAX;
        let serial = ReplayMode::Serial;
        let vmm = |twice| {
            dup_config(twice, cache_pages, 1, serial)
                .vmm()
                .run_prepopulated(&dup_trace(0))
        };
        assert_same_admission(
            vmm(true),
            vmm(false),
            bounded,
            &format!("vmm {cache_pages}"),
        );

        for mode in [ReplayMode::Serial, ReplayMode::Threaded] {
            let multi = |twice| {
                let mut sim = dup_config(twice, cache_pages, 2, mode).vmm();
                sim.set_prepopulate_multi(true);
                sim.run_multi(&[dup_trace(0), dup_trace(1_000)])
            };
            assert_same_admission(
                multi(true),
                multi(false),
                bounded,
                &format!("run_multi {mode:?} {cache_pages}"),
            );
        }

        let vfs = |twice| {
            dup_config(twice, cache_pages, 1, serial)
                .vfs()
                .run(&dup_trace(0))
        };
        assert_same_admission(
            vfs(true),
            vfs(false),
            bounded,
            &format!("vfs {cache_pages}"),
        );
    }
}

/// A VFS run whose file-cache budget is the whole working set (fraction
/// 1.0), so only the trace's own distinct pages bound the cache.
fn run_vfs(accesses: Vec<Access>) -> RunResult {
    SimConfig::builder()
        .memory_fraction(1.0)
        .cores(1)
        .seed(7)
        .custom_prefetcher(NextTwo { twice: false })
        .build_setup()
        .expect("valid config")
        .vfs()
        .run(&AccessTrace::new("vfs-writes", accesses))
}

#[test]
fn buffered_writes_over_unread_prefetches_count_as_wasted() {
    let (r, w) = (
        |p| Access::read(p, Nanos::ZERO),
        |p| Access::write(p, Nanos::ZERO),
    );
    // Working set {10,11,12,60}: budget 4 pages.
    //   r10: miss → demand 10, admit 11 and 12           prefetched=2
    //   w11: the write replaces the unread prefetch 11 → wasted_evicted=1
    //   r12: prefetch hit, freed on hit                   covered=1
    //   w60: demand 60 (3 of 4 pages)
    let result = run_vfs(vec![r(10), w(11), r(12), w(60)]);
    let outcomes = result.prefetch_outcomes;
    assert_eq!(outcomes.prefetched(), 2);
    assert_eq!(outcomes.covered(), 1);
    assert_eq!(outcomes.wasted_evicted(), 1);
    assert_eq!(outcomes.wasted_unconsumed(), 0);
    assert_eq!(result.cache_stats.evictions(), 0);

    // Working set {10,11,12,30}: budget 4 pages.
    //   r10, w11, r12 as above (3 → 2 pages cached)
    //   r30: miss → demand 30, admit 31; 32 is over budget, so the eager
    //        FIFO reclaims its oldest live slot, 11 — which now holds the
    //        written page, so the eviction is not pollution and the
    //        prefetch keeps its single outcome             prefetched=4
    //   seal: 31 and 32 were never read                    unconsumed=2
    let result = run_vfs(vec![r(10), w(11), r(12), r(30)]);
    let outcomes = result.prefetch_outcomes;
    assert_eq!(outcomes.prefetched(), 4);
    assert_eq!(outcomes.covered(), 1);
    assert_eq!(outcomes.wasted_evicted(), 1);
    assert_eq!(outcomes.wasted_unconsumed(), 2);
    assert_eq!(result.cache_stats.evictions(), 1);
    assert_eq!(result.cache_stats.evicted_unused_prefetches(), 0);
}
