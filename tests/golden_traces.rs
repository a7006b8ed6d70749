//! Golden-trace suite: the committed DAMON and perf fixture logs must parse
//! to exactly the pinned `AccessTrace` contents, replay deterministically in
//! both `ReplayMode`s with the pinned `RunResult`, and the `TraceRecorder`
//! export of a seeded run must match the committed golden log byte for byte
//! (the fixture-freshness check CI runs — format drift fails here first).
//!
//! Regenerate the recorder golden after an *intentional* format change with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test golden_traces -- golden_recorder_log_is_fresh
//! ```

use leap_repro::leap_sim_core::units::MIB;
use leap_repro::leap_sim_core::Nanos;
use leap_repro::leap_workloads::ingest::{ingest_path, ingest_str, IngestedLog, LogFormat};
use leap_repro::leap_workloads::{sequential_trace, stride_trace, AccessTrace};
use leap_repro::prelude::*;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn ingest_fixture(name: &str) -> IngestedLog {
    ingest_path(fixture(name)).unwrap_or_else(|e| panic!("{name} must ingest: {e}"))
}

fn replay_config(seed: u64, mode: ReplayMode) -> SimConfig {
    SimConfig::builder()
        .memory_fraction(0.5)
        .cores(2)
        .sched_quantum(Nanos::from_micros(250))
        .seed(seed)
        .replay_mode(mode)
        .build()
        .expect("valid replay config")
}

// ---------------------------------------------------------------------------
// Pinned parse: the perf fixture.
// ---------------------------------------------------------------------------

#[test]
fn perf_fixture_parses_to_pinned_traces() {
    let ingested = ingest_fixture("perf_faults.log");
    assert_eq!(ingested.format(), LogFormat::PerfScript);
    assert_eq!(ingested.pids(), &[4821, 5124]);
    assert_eq!(ingested.event_lines(), 104);
    assert_eq!(ingested.total_accesses(), 104);

    // powergraph: three sequential passes over 24 pages, one fault every
    // 5 µs (the first measured from the `# t0:` base).
    let pg = &ingested.traces()[0];
    assert_eq!(pg.name(), "powergraph");
    assert_eq!(pg.len(), 72);
    assert_eq!(pg.working_set_pages(), 24);
    assert_eq!(pg.total_compute(), Nanos::from_micros(360));
    let expected_pass: Vec<u64> = (0..24).map(|i| 0x7f8a2c000 + i).collect();
    let pages = pg.page_sequence();
    assert_eq!(&pages[..24], &expected_pass[..], "first pass");
    assert_eq!(&pages[24..48], &expected_pass[..], "second pass");
    assert_eq!(&pages[48..], &expected_pass[..], "third pass");
    assert!(pg.accesses().iter().all(|a| !a.is_write));
    assert!(pg
        .accesses()
        .iter()
        .all(|a| a.compute == Nanos::from_micros(5)));

    // memcached: irregular hops over 13 pages, every 11 µs, every fourth
    // access a write.
    let mc = &ingested.traces()[1];
    assert_eq!(mc.name(), "memcached");
    assert_eq!(mc.len(), 32);
    assert_eq!(mc.working_set_pages(), 13);
    assert_eq!(mc.total_compute(), Nanos::from_micros(352));
    let mc_offsets = [
        0u64, 3, 1, 7, 2, 9, 4, 11, 0, 5, 13, 6, 3, 15, 8, 1, 9, 2, 7, 0, 11, 4, 5, 13, 6, 8, 15,
        1, 3, 9, 0, 2,
    ];
    let expected_mc: Vec<u64> = mc_offsets.iter().map(|o| 0x55d91e000 + o).collect();
    assert_eq!(mc.page_sequence(), expected_mc);
    let writes: Vec<bool> = mc.accesses().iter().map(|a| a.is_write).collect();
    assert_eq!(writes.iter().filter(|&&w| w).count(), 8);
    for (i, w) in writes.iter().enumerate() {
        assert_eq!(*w, i % 4 == 3, "write flag at {i}");
    }
    assert!(mc
        .accesses()
        .iter()
        .all(|a| a.compute == Nanos::from_micros(11)));
}

// ---------------------------------------------------------------------------
// Pinned parse: the DAMON fixture (region expansion + interval splitting).
// ---------------------------------------------------------------------------

#[test]
fn damon_fixture_parses_to_pinned_traces() {
    let ingested = ingest_fixture("damon_regions.log");
    assert_eq!(ingested.format(), LogFormat::DamonRegions);
    assert_eq!(ingested.pids(), &[1201, 1202]);
    assert_eq!(ingested.event_lines(), 6);
    assert_eq!(ingested.total_accesses(), 22);

    // Target 1201: 4 accesses striding a 16-page region (every 4th page),
    // then 8 (every 2nd), then 4 over the next region. Intervals: 100 ms
    // split over each sample's accesses.
    let t1 = &ingested.traces()[0];
    assert_eq!(t1.name(), "pid1201");
    assert_eq!(t1.len(), 16);
    let base1 = 0x7f2a00000u64;
    let mut expected1: Vec<u64> = [0u64, 4, 8, 12].iter().map(|o| base1 + o).collect();
    expected1.extend([0u64, 2, 4, 6, 8, 10, 12, 14].iter().map(|o| base1 + o));
    expected1.extend([0u64, 4, 8, 12].iter().map(|o| base1 + 16 + o));
    assert_eq!(t1.page_sequence(), expected1);
    let computes1: Vec<u64> = t1.accesses().iter().map(|a| a.compute.as_nanos()).collect();
    let mut expected_c1 = vec![25_000_000u64; 4]; // 100 ms / 4
    expected_c1.extend(vec![12_500_000u64; 8]); // 100 ms / 8
    expected_c1.extend(vec![25_000_000u64; 4]); // 100 ms / 4
    assert_eq!(computes1, expected_c1);

    // Target 1202: 2 accesses over 8 pages (50 ms each), an idle sample
    // (which advances the clock without emitting accesses), then 4 over a
    // 4-page region (the 100 ms since the idle sample, 25 ms each).
    let t2 = &ingested.traces()[1];
    assert_eq!(t2.name(), "pid1202");
    assert_eq!(t2.len(), 6);
    let base2 = 0x612300000u64;
    assert_eq!(
        t2.page_sequence(),
        vec![base2, base2 + 4, base2, base2 + 1, base2 + 2, base2 + 3]
    );
    let computes2: Vec<u64> = t2.accesses().iter().map(|a| a.compute.as_nanos()).collect();
    assert_eq!(
        computes2,
        vec![50_000_000, 50_000_000, 25_000_000, 25_000_000, 25_000_000, 25_000_000]
    );
    assert!(t2.accesses().iter().all(|a| !a.is_write));
}

// ---------------------------------------------------------------------------
// Pinned replay: both fixtures, both replay modes, identical results.
// ---------------------------------------------------------------------------

#[test]
fn perf_fixture_replay_is_pinned_and_mode_identical() {
    let traces = ingest_fixture("perf_faults.log").into_traces();
    let serial = VmmSimulator::new(replay_config(2020, ReplayMode::Serial)).run_multi(&traces);
    let threaded = VmmSimulator::new(replay_config(2020, ReplayMode::Threaded)).run_multi(&traces);

    // The pinned aggregates: any change here means the replay semantics of
    // ingested traces drifted.
    assert_eq!(serial.total_accesses, 104);
    assert_eq!(serial.completion_time.as_nanos(), 602_597);
    assert_eq!(serial.remote_accesses, 67);
    assert_eq!(serial.first_touch_faults, 37);
    assert_eq!(serial.cache_stats.hits(), 47);
    assert_eq!(serial.cache_stats.misses(), 20);
    assert_eq!(serial.prefetch_stats.pages_prefetched(), 55);
    assert_eq!(serial, threaded);
}

#[test]
fn damon_fixture_replay_is_pinned_and_mode_identical() {
    let traces = ingest_fixture("damon_regions.log").into_traces();
    let serial = VmmSimulator::new(replay_config(2020, ReplayMode::Serial)).run_multi(&traces);
    let threaded = VmmSimulator::new(replay_config(2020, ReplayMode::Threaded)).run_multi(&traces);
    assert_eq!(serial.total_accesses, 22);
    assert_eq!(serial, threaded);
}

// ---------------------------------------------------------------------------
// Fixture freshness: the recorder's export of a seeded run must match the
// committed golden log byte for byte, and re-ingest to the replayed traces.
// ---------------------------------------------------------------------------

/// The seeded run the golden log records.
fn golden_run() -> (Vec<AccessTrace>, TraceRecorder) {
    let traces = vec![stride_trace(MIB, 10, 1), sequential_trace(MIB, 1)];
    let config = SimConfig::builder()
        .memory_fraction(0.5)
        .cores(2)
        .sched_quantum(Nanos::from_micros(250))
        .seed(2020)
        .build()
        .expect("valid golden config");
    let mut recorder = TraceRecorder::for_traces(&traces);
    VmmSimulator::new(config)
        .session()
        .observe(&mut recorder)
        .run_multi(&traces);
    (traces, recorder)
}

#[test]
fn golden_recorder_log_is_fresh() {
    let (_, recorder) = golden_run();
    let rendered = recorder.to_log();
    let path = fixture("golden_recorded.log");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let committed = std::fs::read_to_string(&path).expect(
        "tests/fixtures/golden_recorded.log missing — regenerate with \
         REGEN_GOLDEN=1 cargo test --test golden_traces",
    );
    assert_eq!(
        rendered, committed,
        "TraceRecorder output drifted from the committed golden log; if the \
         format change is intentional, regenerate with REGEN_GOLDEN=1 and \
         update ARCHITECTURE.md's grammar"
    );
}

#[test]
fn golden_recorder_log_round_trips_to_the_replayed_traces() {
    let (traces, _) = golden_run();
    let ingested = ingest_fixture("golden_recorded.log");
    assert_eq!(ingested.format(), LogFormat::PerfScript);
    assert_eq!(ingested.traces(), &traces[..]);
}

// ---------------------------------------------------------------------------
// The two formats agree on what a replay is: an ingested DAMON log replays
// through the full Figure-2-style observer machinery like any other trace.
// ---------------------------------------------------------------------------

#[test]
fn ingested_traces_stream_through_observers_like_generated_ones() {
    let traces = ingest_fixture("perf_faults.log").into_traces();
    let mut counts = OutcomeCounts::default();
    let result = VmmSimulator::new(replay_config(7, ReplayMode::Serial))
        .session()
        .observe(&mut counts)
        .run_multi(&traces);
    let streamed = counts.local_hits
        + counts.minor_faults
        + counts.cache_hits
        + counts.remote_fetches
        + counts.buffered_writes;
    assert_eq!(streamed, result.total_accesses);
    assert_eq!(
        counts.cache_hits + counts.remote_fetches + counts.buffered_writes,
        result.remote_accesses
    );
}

// ---------------------------------------------------------------------------
// Round trip of the perf fixture itself: ingest → replay+record → ingest.
// ---------------------------------------------------------------------------

#[test]
fn perf_fixture_round_trips_through_record_and_reingest() {
    let traces = ingest_fixture("perf_faults.log").into_traces();
    let mut recorder = TraceRecorder::for_traces(&traces);
    VmmSimulator::new(replay_config(3, ReplayMode::Serial))
        .session()
        .observe(&mut recorder)
        .run_multi(&traces);
    let reingested =
        ingest_str(&recorder.to_log(), LogFormat::PerfScript).expect("recorded log ingests");
    assert_eq!(reingested.traces(), &traces[..]);
}
