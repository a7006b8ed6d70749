//! Golden arena matrix: the full corpus × prefetcher matrix over the
//! committed trace fixtures must render the *byte-exact* pinned
//! `leap-arena/1` JSON document, reproduce itself run over run, and agree
//! cell-for-cell between the Serial and Threaded replays at 1, 2, and 4
//! cores. The fixture doubles as CI's arena freshness gate — schema or
//! metric drift fails here first.
//!
//! Regenerate after an *intentional* schema or metric change with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test arena_golden -- arena_matrix_is_fresh
//! ```

mod common;

use leap_bench::arena::{run_arena, workspace_fixture, ArenaOptions, ARENA_SCHEMA};

/// The committed-fixture corpus: no synthetic entries, just the two recorded
/// logs, so the matrix is small enough to pin byte-exactly and cheap enough
/// for debug-mode CI.
fn fixture_options(cores: usize) -> ArenaOptions {
    ArenaOptions {
        quick: true,
        synthetic: false,
        cores,
        trace_logs: vec![
            workspace_fixture("perf_faults.log"),
            workspace_fixture("damon_regions.log"),
        ],
        ..ArenaOptions::default()
    }
}

#[test]
fn arena_matrix_is_fresh() {
    let report = run_arena(&fixture_options(2)).expect("fixture corpus must run");
    let rendered = report.to_json();
    assert!(rendered.starts_with(&format!("{{\"schema\":\"{ARENA_SCHEMA}\"")));
    common::assert_fixture_fresh("arena_matrix.json", &rendered);
}

#[test]
fn arena_matrix_is_reproducible_run_over_run() {
    let opts = fixture_options(2);
    let first = run_arena(&opts).expect("first run");
    let second = run_arena(&opts).expect("second run");
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "repeated arena runs must be byte-identical"
    );
}

#[test]
fn arena_modes_agree_cell_for_cell_across_core_counts() {
    for cores in [1, 2, 4] {
        let report = run_arena(&fixture_options(cores)).expect("fixture corpus must run");
        assert_eq!(report.cells.len(), 2 * report.prefetchers.len());
        for cell in &report.cells {
            assert!(
                cell.modes_identical,
                "{} / {} diverged between Serial and Threaded at {cores} cores",
                cell.trace, cell.prefetcher
            );
        }
    }
}

#[test]
fn trained_markov_beats_readahead_on_the_perf_fixture() {
    // The ISSUE's acceptance criterion: the offline-trained first-order
    // Markov model out-covers the kernel-style read-ahead baseline on at
    // least one ingested fixture.
    let report = run_arena(&fixture_options(2)).expect("fixture corpus must run");
    let markov = report
        .cell("ingested-perf_faults", "Markov-1")
        .expect("Markov-1 cell");
    let readahead = report
        .cell("ingested-perf_faults", "DvmmReadAhead")
        .expect("DvmmReadAhead cell");
    assert!(
        markov.coverage > readahead.coverage,
        "Markov-1 coverage {:.4} must beat DvmmReadAhead {:.4} on perf_faults",
        markov.coverage,
        readahead.coverage
    );
    assert!(markov.prefetched > 0 && markov.covered > 0);
}
