//! The stage-timing accumulators are process-global, so the tests that read
//! or write them run in this binary of their own, one at a time: no other
//! test can add stage time between a `reset` and a `snapshot`.
//!
//! ```text
//! cargo test -q --release -p leap --features stage-timing --test stage_timing
//! ```

use std::sync::{Mutex, MutexGuard};

use leap::stage_timing::{reset, snapshot, time, Stage, StageBreakdown, ENABLED};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial_guard() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn time_passes_the_closure_result_through() {
    let _serial = serial_guard();
    assert_eq!(time(Stage::Cache, || 41 + 1), 42);
}

#[test]
fn snapshot_matches_feature_state() {
    let _serial = serial_guard();
    reset();
    let before = snapshot();
    assert_eq!(before, StageBreakdown::default());
    time(Stage::DataPath, || std::hint::black_box(0u64));
    let after = snapshot();
    if ENABLED {
        // Only the timed stage can have moved.
        assert!(after.total_ns() >= before.total_ns());
        assert_eq!(after.total_ns(), after.data_path_ns);
    } else {
        assert_eq!(after, StageBreakdown::default());
    }
}
