//! Feature-gated per-stage wall-clock breakdown of the fault hot path.
//!
//! Perf work on the replay engine needs to know *where* the host time goes:
//! prefetcher (trend detection + window sizing), data path (latency
//! sampling + dispatch bookkeeping), cache (swap-cache map operations), or
//! eviction (policy bookkeeping + reclaim passes). This module accumulates
//! those four buckets behind the `stage-timing` cargo feature:
//!
//! - **Feature off (default):** [`time`] compiles to a direct call of the
//!   closure — zero instructions added to the hot path, nothing to measure,
//!   nothing to mismeasure. [`ENABLED`] is `false` and [`snapshot`] returns
//!   zeros.
//! - **Feature on:** every instrumented section is bracketed by two clock
//!   reads and added to a global per-stage atomic. On x86_64 the reads are
//!   raw TSC ticks (~2×10 ns per section), converted to nanoseconds once
//!   at snapshot time via a calibration against the OS clock; elsewhere
//!   they fall back to `Instant::now()` (~2×40 ns under virtualised
//!   clocksources). The hot path takes a dozen probes per simulated
//!   access, so an actively-probed run is *not* comparable to an unprobed
//!   one — which is why the probes can also be switched off at runtime
//!   ([`set_active`]): the benchmark's traced pass times its unprobed
//!   replays with the probes inactive (one predictable branch per section)
//!   and runs separate probed replays with them active, so the unprobed
//!   wall-clock and the stage breakdown come from the same binary.
//!
//! Accumulators are process-global atomics, so threaded replays sum the
//! stage time of all shard workers (a CPU-time-like total that can exceed
//! wall-clock when workers overlap). Simulated results are unaffected
//! either way: the probes read the host clock, never the simulation clock.
//!
//! The benchmark's traced pass builds with this feature and reports the
//! four buckets as per-layer shares of each replay:
//!
//! ```text
//! python3 perfbench/run.py --workload apps --seed 1 --seconds 20 --trace 1
//! ```

/// The four instrumented stages of the fault hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Access-history update, trend detection, window sizing, candidate
    /// generation (the prefetcher tracker).
    Prefetcher,
    /// Data-path traversal: latency sampling, dispatch-queue bookkeeping,
    /// backend reads/writes.
    DataPath,
    /// Swap-cache map operations: hit probes, presence probes, inserts.
    Cache,
    /// Eviction-policy bookkeeping, reclaim passes, hit reactions.
    Eviction,
}

/// Accumulated per-stage host time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Time in [`Stage::Prefetcher`] sections.
    pub prefetcher_ns: u64,
    /// Time in [`Stage::DataPath`] sections.
    pub data_path_ns: u64,
    /// Time in [`Stage::Cache`] sections.
    pub cache_ns: u64,
    /// Time in [`Stage::Eviction`] sections.
    pub eviction_ns: u64,
}

impl StageBreakdown {
    /// Sum over all four stages.
    pub fn total_ns(&self) -> u64 {
        self.prefetcher_ns + self.data_path_ns + self.cache_ns + self.eviction_ns
    }
}

/// True when this build carries the `stage-timing` instrumentation.
pub const ENABLED: bool = cfg!(feature = "stage-timing");

#[cfg(feature = "stage-timing")]
mod imp {
    use super::{Stage, StageBreakdown};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static STAGES: [AtomicU64; 4] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];

    static ACTIVE: AtomicBool = AtomicBool::new(true);

    /// Turns the probes on or off at runtime. While inactive, [`time`]
    /// costs one predictable branch — cheap enough that a measurement
    /// harness can take its wall-clock repeats observer-free and flip the
    /// probes on for a separate attribution repeat.
    pub fn set_active(active: bool) {
        ACTIVE.store(active, Ordering::Relaxed);
    }

    /// True when the probes are currently accumulating.
    pub fn is_active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    #[inline]
    fn slot(stage: Stage) -> &'static AtomicU64 {
        &STAGES[match stage {
            Stage::Prefetcher => 0,
            Stage::DataPath => 1,
            Stage::Cache => 2,
            Stage::Eviction => 3,
        }]
    }

    // On x86_64 the probe reads the TSC directly (~10 ns per read where a
    // `clock_gettime` can cost 40+ ns under virtualised clocksources) and
    // the tick counts are converted to nanoseconds once, at snapshot time,
    // using a calibration against the OS clock. TSCs are synchronised
    // across cores on every host this runs on; the attribution-only buckets
    // tolerate the residual cross-core skew. Other architectures keep the
    // portable OS-clock probe.
    #[cfg(target_arch = "x86_64")]
    mod probe {
        use std::sync::OnceLock;
        use std::time::Instant;

        #[inline]
        pub fn now() -> u64 {
            unsafe { core::arch::x86_64::_rdtsc() }
        }

        static TICKS_PER_NS: OnceLock<f64> = OnceLock::new();

        /// Ticks per nanosecond, measured once against the OS clock over a
        /// few milliseconds (called from `snapshot`, never from the hot
        /// path).
        fn ticks_per_ns() -> f64 {
            *TICKS_PER_NS.get_or_init(|| {
                let start = Instant::now();
                let t0 = now();
                while start.elapsed().as_millis() < 5 {
                    std::hint::spin_loop();
                }
                let ticks = now().wrapping_sub(t0);
                let elapsed = start.elapsed().as_nanos() as f64;
                (ticks as f64 / elapsed).max(f64::MIN_POSITIVE)
            })
        }

        pub fn to_ns(ticks: u64) -> u64 {
            (ticks as f64 / ticks_per_ns()) as u64
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    mod probe {
        use std::sync::OnceLock;
        use std::time::Instant;

        static EPOCH: OnceLock<Instant> = OnceLock::new();

        #[inline]
        pub fn now() -> u64 {
            EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
        }

        pub fn to_ns(ticks: u64) -> u64 {
            ticks
        }
    }

    /// Runs `f`, attributing its host time to `stage` (a plain call while
    /// the probes are [inactive](set_active)).
    #[inline]
    pub fn time<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
        if !ACTIVE.load(Ordering::Relaxed) {
            return f();
        }
        let start = probe::now();
        let result = f();
        slot(stage).fetch_add(probe::now().wrapping_sub(start), Ordering::Relaxed);
        result
    }

    /// Zeroes all stage accumulators.
    pub fn reset() {
        for stage in &STAGES {
            stage.store(0, Ordering::Relaxed);
        }
    }

    /// Reads the accumulated per-stage breakdown.
    pub fn snapshot() -> StageBreakdown {
        StageBreakdown {
            prefetcher_ns: probe::to_ns(STAGES[0].load(Ordering::Relaxed)),
            data_path_ns: probe::to_ns(STAGES[1].load(Ordering::Relaxed)),
            cache_ns: probe::to_ns(STAGES[2].load(Ordering::Relaxed)),
            eviction_ns: probe::to_ns(STAGES[3].load(Ordering::Relaxed)),
        }
    }
}

#[cfg(not(feature = "stage-timing"))]
mod imp {
    use super::{Stage, StageBreakdown};

    /// Runs `f` directly (instrumentation compiled out).
    #[inline(always)]
    pub fn time<R>(_stage: Stage, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// No-op (instrumentation compiled out).
    #[inline(always)]
    pub fn set_active(_active: bool) {}

    /// Always false (instrumentation compiled out).
    #[inline(always)]
    pub fn is_active() -> bool {
        false
    }

    /// No-op (instrumentation compiled out).
    #[inline(always)]
    pub fn reset() {}

    /// All zeros (instrumentation compiled out).
    #[inline(always)]
    pub fn snapshot() -> StageBreakdown {
        StageBreakdown::default()
    }
}

/// Runs `f`, attributing its host time to `stage` (a plain call when the
/// `stage-timing` feature is off).
pub use imp::time;

/// Zeroes all stage accumulators (no-op when the feature is off).
pub use imp::reset;

/// Turns the probes on or off at runtime (no-op when the feature is off).
pub use imp::set_active;

/// True when the probes are currently accumulating (always false when the
/// feature is off).
pub use imp::is_active;

/// Reads the accumulated per-stage breakdown (zeros when the feature is
/// off).
pub use imp::snapshot;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_passes_the_closure_result_through() {
        assert_eq!(time(Stage::Cache, || 41 + 1), 42);
    }

    #[test]
    fn snapshot_matches_feature_state() {
        reset();
        let before = snapshot();
        assert_eq!(before, StageBreakdown::default());
        time(Stage::DataPath, || std::hint::black_box(0u64));
        let after = snapshot();
        if ENABLED {
            // Nothing else runs between reset and snapshot in this test
            // binary section, but another test thread may also accumulate;
            // the only portable claim is monotonicity.
            assert!(after.total_ns() >= before.total_ns());
        } else {
            assert_eq!(after, StageBreakdown::default());
        }
    }

    #[test]
    fn breakdown_total_sums_stages() {
        let b = StageBreakdown {
            prefetcher_ns: 1,
            data_path_ns: 2,
            cache_ns: 3,
            eviction_ns: 4,
        };
        assert_eq!(b.total_ns(), 10);
    }
}
