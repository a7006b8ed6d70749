//! Synthetic models of the paper's four applications (§5.3).
//!
//! The prefetcher and data path only ever observe a stream of page-granular
//! memory accesses, so each model reproduces the *remote access pattern mix*
//! the paper reports for that application (Figure 3) rather than its
//! computation:
//!
//! | Application | Pattern mix (approx.)                             |
//! |-------------|---------------------------------------------------|
//! | PowerGraph  | mixed: long sequential edge scans, strided vertex |
//! |             | sweeps, and irregular neighbour lookups           |
//! | NumPy       | dominated by long sequential sweeps (blocked      |
//! |             | matrix multiply over two operands)                |
//! | VoltDB      | ~69 % irregular short-transaction accesses with   |
//! |             | some sequential index scans                       |
//! | Memcached   | ~96 % irregular key-value accesses                |
//!
//! Working-set sizes default to laptop-scale values; the paper's 9–38 GB
//! footprints are reproduced in *shape* by keeping the access-to-working-set
//! ratio similar.

use crate::trace::{Access, AccessTrace};
use leap_sim_core::units::bytes_to_pages;
use leap_sim_core::{DetRng, Nanos};

/// Which application a model mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Graph analytics (PowerGraph PageRank on a Twitter-like graph).
    PowerGraph,
    /// Linear algebra (NumPy dense matrix multiplication).
    NumPy,
    /// OLTP database (VoltDB running TPC-C).
    VoltDb,
    /// In-memory key-value cache (Memcached under a Facebook-like workload).
    Memcached,
}

impl AppKind {
    /// All four applications in the paper's presentation order.
    pub const ALL: [AppKind; 4] = [
        AppKind::PowerGraph,
        AppKind::NumPy,
        AppKind::VoltDb,
        AppKind::Memcached,
    ];

    /// Human-readable label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            AppKind::PowerGraph => "PowerGraph",
            AppKind::NumPy => "NumPy",
            AppKind::VoltDb => "VoltDB",
            AppKind::Memcached => "Memcached",
        }
    }

    /// True if the paper reports this application's performance as
    /// throughput (operations or transactions per second) rather than
    /// completion time.
    pub fn is_throughput_oriented(self) -> bool {
        matches!(self, AppKind::VoltDb | AppKind::Memcached)
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A configurable synthetic application model.
#[derive(Debug, Clone, Copy)]
pub struct AppModel {
    /// Which application is being modelled.
    pub kind: AppKind,
    /// Working-set size in bytes.
    pub working_set_bytes: u64,
    /// Total number of page accesses to generate.
    pub accesses: usize,
    /// RNG seed (forked internally, so two models with the same seed but
    /// different kinds produce different streams).
    pub seed: u64,
}

impl AppModel {
    /// Creates a model with a sensible default footprint for the given kind.
    ///
    /// Defaults keep runs fast while preserving the access-to-working-set
    /// ratios: 64 MiB / 200 k accesses for the scan-heavy applications,
    /// 32 MiB / 150 k accesses for the transaction-oriented ones.
    pub fn new(kind: AppKind, seed: u64) -> Self {
        use leap_sim_core::units::MIB;
        match kind {
            AppKind::PowerGraph => AppModel {
                kind,
                working_set_bytes: 64 * MIB,
                accesses: 200_000,
                seed,
            },
            AppKind::NumPy => AppModel {
                kind,
                working_set_bytes: 64 * MIB,
                accesses: 200_000,
                seed,
            },
            AppKind::VoltDb => AppModel {
                kind,
                working_set_bytes: 32 * MIB,
                accesses: 150_000,
                seed,
            },
            AppKind::Memcached => AppModel {
                kind,
                working_set_bytes: 32 * MIB,
                accesses: 150_000,
                seed,
            },
        }
    }

    /// Overrides the working-set size.
    pub fn with_working_set(mut self, bytes: u64) -> Self {
        self.working_set_bytes = bytes;
        self
    }

    /// Overrides the number of accesses.
    pub fn with_accesses(mut self, accesses: usize) -> Self {
        self.accesses = accesses;
        self
    }

    /// The working set in pages.
    pub fn working_set_pages(&self) -> u64 {
        bytes_to_pages(self.working_set_bytes).max(1)
    }

    /// Generates the access trace for this model.
    pub fn generate(&self) -> AccessTrace {
        let mut rng =
            DetRng::seed_from(self.seed ^ (self.kind as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let pages = self.working_set_pages();
        let accesses = match self.kind {
            AppKind::PowerGraph => powergraph(&mut rng, pages, self.accesses),
            AppKind::NumPy => numpy(&mut rng, pages, self.accesses),
            AppKind::VoltDb => voltdb(&mut rng, pages, self.accesses),
            AppKind::Memcached => memcached(&mut rng, pages, self.accesses),
        };
        AccessTrace::new(self.kind.label(), accesses)
    }
}

/// Graph analytics: alternates sequential edge-array scans, strided vertex
/// sweeps (stride picked per phase), and bursts of irregular neighbour
/// lookups.
fn powergraph(rng: &mut DetRng, pages: u64, total: usize) -> Vec<Access> {
    let compute = Nanos::from_nanos(400);
    let mut out = Vec::with_capacity(total);
    let mut cursor = 0u64;
    while out.len() < total {
        let phase = rng.next_f64();
        if phase < 0.40 {
            // Sequential edge scan of 64–512 pages.
            let run = rng.gen_range_u64(64, 512);
            for _ in 0..run {
                cursor = (cursor + 1) % pages;
                out.push(Access::read(cursor, compute));
                if out.len() >= total {
                    break;
                }
            }
        } else if phase < 0.75 {
            // Strided vertex sweep: stride 2–16 pages, 32–256 steps.
            let stride = rng.gen_range_u64(2, 16);
            let steps = rng.gen_range_u64(32, 256);
            let mut p = rng.gen_range_u64(0, pages);
            for _ in 0..steps {
                p = (p + stride) % pages;
                out.push(Access::read(p, compute));
                if out.len() >= total {
                    break;
                }
            }
            cursor = p;
        } else {
            // Irregular neighbour lookups: 16–128 random pages (skewed).
            let burst = rng.gen_range_u64(16, 128);
            for _ in 0..burst {
                let p = rng.zipf(pages as usize, 0.7) as u64;
                out.push(Access::read(p, compute));
                if out.len() >= total {
                    break;
                }
            }
        }
    }
    out
}

/// Dense matrix multiply: long sequential sweeps over operand A, repeated
/// strided walks over operand B (column access), and sequential writes to C.
fn numpy(rng: &mut DetRng, pages: u64, total: usize) -> Vec<Access> {
    let compute = Nanos::from_nanos(600);
    let a_region = pages / 2;
    let b_region = pages - a_region;
    let mut out = Vec::with_capacity(total);
    let mut a_cursor = 0u64;
    while out.len() < total {
        // A row sweep: long sequential run in the A region.
        let run = rng.gen_range_u64(256, 1024).min(a_region.max(1));
        for _ in 0..run {
            a_cursor = (a_cursor + 1) % a_region.max(1);
            out.push(Access::read(a_cursor, compute));
            if out.len() >= total {
                return out;
            }
        }
        // A B column walk: stride equal to the row width in pages.
        let stride = rng.gen_range_u64(8, 64);
        let mut p = a_region + rng.gen_range_u64(0, b_region.max(1));
        let steps = rng.gen_range_u64(64, 256);
        for _ in 0..steps {
            p = a_region + ((p - a_region) + stride) % b_region.max(1);
            out.push(Access::read(p, compute));
            if out.len() >= total {
                return out;
            }
        }
    }
    out
}

/// OLTP: short transactions touching a handful of random (Zipf-skewed) pages,
/// interleaved with occasional short sequential index scans. Roughly 69 % of
/// accesses end up irregular, matching §5.3.3.
fn voltdb(rng: &mut DetRng, pages: u64, total: usize) -> Vec<Access> {
    let compute = Nanos::from_micros(2);
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        if rng.chance(0.92) {
            // A short transaction: 3–8 random tuple pages, some written.
            let touches = rng.gen_range_u64(3, 8);
            for _ in 0..touches {
                let p = rng.zipf(pages as usize, 0.85) as u64;
                let access = if rng.chance(0.3) {
                    Access::write(p, compute)
                } else {
                    Access::read(p, compute)
                };
                out.push(access);
                if out.len() >= total {
                    return out;
                }
            }
        } else {
            // An occasional index scan: 8–24 sequential pages. Keeping scans
            // short and rare leaves roughly 70 % of accesses irregular,
            // matching the §5.3.3 characterisation.
            let run = rng.gen_range_u64(8, 24);
            let start = rng.gen_range_u64(0, pages);
            for i in 0..run {
                out.push(Access::read((start + i) % pages, compute));
                if out.len() >= total {
                    return out;
                }
            }
        }
    }
    out
}

/// Key-value cache: almost entirely irregular single-page lookups with a
/// Zipfian popularity skew (the Facebook ETC-style mix), ~5 % writes.
fn memcached(rng: &mut DetRng, pages: u64, total: usize) -> Vec<Access> {
    let compute = Nanos::from_micros(1);
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let p = rng.zipf(pages as usize, 0.99) as u64;
        let access = if rng.chance(0.05) {
            Access::write(p, compute)
        } else {
            Access::read(p, compute)
        };
        out.push(access);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify_windows, PatternMode};

    fn breakdown(kind: AppKind, window: usize) -> (f64, f64, f64) {
        let model = AppModel::new(kind, 7).with_accesses(40_000);
        let trace = model.generate();
        let b = classify_windows(&trace.page_sequence(), window, PatternMode::Strict);
        (
            b.sequential_fraction(),
            b.stride_fraction(),
            b.other_fraction(),
        )
    }

    #[test]
    fn labels_and_orientation() {
        assert_eq!(AppKind::PowerGraph.label(), "PowerGraph");
        assert!(AppKind::VoltDb.is_throughput_oriented());
        assert!(AppKind::Memcached.is_throughput_oriented());
        assert!(!AppKind::NumPy.is_throughput_oriented());
        assert_eq!(AppKind::ALL.len(), 4);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = AppModel::new(AppKind::PowerGraph, 3).generate();
        let b = AppModel::new(AppKind::PowerGraph, 3).generate();
        let c = AppModel::new(AppKind::PowerGraph, 4).generate();
        assert_eq!(a.page_sequence(), b.page_sequence());
        assert_ne!(a.page_sequence(), c.page_sequence());
    }

    #[test]
    fn different_apps_have_different_streams() {
        let pg = AppModel::new(AppKind::PowerGraph, 3).generate();
        let mc = AppModel::new(AppKind::Memcached, 3).generate();
        assert_ne!(pg.page_sequence()[..100], mc.page_sequence()[..100]);
    }

    #[test]
    fn traces_respect_requested_length_and_working_set() {
        for kind in AppKind::ALL {
            let model = AppModel::new(kind, 1).with_accesses(10_000);
            let trace = model.generate();
            assert_eq!(trace.len(), 10_000, "{kind}");
            assert!(
                trace.working_set_pages() <= model.working_set_pages(),
                "{kind}"
            );
            assert!(
                trace
                    .page_sequence()
                    .iter()
                    .all(|&p| p < model.working_set_pages()),
                "{kind}: page outside working set"
            );
        }
    }

    #[test]
    fn numpy_is_dominated_by_sequential_patterns() {
        let (seq, stride, _) = breakdown(AppKind::NumPy, 2);
        assert!(
            seq > 0.5,
            "NumPy sequential fraction {seq} too low (stride {stride})"
        );
    }

    #[test]
    fn memcached_is_dominated_by_irregular_patterns() {
        let (_, _, other) = breakdown(AppKind::Memcached, 4);
        assert!(other > 0.85, "Memcached irregular fraction {other} too low");
    }

    #[test]
    fn voltdb_is_mostly_irregular_with_some_structure() {
        let (seq, _, other) = breakdown(AppKind::VoltDb, 4);
        assert!(other > 0.5, "VoltDB irregular fraction {other} too low");
        assert!(seq > 0.02, "VoltDB sequential fraction {seq} too low");
    }

    #[test]
    fn powergraph_has_a_genuine_mix() {
        let (seq, stride, other) = breakdown(AppKind::PowerGraph, 2);
        assert!(seq > 0.15, "PowerGraph sequential {seq} too low");
        assert!(stride + other > 0.2, "PowerGraph non-sequential too low");
    }

    #[test]
    fn writes_appear_only_where_expected() {
        let numpy = AppModel::new(AppKind::NumPy, 1)
            .with_accesses(5_000)
            .generate();
        assert!(numpy.iter().all(|a| !a.is_write));
        let voltdb = AppModel::new(AppKind::VoltDb, 1)
            .with_accesses(5_000)
            .generate();
        assert!(voltdb.iter().any(|a| a.is_write));
    }
}
