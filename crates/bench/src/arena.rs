//! Prefetcher arena: a corpus × prefetcher × replay-mode evaluation matrix.
//!
//! The paper demonstrates Leap's prefetcher one figure at a time; the arena
//! turns the same machinery into a *testbed*. Given a corpus — the built-in
//! synthetic mixes plus any recorded fault log ingested through
//! `leap_workloads::ingest` — it replays every (trace, prefetcher) cell in
//! both [`ReplayMode`]s and reports, per cell:
//!
//! - **coverage** and **accuracy** (§3.1 of the paper, from
//!   [`leap_metrics::PrefetchStats`]),
//! - **timeliness** (median cache residency before first hit),
//! - the **wasted-prefetch ratio** from the new
//!   [`leap_metrics::PrefetchOutcomes`] ledger (a prefetched page is
//!   *covered* if demanded before eviction, *wasted* otherwise),
//! - p50/p99 remote fault latency and completion time,
//! - the outcome checksum and whether Serial and Threaded replays agreed
//!   bit for bit.
//!
//! The competitor pool is the paper's baseline (`DvmmReadAhead`), Leap
//! itself, two *learned* predictors (first/second-order Markov delta models
//! trained offline on the corpus entry, Hashemi et al.), and a 3PO-style
//! programmed schedule compiled from the entry's own recorded trace. The
//! learned and programmed competitors plug in through
//! [`PrefetcherFactory`] exactly like a third-party component would — no
//! `leap`-crate changes.
//!
//! Everything is deterministic: training is commutative over the corpus,
//! frozen models are pure table probes, and every cell asserts
//! Serial == Threaded, so the emitted [`ARENA_SCHEMA`] JSON is byte-stable
//! across runs and pinned by `tests/arena_golden.rs`.

use std::path::Path;
use std::sync::Arc;

use leap::components::build_prefetcher;
use leap::prelude::*;
use leap_metrics::TextTable;
use leap_prefetcher::markov::{train, MarkovOrder};
use leap_prefetcher::{
    FrozenModel, MarkovPrefetcher, PageAddr, Prefetcher, ProgrammedPrefetcher,
    DEFAULT_PROGRAM_LOOKAHEAD,
};
use leap_sim_core::units::MIB;
use leap_sim_core::Nanos;
use leap_workloads::ingest::IngestError;
use leap_workloads::{sequential_trace, stride_trace, AccessTrace};

use crate::{TraceSource, EXPERIMENT_SEED};

/// Version tag of the arena's JSON output. Bump on any key change.
pub const ARENA_SCHEMA: &str = "leap-arena/1";

/// The full competitor pool, in report order.
pub const COMPETITORS: [&str; 5] = [
    "DvmmReadAhead",
    "Leap",
    "Markov-1",
    "Markov-2",
    "Programmed-3PO",
];

/// Synthetic-corpus accesses per process in `--quick` mode.
pub(crate) const QUICK_ACCESSES: usize = 4_000;
/// Synthetic-corpus accesses per process in a full run.
pub(crate) const FULL_ACCESSES: usize = 24_000;

/// Working set of the stride/sequential synthetic corpus entries.
const SYNTH_WORKING_SET: u64 = 4 * MIB;

/// Everything that can go wrong assembling or running an arena — a typed
/// error for every CLI/config mistake, never a panic (mirrors the
/// `IngestError` discipline).
#[derive(Debug)]
pub enum ArenaError {
    /// A requested prefetcher is not in [`COMPETITORS`].
    UnknownPrefetcher {
        /// The name that failed to resolve.
        name: String,
    },
    /// The corpus ended up with no traces at all (e.g. `--no-synthetic`
    /// without any `--trace`).
    EmptyCorpus,
    /// A `--trace` log failed to ingest.
    Ingest {
        /// The offending path as given on the command line.
        path: String,
        /// The underlying ingestion error.
        source: IngestError,
    },
    /// Two flags contradict each other.
    ConflictingFlags {
        /// The flag seen first.
        first: &'static str,
        /// The flag that conflicts with it.
        second: &'static str,
    },
    /// A flag that requires a value was the last argument.
    MissingValue {
        /// The value-less flag.
        flag: String,
    },
    /// A flag value failed to parse.
    InvalidValue {
        /// The flag whose value is malformed.
        flag: String,
        /// The malformed value.
        value: String,
    },
    /// An argument matched no known flag.
    UnknownFlag {
        /// The unrecognised argument.
        flag: String,
    },
    /// The cell's simulator configuration failed validation.
    Config(ConfigError),
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArenaError::UnknownPrefetcher { name } => write!(
                f,
                "unknown prefetcher {name:?} (known: {})",
                COMPETITORS.join(", ")
            ),
            ArenaError::EmptyCorpus => {
                write!(f, "empty corpus: no synthetic entries and no --trace logs")
            }
            ArenaError::Ingest { path, source } => {
                write!(f, "failed to ingest trace log {path}: {source}")
            }
            ArenaError::ConflictingFlags { first, second } => {
                write!(f, "conflicting flags: {first} and {second}")
            }
            ArenaError::MissingValue { flag } => write!(f, "flag {flag} requires a value"),
            ArenaError::InvalidValue { flag, value } => {
                write!(f, "invalid value {value:?} for {flag}")
            }
            ArenaError::UnknownFlag { flag } => write!(f, "unknown flag {flag}"),
            ArenaError::Config(e) => write!(f, "invalid arena configuration: {e}"),
        }
    }
}

impl std::error::Error for ArenaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArenaError::Ingest { source, .. } => Some(source),
            ArenaError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ArenaError {
    fn from(e: ConfigError) -> Self {
        ArenaError::Config(e)
    }
}

/// Parsed arena options (the `bin/arena` command line, also constructible
/// directly by tests).
#[derive(Debug, Clone)]
pub struct ArenaOptions {
    /// Shrink the synthetic corpus for CI smoke runs.
    pub quick: bool,
    /// Explicit synthetic-corpus sizing; `None` derives from `quick`.
    pub accesses: Option<usize>,
    /// Simulated cores (shards) per replay.
    pub cores: usize,
    /// Include the built-in synthetic corpus entries.
    pub synthetic: bool,
    /// Recorded fault logs to ingest as extra corpus entries.
    pub trace_logs: Vec<String>,
    /// Competitor filter; empty means the full [`COMPETITORS`] pool.
    pub prefetchers: Vec<String>,
    /// Output path for the JSON matrix (`None` = the binary's default).
    pub out: Option<String>,
}

impl Default for ArenaOptions {
    fn default() -> Self {
        ArenaOptions {
            quick: false,
            accesses: None,
            cores: 2,
            synthetic: true,
            trace_logs: Vec::new(),
            prefetchers: Vec::new(),
            out: None,
        }
    }
}

impl ArenaOptions {
    /// Synthetic accesses per process after resolving `--quick`/`--accesses`.
    pub(crate) fn synthetic_accesses(&self) -> usize {
        self.accesses.unwrap_or(if self.quick {
            QUICK_ACCESSES
        } else {
            FULL_ACCESSES
        })
    }

    /// The competitor names this run evaluates, in [`COMPETITORS`] order.
    pub(crate) fn competitor_names(&self) -> Result<Vec<&'static str>, ArenaError> {
        if self.prefetchers.is_empty() {
            return Ok(COMPETITORS.to_vec());
        }
        for name in &self.prefetchers {
            if !COMPETITORS.contains(&name.as_str()) {
                return Err(ArenaError::UnknownPrefetcher { name: name.clone() });
            }
        }
        Ok(COMPETITORS
            .into_iter()
            .filter(|c| self.prefetchers.iter().any(|p| p == c))
            .collect())
    }
}

/// Parses the `bin/arena` argument list (without the program name) into
/// options, returning a typed [`ArenaError`] for every malformed input.
pub fn parse_args(args: &[String]) -> Result<ArenaOptions, ArenaError> {
    let mut opts = ArenaOptions::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |opts_i: &mut usize| -> Result<String, ArenaError> {
            *opts_i += 1;
            args.get(*opts_i).cloned().ok_or(ArenaError::MissingValue {
                flag: flag.to_string(),
            })
        };
        match flag {
            "--quick" => {
                if opts.accesses.is_some() {
                    return Err(ArenaError::ConflictingFlags {
                        first: "--accesses",
                        second: "--quick",
                    });
                }
                opts.quick = true;
            }
            "--accesses" => {
                if opts.quick {
                    return Err(ArenaError::ConflictingFlags {
                        first: "--quick",
                        second: "--accesses",
                    });
                }
                let v = value(&mut i)?;
                opts.accesses = Some(v.parse().map_err(|_| ArenaError::InvalidValue {
                    flag: "--accesses".to_string(),
                    value: v,
                })?);
            }
            "--cores" => {
                let v = value(&mut i)?;
                opts.cores = v.parse().map_err(|_| ArenaError::InvalidValue {
                    flag: "--cores".to_string(),
                    value: v,
                })?;
            }
            "--no-synthetic" => opts.synthetic = false,
            "--trace" => {
                let v = value(&mut i)?;
                opts.trace_logs.push(v);
            }
            "--prefetcher" => {
                let v = value(&mut i)?;
                opts.prefetchers.push(v);
            }
            "--out" => opts.out = Some(value(&mut i)?),
            other => {
                return Err(ArenaError::UnknownFlag {
                    flag: other.to_string(),
                })
            }
        }
        i += 1;
    }
    // Surface the validation errors eagerly so the binary fails before any
    // replay work: unknown competitor names and an inevitably-empty corpus.
    opts.competitor_names()?;
    if !opts.synthetic && opts.trace_logs.is_empty() {
        return Err(ArenaError::EmptyCorpus);
    }
    Ok(opts)
}

/// One corpus entry: a named set of per-process traces replayed together.
#[derive(Debug, Clone)]
pub struct ArenaTrace {
    /// Entry name as it appears in the matrix.
    pub name: String,
    /// Per-process access traces, canonicalised to rank space (see
    /// `normalize_trace`).
    pub traces: Vec<AccessTrace>,
}

/// Canonicalises a trace to *rank space*: each distinct page is renamed to
/// its rank in the trace's sorted distinct-page set, preserving the access
/// order, write bits, and compute times.
///
/// The renaming is exactly the swap-slot layout a prepopulated replay fixes
/// (cold pages spill to swap in sorted page order), so after it the offline
/// training space, the compiled program's addresses, and the slot-addressed
/// fault stream the prefetchers actually see all share one delta structure.
/// The arena compares *pattern structure*, which rank space preserves — a
/// stride stays a stride, a pointer-chase loop stays a loop — while the
/// arbitrary virtual base addresses of recorded logs drop out.
pub(crate) fn normalize_trace(trace: &AccessTrace) -> AccessTrace {
    let mut pages: Vec<u64> = trace.iter().map(|a| a.page).collect();
    pages.sort_unstable();
    pages.dedup();
    let accesses = trace
        .iter()
        .map(|a| {
            let mut access = *a;
            access.page = pages
                .binary_search(&a.page)
                .expect("page is in its own set") as u64;
            access
        })
        .collect();
    AccessTrace::new(trace.name(), accesses)
}

/// [`normalize_trace`] over a whole entry's traces.
fn normalize_all(traces: &[AccessTrace]) -> Vec<AccessTrace> {
    traces.iter().map(normalize_trace).collect()
}

/// Builds the corpus for `opts`: the built-in synthetic entries (unless
/// `--no-synthetic`) followed by every ingested `--trace` log, in flag
/// order.
pub fn build_corpus(opts: &ArenaOptions) -> Result<Vec<ArenaTrace>, ArenaError> {
    let accesses = opts.synthetic_accesses();
    let mut corpus = Vec::new();
    if opts.synthetic {
        // One pass over the working set is WORKING_SET/PAGE accesses; scale
        // pass counts so every synthetic entry sees roughly `accesses`.
        let pages_per_pass = (SYNTH_WORKING_SET / leap_sim_core::units::PAGE_SIZE) as usize;
        let passes = (accesses / pages_per_pass).max(1);
        let mix = TraceSource::Fig11Mix { accesses };
        corpus.push(ArenaTrace {
            name: mix.label(),
            traces: normalize_all(&mix.load().expect("synthetic mix generation is infallible")),
        });
        corpus.push(ArenaTrace {
            name: "stride-heavy".to_string(),
            traces: normalize_all(&[stride_trace(SYNTH_WORKING_SET, 8, passes)]),
        });
        corpus.push(ArenaTrace {
            name: "seq-scan".to_string(),
            traces: normalize_all(&[sequential_trace(SYNTH_WORKING_SET, passes)]),
        });
    }
    for path in &opts.trace_logs {
        let source = TraceSource::FaultLog {
            path: path.clone().into(),
        };
        let traces = source.load().map_err(|e| ArenaError::Ingest {
            path: path.clone(),
            source: e,
        })?;
        corpus.push(ArenaTrace {
            name: source.label(),
            traces: normalize_all(&traces),
        });
    }
    if corpus.is_empty() {
        return Err(ArenaError::EmptyCorpus);
    }
    Ok(corpus)
}

/// The offline-prepared artifacts for one corpus entry: the trained Markov
/// models and the compiled 3PO program. Preparation is pure (no RNG), so the
/// same entry always yields byte-identical models.
#[derive(Debug, Clone)]
pub(crate) struct PreparedModels {
    /// First-order Markov delta model trained on the entry's traces.
    pub markov1: Arc<FrozenModel>,
    /// Second-order model (with first-order backoff) on the same corpus.
    pub markov2: Arc<FrozenModel>,
    /// The compiled prefetch program: each trace's page sequence with
    /// consecutive repeats collapsed, appended in trace order.
    pub program: Arc<Vec<PageAddr>>,
}

impl PreparedModels {
    /// Trains and compiles the entry's competitors.
    pub(crate) fn prepare(entry: &ArenaTrace) -> Self {
        let mut program = Vec::new();
        for trace in &entry.traces {
            for page in trace.page_sequence() {
                let addr = PageAddr(page);
                if program.last() != Some(&addr) {
                    program.push(addr);
                }
            }
        }
        PreparedModels {
            markov1: Arc::new(train(&entry.traces, MarkovOrder::First)),
            markov2: Arc::new(train(&entry.traces, MarkovOrder::Second)),
            program: Arc::new(program),
        }
    }
}

/// The paper's baseline: the disaggregated VMM running Linux-style
/// read-ahead (Table 1's "Default" prefetcher row) under the arena's
/// uniform data path, so cells differ only in prefetching policy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DvmmReadAheadFactory;

impl PrefetcherFactory for DvmmReadAheadFactory {
    fn name(&self) -> &'static str {
        "DvmmReadAhead"
    }

    fn build(&self, config: &SimConfig) -> Box<dyn Prefetcher> {
        build_prefetcher(
            PrefetcherKind::ReadAhead,
            config.history_size,
            config.max_prefetch_window,
        )
    }
}

/// Factory handing each process a replayer over one shared frozen Markov
/// model (the model is immutable; only the tiny delta cursor is
/// per-process).
#[derive(Debug, Clone)]
pub struct FrozenMarkovFactory {
    model: Arc<FrozenModel>,
}

impl FrozenMarkovFactory {
    /// Wraps a trained model.
    pub fn new(model: Arc<FrozenModel>) -> Self {
        FrozenMarkovFactory { model }
    }
}

impl PrefetcherFactory for FrozenMarkovFactory {
    fn name(&self) -> &'static str {
        self.model.order().label()
    }

    fn build(&self, _config: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(MarkovPrefetcher::new(self.model.clone()))
    }
}

/// Factory for the compiled 3PO schedule. Every process replays the same
/// program; a process whose accesses are not in the program degrades
/// gracefully to no prefetching (see `ProgrammedPrefetcher`).
#[derive(Debug, Clone)]
pub(crate) struct CompiledProgramFactory {
    program: Arc<Vec<PageAddr>>,
    lead: usize,
}

impl CompiledProgramFactory {
    /// Wraps a compiled program with the given prefetch lead.
    pub fn new(program: Arc<Vec<PageAddr>>, lead: usize) -> Self {
        CompiledProgramFactory { program, lead }
    }
}

impl PrefetcherFactory for CompiledProgramFactory {
    fn name(&self) -> &'static str {
        "Programmed-3PO"
    }

    fn build(&self, _config: &SimConfig) -> Box<dyn Prefetcher> {
        Box::new(ProgrammedPrefetcher::new(
            self.program.as_ref().clone(),
            self.lead,
        ))
    }
}

/// One (trace, prefetcher) cell of the matrix, computed from the serial
/// replay after asserting Serial == Threaded.
#[derive(Debug, Clone)]
pub struct ArenaCell {
    /// Corpus entry name.
    pub trace: String,
    /// Competitor name.
    pub prefetcher: String,
    /// Processes in the entry.
    pub processes: usize,
    /// Total accesses replayed.
    pub accesses: u64,
    /// §3.1 coverage: prefetch hits / remote requests.
    pub coverage: f64,
    /// §3.1 accuracy: prefetch hits / pages prefetched.
    pub accuracy: f64,
    /// Median time a prefetched page sat in the cache before its first hit.
    pub timeliness_p50_us: f64,
    /// Wasted pages / prefetched pages from the outcome ledger.
    pub wasted_ratio: f64,
    /// Pages admitted by prefetching (outcome ledger).
    pub prefetched: u64,
    /// Prefetched pages demanded before eviction.
    pub covered: u64,
    /// Prefetched pages evicted unused or unconsumed at seal.
    pub wasted: u64,
    /// Median remote fault latency (µs).
    pub p50_fault_us: f64,
    /// 99th-percentile remote fault latency (µs).
    pub p99_fault_us: f64,
    /// Simulated completion time (ms).
    pub completion_ms: f64,
    /// The outcome ledger's FNV checksum (serial run).
    pub outcome_checksum: u64,
    /// Whether the Serial and Threaded replays were bit-identical.
    pub modes_identical: bool,
}

impl ArenaCell {
    /// Renders one JSON object (stable key order, fixed float precision).
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"trace\":\"{}\",\"prefetcher\":\"{}\",",
                "\"processes\":{},\"accesses\":{},",
                "\"coverage\":{:.4},\"accuracy\":{:.4},",
                "\"timeliness_p50_us\":{:.3},\"wasted_ratio\":{:.4},",
                "\"prefetched\":{},\"covered\":{},\"wasted\":{},",
                "\"p50_fault_us\":{:.3},\"p99_fault_us\":{:.3},",
                "\"completion_ms\":{:.3},\"outcome_checksum\":\"{:#018x}\",",
                "\"identical_modes\":{}}}"
            ),
            self.trace,
            self.prefetcher,
            self.processes,
            self.accesses,
            self.coverage,
            self.accuracy,
            self.timeliness_p50_us,
            self.wasted_ratio,
            self.prefetched,
            self.covered,
            self.wasted,
            self.p50_fault_us,
            self.p99_fault_us,
            self.completion_ms,
            self.outcome_checksum,
            self.modes_identical,
        )
    }
}

/// The full matrix: every corpus entry × every selected competitor.
#[derive(Debug, Clone)]
pub struct ArenaReport {
    /// Whether the run used quick sizing.
    pub quick: bool,
    /// Synthetic accesses per process.
    pub accesses: usize,
    /// Simulated cores per replay.
    pub cores: usize,
    /// Corpus entry names, matrix row order.
    pub traces: Vec<String>,
    /// Competitor names, matrix column order.
    pub prefetchers: Vec<String>,
    /// Cells in trace-major, competitor-minor order.
    pub cells: Vec<ArenaCell>,
}

impl ArenaReport {
    /// The cell for `(trace, prefetcher)`, if present.
    pub fn cell(&self, trace: &str, prefetcher: &str) -> Option<&ArenaCell> {
        self.cells
            .iter()
            .find(|c| c.trace == trace && c.prefetcher == prefetcher)
    }

    /// Renders the [`ARENA_SCHEMA`] JSON document (byte-stable for a given
    /// corpus and options).
    pub fn to_json(&self) -> String {
        let names = |v: &[String]| -> String {
            v.iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        let cells: Vec<String> = self.cells.iter().map(ArenaCell::to_json).collect();
        format!(
            concat!(
                "{{\"schema\":\"{}\",\"quick\":{},\"accesses\":{},",
                "\"cores\":{},\"traces\":[{}],\"prefetchers\":[{}],",
                "\"cells\":[{}]}}\n"
            ),
            ARENA_SCHEMA,
            self.quick,
            self.accesses,
            self.cores,
            names(&self.traces),
            names(&self.prefetchers),
            cells.join(","),
        )
    }

    /// Renders the Table-1-style text matrix (one table per corpus entry).
    pub fn render_tables(&self) -> String {
        let mut out = String::new();
        for trace in &self.traces {
            let mut table = TextTable::new(vec![
                "prefetcher",
                "coverage",
                "accuracy",
                "timeliness p50 (us)",
                "wasted ratio",
                "p50 fault (us)",
                "p99 fault (us)",
                "completion (ms)",
            ])
            .with_title(format!("Prefetcher arena: {trace}"));
            for cell in self.cells.iter().filter(|c| &c.trace == trace) {
                table.add_row(vec![
                    cell.prefetcher.clone(),
                    format!("{:.3}", cell.coverage),
                    format!("{:.3}", cell.accuracy),
                    format!("{:.1}", cell.timeliness_p50_us),
                    format!("{:.3}", cell.wasted_ratio),
                    format!("{:.1}", cell.p50_fault_us),
                    format!("{:.1}", cell.p99_fault_us),
                    format!("{:.2}", cell.completion_ms),
                ]);
            }
            out.push_str(&table.render());
            out.push('\n');
        }
        out
    }
}

fn cell_builder(cores: usize, mode: ReplayMode) -> SimConfigBuilder {
    SimConfig::builder()
        .memory_fraction(0.5)
        .cores(cores)
        .sched_quantum(Nanos::from_micros(250))
        .seed(EXPERIMENT_SEED)
        .replay_mode(mode)
}

/// Builds the setup for one competitor. The data path, eviction policy, and
/// every sizing knob are identical across competitors; only the prefetcher
/// factory differs.
fn competitor_setup(
    name: &str,
    models: &PreparedModels,
    cores: usize,
    mode: ReplayMode,
) -> Result<SimSetup, ArenaError> {
    let builder = cell_builder(cores, mode);
    let builder = match name {
        "DvmmReadAhead" => builder.custom_prefetcher(DvmmReadAheadFactory),
        "Leap" => builder.prefetcher(PrefetcherKind::Leap),
        "Markov-1" => builder.custom_prefetcher(FrozenMarkovFactory::new(models.markov1.clone())),
        "Markov-2" => builder.custom_prefetcher(FrozenMarkovFactory::new(models.markov2.clone())),
        "Programmed-3PO" => builder.custom_prefetcher(CompiledProgramFactory::new(
            models.program.clone(),
            DEFAULT_PROGRAM_LOOKAHEAD,
        )),
        other => {
            return Err(ArenaError::UnknownPrefetcher {
                name: other.to_string(),
            })
        }
    };
    Ok(builder.build_setup()?)
}

/// Runs one (entry, competitor) cell: both replay modes, identity check,
/// metrics from the serial result.
///
/// Each replay is *prepopulated* (the working sets are touched once in
/// address order before the measured accesses), the paper's microbenchmark
/// methodology. Prepopulation fixes the swap-slot layout to the address
/// order, so the slot-addressed fault stream the prefetchers see carries
/// the same delta structure as the rank-space corpus traces the learned and
/// programmed competitors were prepared on.
pub(crate) fn run_cell(
    entry: &ArenaTrace,
    models: &PreparedModels,
    name: &str,
    cores: usize,
) -> Result<ArenaCell, ArenaError> {
    let run = |mode: ReplayMode| -> Result<RunResult, ArenaError> {
        let mut sim = competitor_setup(name, models, cores, mode)?.vmm();
        sim.set_prepopulate_multi(true);
        Ok(sim.run_multi(&entry.traces))
    };
    let mut serial = run(ReplayMode::Serial)?;
    let modes_identical = serial == run(ReplayMode::Threaded)?;
    let outcomes = serial.prefetch_outcomes;
    Ok(ArenaCell {
        trace: entry.name.clone(),
        prefetcher: name.to_string(),
        processes: entry.traces.len(),
        accesses: serial.total_accesses,
        coverage: serial.prefetch_stats.coverage(),
        accuracy: serial.prefetch_stats.accuracy(),
        timeliness_p50_us: serial.prefetch_stats.timeliness().median().as_nanos() as f64 / 1e3,
        wasted_ratio: outcomes.wasted_ratio(),
        prefetched: outcomes.prefetched(),
        covered: outcomes.covered(),
        wasted: outcomes.wasted(),
        p50_fault_us: serial.median_remote_latency().as_nanos() as f64 / 1e3,
        p99_fault_us: serial.p99_remote_latency().as_nanos() as f64 / 1e3,
        completion_ms: serial.completion_time.as_nanos() as f64 / 1e6,
        outcome_checksum: outcomes.checksum(),
        modes_identical,
    })
}

/// Runs the full arena for `opts`: builds the corpus, prepares each entry's
/// learned/compiled competitors, and replays every cell in both modes.
pub fn run_arena(opts: &ArenaOptions) -> Result<ArenaReport, ArenaError> {
    let competitors = opts.competitor_names()?;
    let corpus = build_corpus(opts)?;
    let mut cells = Vec::with_capacity(corpus.len() * competitors.len());
    for entry in &corpus {
        let models = PreparedModels::prepare(entry);
        for name in &competitors {
            cells.push(run_cell(entry, &models, name, opts.cores)?);
        }
    }
    Ok(ArenaReport {
        quick: opts.quick,
        accesses: opts.synthetic_accesses(),
        cores: opts.cores,
        traces: corpus.iter().map(|e| e.name.clone()).collect(),
        prefetchers: competitors.iter().map(|s| s.to_string()).collect(),
        cells,
    })
}

/// `tests/fixtures/<name>` resolved against the workspace root (the bench
/// crate lives two levels down).
pub fn workspace_fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let opts = parse_args(&[]).unwrap();
        assert!(!opts.quick);
        assert!(opts.synthetic);
        assert_eq!(opts.synthetic_accesses(), FULL_ACCESSES);
        let opts = parse_args(&strs(&[
            "--quick",
            "--cores",
            "4",
            "--prefetcher",
            "Leap",
            "--out",
            "m.json",
        ]))
        .unwrap();
        assert!(opts.quick);
        assert_eq!(opts.cores, 4);
        assert_eq!(opts.synthetic_accesses(), QUICK_ACCESSES);
        assert_eq!(opts.competitor_names().unwrap(), vec!["Leap"]);
        assert_eq!(opts.out.as_deref(), Some("m.json"));
    }

    #[test]
    fn parse_rejects_conflicts_both_orders() {
        assert!(matches!(
            parse_args(&strs(&["--quick", "--accesses", "100"])),
            Err(ArenaError::ConflictingFlags {
                first: "--quick",
                second: "--accesses"
            })
        ));
        assert!(matches!(
            parse_args(&strs(&["--accesses", "100", "--quick"])),
            Err(ArenaError::ConflictingFlags {
                first: "--accesses",
                second: "--quick"
            })
        ));
    }

    #[test]
    fn parse_rejects_malformed_inputs() {
        assert!(matches!(
            parse_args(&strs(&["--frobnicate"])),
            Err(ArenaError::UnknownFlag { .. })
        ));
        assert!(matches!(
            parse_args(&strs(&["--cores"])),
            Err(ArenaError::MissingValue { .. })
        ));
        assert!(matches!(
            parse_args(&strs(&["--cores", "many"])),
            Err(ArenaError::InvalidValue { .. })
        ));
        assert!(matches!(
            parse_args(&strs(&["--prefetcher", "Oracle"])),
            Err(ArenaError::UnknownPrefetcher { .. })
        ));
        assert!(matches!(
            parse_args(&strs(&["--no-synthetic"])),
            Err(ArenaError::EmptyCorpus)
        ));
    }

    #[test]
    fn competitor_filter_preserves_canonical_order() {
        let opts = ArenaOptions {
            prefetchers: vec!["Markov-1".into(), "DvmmReadAhead".into()],
            ..ArenaOptions::default()
        };
        assert_eq!(
            opts.competitor_names().unwrap(),
            vec!["DvmmReadAhead", "Markov-1"]
        );
    }

    #[test]
    fn corpus_includes_synthetic_entries_and_rejects_bad_logs() {
        let opts = ArenaOptions {
            quick: true,
            ..ArenaOptions::default()
        };
        let corpus = build_corpus(&opts).unwrap();
        let names: Vec<&str> = corpus.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["fig11-app-mix", "stride-heavy", "seq-scan"]);
        assert!(corpus.iter().all(|e| !e.traces.is_empty()));

        let opts = ArenaOptions {
            synthetic: false,
            trace_logs: vec!["/no/such/file.log".into()],
            ..ArenaOptions::default()
        };
        assert!(matches!(
            build_corpus(&opts),
            Err(ArenaError::Ingest { .. })
        ));
    }

    #[test]
    fn prepared_program_collapses_repeats_across_the_entry() {
        use leap_workloads::Access;
        let entry = ArenaTrace {
            name: "t".into(),
            traces: vec![AccessTrace::new(
                "a",
                [5, 5, 7, 7, 5]
                    .map(|p| Access::read(p, Nanos::ZERO))
                    .to_vec(),
            )],
        };
        let models = PreparedModels::prepare(&entry);
        assert_eq!(
            models.program.as_ref(),
            &vec![PageAddr(5), PageAddr(7), PageAddr(5)]
        );
        assert_eq!(models.markov1.order(), MarkovOrder::First);
        assert_eq!(models.markov2.order(), MarkovOrder::Second);
    }

    #[test]
    fn single_cell_runs_and_agrees_across_modes() {
        let entry = ArenaTrace {
            name: "stride".into(),
            traces: vec![stride_trace(MIB, 4, 2)],
        };
        let models = PreparedModels::prepare(&entry);
        let cell = run_cell(&entry, &models, "Markov-1", 2).unwrap();
        assert!(cell.modes_identical, "serial and threaded replays diverged");
        assert!(cell.coverage > 0.0, "trained Markov must cover something");
        assert!(cell.accesses > 0);
    }

    #[test]
    fn unknown_competitor_is_a_typed_error() {
        let entry = ArenaTrace {
            name: "t".into(),
            traces: vec![sequential_trace(MIB, 1)],
        };
        let models = PreparedModels::prepare(&entry);
        match run_cell(&entry, &models, "Oracle", 1) {
            Err(ArenaError::UnknownPrefetcher { name }) => assert_eq!(name, "Oracle"),
            other => panic!("expected UnknownPrefetcher, got {other:?}"),
        }
    }

    #[test]
    fn report_json_carries_the_schema_and_cells() {
        let opts = ArenaOptions {
            accesses: Some(1_000),
            prefetchers: vec!["Leap".into(), "DvmmReadAhead".into()],
            ..ArenaOptions::default()
        };
        let report = run_arena(&opts).unwrap();
        assert_eq!(report.prefetchers, vec!["DvmmReadAhead", "Leap"]);
        assert_eq!(report.cells.len(), report.traces.len() * 2);
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"leap-arena/1\""));
        assert!(json.contains("\"identical_modes\":true"));
        assert!(!json.contains("\"identical_modes\":false"));
        let tables = report.render_tables();
        assert!(tables.contains("Prefetcher arena: stride-heavy"));
    }
}
