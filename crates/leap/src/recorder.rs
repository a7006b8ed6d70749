//! [`TraceRecorder`]: export a simulated run as a canonical fault log.
//!
//! The inverse of `leap_workloads::ingest`: attach a [`TraceRecorder`] to a
//! [`Session`](crate::Session) and the full access stream comes back out as
//! a perf-script-style page-fault log —
//!
//! ```text
//! # t0: 0.000000000
//! <comm> <pid> [<core>] <secs>.<nanos9>: page-faults: addr=0x<hex> <R|W>
//! ```
//!
//! Timestamps are **application-time** clocks: each pid's clock is its
//! cumulative compute (think) time, not the simulated wall clock. That
//! makes the export the exact inverse of ingestion's
//! timestamp-to-compute-cost rule — re-ingesting a recorded run reproduces
//! the replayed traces bit-identically (pages, read/write flags, compute
//! costs, and, with matching comms, names). The round-trip invariant is
//! pinned by `tests/ingest_roundtrip.rs` and the golden fixture under
//! `tests/fixtures/`.
//!
//! Lines are emitted stably sorted by timestamp, so the log is globally
//! time-ordered (what ingestion requires) while every pid's internal order
//! is preserved — exactly the shape a merged multi-process fault recording
//! has.
//!
//! # Examples
//!
//! ```
//! use leap::prelude::*;
//! use leap_sim_core::units::MIB;
//! use leap_workloads::ingest::{ingest_str, LogFormat};
//!
//! let trace = leap_workloads::stride_trace(2 * MIB, 10, 1);
//! let sim = SimConfig::builder().seed(7).build_vmm().unwrap();
//! let mut recorder = TraceRecorder::for_traces(std::slice::from_ref(&trace));
//! let result = sim.session().observe(&mut recorder).run(&trace);
//! assert_eq!(recorder.events(), result.total_accesses);
//!
//! // The export round-trips: ingesting it reproduces the replayed trace.
//! let log = recorder.to_log();
//! let reingested = ingest_str(&log, LogFormat::PerfScript).unwrap();
//! assert_eq!(reingested.traces(), std::slice::from_ref(&trace));
//! ```

use crate::result::RunResult;
use crate::session::{FaultEvent, Observer};
use leap_sim_core::units::PAGE_SHIFT;
use leap_sim_core::Nanos;
use leap_workloads::AccessTrace;

/// One recorded access, pending export.
#[derive(Debug, Clone, Copy)]
struct RecordedFault {
    /// The pid's application-time clock after this access's compute.
    at: Nanos,
    pid: u32,
    core: usize,
    page: u64,
    is_write: bool,
}

/// An [`Observer`] that records the access stream and exports it in the
/// canonical perf-script fault-log format (see the module docs for the
/// grammar and the round-trip invariant).
#[derive(Debug, Default)]
pub struct TraceRecorder {
    /// comm for `Pid(i + 1)` at index `i`; pids beyond the list fall back
    /// to `pid<N>`.
    comms: Vec<String>,
    /// Per-pid cumulative compute clocks, keyed linearly (few pids).
    clocks: Vec<(u32, Nanos)>,
    faults: Vec<RecordedFault>,
}

impl TraceRecorder {
    /// A recorder whose processes are named `pid1`, `pid2`, ... (the same
    /// names DAMON-format ingestion assigns).
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// A recorder naming `Pid(i + 1)` after `comms[i]`. Comms are
    /// whitespace-sanitized ('-' replaces inner whitespace; empty becomes
    /// `sim`), since a comm is one token of the log grammar.
    pub(crate) fn with_comms<I, S>(comms: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        TraceRecorder {
            comms: comms
                .into_iter()
                .map(|c| sanitize_comm(c.as_ref()))
                .collect(),
            ..TraceRecorder::default()
        }
    }

    /// A recorder naming processes after the traces of the run it is about
    /// to observe (process `i` of a `run`/`run_multi` replay is
    /// `Pid(i + 1)`).
    pub fn for_traces(traces: &[AccessTrace]) -> Self {
        TraceRecorder::with_comms(traces.iter().map(|t| t.name()))
    }

    /// Number of accesses recorded so far.
    pub fn events(&self) -> u64 {
        self.faults.len() as u64
    }

    /// Renders the recorded run as a canonical fault log: the `# t0: 0`
    /// base header, then one line per access, stably sorted by timestamp.
    pub fn to_log(&self) -> String {
        use std::fmt::Write as _;
        let mut ordered: Vec<&RecordedFault> = self.faults.iter().collect();
        ordered.sort_by_key(|f| f.at); // stable: per-pid order survives ties
        let mut out = String::with_capacity(64 * (ordered.len() + 1));
        out.push_str("# t0: 0.000000000\n");
        for fault in ordered {
            // Comm without a per-line allocation: borrow the configured
            // name, or render the `pid<N>` fallback straight into `out`.
            match self.comms.get(fault.pid.wrapping_sub(1) as usize) {
                Some(comm) => out.push_str(comm),
                None => {
                    let _ = write!(out, "pid{}", fault.pid);
                }
            }
            let t = fault.at.as_nanos();
            let _ = writeln!(
                out,
                " {} [{:03}] {}.{:09}: page-faults: addr=0x{:x} {}",
                fault.pid,
                fault.core,
                t / 1_000_000_000,
                t % 1_000_000_000,
                fault.page << PAGE_SHIFT,
                if fault.is_write { 'W' } else { 'R' },
            );
        }
        out
    }
}

/// A comm must be a single non-whitespace token of the log grammar.
fn sanitize_comm(comm: &str) -> String {
    let cleaned: String = comm
        .chars()
        .map(|c| if c.is_whitespace() { '-' } else { c })
        .collect();
    if cleaned.is_empty() {
        "sim".to_string()
    } else {
        cleaned
    }
}

impl Observer for TraceRecorder {
    fn on_event(&mut self, event: &FaultEvent) {
        let idx = match self.clocks.iter().position(|(pid, _)| *pid == event.pid.0) {
            Some(idx) => idx,
            None => {
                self.clocks.push((event.pid.0, Nanos::ZERO));
                self.clocks.len() - 1
            }
        };
        let clock = &mut self.clocks[idx].1;
        *clock = clock.saturating_add(event.compute);
        self.faults.push(RecordedFault {
            at: *clock,
            pid: event.pid.0,
            core: event.core,
            page: event.page,
            is_write: event.is_write,
        });
    }

    fn on_complete(&mut self, _result: &RunResult) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::session::Simulator;
    use crate::vmm::VmmSimulator;
    use leap_sim_core::units::MIB;
    use leap_workloads::ingest::{ingest_str, LogFormat};
    use leap_workloads::{sequential_trace, stride_trace, Access};

    #[test]
    fn records_every_access_of_a_run() {
        let trace = sequential_trace(MIB, 1);
        let sim = VmmSimulator::new(SimConfig::leap_defaults());
        let mut recorder = TraceRecorder::for_traces(std::slice::from_ref(&trace));
        let result = sim.session().observe(&mut recorder).run(&trace);
        assert_eq!(recorder.events(), result.total_accesses);
        assert!(recorder.events() > 0);
    }

    #[test]
    fn export_round_trips_through_ingest_for_multi_process_runs() {
        let traces = vec![stride_trace(MIB, 10, 1), sequential_trace(MIB, 1)];
        let config = SimConfig::builder()
            .cores(2)
            .seed(11)
            .build()
            .expect("valid config");
        let mut recorder = TraceRecorder::for_traces(&traces);
        VmmSimulator::new(config)
            .session()
            .observe(&mut recorder)
            .run_multi(&traces);
        let log = recorder.to_log();
        let reingested = ingest_str(&log, LogFormat::PerfScript).expect("recorded log ingests");
        assert_eq!(reingested.traces(), &traces[..]);
    }

    #[test]
    fn log_is_globally_time_ordered_with_per_pid_order_preserved() {
        let traces = vec![stride_trace(MIB, 7, 1), sequential_trace(MIB, 1)];
        let config = SimConfig::builder()
            .cores(2)
            .seed(3)
            .build()
            .expect("valid config");
        let mut recorder = TraceRecorder::for_traces(&traces);
        VmmSimulator::new(config)
            .session()
            .observe(&mut recorder)
            .run_multi(&traces);
        let log = recorder.to_log();
        let mut last = 0u64;
        for line in log.lines().filter(|l| !l.starts_with('#')) {
            let time_tok = line.split_whitespace().nth(3).expect("time token");
            let digits: String = time_tok
                .trim_end_matches(':')
                .chars()
                .filter(|c| c.is_ascii_digit())
                .collect();
            let t: u64 = digits.parse().expect("numeric time");
            assert!(t >= last, "log went backwards: {line}");
            last = t;
        }
    }

    #[test]
    fn comms_are_sanitized_into_single_tokens() {
        assert_eq!(sanitize_comm("power graph"), "power-graph");
        assert_eq!(sanitize_comm(""), "sim");
        assert_eq!(sanitize_comm("ok"), "ok");
        let trace = AccessTrace::new("two words", vec![Access::read(0, Nanos::ZERO)]);
        let mut recorder = TraceRecorder::for_traces(std::slice::from_ref(&trace));
        let sim = VmmSimulator::new(SimConfig::leap_defaults());
        sim.session().observe(&mut recorder).run(&trace);
        assert!(recorder.to_log().contains("two-words 1 "));
    }

    #[test]
    fn unnamed_pids_fall_back_to_damon_style_names() {
        let trace = AccessTrace::new("t", vec![Access::read(0, Nanos::ZERO)]);
        let mut recorder = TraceRecorder::new();
        let sim = VmmSimulator::new(SimConfig::leap_defaults());
        sim.session().observe(&mut recorder).run(&trace);
        assert!(recorder.to_log().contains("pid1 1 "));
    }
}
