//! Trace ingestion: replaying recorded fault logs as workloads.
//!
//! The rest of this crate *generates* access traces; this module *ingests*
//! them from the two text formats real fault recorders produce (see
//! ARCHITECTURE.md "Trace ingestion" for the full grammars):
//!
//! - [`LogFormat::PerfScript`] ([`perf`]): one page fault per line, in the
//!   shape of `perf script -F comm,pid,cpu,time,event,addr` output. This is
//!   also the **canonical** format — `leap::TraceRecorder` exports any
//!   simulated run back out in it, and ingesting that export reproduces the
//!   replayed traces bit-identically (the round-trip invariant the test
//!   suite leans on).
//! - [`LogFormat::DamonRegions`] ([`damon`]): DAMON-style region samples
//!   (`timestamp pid start-end nr_accesses`), expanded deterministically
//!   into page accesses.
//!
//! Normalization is shared by both formats:
//!
//! - **Addresses → pages.** Byte addresses are floored to their 4 KiB page
//!   (`addr >> 12`); the simulator replays page numbers.
//! - **Timestamps → compute cost.** The gap between consecutive events *of
//!   the same pid* becomes the access's [`Access::compute`] (think time) —
//!   the standard trace-replay assumption: the simulator re-creates memory
//!   stalls itself, so recorded inter-fault gaps are treated as application
//!   work. A pid's first event measures its gap from the log base: the
//!   `# t0: <time>` header when present, else the log's first event
//!   timestamp. Timestamps must be globally non-decreasing.
//! - **Multi-pid demultiplexing.** Events are split by pid into one
//!   [`AccessTrace`] per process (ascending pid order, so replays are
//!   reproducible), ready for `Simulator::run_multi`. Pids that never
//!   produce an access are dropped.
//!
//! Readers are streaming and line-oriented: one reused line buffer, so a
//! multi-GB log is never materialized in memory (only the parsed traces
//! are).
//!
//! # Examples
//!
//! ```
//! use leap_workloads::ingest::{ingest_str, LogFormat};
//!
//! let log = concat!(
//!     "# t0: 0.000000000\n",
//!     "app 7 [000] 0.000001000: page-faults: addr=0x7f0000001000 R\n",
//!     "app 7 [000] 0.000003500: page-faults: addr=0x7f0000002000 W\n",
//! );
//! let ingested = ingest_str(log, LogFormat::PerfScript).unwrap();
//! assert_eq!(ingested.processes(), 1);
//! let trace = &ingested.traces()[0];
//! assert_eq!(trace.name(), "app");
//! assert_eq!(trace.page_sequence(), vec![0x7f000_0001, 0x7f000_0002]);
//! // Inter-fault gaps became compute costs (1 µs, then 2.5 µs).
//! assert_eq!(trace.accesses()[0].compute.as_nanos(), 1_000);
//! assert_eq!(trace.accesses()[1].compute.as_nanos(), 2_500);
//! assert!(trace.accesses()[1].is_write);
//! ```

pub mod damon;
pub mod error;
pub mod perf;

pub use error::IngestError;

use crate::trace::{Access, AccessTrace};
use leap_sim_core::units::{PAGE_SHIFT, PAGE_SIZE};
use leap_sim_core::{FxHashMap, Nanos};
use std::io::BufRead;
use std::path::Path;

/// Per-line expansion cap for DAMON region samples: a sample claiming more
/// accesses than this is rejected ([`IngestError::RegionTooDense`]) instead
/// of ballooning the parsed trace. Real DAMON access counts are bounded by
/// the aggregation/sampling interval ratio and sit far below this.
pub const MAX_REGION_ACCESSES: u64 = 1 << 20;

/// The fault-log text formats the ingestion subsystem understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// DAMON-style region-sample lines: `time pid start-end nr_accesses`.
    DamonRegions,
    /// perf-script-style per-fault lines:
    /// `comm pid [cpu] time: event: addr [R|W]`. The canonical format
    /// `leap::TraceRecorder` also exports.
    PerfScript,
}

impl LogFormat {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            LogFormat::DamonRegions => "damon",
            LogFormat::PerfScript => "perf-script",
        }
    }
}

/// Guesses the format of one event line (the first non-blank, non-comment
/// line of a log), or `None` when it matches neither grammar's shape.
///
/// A DAMON line starts with a timestamp (leading digit; the fraction is
/// optional, as in the grammar) and carries the `start-end` region range as
/// its third token; a perf line's third token is the bracketed cpu. The
/// full grammar is still enforced by the parser afterwards — detection only
/// routes.
pub(crate) fn detect_format(line: &str) -> Option<LogFormat> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let starts_with_digit = |t: &str| t.bytes().next().is_some_and(|b| b.is_ascii_digit());
    if tokens.len() >= 4 && tokens[2].contains('-') && starts_with_digit(tokens[0]) {
        return Some(LogFormat::DamonRegions);
    }
    if tokens.len() >= 3 && tokens[2].starts_with('[') && tokens[2].ends_with(']') {
        return Some(LogFormat::PerfScript);
    }
    None
}

/// One pid's accumulating stream during demultiplexing.
#[derive(Debug)]
struct PidStream {
    pid: u32,
    /// Trace name: the pid's first comm (perf) or `pid<N>` (DAMON).
    name: String,
    accesses: Vec<Access>,
    /// Timestamp of this pid's previous event (the subtrahend of the next
    /// compute derivation).
    prev_ns: u64,
}

/// The shared demultiplexer both parsers feed: splits events by pid,
/// derives compute costs from per-pid timestamp gaps, and enforces global
/// timestamp monotonicity.
#[derive(Debug)]
pub(crate) struct Demux {
    streams: Vec<PidStream>,
    /// pid → index into `streams`, so a many-process log costs O(1) per
    /// line instead of a per-line scan over every pid seen so far.
    by_pid: FxHashMap<u32, usize>,
    /// The log base: `# t0:` header if seen before the first event, else
    /// the first event's timestamp.
    base_ns: Option<u64>,
    /// Latest timestamp seen, for the monotonicity check.
    last_ns: u64,
    /// Number of event lines consumed.
    event_lines: u64,
}

impl Demux {
    fn new() -> Self {
        Demux {
            streams: Vec::new(),
            by_pid: FxHashMap::default(),
            base_ns: None,
            last_ns: 0,
            event_lines: 0,
        }
    }

    /// Installs the `# t0:` base. Honored only before the first event line.
    fn set_base(&mut self, t0_ns: u64) {
        if self.event_lines == 0 && self.base_ns.is_none() {
            self.base_ns = Some(t0_ns);
            self.last_ns = t0_ns;
        }
    }

    /// Validates `t_ns` against the global clock and returns the pid's
    /// stream index, creating the stream on first sight (`name` is only
    /// invoked then, so steady-state lines never build a name).
    fn stream_at(
        &mut self,
        line: u64,
        t_ns: u64,
        pid: u32,
        name: impl FnOnce() -> String,
    ) -> Result<usize, IngestError> {
        let base = *self.base_ns.get_or_insert(t_ns);
        if t_ns < base || t_ns < self.last_ns {
            return Err(IngestError::OutOfOrderTimestamp { line });
        }
        self.last_ns = t_ns;
        let idx = match self.by_pid.get(&pid) {
            Some(&idx) => idx,
            None => {
                self.streams.push(PidStream {
                    pid,
                    name: name(),
                    accesses: Vec::new(),
                    prev_ns: base,
                });
                let idx = self.streams.len() - 1;
                self.by_pid.insert(pid, idx);
                idx
            }
        };
        Ok(idx)
    }

    /// Books one per-fault event (the perf path): compute is the gap since
    /// the pid's previous event.
    fn push_fault(
        &mut self,
        line: u64,
        t_ns: u64,
        pid: u32,
        comm: &str,
        page: u64,
        is_write: bool,
    ) -> Result<(), IngestError> {
        let idx = self.stream_at(line, t_ns, pid, || comm.to_string())?;
        self.event_lines += 1;
        let stream = &mut self.streams[idx];
        let compute = Nanos(t_ns - stream.prev_ns);
        stream.prev_ns = t_ns;
        stream.accesses.push(Access {
            page,
            is_write,
            compute,
        });
        Ok(())
    }

    /// Books one region sample (the DAMON path): the sample's interval is
    /// split over `nr_accesses` reads striding evenly across the region's
    /// pages (the remainder lands on the first access). A zero-access
    /// sample still advances the pid's clock.
    fn push_region(
        &mut self,
        line: u64,
        t_ns: u64,
        pid: u32,
        start_page: u64,
        region_pages: u64,
        nr_accesses: u64,
    ) -> Result<(), IngestError> {
        let idx = self.stream_at(line, t_ns, pid, || format!("pid{pid}"))?;
        self.event_lines += 1;
        let stream = &mut self.streams[idx];
        let interval = t_ns - stream.prev_ns;
        stream.prev_ns = t_ns;
        if nr_accesses == 0 {
            return Ok(());
        }
        let per = interval / nr_accesses;
        let remainder = interval % nr_accesses;
        stream.accesses.reserve(nr_accesses as usize);
        for j in 0..nr_accesses {
            // u128 keeps the stride math exact for pathological regions.
            let offset = ((j as u128 * region_pages as u128) / nr_accesses as u128) as u64;
            stream.accesses.push(Access {
                page: start_page + offset,
                is_write: false,
                compute: Nanos(per + if j == 0 { remainder } else { 0 }),
            });
        }
        Ok(())
    }

    /// Finishes demultiplexing: drops access-free pids, orders traces by
    /// ascending pid.
    fn finish(mut self, format: LogFormat) -> Result<IngestedLog, IngestError> {
        self.streams.retain(|s| !s.accesses.is_empty());
        if self.streams.is_empty() {
            return Err(IngestError::EmptyLog);
        }
        self.streams.sort_by_key(|s| s.pid);
        let pids = self.streams.iter().map(|s| s.pid).collect();
        let traces = self
            .streams
            .into_iter()
            .map(|s| AccessTrace::new(s.name, s.accesses))
            .collect();
        Ok(IngestedLog {
            format,
            traces,
            pids,
            event_lines: self.event_lines,
        })
    }
}

/// A fault log parsed into per-process access traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestedLog {
    format: LogFormat,
    traces: Vec<AccessTrace>,
    pids: Vec<u32>,
    event_lines: u64,
}

impl IngestedLog {
    /// The format the log was parsed as.
    pub fn format(&self) -> LogFormat {
        self.format
    }

    /// The demultiplexed traces, in ascending-pid order. Process `i`
    /// becomes `Pid(i + 1)` in a `run_multi` replay.
    pub fn traces(&self) -> &[AccessTrace] {
        &self.traces
    }

    /// Consumes the log into its traces.
    pub fn into_traces(self) -> Vec<AccessTrace> {
        self.traces
    }

    /// The recorded pids, parallel to [`IngestedLog::traces`].
    pub fn pids(&self) -> &[u32] {
        &self.pids
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.traces.len()
    }

    /// Total accesses across all traces.
    pub fn total_accesses(&self) -> u64 {
        self.traces.iter().map(|t| t.len() as u64).sum()
    }

    /// Number of event lines the parser consumed (for DAMON logs this can
    /// be far below [`IngestedLog::total_accesses`]).
    pub fn event_lines(&self) -> u64 {
        self.event_lines
    }
}

/// Classification of one raw log line, shared by both grammars.
enum LineKind<'a> {
    Blank,
    /// A comment; carries the `# t0:` base when the comment is the header.
    Comment {
        t0_ns: Option<u64>,
    },
    Event(&'a str),
}

fn classify(line_no: u64, line: &str) -> Result<LineKind<'_>, IngestError> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(LineKind::Blank);
    }
    if let Some(comment) = trimmed.strip_prefix('#') {
        let comment = comment.trim_start();
        if let Some(t0) = comment.strip_prefix("t0:") {
            let t0_ns = parse_time(line_no, t0.trim())?;
            return Ok(LineKind::Comment { t0_ns: Some(t0_ns) });
        }
        return Ok(LineKind::Comment { t0_ns: None });
    }
    Ok(LineKind::Event(trimmed))
}

/// The single streaming driver behind both entry points: `format` is
/// pre-set for explicit-format ingestion or detected from the first event
/// line when `None` (so the two paths cannot diverge on comment, blank, or
/// `# t0:` handling).
fn drive_reader<R: BufRead>(
    mut reader: R,
    mut format: Option<LogFormat>,
) -> Result<IngestedLog, IngestError> {
    let mut demux = Demux::new();
    let mut buf = String::new();
    let mut line_no = 0u64;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        line_no += 1;
        match classify(line_no, &buf)? {
            LineKind::Blank => {}
            LineKind::Comment { t0_ns } => {
                if let Some(t0_ns) = t0_ns {
                    demux.set_base(t0_ns);
                }
            }
            LineKind::Event(event) => {
                let fmt = match format {
                    Some(fmt) => fmt,
                    None => {
                        let detected = detect_format(event)
                            .ok_or(IngestError::UnknownFormat { line: line_no })?;
                        format = Some(detected);
                        detected
                    }
                };
                match fmt {
                    LogFormat::PerfScript => perf::parse_line(line_no, event, &mut demux)?,
                    LogFormat::DamonRegions => damon::parse_line(line_no, event, &mut demux)?,
                }
            }
        }
    }
    demux.finish(format.ok_or(IngestError::EmptyLog)?)
}

/// Streams `reader` line by line through the parser for `format`.
pub(crate) fn ingest_reader<R: BufRead>(
    reader: R,
    format: LogFormat,
) -> Result<IngestedLog, IngestError> {
    drive_reader(reader, Some(format))
}

/// Streams `reader`, auto-detecting the format from the first event line.
pub(crate) fn ingest_reader_auto<R: BufRead>(reader: R) -> Result<IngestedLog, IngestError> {
    drive_reader(reader, None)
}

/// Ingests a log held in memory (tests, recorder round trips).
pub fn ingest_str(log: &str, format: LogFormat) -> Result<IngestedLog, IngestError> {
    ingest_reader(log.as_bytes(), format)
}

/// Opens `path` and ingests it with format auto-detection, streaming.
pub fn ingest_path<P: AsRef<Path>>(path: P) -> Result<IngestedLog, IngestError> {
    let file = std::fs::File::open(path)?;
    ingest_reader_auto(std::io::BufReader::new(file))
}

/// Parses a `secs[.frac]` timestamp into nanoseconds. The fraction may have
/// 1–9 digits (nanosecond precision); more would silently lose precision,
/// so it is rejected.
pub(crate) fn parse_time(line: u64, token: &str) -> Result<u64, IngestError> {
    let (secs_str, frac_str) = match token.split_once('.') {
        Some((s, f)) => (s, f),
        None => (token, ""),
    };
    if secs_str.is_empty() || !secs_str.bytes().all(|b| b.is_ascii_digit()) {
        return Err(IngestError::BadField {
            line,
            field: "time",
        });
    }
    let secs: u64 = secs_str
        .parse()
        .map_err(|_| IngestError::TimestampOverflow { line })?;
    let frac_ns = match frac_str.len() {
        0 => 0,
        1..=9 => {
            if !frac_str.bytes().all(|b| b.is_ascii_digit()) {
                return Err(IngestError::BadField {
                    line,
                    field: "time",
                });
            }
            let frac: u64 = frac_str.parse().expect("all digits, <= 9 of them");
            frac * 10u64.pow(9 - frac_str.len() as u32)
        }
        _ => {
            return Err(IngestError::BadField {
                line,
                field: "time",
            })
        }
    };
    secs.checked_mul(1_000_000_000)
        .and_then(|ns| ns.checked_add(frac_ns))
        .ok_or(IngestError::TimestampOverflow { line })
}

/// Parses a hex byte address (optionally `0x`-prefixed), distinguishing
/// 64-bit overflow from garbage.
pub(crate) fn parse_hex_addr(
    line: u64,
    token: &str,
    field: &'static str,
) -> Result<u64, IngestError> {
    let digits = token.strip_prefix("0x").unwrap_or(token);
    if digits.is_empty() {
        return Err(IngestError::BadField { line, field });
    }
    u64::from_str_radix(digits, 16).map_err(|e| match e.kind() {
        std::num::IntErrorKind::PosOverflow => IngestError::AddressOverflow { line },
        _ => IngestError::BadField { line, field },
    })
}

/// Floors a byte address to its virtual page number.
pub(crate) fn addr_to_page(addr: u64) -> u64 {
    addr >> PAGE_SHIFT
}

/// Number of pages a `[start, end)` byte region covers (start floored, end
/// ceiled; callers have already checked `end > start`).
pub(crate) fn region_pages(start: u64, end: u64) -> u64 {
    let start_page = start >> PAGE_SHIFT;
    let end_page = (end - 1) / PAGE_SIZE + 1;
    end_page - start_page
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_time_handles_fractions() {
        assert_eq!(parse_time(1, "0").unwrap(), 0);
        assert_eq!(parse_time(1, "1.5").unwrap(), 1_500_000_000);
        assert_eq!(parse_time(1, "12.000000001").unwrap(), 12_000_000_001);
        assert_eq!(parse_time(1, "0.123456789").unwrap(), 123_456_789);
    }

    #[test]
    fn parse_time_rejects_garbage() {
        assert!(matches!(
            parse_time(3, "abc"),
            Err(IngestError::BadField {
                line: 3,
                field: "time"
            })
        ));
        assert!(matches!(
            parse_time(4, "1.0000000001"),
            Err(IngestError::BadField { line: 4, .. })
        ));
        assert!(matches!(
            parse_time(5, "99999999999999999999.0"),
            Err(IngestError::TimestampOverflow { line: 5 })
        ));
    }

    #[test]
    fn parse_hex_addr_distinguishes_overflow() {
        assert_eq!(parse_hex_addr(1, "0x1000", "addr").unwrap(), 0x1000);
        assert_eq!(parse_hex_addr(1, "ff", "addr").unwrap(), 0xff);
        assert!(matches!(
            parse_hex_addr(2, "0x1ffffffffffffffff", "addr"),
            Err(IngestError::AddressOverflow { line: 2 })
        ));
        assert!(matches!(
            parse_hex_addr(2, "xyz", "addr"),
            Err(IngestError::BadField {
                line: 2,
                field: "addr"
            })
        ));
    }

    #[test]
    fn region_pages_floors_and_ceils() {
        assert_eq!(region_pages(0, PAGE_SIZE), 1);
        assert_eq!(region_pages(0, PAGE_SIZE + 1), 2);
        assert_eq!(region_pages(100, 200), 1);
        assert_eq!(region_pages(PAGE_SIZE - 1, PAGE_SIZE + 1), 2);
    }

    #[test]
    fn detect_format_routes_both_grammars() {
        assert_eq!(
            detect_format("app 7 [000] 0.5: page-faults: addr=0x1000"),
            Some(LogFormat::PerfScript)
        );
        assert_eq!(
            detect_format("0.100000000 42 7f00000000-7f00004000 3"),
            Some(LogFormat::DamonRegions)
        );
        // The grammar's fraction is optional: whole-second timestamps must
        // route too (regression: detection once required a '.').
        assert_eq!(
            detect_format("5 42 0x10000-0x14000 3"),
            Some(LogFormat::DamonRegions)
        );
        assert_eq!(detect_format("hello world"), None);
        assert_eq!(detect_format("not a-log line here"), None);
    }

    #[test]
    fn traces_come_out_in_ascending_pid_order() {
        let log = "\
b 9 [000] 0.000001000: page-faults: addr=0x2000
a 4 [000] 0.000002000: page-faults: addr=0x1000
b 9 [000] 0.000003000: page-faults: addr=0x3000
";
        let ingested = ingest_str(log, LogFormat::PerfScript).unwrap();
        assert_eq!(ingested.pids(), &[4, 9]);
        assert_eq!(ingested.traces()[0].name(), "a");
        assert_eq!(ingested.traces()[1].name(), "b");
        assert_eq!(ingested.total_accesses(), 3);
        assert_eq!(ingested.event_lines(), 3);
    }

    #[test]
    fn t0_header_sets_the_first_compute_gap() {
        let log = "\
# t0: 0.000000000
app 1 [000] 0.000000700: page-faults: addr=0x1000
";
        let ingested = ingest_str(log, LogFormat::PerfScript).unwrap();
        assert_eq!(ingested.traces()[0].accesses()[0].compute.as_nanos(), 700);
        // Without the header the first event itself is the base: zero gap.
        let ingested = ingest_str(
            "app 1 [000] 0.000000700: page-faults: addr=0x1000\n",
            LogFormat::PerfScript,
        )
        .unwrap();
        assert_eq!(ingested.traces()[0].accesses()[0].compute.as_nanos(), 0);
    }
}
