//! Wall-clock replay performance harness: serial vs thread-parallel replay.
//!
//! Replays the Figure 11 application mix and a large synthetic trace set
//! through `Simulator::run_multi` in both [`ReplayMode`]s, measures host
//! wall-clock time and replay throughput (pages replayed per second of host
//! time), verifies the two modes produced identical simulated results, and
//! writes the machine-readable trajectory file `BENCH_replay.json`.
//!
//! ```text
//! cargo run --release -p leap-bench --bin perf_harness -- [--quick] \
//!     [--cores N] [--out PATH] [--trace LOG]... [--tenants N] \
//!     [--fault-plan PLAN.json] [--recovery]
//! ```
//!
//! Malformed flags — an unknown flag, a flag missing its value, or a value
//! that does not parse — are reported on stderr with exit code 2.
//!
//! `--quick` shrinks the traces for CI smoke runs. `--trace LOG`
//! (repeatable) adds a recorded fault log (perf-script or DAMON format,
//! auto-detected — see `leap_workloads::ingest`) as an extra workload row,
//! replayed through the same serial/threaded comparison. The reported
//! speedup is `serial wall-clock / threaded wall-clock`; it scales with the
//! host's available cores (the simulated results are bit-identical either
//! way).
//!
//! `--tenants N` additionally runs `N` tenants through the multi-tenant
//! far-memory service (per-tenant budgets, async depth 8) in both replay
//! modes, asserts the two modes' per-tenant QoS reports are bit-identical,
//! and emits a `tenants` section with one row per tenant.
//!
//! `--fault-plan PLAN.json` installs a fault-injection spec (the JSON that
//! `leap::FaultSpec::to_json` emits — see `tests/fixtures/storm_plan.json`)
//! into every workload replay, so churn runs land in `BENCH_replay.json`
//! with their fault accounting; the serial/threaded identity assertion then
//! covers the fault checksums too.
//!
//! `--recovery` additionally installs the tail-tolerant recovery policy
//! (deadlines + retries + hedged reads) into every workload replay; the
//! identity assertion then also covers the recovery-stats checksums, and a
//! `recovery` section with the per-workload counters lands in the output.
//!
//! Schema note: `leap-replay-bench/5` adds the optional top-level
//! `recovery` key (null unless `--recovery` was passed) to
//! `leap-replay-bench/4`, which added the optional `faults` key to `/3`,
//! which itself added the optional `tenants` key to `/2`; nothing else
//! changed, so `/4` consumers that ignore unknown keys read `/5` files
//! unmodified.

use std::time::Instant;

use leap::prelude::*;
use leap::stage_timing::{self, StageBreakdown};
use leap::{FaultSpec, RecoveryPolicy};
use leap_bench::tenant_figures;
use leap_bench::{TraceSource, EXPERIMENT_SEED};
use leap_service::ServiceReport;
use leap_sim_core::Nanos;
use leap_workloads::AccessTrace;

/// Async depth the tenant-service rows run at: deep enough that remote I/O
/// genuinely overlaps compute, bounded so the virtual-time reactor (not the
/// legacy free-overlap path) is what CI exercises.
const TENANT_ASYNC_DEPTH: usize = 8;

/// One workload's measurements in one replay mode.
struct ModeMeasurement {
    wall_ms: f64,
    pages_per_sec: f64,
    completion: Nanos,
    remote_accesses: u64,
    result: RunResult,
    /// Per-stage hot-path time from this mode's dedicated attribution
    /// repeat (all zeros unless the binary was built with `--features
    /// stage-timing`). The wall-clock repeats above run with the probes
    /// inactive, so they never pay for this breakdown.
    stages: StageBreakdown,
}

/// One workload's full row: both modes plus the derived speedup.
struct WorkloadRow {
    name: String,
    processes: usize,
    accesses: u64,
    serial: ModeMeasurement,
    threaded: ModeMeasurement,
    identical: bool,
}

fn config(cores: usize, mode: ReplayMode, fault: FaultSpec, recovery: RecoveryPolicy) -> SimConfig {
    SimConfig::builder()
        .memory_fraction(0.5)
        .cores(cores)
        .sched_quantum(Nanos::from_micros(500))
        .seed(EXPERIMENT_SEED)
        .replay_mode(mode)
        .fault_plan(fault)
        .recovery_policy(recovery)
        .build()
        .expect("valid harness config")
}

/// Replays `traces` once in `mode`, best-of-`repeats` wall-clock.
///
/// The timed repeats run with the stage probes switched off (one
/// predictable branch per probe site), so the headline pages/sec is
/// observer-free; a stage-timing build then runs one extra *attribution*
/// repeat with the probes active to fill the per-stage breakdown. Simulated
/// results are bit-identical either way — the probes read only the host
/// clock.
fn measure(
    traces: &[AccessTrace],
    cores: usize,
    mode: ReplayMode,
    repeats: usize,
    fault: FaultSpec,
    recovery: RecoveryPolicy,
) -> ModeMeasurement {
    let accesses: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    stage_timing::reset();
    stage_timing::set_active(false);
    for _ in 0..repeats.max(1) {
        let sim = VmmSimulator::new(config(cores, mode, fault, recovery));
        let start = Instant::now();
        let result = sim.run_multi(traces);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        best_ms = best_ms.min(elapsed);
        last = Some(result);
    }
    if stage_timing::ENABLED {
        stage_timing::set_active(true);
        let sim = VmmSimulator::new(config(cores, mode, fault, recovery));
        let _ = sim.run_multi(traces);
        stage_timing::set_active(false);
    }
    let stages = stage_timing::snapshot();
    let result = last.expect("at least one repeat");
    ModeMeasurement {
        wall_ms: best_ms,
        pages_per_sec: accesses as f64 / (best_ms / 1e3),
        completion: result.completion_time,
        remote_accesses: result.remote_accesses,
        result,
        stages,
    }
}

/// True when two runs produced bit-identical simulated outcomes: every
/// counter, the cache statistics, and the exact latency distributions.
fn results_identical(a: &mut RunResult, b: &mut RunResult) -> bool {
    a.completion_time == b.completion_time
        && a.total_accesses == b.total_accesses
        && a.remote_accesses == b.remote_accesses
        && a.first_touch_faults == b.first_touch_faults
        && a.pages_swapped_out == b.pages_swapped_out
        && a.cache_stats == b.cache_stats
        && a.prefetch_stats.pages_prefetched() == b.prefetch_stats.pages_prefetched()
        && a.prefetch_stats.prefetch_hits() == b.prefetch_stats.prefetch_hits()
        && a.access_latency.sorted_samples() == b.access_latency.sorted_samples()
        && a.remote_access_latency.sorted_samples() == b.remote_access_latency.sorted_samples()
        && a.allocation_wait.sorted_samples() == b.allocation_wait.sorted_samples()
        && a.eviction_wait.sorted_samples() == b.eviction_wait.sorted_samples()
        && a.fault_stats == b.fault_stats
        && a.recovery_stats == b.recovery_stats
        && a.tenant_recovery == b.tenant_recovery
}

/// One replay mode's wall-clock measurement of the tenant service run.
struct TenantModeMeasurement {
    wall_ms: f64,
    report: ServiceReport,
}

/// Best-of-`repeats` wall clock for a full `--tenants N` service run.
fn measure_tenants(
    n: usize,
    accesses: usize,
    mode: ReplayMode,
    repeats: usize,
) -> TenantModeMeasurement {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let report = tenant_figures::run_tenants(n, accesses, TENANT_ASYNC_DEPTH, mode);
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(report);
    }
    TenantModeMeasurement {
        wall_ms: best_ms,
        report: last.expect("at least one repeat"),
    }
}

/// Bit-identity of two service runs: admission plan, wave makespans,
/// pipeline counters, per-tenant eviction attribution, and every tenant's
/// full QoS report (counters, percentiles, both event-stream checksums).
fn service_reports_identical(a: &ServiceReport, b: &ServiceReport) -> bool {
    a.admission == b.admission
        && a.waves.len() == b.waves.len()
        && a.waves.iter().zip(&b.waves).all(|(wa, wb)| {
            wa.makespan == wb.makespan
                && wa.result.pipeline == wb.result.pipeline
                && wa.result.tenant_evictions == wb.result.tenant_evictions
                && wa.tenants == wb.tenants
        })
}

fn run_workload(
    name: String,
    traces: Vec<AccessTrace>,
    cores: usize,
    repeats: usize,
    fault: FaultSpec,
    recovery: RecoveryPolicy,
) -> WorkloadRow {
    let accesses: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let mut serial = measure(&traces, cores, ReplayMode::Serial, repeats, fault, recovery);
    let mut threaded = measure(
        &traces,
        cores,
        ReplayMode::Threaded,
        repeats,
        fault,
        recovery,
    );
    // Both modes must agree on the full simulated outcome (every counter
    // and the exact latency distributions) — this doubles as a determinism
    // smoke check on every harness run.
    let identical = results_identical(&mut serial.result, &mut threaded.result);
    WorkloadRow {
        name,
        processes: traces.len(),
        accesses,
        serial,
        threaded,
        identical,
    }
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`); 0 when unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

fn json_mode(m: &ModeMeasurement) -> String {
    format!(
        concat!(
            "{{\"wall_ms\":{:.3},\"pages_per_sec\":{:.0},",
            "\"sim_completion_ns\":{},\"remote_accesses\":{},",
            "\"stage_breakdown\":{}}}"
        ),
        m.wall_ms,
        m.pages_per_sec,
        m.completion.as_nanos(),
        m.remote_accesses,
        json_stages(&m.stages),
    )
}

/// The per-stage hot-path breakdown from the mode's attribution repeat (so
/// the *shares* are what matters, not the absolute ms). All zeros without
/// `--features stage-timing`.
fn json_stages(s: &StageBreakdown) -> String {
    format!(
        concat!(
            "{{\"prefetcher_ms\":{:.3},\"data_path_ms\":{:.3},",
            "\"cache_ms\":{:.3},\"eviction_ms\":{:.3}}}"
        ),
        s.prefetcher_ns as f64 / 1e6,
        s.data_path_ns as f64 / 1e6,
        s.cache_ns as f64 / 1e6,
        s.eviction_ns as f64 / 1e6,
    )
}

/// The harness's command line, parsed.
#[derive(Debug, PartialEq, Eq)]
struct HarnessOptions {
    quick: bool,
    cores: usize,
    out: String,
    trace_logs: Vec<String>,
    tenants: usize,
    fault_plan: Option<String>,
    recovery: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            quick: false,
            cores: 4,
            out: "BENCH_replay.json".to_string(),
            trace_logs: Vec::new(),
            tenants: 0,
            fault_plan: None,
            recovery: false,
        }
    }
}

/// A malformed command line: the binary reports it on stderr and exits 2
/// rather than running with a silently substituted default.
#[derive(Debug, PartialEq, Eq)]
enum HarnessArgError {
    /// An argument matched no known flag.
    UnknownFlag { flag: String },
    /// A flag that requires a value was the last argument.
    MissingValue { flag: String },
    /// A flag value failed to parse (or is out of range).
    InvalidValue { flag: String, value: String },
}

impl std::fmt::Display for HarnessArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessArgError::UnknownFlag { flag } => write!(f, "unknown flag {flag}"),
            HarnessArgError::MissingValue { flag } => write!(f, "flag {flag} requires a value"),
            HarnessArgError::InvalidValue { flag, value } => {
                write!(f, "invalid value {value:?} for {flag}")
            }
        }
    }
}

impl std::error::Error for HarnessArgError {}

/// Parses the argument list (without the program name).
fn parse_args(args: &[String]) -> Result<HarnessOptions, HarnessArgError> {
    let mut opts = HarnessOptions::default();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .cloned()
                .ok_or(HarnessArgError::MissingValue { flag: flag.clone() })
        };
        let count = |value: String, min: usize| match value.parse::<usize>() {
            Ok(n) if n >= min => Ok(n),
            _ => Err(HarnessArgError::InvalidValue {
                flag: flag.clone(),
                value,
            }),
        };
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--recovery" => opts.recovery = true,
            "--cores" => opts.cores = count(value()?, 1)?,
            "--tenants" => opts.tenants = count(value()?, 0)?,
            "--out" => opts.out = value()?,
            "--trace" => opts.trace_logs.push(value()?),
            "--fault-plan" => opts.fault_plan = Some(value()?),
            _ => return Err(HarnessArgError::UnknownFlag { flag: flag.clone() }),
        }
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let HarnessOptions {
        quick,
        cores,
        out: out_path,
        trace_logs,
        tenants,
        fault_plan: fault_plan_path,
        recovery,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perf_harness: {e}");
        std::process::exit(2);
    });
    let fault = fault_plan_path
        .as_deref()
        .map(|path| {
            let contents = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("failed to read fault plan {path}: {e}");
                std::process::exit(2);
            });
            FaultSpec::from_json(&contents).unwrap_or_else(|e| {
                eprintln!("invalid fault plan {path}: {e}");
                std::process::exit(2);
            })
        })
        .unwrap_or(FaultSpec::none());
    let recovery = if recovery {
        RecoveryPolicy::tail_tolerant()
    } else {
        RecoveryPolicy::none()
    };

    let (app_accesses, synth_accesses, repeats) = if quick {
        (10_000, 20_000, 2)
    } else {
        (60_000, 150_000, 3)
    };
    let tenant_accesses = if quick { 2_000 } else { 8_000 };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "replay perf harness: {cores} shards on {host_cores} host core(s){}",
        if quick { " [quick]" } else { "" }
    );

    let mut sources = vec![
        TraceSource::Fig11Mix {
            accesses: app_accesses,
        },
        TraceSource::SyntheticLarge {
            accesses_per_proc: synth_accesses,
        },
    ];
    sources.extend(
        trace_logs
            .iter()
            .map(|p| TraceSource::FaultLog { path: p.into() }),
    );

    let rows: Vec<WorkloadRow> = sources
        .iter()
        .map(|source| {
            let traces = source.load().unwrap_or_else(|e| {
                eprintln!("failed to load {}: {e}", source.label());
                std::process::exit(2);
            });
            run_workload(source.label(), traces, cores, repeats, fault, recovery)
        })
        .collect();

    if fault.is_active() {
        println!(
            "fault plan: {} spikes, {} degraded epochs, {} machine failures, {} storms over \
             [{} ns, {} ns)",
            fault.latency_spikes,
            fault.degraded_epochs,
            fault.machine_failures,
            fault.reconnect_storms,
            fault.start.as_nanos(),
            fault.horizon.as_nanos(),
        );
    }
    if recovery.is_active() {
        println!(
            "recovery policy: {} ns deadline, {} retries, {} ns hedge delay",
            recovery.timeout.as_nanos(),
            recovery.max_retries,
            recovery.hedge_delay.as_nanos(),
        );
    }

    println!(
        "{:<16} {:>9} {:>12} {:>12} {:>14} {:>14} {:>8} {:>6}",
        "workload",
        "accesses",
        "serial ms",
        "threaded ms",
        "serial pg/s",
        "threaded pg/s",
        "speedup",
        "equal"
    );
    for row in &rows {
        let speedup = row.serial.wall_ms / row.threaded.wall_ms;
        println!(
            "{:<16} {:>9} {:>12.1} {:>12.1} {:>14.0} {:>14.0} {:>7.2}x {:>6}",
            row.name,
            row.accesses,
            row.serial.wall_ms,
            row.threaded.wall_ms,
            row.serial.pages_per_sec,
            row.threaded.pages_per_sec,
            speedup,
            row.identical,
        );
        assert!(
            row.identical,
            "{}: serial and threaded replays diverged",
            row.name
        );
    }

    let tenant_section = (tenants > 0).then(|| {
        let serial = measure_tenants(tenants, tenant_accesses, ReplayMode::Serial, repeats);
        let threaded = measure_tenants(tenants, tenant_accesses, ReplayMode::Threaded, repeats);
        let identical = service_reports_identical(&serial.report, &threaded.report);
        let aggregate: f64 = serial
            .report
            .waves
            .iter()
            .map(|w| w.aggregate_pages_per_sec)
            .sum();
        println!(
            "\ntenant service: {tenants} tenants x {tenant_accesses} accesses \
             (async depth {TENANT_ASYNC_DEPTH}): serial {:.1} ms, threaded {:.1} ms, \
             {aggregate:.0} simulated pages/s, identical {identical}",
            serial.wall_ms, threaded.wall_ms,
        );
        for (id, qos) in serial.report.tenant_reports() {
            println!(
                "  {id}: {:.0} pages/s, p50 {:.1} us, p99 {:.1} us, hit ratio {:.2}",
                qos.pages_per_sec,
                qos.p50_fault_latency.as_nanos() as f64 / 1e3,
                qos.p99_fault_latency.as_nanos() as f64 / 1e3,
                qos.hit_ratio,
            );
        }
        assert!(identical, "tenant service: replay modes diverged");
        let rows: Vec<String> = serial
            .report
            .tenant_reports()
            .map(|(id, qos)| {
                format!(
                    concat!(
                        "{{\"tenant\":\"{}\",\"accesses\":{},",
                        "\"remote_accesses\":{},\"pages_per_sec\":{:.0},",
                        "\"p50_fault_us\":{:.3},\"p99_fault_us\":{:.3},",
                        "\"hit_ratio\":{:.4},\"behavior_checksum\":\"{:#018x}\",",
                        "\"timing_checksum\":\"{:#018x}\"}}"
                    ),
                    id,
                    qos.accesses,
                    qos.remote_accesses,
                    qos.pages_per_sec,
                    qos.p50_fault_latency.as_nanos() as f64 / 1e3,
                    qos.p99_fault_latency.as_nanos() as f64 / 1e3,
                    qos.hit_ratio,
                    qos.behavior_checksum,
                    qos.timing_checksum,
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"count\":{},\"accesses_per_tenant\":{},",
                "\"async_depth\":{},\"serial_wall_ms\":{:.3},",
                "\"threaded_wall_ms\":{:.3},\"aggregate_pages_per_sec\":{:.0},",
                "\"identical_results\":{},\"rows\":[{}]}}"
            ),
            tenants,
            tenant_accesses,
            TENANT_ASYNC_DEPTH,
            serial.wall_ms,
            threaded.wall_ms,
            aggregate,
            identical,
            rows.join(","),
        )
    });

    if stage_timing::ENABLED {
        println!("\nper-stage hot-path time (serial mode, attribution repeat):");
        for row in &rows {
            let s = &row.serial.stages;
            let total = s.total_ns().max(1) as f64;
            println!(
                "{:<16} prefetcher {:>6.1}ms ({:>4.1}%)  data-path {:>6.1}ms ({:>4.1}%)  \
                 cache {:>6.1}ms ({:>4.1}%)  eviction {:>6.1}ms ({:>4.1}%)",
                row.name,
                s.prefetcher_ns as f64 / 1e6,
                s.prefetcher_ns as f64 * 100.0 / total,
                s.data_path_ns as f64 / 1e6,
                s.data_path_ns as f64 * 100.0 / total,
                s.cache_ns as f64 / 1e6,
                s.cache_ns as f64 * 100.0 / total,
                s.eviction_ns as f64 / 1e6,
                s.eviction_ns as f64 * 100.0 / total,
            );
        }
    }

    let workloads_json: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"processes\":{},\"accesses\":{},",
                    "\"serial\":{},\"threaded\":{},",
                    "\"speedup\":{:.3},\"identical_results\":{}}}"
                ),
                row.name,
                row.processes,
                row.accesses,
                json_mode(&row.serial),
                json_mode(&row.threaded),
                row.serial.wall_ms / row.threaded.wall_ms,
                row.identical,
            )
        })
        .collect();
    // The churn section: the spec that was injected plus each workload's
    // fault accounting from the serial run (the threaded run is asserted
    // bit-identical above, so one copy suffices).
    let faults_section = fault.is_active().then(|| {
        let fault_rows: Vec<String> = rows
            .iter()
            .map(|row| {
                let f = &row.serial.result.fault_stats;
                format!(
                    concat!(
                        "{{\"name\":\"{}\",\"spiked_requests\":{},",
                        "\"degraded_requests\":{},\"reconnect_requests\":{},",
                        "\"machines_failed\":{},\"cancelled_requests\":{},",
                        "\"slabs_rereplicated\":{},\"slabs_lost\":{},",
                        "\"reconstruction_cost_ns\":{},\"checksum\":\"{:#018x}\"}}"
                    ),
                    row.name,
                    f.spiked_requests,
                    f.degraded_requests,
                    f.reconnect_requests,
                    f.machines_failed,
                    f.cancelled_requests,
                    f.slabs_rereplicated,
                    f.slabs_lost,
                    f.reconstruction_cost_total.as_nanos(),
                    f.checksum,
                )
            })
            .collect();
        format!(
            "{{\"spec\":{},\"rows\":[{}]}}",
            fault.to_json(),
            fault_rows.join(","),
        )
    });
    // The recovery section: the active policy plus each workload's recovery
    // counters from the serial run (cross-mode identity is asserted above,
    // recovery checksums included).
    let recovery_section = recovery.is_active().then(|| {
        let recovery_rows: Vec<String> = rows
            .iter()
            .map(|row| {
                let r = &row.serial.result.recovery_stats;
                format!(
                    concat!(
                        "{{\"name\":\"{}\",\"deadline_timeouts\":{},",
                        "\"retries\":{},\"backoff_wait_total_ns\":{},",
                        "\"hedges_issued\":{},\"hedges_won\":{},",
                        "\"hedges_wasted\":{},\"degraded_reads\":{},",
                        "\"partition_failfasts\":{},\"checksum\":\"{:#018x}\"}}"
                    ),
                    row.name,
                    r.deadline_timeouts,
                    r.retries,
                    r.backoff_wait_total.as_nanos(),
                    r.hedges_issued,
                    r.hedges_won,
                    r.hedges_wasted,
                    r.degraded_reads,
                    r.partition_failfasts,
                    r.checksum,
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"policy\":{{\"timeout_ns\":{},\"max_retries\":{},",
                "\"backoff_base_ns\":{},\"backoff_jitter_ns\":{},",
                "\"hedge_delay_ns\":{}}},\"rows\":[{}]}}"
            ),
            recovery.timeout.as_nanos(),
            recovery.max_retries,
            recovery.backoff_base.as_nanos(),
            recovery.backoff_jitter.as_nanos(),
            recovery.hedge_delay.as_nanos(),
            recovery_rows.join(","),
        )
    });

    // Schema /5 = /4 plus the optional `recovery` key (see module docs).
    let json = format!(
        concat!(
            "{{\"schema\":\"leap-replay-bench/5\",\"quick\":{},",
            "\"shards\":{},\"host_cores\":{},\"peak_rss_kb\":{},",
            "\"stage_timing\":{},",
            "\"workloads\":[{}],",
            "\"tenants\":{},",
            "\"faults\":{},",
            "\"recovery\":{}}}\n"
        ),
        quick,
        cores,
        host_cores,
        peak_rss_kb(),
        stage_timing::ENABLED,
        workloads_json.join(","),
        tenant_section.unwrap_or_else(|| "null".to_string()),
        faults_section.unwrap_or_else(|| "null".to_string()),
        recovery_section.unwrap_or_else(|| "null".to_string()),
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path} (peak RSS {} kB)", peak_rss_kb());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessOptions, HarnessArgError> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn invalid(flag: &str, value: &str) -> HarnessArgError {
        HarnessArgError::InvalidValue {
            flag: flag.to_string(),
            value: value.to_string(),
        }
    }

    #[test]
    fn no_flags_give_the_defaults() {
        assert_eq!(parse(&[]), Ok(HarnessOptions::default()));
    }

    #[test]
    fn the_ci_invocation_parses() {
        let opts = parse(&["--quick", "--tenants", "8", "--out", "BENCH_replay.json"]).unwrap();
        assert_eq!(
            opts,
            HarnessOptions {
                quick: true,
                tenants: 8,
                ..HarnessOptions::default()
            }
        );
    }

    #[test]
    fn every_flag_is_recognised() {
        let opts = parse(&[
            "--cores",
            "2",
            "--trace",
            "a.log",
            "--trace",
            "b.log",
            "--fault-plan",
            "plan.json",
            "--recovery",
            "--out",
            "x.json",
        ])
        .unwrap();
        assert_eq!(opts.cores, 2);
        assert_eq!(opts.trace_logs, ["a.log", "b.log"]);
        assert_eq!(opts.fault_plan.as_deref(), Some("plan.json"));
        assert!(opts.recovery);
        assert_eq!(opts.out, "x.json");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert_eq!(
            parse(&["--core", "2"]),
            Err(HarnessArgError::UnknownFlag {
                flag: "--core".to_string()
            })
        );
        assert_eq!(
            parse(&["--quick", "stray"]),
            Err(HarnessArgError::UnknownFlag {
                flag: "stray".to_string()
            })
        );
    }

    #[test]
    fn trailing_value_flags_are_missing_their_value() {
        for flag in ["--cores", "--tenants", "--out", "--trace", "--fault-plan"] {
            assert_eq!(
                parse(&["--quick", flag]),
                Err(HarnessArgError::MissingValue {
                    flag: flag.to_string()
                }),
                "{flag}"
            );
        }
    }

    #[test]
    fn malformed_counts_are_invalid_values() {
        assert_eq!(parse(&["--cores", "abc"]), Err(invalid("--cores", "abc")));
        assert_eq!(parse(&["--cores", "0"]), Err(invalid("--cores", "0")));
        assert_eq!(parse(&["--cores", "-1"]), Err(invalid("--cores", "-1")));
        assert_eq!(parse(&["--tenants", "x"]), Err(invalid("--tenants", "x")));
        assert_eq!(parse(&["--tenants", "0"]).map(|o| o.tenants), Ok(0));
    }

    #[test]
    fn errors_name_the_flag() {
        let message = parse(&["--cores", "abc"]).unwrap_err().to_string();
        assert!(
            message.contains("--cores") && message.contains("abc"),
            "{message}"
        );
    }
}
