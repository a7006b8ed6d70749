//! [`TraceSource`]: where a benchmark workload's traces come from.
//!
//! A workload is either the generated Figure 11 application mix or a
//! recorded fault log from the trace-ingestion subsystem. `TraceSource`
//! names both so the arena's corpus rows and its `--trace PATH` flag
//! resolve workloads the same way.

use leap_sim_core::units::MIB;
use leap_workloads::ingest::{ingest_path, IngestError};
use leap_workloads::{AccessTrace, AppKind, AppModel};
use std::path::PathBuf;

use crate::EXPERIMENT_SEED;

/// A named source of multi-process benchmark traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSource {
    /// The Figure 11 application mix: all four paper applications side by
    /// side, `accesses` accesses each over 8 MiB working sets.
    Fig11Mix {
        /// Accesses per application trace.
        accesses: usize,
    },
    /// A recorded fault log (perf-script page faults or DAMON region
    /// samples, auto-detected), demultiplexed into one trace per pid.
    FaultLog {
        /// Path to the log file.
        path: PathBuf,
    },
}

impl TraceSource {
    /// The workload-row label this source reports under.
    pub fn label(&self) -> String {
        match self {
            TraceSource::Fig11Mix { .. } => "fig11-app-mix".to_string(),
            TraceSource::FaultLog { path } => {
                let stem = path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "log".to_string());
                format!("ingested-{stem}")
            }
        }
    }

    /// Materializes the source's traces. Only [`TraceSource::FaultLog`] can
    /// fail (I/O or a malformed log).
    pub fn load(&self) -> Result<Vec<AccessTrace>, IngestError> {
        match self {
            TraceSource::Fig11Mix { accesses } => Ok(AppKind::ALL
                .iter()
                .map(|&kind| {
                    AppModel::new(kind, EXPERIMENT_SEED)
                        .with_working_set(8 * MIB)
                        .with_accesses(*accesses)
                        .generate()
                })
                .collect()),
            TraceSource::FaultLog { path } => Ok(ingest_path(path)?.into_traces()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_sources_load_and_label() {
        let mix = TraceSource::Fig11Mix { accesses: 500 };
        assert_eq!(mix.label(), "fig11-app-mix");
        assert_eq!(mix.load().unwrap().len(), AppKind::ALL.len());
    }

    #[test]
    fn fault_log_source_ingests_the_committed_fixture() {
        let path =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/perf_faults.log");
        let source = TraceSource::FaultLog { path };
        assert_eq!(source.label(), "ingested-perf_faults");
        let traces = source.load().expect("fixture ingests");
        assert!(!traces.is_empty());
        assert!(traces.iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn missing_fault_log_is_a_typed_error() {
        let source = TraceSource::FaultLog {
            path: PathBuf::from("/nonexistent/faults.log"),
        };
        assert!(matches!(source.load(), Err(IngestError::Io(_))));
    }
}
