//! A multi-tenant far-memory paging service on top of the Leap engine.
//!
//! This crate turns the single-run simulator core into a *service*: many
//! tenants — each one an access trace (typically ingested from a real fault
//! log via [`leap_workloads::ingest`]) plus a resident-memory budget —
//! are admitted against the service's local-memory capacity, co-scheduled
//! in waves, and replayed through [`leap::VmmSimulator`] with their budgets
//! enforced by the engine's cgroup-style tenant ledger.
//!
//! The service reports per-tenant QoS ([`qos::TenantQosReport`]): paging
//! throughput, p50/p99 fault latency, cache hit ratio, and two checksums
//! pinning determinism — a latency-blind *behavior* checksum (invariant
//! across [`leap::SimConfigBuilder::async_depth`] settings when the engine
//! makes the same decisions) and a full *timing* checksum (bit-identical
//! across [`leap::ReplayMode`]s).
//!
//! ```
//! use leap::SimConfig;
//! use leap_service::{AdmissionPolicy, FarMemoryService, TenantSpec};
//! use leap_sim_core::units::MIB;
//!
//! let config = SimConfig::builder().memory_fraction(0.5).build().unwrap();
//! let mut service = FarMemoryService::new(config, 1_000, AdmissionPolicy::Queue);
//! service.register(TenantSpec::new(leap_workloads::sequential_trace(MIB, 2), 128));
//! service.register(TenantSpec::new(leap_workloads::stride_trace(MIB, 10, 2), 900));
//! let report = service.run();
//! assert_eq!(report.admission.admitted_count(), 2);
//! assert_eq!(report.waves.len(), 2); // 128 + 900 pages do not fit together
//! ```

#![warn(missing_docs)]

pub mod qos;
pub mod service;
pub mod tenant;

pub use qos::TenantQos;
pub use service::{FarMemoryService, ServiceReport};
pub use tenant::{AdmissionPolicy, TenantSpec};
