//! Remote-memory substrate for the Leap reproduction.
//!
//! The paper's testbed exposes remote DRAM over 56 Gbps InfiniBand through a
//! host agent that maps fixed-size memory slabs onto one or more remote
//! machines (§4.4–4.5). This crate models that stack, plus the slower local
//! storage devices (HDD, SSD) used as baselines:
//!
//! - [`backend`]: latency models for HDD, SSD, and RDMA 4 KB page transfers,
//!   calibrated to the stage costs the paper reports in Figure 1.
//! - [`slab`]: fixed-size remote memory slabs and the remote machines that
//!   host them.
//! - [`agent`]: the host agent — slab placement with the power of two
//!   choices, optional replication, and address translation from swap-slot
//!   offsets to `(machine, slab)` locations.
//! - [`device`]: the transfer both data paths share — a backend behind its
//!   per-core dispatch queues, under the installed fault schedule.
//! - [`dispatch`]: per-core RDMA dispatch queues with queueing-delay
//!   accounting.
//! - [`fault`]: seeded, deterministic fault injection — latency-spike and
//!   degraded-bandwidth epochs, mid-run machine failures with slab failover
//!   and re-replication, reconnect storms, and link-level partial
//!   partitions, all scheduled in virtual time from a `(seed, spec)` pair.
//! - [`recovery`]: the active recovery layer — virtual-time deadlines with
//!   retry/backoff, hedged reads across slab replicas, and graceful
//!   degradation to the disk path when partitions isolate every replica.

pub mod agent;
pub mod backend;
pub mod device;
pub mod dispatch;
pub mod fault;
pub mod recovery;
pub mod slab;

pub use agent::{HostAgent, HostAgentConfig, RemoteIoKind};
pub use backend::{BackendKind, StorageBackend};
pub use device::Device;
pub use fault::{FaultInjectionStats, FaultPlan, FaultSpec};
pub use recovery::{RecoveryPolicy, RecoveryStats, TenantRecovery, RECOVERY_SALT};
pub use slab::{RemoteCluster, DEFAULT_SLAB_BYTES};
