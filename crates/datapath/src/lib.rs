//! Data-path models: the legacy block-layer path and the lean Leap path.
//!
//! Figure 1 of the paper breaks a remote page access down into software
//! stages (VFS/MMU cache lookup, block-layer request preparation, batching
//! and dispatch, device/transport time). The block layer exists to optimise
//! slow disks; over RDMA it dominates end-to-end latency (§2.2, on average
//! ~34 µs of the ~40 µs total). Leap replaces it with a direct asynchronous
//! remote I/O interface.
//!
//! - [`stages`]: named data-path stages and per-stage latency models.
//! - [`legacy`]: the default Linux-style path (bio construction, plugging and
//!   merging, I/O-scheduler queueing, dispatch).
//! - [`lean`]: Leap's data path (slot lookup plus direct RDMA dispatch).
//!
//! Both paths produce a [`PathLatency`] breakdown so experiments can report
//! stage-by-stage averages (Figure 1) as well as end-to-end distributions
//! (Figures 2, 7, 8a).

pub mod lean;
pub mod legacy;
pub mod stages;

pub use lean::LeanDataPath;
pub use legacy::LegacyDataPath;
pub use stages::{DataPath, PathLatency, Stage};
