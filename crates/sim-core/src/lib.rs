//! Simulation substrate for the Leap reproduction.
//!
//! The original Leap system is a Linux-kernel data path measured on a real
//! InfiniBand testbed. This crate provides the deterministic simulation
//! primitives every other crate in the workspace builds on:
//!
//! - [`time`]: nanosecond-resolution simulated time ([`Nanos`]) and helpers.
//! - [`clock`]: a monotonically advancing simulation clock ([`SimClock`]).
//! - [`rng`]: a small, seedable, deterministic random number generator
//!   ([`DetRng`]) so that every experiment is reproducible bit-for-bit.
//! - [`latency`]: latency samplers ([`LatencySampler`]) used to model device
//!   and software-stage costs (constant, uniform, normal, log-normal and
//!   empirical mixtures with heavy tails).
//! - [`units`]: byte-size constants and page geometry shared by all crates.
//! - [`hash`]: a dependency-free FxHash-style hasher ([`FxHashMap`]) for the
//!   hot maps every fault probes — deterministic and ~an order of magnitude
//!   cheaper than SipHash on the small integer keys used here — plus the
//!   FNV fold ([`hash::checksum_fold`]) every event-stream checksum uses.
//!
//! Everything is `std`-only and allocation-light; the hot paths (sampling a
//! latency, advancing the clock, hashing a key) are O(1).

pub mod clock;
pub mod hash;
pub mod latency;
pub mod rng;
pub mod time;
pub mod units;

pub use clock::SimClock;
pub use hash::{fx_map_with_capacity, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use latency::{
    scale_nanos_milli, ConstantLatency, EmpiricalLatency, LatencySampler, LogNormalLatency,
    MixtureLatency, NormalLatency, TableLatency, UniformLatency, MULTIPLIER_IDENTITY_MILLI,
    TABLE_SIZE,
};
pub use rng::DetRng;
pub use time::Nanos;
pub use units::{GIB, KIB, MIB, PAGE_SHIFT, PAGE_SIZE};
