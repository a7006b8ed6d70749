//! Latency models for the storage and remote-memory backends.
//!
//! The paper's Figure 1 reports average 4 KB page access costs of roughly
//! 91.5 µs for HDD, 20 µs for SSD, and 4.3 µs for an RDMA read over 56 Gbps
//! InfiniBand. The samplers here are calibrated to those medians with
//! realistic spreads: log-normal bodies (software + device variance) plus a
//! small probability of much slower outliers (seek storms, SSD GC pauses,
//! network congestion) so the tail behaviour in the latency CDFs is
//! meaningful.

use crate::agent::RemoteIoKind;
use leap_sim_core::{DetRng, Nanos, TableLatency};

/// The kind of slower-tier backing store a page lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// A spinning disk (average 4 KB access ≈ 91.5 µs).
    Hdd,
    /// A SATA/NVMe-class SSD (average 4 KB access ≈ 20 µs).
    Ssd,
    /// Remote DRAM over RDMA (average 4 KB op ≈ 4.3 µs).
    Rdma,
}

impl BackendKind {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Hdd => "HDD",
            BackendKind::Ssd => "SSD",
            BackendKind::Rdma => "RDMA",
        }
    }

    /// The nominal (median) 4 KB access latency from the paper's Figure 1.
    pub fn nominal_latency(self) -> Nanos {
        match self {
            BackendKind::Hdd => Nanos::from_micros_f64(91.48),
            BackendKind::Ssd => Nanos::from_micros_f64(20.0),
            BackendKind::Rdma => Nanos::from_micros_f64(4.3),
        }
    }
}

/// A backing store with separate read and write latency distributions.
#[derive(Debug)]
pub struct StorageBackend {
    read: TableLatency,
    write: TableLatency,
}

impl StorageBackend {
    /// Creates a backend of the given kind with the paper-calibrated
    /// latency distribution.
    pub fn new(kind: BackendKind) -> Self {
        match kind {
            BackendKind::Hdd => Self::hdd(),
            BackendKind::Ssd => Self::ssd(),
            BackendKind::Rdma => Self::rdma(),
        }
    }

    /// A spinning-disk backend: ~91.5 µs median with multi-millisecond seek
    /// outliers.
    ///
    /// The body/outlier mixture is folded into one precomputed quantile
    /// table per direction ([`TableLatency::from_lognormal_mixture`]): one
    /// RNG draw and a linear interpolation per sample instead of a mixture
    /// pick plus per-component log-normal math.
    pub(crate) fn hdd() -> Self {
        let mixture = [
            (
                0.97,
                Nanos::from_micros_f64(91.48),
                0.35,
                Nanos::from_micros(40),
            ),
            (
                0.03,
                Nanos::from_millis_f64(4.5),
                0.30,
                Nanos::from_millis(1),
            ),
        ];
        StorageBackend {
            read: TableLatency::from_lognormal_mixture(&mixture),
            write: TableLatency::from_lognormal_mixture(&mixture),
        }
    }

    /// An SSD backend: ~20 µs median reads, slower writes, and rare
    /// garbage-collection stalls.
    pub(crate) fn ssd() -> Self {
        let gc_stall = (Nanos::from_micros_f64(400.0), 0.50, Nanos::from_micros(100));
        StorageBackend {
            read: TableLatency::from_lognormal_mixture(&[
                (
                    0.995,
                    Nanos::from_micros_f64(20.0),
                    0.25,
                    Nanos::from_micros(8),
                ),
                (0.005, gc_stall.0, gc_stall.1, gc_stall.2),
            ]),
            write: TableLatency::from_lognormal_mixture(&[
                (
                    0.99,
                    Nanos::from_micros_f64(30.0),
                    0.30,
                    Nanos::from_micros(10),
                ),
                (0.01, gc_stall.0, gc_stall.1, gc_stall.2),
            ]),
        }
    }

    /// A remote-DRAM-over-RDMA backend: ~4.3 µs median one-sided 4 KB reads
    /// with a long congestion tail (the paper's §2.2 observation that single
    /// µs latency is "often wishful thinking").
    pub(crate) fn rdma() -> Self {
        let mixture = [
            (
                0.99,
                Nanos::from_micros_f64(4.3),
                0.25,
                Nanos::from_micros(2),
            ),
            (
                0.01,
                Nanos::from_micros_f64(40.0),
                0.40,
                Nanos::from_micros(10),
            ),
        ];
        StorageBackend {
            read: TableLatency::from_lognormal_mixture(&mixture),
            write: TableLatency::from_lognormal_mixture(&mixture),
        }
    }

    /// A backend whose every sample is `latency`, for tests that need exact
    /// arithmetic: a log-normal table whose floor is its median and whose
    /// sigma is too small to move any knot above it. Each sample still
    /// draws once from the RNG stream, like every table.
    #[cfg(test)]
    pub(crate) fn constant(latency: Nanos) -> Self {
        let table = TableLatency::from_lognormal(latency, f64::MIN_POSITIVE, latency);
        StorageBackend {
            read: table.clone(),
            write: table,
        }
    }

    /// Samples the latency of a 4 KB read.
    pub fn read_latency(&self, rng: &mut DetRng) -> Nanos {
        self.read.sample(rng)
    }

    /// Samples the latency of a 4 KB write.
    #[cfg(test)]
    pub(crate) fn write_latency(&self, rng: &mut DetRng) -> Nanos {
        self.write.sample(rng)
    }

    /// Samples the latency of a 4 KB `kind` transfer and scales it by a
    /// fault-epoch multiplier in thousandths (`1000` = identity).
    ///
    /// The sample is always drawn, so the RNG stream advances identically
    /// whether or not a fault epoch is active — the determinism contract for
    /// empty fault plans depends on this.
    pub(crate) fn sample_scaled(
        &self,
        kind: RemoteIoKind,
        rng: &mut DetRng,
        multiplier_milli: u64,
    ) -> Nanos {
        match kind {
            RemoteIoKind::Read => self.read.sample_scaled(rng, multiplier_milli),
            RemoteIoKind::Write => self.write.sample_scaled(rng, multiplier_milli),
        }
    }

    /// The nominal (median) read latency of this backend.
    pub(crate) fn nominal_read_latency(&self) -> Nanos {
        self.read.nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median_read(backend: &StorageBackend, samples: usize) -> f64 {
        let mut rng = DetRng::seed_from(42);
        let mut values: Vec<u64> = (0..samples)
            .map(|_| backend.read_latency(&mut rng).as_nanos())
            .collect();
        values.sort_unstable();
        values[values.len() / 2] as f64
    }

    #[test]
    fn labels_and_nominals() {
        assert_eq!(BackendKind::Hdd.label(), "HDD");
        assert_eq!(
            BackendKind::Rdma.nominal_latency(),
            Nanos::from_nanos(4_300)
        );
        assert_eq!(BackendKind::Ssd.nominal_latency(), Nanos::from_micros(20));
    }

    #[test]
    fn medians_track_paper_figures() {
        // Medians must land within 15 % of the paper's Figure 1 numbers.
        let hdd = median_read(&StorageBackend::hdd(), 20_000);
        assert!((hdd - 91_480.0).abs() / 91_480.0 < 0.15, "hdd median {hdd}");
        let ssd = median_read(&StorageBackend::ssd(), 20_000);
        assert!((ssd - 20_000.0).abs() / 20_000.0 < 0.15, "ssd median {ssd}");
        let rdma = median_read(&StorageBackend::rdma(), 20_000);
        assert!(
            (rdma - 4_300.0).abs() / 4_300.0 < 0.15,
            "rdma median {rdma}"
        );
    }

    #[test]
    fn latency_ordering_is_hdd_slowest_rdma_fastest() {
        let hdd = median_read(&StorageBackend::hdd(), 5_000);
        let ssd = median_read(&StorageBackend::ssd(), 5_000);
        let rdma = median_read(&StorageBackend::rdma(), 5_000);
        assert!(hdd > ssd && ssd > rdma);
    }

    #[test]
    fn rdma_has_a_meaningful_tail() {
        let backend = StorageBackend::rdma();
        let mut rng = DetRng::seed_from(7);
        let mut values: Vec<u64> = (0..50_000)
            .map(|_| backend.read_latency(&mut rng).as_nanos())
            .collect();
        values.sort_unstable();
        let median = values[values.len() / 2];
        let p999 = values[(values.len() as f64 * 0.999) as usize];
        assert!(
            p999 > 4 * median,
            "p999 {p999} vs median {median}: tail too light"
        );
    }

    #[test]
    fn constant_backend_is_deterministic() {
        let backend = StorageBackend::constant(Nanos::from_micros(5));
        let mut rng = DetRng::seed_from(1);
        for _ in 0..10 {
            assert_eq!(backend.read_latency(&mut rng), Nanos::from_micros(5));
            assert_eq!(backend.write_latency(&mut rng), Nanos::from_micros(5));
        }
    }

    #[test]
    fn scaled_sampling_draws_the_same_stream() {
        let backend = StorageBackend::rdma();
        let mut healthy_rng = DetRng::seed_from(5);
        let mut faulty_rng = DetRng::seed_from(5);
        for i in 0..100 {
            let base = backend.read_latency(&mut healthy_rng);
            let multiplier = if i % 2 == 0 { 1_000 } else { 3_000 };
            let scaled = backend.sample_scaled(RemoteIoKind::Read, &mut faulty_rng, multiplier);
            if multiplier == 1_000 {
                assert_eq!(scaled, base, "identity multiplier must not perturb");
            } else {
                assert_eq!(scaled.as_nanos(), base.as_nanos() * 3);
            }
        }
        // Both streams advanced in lockstep.
        assert_eq!(
            backend.read_latency(&mut healthy_rng),
            backend.read_latency(&mut faulty_rng)
        );
    }
}
