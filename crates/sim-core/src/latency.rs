//! Latency samplers used to model device and software-stage costs.
//!
//! Every stage in the simulated data path (page-cache lookup, block-layer
//! batching, RDMA read, SSD access, ...) is parameterised by a
//! [`LatencySampler`]. Samplers are deterministic given a [`DetRng`] stream,
//! so whole experiments replay identically across runs.

use crate::rng::DetRng;
use crate::time::Nanos;

/// The identity latency multiplier in thousandths (1000 = 1.0×).
pub const MULTIPLIER_IDENTITY_MILLI: u64 = 1000;

/// Scales a latency by a multiplier expressed in thousandths, in exact
/// integer arithmetic (`base * multiplier / 1000` over `u128`, saturated to
/// `u64`). The identity multiplier short-circuits, so a healthy epoch costs
/// one comparison and changes no bits.
///
/// This is the single scaling primitive for fault-epoch multipliers: samplers
/// always draw first and scale after, so the RNG stream advances identically
/// whether or not an epoch is active.
#[inline]
pub fn scale_nanos_milli(base: Nanos, multiplier_milli: u64) -> Nanos {
    if multiplier_milli == MULTIPLIER_IDENTITY_MILLI {
        return base;
    }
    let scaled = (u128::from(base.as_nanos()) * u128::from(multiplier_milli)) / 1000;
    Nanos::from_nanos(scaled.min(u128::from(u64::MAX)) as u64)
}

/// A source of latency samples.
///
/// Implementations must be cheap (O(1)) and must only draw randomness from
/// the provided [`DetRng`] so that the simulation stays deterministic.
pub trait LatencySampler: Send + Sync + std::fmt::Debug {
    /// Draws one latency sample.
    fn sample(&self, rng: &mut DetRng) -> Nanos;

    /// Returns the nominal (median/typical) latency of this sampler, used by
    /// reports and sanity checks.
    fn nominal(&self) -> Nanos;

    /// Draws one sample and scales it by a fault-epoch multiplier expressed
    /// in thousandths. The sample is always drawn first (the RNG stream moves
    /// identically under any multiplier), then scaled by exact integer
    /// arithmetic via [`scale_nanos_milli`].
    #[inline]
    fn sample_scaled(&self, rng: &mut DetRng, multiplier_milli: u64) -> Nanos {
        scale_nanos_milli(self.sample(rng), multiplier_milli)
    }
}

/// A latency that is always the same value.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLatency {
    value: Nanos,
}

impl ConstantLatency {
    /// Creates a constant sampler.
    pub fn new(value: Nanos) -> Self {
        ConstantLatency { value }
    }
}

impl LatencySampler for ConstantLatency {
    fn sample(&self, _rng: &mut DetRng) -> Nanos {
        self.value
    }

    fn nominal(&self) -> Nanos {
        self.value
    }
}

/// A latency sampled uniformly from `[low, high]`.
#[derive(Debug, Clone, Copy)]
pub struct UniformLatency {
    low: Nanos,
    high: Nanos,
}

impl UniformLatency {
    /// Creates a uniform sampler.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn new(low: Nanos, high: Nanos) -> Self {
        assert!(low <= high, "UniformLatency requires low <= high");
        UniformLatency { low, high }
    }
}

impl LatencySampler for UniformLatency {
    fn sample(&self, rng: &mut DetRng) -> Nanos {
        if self.low == self.high {
            return self.low;
        }
        Nanos::from_nanos(rng.gen_range_u64(self.low.as_nanos(), self.high.as_nanos() + 1))
    }

    fn nominal(&self) -> Nanos {
        Nanos::from_nanos((self.low.as_nanos() + self.high.as_nanos()) / 2)
    }
}

/// A latency sampled from a (truncated) normal distribution.
///
/// Samples below `floor` are clamped; device latencies can never be negative
/// or smaller than a minimum service time.
#[derive(Debug, Clone, Copy)]
pub struct NormalLatency {
    mean: Nanos,
    std_dev: Nanos,
    floor: Nanos,
}

impl NormalLatency {
    /// Creates a normal sampler with the given mean and standard deviation,
    /// clamped below at `floor`.
    pub fn new(mean: Nanos, std_dev: Nanos, floor: Nanos) -> Self {
        NormalLatency {
            mean,
            std_dev,
            floor,
        }
    }
}

impl LatencySampler for NormalLatency {
    fn sample(&self, rng: &mut DetRng) -> Nanos {
        let z = rng.standard_normal();
        let v = self.mean.as_nanos() as f64 + z * self.std_dev.as_nanos() as f64;
        let v = v.max(self.floor.as_nanos() as f64);
        Nanos::from_nanos(v.round() as u64)
    }

    fn nominal(&self) -> Nanos {
        self.mean
    }
}

/// A latency sampled from a log-normal distribution.
///
/// Log-normal captures the long right tail of RDMA operations and software
/// queueing observed in the paper (medians of a few µs with rare 10–100×
/// outliers). The sampler is parameterised by the *median* and a multiplicative
/// spread `sigma` (the standard deviation of the underlying normal in log
/// space).
#[derive(Debug, Clone, Copy)]
pub struct LogNormalLatency {
    median: Nanos,
    sigma: f64,
    floor: Nanos,
}

impl LogNormalLatency {
    /// Creates a log-normal sampler with the given median, log-space sigma,
    /// and lower clamp.
    pub fn new(median: Nanos, sigma: f64, floor: Nanos) -> Self {
        LogNormalLatency {
            median,
            sigma,
            floor,
        }
    }
}

impl LatencySampler for LogNormalLatency {
    fn sample(&self, rng: &mut DetRng) -> Nanos {
        let z = rng.standard_normal();
        let v = self.median.as_nanos() as f64 * (self.sigma * z).exp();
        let v = v.max(self.floor.as_nanos() as f64);
        // Clamp the astronomically unlikely overflow case.
        let v = v.min(u64::MAX as f64 / 2.0);
        Nanos::from_nanos(v.round() as u64)
    }

    fn nominal(&self) -> Nanos {
        self.median
    }
}

/// Number of interpolation intervals in a [`TableLatency`] quantile table.
///
/// The table stores `TABLE_SIZE + 1` knots at evenly spaced quantiles; the
/// endpoints are winsorized to half an interval (`0.5 / TABLE_SIZE` and
/// `1 - 0.5 / TABLE_SIZE`) so the table never extrapolates into the
/// unbounded tails of the underlying distribution.
pub const TABLE_SIZE: usize = 4096;

/// A latency sampled from a precomputed inverse-CDF quantile table.
///
/// This is the hot-path replacement for [`LogNormalLatency`] and
/// [`MixtureLatency`]: the quantile function is evaluated once at
/// construction (4096 intervals, 4097 knots) and a sample is one [`DetRng`]
/// draw plus a linear interpolation — no `ln`/`exp`/`cos` per sample, and no
/// rejection, so the sampler consumes exactly **one** `next_u64` per sample.
/// That one-draw-per-sample discipline keeps every caller's RNG stream, and
/// so Serial/Threaded replay, bit-identical.
///
/// Numerically the table agrees with the analytic sampler to within its
/// quantile resolution (1/4096); the extreme tails are winsorized at the
/// half-interval quantiles, which bounds the largest sample at roughly the
/// p99.988 of the analytic distribution.
#[derive(Debug, Clone)]
pub struct TableLatency {
    /// `TABLE_SIZE + 1` quantile knots in nanoseconds, monotone
    /// non-decreasing, floor-clamped at construction. Shared: mixture
    /// tables are memoized process-wide by their exact parameters, so
    /// per-run shard workers clone a pointer instead of re-inverting the
    /// CDF.
    knots: std::sync::Arc<[f64]>,
    nominal: Nanos,
}

impl TableLatency {
    /// Builds a quantile table for a log-normal with the given median,
    /// log-space sigma, and lower clamp — the table twin of
    /// [`LogNormalLatency::new`].
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not finite and positive.
    pub fn from_lognormal(median: Nanos, sigma: f64, floor: Nanos) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "TableLatency needs a positive sigma"
        );
        let m = median.as_nanos() as f64;
        let f = floor.as_nanos() as f64;
        let knots = (0..=TABLE_SIZE)
            .map(|i| {
                let q = winsorized_quantile(i);
                (m * (sigma * inverse_normal_cdf(q)).exp()).max(f)
            })
            .collect();
        TableLatency {
            knots,
            nominal: median,
        }
    }

    /// Builds one combined quantile table for a weighted mixture of clamped
    /// log-normals, given as `(weight, median, sigma, floor)` components —
    /// the table twin of a [`MixtureLatency`] of [`LogNormalLatency`]s.
    ///
    /// The mixture CDF `F(x) = Σ wᵢ·Φ(ln(x/mᵢ)/σᵢ)` (with each component
    /// contributing zero below its floor — clamping is a point mass at the
    /// floor) is inverted by bisection at every knot. Folding the mixture
    /// into one table halves the per-sample RNG cost: the analytic mixture
    /// draws once to pick a component and again inside it, the table draws
    /// exactly once.
    ///
    /// The nominal is the weighted average of component medians, matching
    /// [`MixtureLatency::nominal`] bit-for-bit so report/recovery arithmetic
    /// is unchanged by the switch.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty, total weight is non-positive, or any
    /// sigma is not finite and positive.
    pub fn from_lognormal_mixture(components: &[(f64, Nanos, f64, Nanos)]) -> Self {
        assert!(!components.is_empty(), "TableLatency needs components");
        let total_weight: f64 = components.iter().map(|(w, ..)| w.max(0.0)).sum();
        assert!(total_weight > 0.0, "TableLatency needs positive weight");
        let comps: Vec<(f64, f64, f64, f64)> = components
            .iter()
            .map(|&(w, median, sigma, floor)| {
                assert!(
                    sigma.is_finite() && sigma > 0.0,
                    "TableLatency needs positive sigmas"
                );
                (
                    w.max(0.0),
                    median.as_nanos() as f64,
                    sigma,
                    floor.as_nanos() as f64,
                )
            })
            .collect();
        // Inverting the mixture CDF is 64 bisection steps per knot × 4097
        // knots — tens of milliseconds of construction work. Shard workers
        // rebuild their backends on every run, and the workspace only ever
        // uses a handful of distinct mixtures, so the knot tables are
        // memoized process-wide. Keyed by exact parameter bits: only
        // bit-identical mixtures share a table, so sampled values are
        // unchanged by the cache.
        type MixtureKey = Vec<(u64, u64, u64, u64)>;
        type MixtureTableCache =
            std::sync::Mutex<crate::hash::FxHashMap<MixtureKey, std::sync::Arc<[f64]>>>;
        static MIXTURE_TABLES: std::sync::OnceLock<MixtureTableCache> = std::sync::OnceLock::new();
        let key: MixtureKey = components
            .iter()
            .map(|&(w, median, sigma, floor)| {
                (
                    w.to_bits(),
                    median.as_nanos(),
                    sigma.to_bits(),
                    floor.as_nanos(),
                )
            })
            .collect();
        let cache = MIXTURE_TABLES.get_or_init(Default::default);
        let cached = cache
            .lock()
            .expect("mixture table cache")
            .get(&key)
            .cloned();
        let knots = cached.unwrap_or_else(|| {
            let knots: std::sync::Arc<[f64]> = (0..=TABLE_SIZE)
                .map(|i| mixture_quantile(winsorized_quantile(i), &comps, total_weight))
                .collect();
            cache
                .lock()
                .expect("mixture table cache")
                .insert(key, knots.clone());
            knots
        });
        // Same arithmetic as MixtureLatency::nominal over LogNormal
        // components (whose nominal is the median).
        let weighted: f64 = comps.iter().map(|&(w, m, ..)| w * m).sum();
        TableLatency {
            knots,
            nominal: Nanos::from_nanos((weighted / total_weight).round() as u64),
        }
    }

    /// The interpolated quantile function: latency at cumulative probability
    /// `q` (clamped to `[0, 1]`), in nanoseconds. `sample` is exactly
    /// `quantile(u)` for one uniform draw `u`.
    pub fn quantile(&self, q: f64) -> Nanos {
        Nanos::from_nanos(self.lerp(q.clamp(0.0, 1.0)))
    }

    /// Linear interpolation over the knots at position `u ∈ [0, 1)`.
    #[inline]
    fn lerp(&self, u: f64) -> u64 {
        let x = u * TABLE_SIZE as f64;
        let idx = (x as usize).min(TABLE_SIZE - 1);
        let frac = x - idx as f64;
        let lo = self.knots[idx];
        let hi = self.knots[idx + 1];
        (lo + (hi - lo) * frac).round() as u64
    }
}

impl LatencySampler for TableLatency {
    #[inline]
    fn sample(&self, rng: &mut DetRng) -> Nanos {
        // Exactly one u64 draw per sample: next_f64 is one next_u64.
        Nanos::from_nanos(self.lerp(rng.next_f64()))
    }

    fn nominal(&self) -> Nanos {
        self.nominal
    }
}

/// The winsorized quantile for knot `i`: endpoints are pulled in by half an
/// interval so the table never evaluates the quantile function at 0 or 1.
fn winsorized_quantile(i: usize) -> f64 {
    let n = TABLE_SIZE as f64;
    ((i as f64) / n).clamp(0.5 / n, 1.0 - 0.5 / n)
}

/// The standard normal CDF Φ, via Abramowitz & Stegun 26.2.17
/// (|ε| < 7.5e-8). Construction-time only.
fn normal_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.231_641_9 * x.abs());
    let poly = t
        * (0.319_381_530
            + t * (-0.356_563_782
                + t * (1.781_477_937 + t * (-1.821_255_978 + t * 1.330_274_429))));
    let tail = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt() * poly;
    if x >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// The standard normal quantile function Φ⁻¹, via Acklam's rational
/// approximation (|relative ε| < 1.15e-9). Construction-time only.
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// CDF of a weighted mixture of floor-clamped log-normals at `x`.
fn mixture_cdf(x: f64, comps: &[(f64, f64, f64, f64)], total_weight: f64) -> f64 {
    let mut acc = 0.0;
    for &(w, median, sigma, floor) in comps {
        if w <= 0.0 {
            continue;
        }
        // Clamping puts a point mass at the floor: below it the component
        // contributes nothing, at or above it the raw log-normal CDF counts
        // the collapsed mass too.
        if x >= floor {
            acc += w * normal_cdf((x / median).ln() / sigma);
        }
    }
    acc / total_weight
}

/// Inverts the mixture CDF at quantile `q` by bisection.
fn mixture_quantile(q: f64, comps: &[(f64, f64, f64, f64)], total_weight: f64) -> f64 {
    // Upper bracket: beyond every component's p(1 - 6σ) and floor.
    let mut hi = comps
        .iter()
        .map(|&(_, m, s, f)| (m * (6.0 * s).exp()).max(f))
        .fold(1.0_f64, f64::max);
    while mixture_cdf(hi, comps, total_weight) < q {
        hi *= 2.0;
    }
    let mut lo = 0.0_f64;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if mixture_cdf(mid, comps, total_weight) < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// A mixture of samplers with associated weights.
///
/// Used, for example, to model an SSD with a fast read path plus occasional
/// garbage-collection stalls, or a network with rare congestion events.
#[derive(Debug)]
pub struct MixtureLatency {
    components: Vec<(f64, Box<dyn LatencySampler>)>,
    total_weight: f64,
}

impl MixtureLatency {
    /// Creates a mixture from `(weight, sampler)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or all weights are non-positive.
    pub fn new(components: Vec<(f64, Box<dyn LatencySampler>)>) -> Self {
        assert!(!components.is_empty(), "MixtureLatency needs components");
        let total_weight: f64 = components.iter().map(|(w, _)| w.max(0.0)).sum();
        assert!(total_weight > 0.0, "MixtureLatency needs positive weight");
        MixtureLatency {
            components,
            total_weight,
        }
    }
}

impl LatencySampler for MixtureLatency {
    fn sample(&self, rng: &mut DetRng) -> Nanos {
        let mut pick = rng.next_f64() * self.total_weight;
        for (w, sampler) in &self.components {
            let w = w.max(0.0);
            if pick < w {
                return sampler.sample(rng);
            }
            pick -= w;
        }
        // Floating point slack: fall back to the last component.
        self.components
            .last()
            .expect("mixture has at least one component")
            .1
            .sample(rng)
    }

    fn nominal(&self) -> Nanos {
        // Weighted average of component nominals.
        let weighted: f64 = self
            .components
            .iter()
            .map(|(w, s)| w.max(0.0) * s.nominal().as_nanos() as f64)
            .sum();
        Nanos::from_nanos((weighted / self.total_weight).round() as u64)
    }
}

/// A latency sampler that replays an empirical set of values.
///
/// Useful for tests and for plugging real measurement distributions into the
/// simulator.
#[derive(Debug, Clone)]
pub struct EmpiricalLatency {
    values: Vec<Nanos>,
}

impl EmpiricalLatency {
    /// Creates an empirical sampler from observed values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn new(mut values: Vec<Nanos>) -> Self {
        assert!(!values.is_empty(), "EmpiricalLatency needs values");
        values.sort_unstable();
        EmpiricalLatency { values }
    }
}

impl LatencySampler for EmpiricalLatency {
    fn sample(&self, rng: &mut DetRng) -> Nanos {
        let idx = rng.gen_range_usize(0, self.values.len());
        self.values[idx]
    }

    fn nominal(&self) -> Nanos {
        self.values[self.values.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng() -> DetRng {
        DetRng::seed_from(0xC0FFEE)
    }

    #[test]
    fn constant_always_returns_value() {
        let s = ConstantLatency::new(Nanos::from_micros(5));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(s.sample(&mut r), Nanos::from_micros(5));
        }
        assert_eq!(s.nominal(), Nanos::from_micros(5));
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let s = UniformLatency::new(Nanos::from_nanos(100), Nanos::from_nanos(200));
        let mut r = rng();
        for _ in 0..1000 {
            let v = s.sample(&mut r);
            assert!(v >= Nanos::from_nanos(100) && v <= Nanos::from_nanos(200));
        }
    }

    #[test]
    fn uniform_degenerate_range() {
        let s = UniformLatency::new(Nanos::from_nanos(50), Nanos::from_nanos(50));
        let mut r = rng();
        assert_eq!(s.sample(&mut r), Nanos::from_nanos(50));
    }

    #[test]
    fn normal_respects_floor() {
        let s = NormalLatency::new(
            Nanos::from_nanos(100),
            Nanos::from_nanos(500),
            Nanos::from_nanos(80),
        );
        let mut r = rng();
        for _ in 0..1000 {
            assert!(s.sample(&mut r) >= Nanos::from_nanos(80));
        }
    }

    #[test]
    fn lognormal_median_is_close() {
        let s = LogNormalLatency::new(Nanos::from_micros_f64(4.3), 0.4, Nanos::from_nanos(500));
        let mut r = rng();
        let mut samples: Vec<u64> = (0..20_000).map(|_| s.sample(&mut r).as_nanos()).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        assert!(
            (median - 4_300.0).abs() / 4_300.0 < 0.05,
            "median {median} too far from 4300"
        );
        // Tail should be meaningfully above the median.
        let p99 = samples[(samples.len() as f64 * 0.99) as usize] as f64;
        assert!(p99 > 1.5 * median, "p99 {p99} not heavy enough");
    }

    #[test]
    fn mixture_samples_all_components() {
        let s = MixtureLatency::new(vec![
            (0.5, Box::new(ConstantLatency::new(Nanos::from_nanos(10)))),
            (0.5, Box::new(ConstantLatency::new(Nanos::from_nanos(1000)))),
        ]);
        let mut r = rng();
        let mut saw_fast = false;
        let mut saw_slow = false;
        for _ in 0..1000 {
            match s.sample(&mut r).as_nanos() {
                10 => saw_fast = true,
                1000 => saw_slow = true,
                other => panic!("unexpected sample {other}"),
            }
        }
        assert!(saw_fast && saw_slow);
        assert_eq!(s.nominal(), Nanos::from_nanos(505));
    }

    #[test]
    fn empirical_replays_observed_values() {
        let values = vec![
            Nanos::from_nanos(5),
            Nanos::from_nanos(7),
            Nanos::from_nanos(9),
        ];
        let s = EmpiricalLatency::new(values.clone());
        let mut r = rng();
        for _ in 0..100 {
            assert!(values.contains(&s.sample(&mut r)));
        }
        assert_eq!(s.nominal(), Nanos::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "low <= high")]
    fn uniform_rejects_inverted_range() {
        let _ = UniformLatency::new(Nanos::from_nanos(10), Nanos::from_nanos(5));
    }

    #[test]
    fn scale_nanos_milli_is_exact_integer_arithmetic() {
        let base = Nanos::from_nanos(12_345);
        assert_eq!(scale_nanos_milli(base, 1000), base, "identity is a no-op");
        assert_eq!(scale_nanos_milli(base, 4000), Nanos::from_nanos(49_380));
        assert_eq!(scale_nanos_milli(base, 1500), Nanos::from_nanos(18_517));
        assert_eq!(
            scale_nanos_milli(Nanos::from_nanos(u64::MAX), 2000).as_nanos(),
            u64::MAX
        );
        assert_eq!(scale_nanos_milli(base, 0), Nanos::ZERO);
    }

    #[test]
    fn table_sample_consumes_exactly_one_draw() {
        let s =
            TableLatency::from_lognormal(Nanos::from_micros_f64(4.3), 0.25, Nanos::from_micros(2));
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            let _ = s.sample(&mut a);
            let _ = b.next_u64();
        }
        // Both streams must now be in the same state.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn table_median_and_tail_match_the_analytic_lognormal() {
        // Mirrors `lognormal_median_is_close` for the table twin.
        let s =
            TableLatency::from_lognormal(Nanos::from_micros_f64(4.3), 0.4, Nanos::from_nanos(500));
        let mut r = rng();
        let mut samples: Vec<u64> = (0..20_000).map(|_| s.sample(&mut r).as_nanos()).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        assert!(
            (median - 4_300.0).abs() / 4_300.0 < 0.05,
            "median {median} too far from 4300"
        );
        let p99 = samples[(samples.len() as f64 * 0.99) as usize] as f64;
        assert!(p99 > 1.5 * median, "p99 {p99} not heavy enough");
        assert_eq!(s.nominal(), Nanos::from_micros_f64(4.3));
    }

    #[test]
    fn table_respects_floor_and_monotonicity() {
        let floor = Nanos::from_micros(2);
        let s = TableLatency::from_lognormal(Nanos::from_micros_f64(4.3), 0.8, floor);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(s.sample(&mut r) >= floor);
        }
        let mut prev = Nanos::ZERO;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = s.quantile(q);
            assert!(v >= prev, "quantile function must be monotone");
            prev = v;
        }
    }

    #[test]
    fn mixture_table_nominal_matches_analytic_mixture() {
        let analytic = MixtureLatency::new(vec![
            (
                0.99,
                Box::new(LogNormalLatency::new(
                    Nanos::from_micros_f64(4.3),
                    0.25,
                    Nanos::from_micros(2),
                )),
            ),
            (
                0.01,
                Box::new(LogNormalLatency::new(
                    Nanos::from_micros(40),
                    0.40,
                    Nanos::from_micros(10),
                )),
            ),
        ]);
        let table = TableLatency::from_lognormal_mixture(&[
            (
                0.99,
                Nanos::from_micros_f64(4.3),
                0.25,
                Nanos::from_micros(2),
            ),
            (0.01, Nanos::from_micros(40), 0.40, Nanos::from_micros(10)),
        ]);
        assert_eq!(table.nominal(), analytic.nominal());
        // The combined table keeps the congestion tail: the top knot sits in
        // the slow component, far above the fast component's own tail.
        assert!(table.quantile(1.0) > Nanos::from_micros(40));
        assert!(table.quantile(0.5) < Nanos::from_micros(6));
    }

    proptest! {
        /// Quantile agreement with the analytic log-normal, within table
        /// resolution: composing the independent A&S normal CDF over a table
        /// knot must return (nearly) the knot's quantile, and the knot must
        /// agree with the direct analytic quantile formula.
        #[test]
        fn prop_table_quantiles_agree_with_lognormal(
            median_us in 1u64..200,
            sigma_c in 5u32..80,
            knot in 1usize..TABLE_SIZE,
        ) {
            let sigma = sigma_c as f64 / 100.0;
            let median = Nanos::from_micros(median_us);
            let table = TableLatency::from_lognormal(median, sigma, Nanos::ZERO);
            let q = knot as f64 / TABLE_SIZE as f64;
            let x = table.quantile(q).as_nanos() as f64;
            // Round trip through the independent CDF approximation. The
            // table stores integer nanoseconds, so allow the quantile shift
            // one nanosecond of rounding causes at the local density.
            let z = inverse_normal_cdf(q);
            let density = (-0.5 * z * z).exp()
                / (2.0 * std::f64::consts::PI).sqrt()
                / (x.max(1.0) * sigma);
            let q_back = normal_cdf((x / median.as_nanos() as f64).ln() / sigma);
            prop_assert!(
                (q_back - q).abs() < 1.0 / TABLE_SIZE as f64 + density,
                "knot {} round-tripped to {} (expected {})", knot, q_back, q
            );
            // And directly against the analytic quantile function.
            let analytic = median.as_nanos() as f64 * (sigma * inverse_normal_cdf(q)).exp();
            prop_assert!(
                (x - analytic).abs() <= analytic * 2e-3 + 1.0,
                "knot {} = {} vs analytic {}", knot, x, analytic
            );
        }
    }

    proptest! {
        /// Scaled sampling draws first and scales after: the stream advances
        /// identically under any multiplier, and the identity multiplier
        /// changes no bits.
        #[test]
        fn prop_sample_scaled_preserves_the_stream(
            seed in 0u64..1_000,
            mult in 0u64..8_000,
        ) {
            let table = TableLatency::from_lognormal(
                Nanos::from_micros(20), 0.4, Nanos::from_micros(8));
            let mut plain_rng = DetRng::seed_from(seed);
            let mut scaled_rng = DetRng::seed_from(seed);
            let plain = table.sample(&mut plain_rng);
            let scaled = table.sample_scaled(&mut scaled_rng, mult);
            prop_assert_eq!(scaled, scale_nanos_milli(plain, mult));
            prop_assert_eq!(plain_rng.next_u64(), scaled_rng.next_u64());
        }
    }
}
