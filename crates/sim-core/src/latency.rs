//! Latency samplers used to model device and software-stage costs.
//!
//! Every stage in the simulated data path (page-cache lookup, block-layer
//! batching, RDMA read, SSD access, ...) is parameterised by a
//! [`TableLatency`]. Samples are deterministic given a [`DetRng`] stream,
//! so whole experiments replay identically across runs.

use std::sync::{Arc, Mutex, OnceLock};

use crate::hash::FxHashMap;
use crate::rng::DetRng;
use crate::time::Nanos;

/// The identity latency multiplier in thousandths (1000 = 1.0×).
pub const MULTIPLIER_IDENTITY_MILLI: u64 = 1000;

/// Scales a latency by a multiplier expressed in thousandths, in exact
/// integer arithmetic (`base * multiplier / 1000`, saturated to `u64`). The
/// identity multiplier short-circuits, so a healthy epoch costs one
/// comparison and changes no bits. The product is formed in `u64` whenever
/// it fits, which is exact and avoids a 128-bit division per request; only
/// a product past `u64::MAX` is formed in `u128`.
///
/// This is the single scaling primitive for fault-epoch multipliers: samplers
/// always draw first and scale after, so the RNG stream advances identically
/// whether or not an epoch is active.
#[inline]
pub fn scale_nanos_milli(base: Nanos, multiplier_milli: u64) -> Nanos {
    if multiplier_milli == MULTIPLIER_IDENTITY_MILLI {
        return base;
    }
    match base.as_nanos().checked_mul(multiplier_milli) {
        Some(product) => Nanos::from_nanos(product / MULTIPLIER_IDENTITY_MILLI),
        None => scale_nanos_milli_wide(base, multiplier_milli),
    }
}

/// [`scale_nanos_milli`] over `u128`: the overflow case, and the reference
/// the `u64` path must agree with.
#[cold]
fn scale_nanos_milli_wide(base: Nanos, multiplier_milli: u64) -> Nanos {
    let scaled = (u128::from(base.as_nanos()) * u128::from(multiplier_milli))
        / u128::from(MULTIPLIER_IDENTITY_MILLI);
    Nanos::from_nanos(scaled.min(u128::from(u64::MAX)) as u64)
}

/// Number of interpolation intervals in a [`TableLatency`] quantile table.
///
/// The table stores `TABLE_SIZE + 1` knots at evenly spaced quantiles; the
/// endpoints are winsorized to half an interval (`0.5 / TABLE_SIZE` and
/// `1 - 0.5 / TABLE_SIZE`) so the table never extrapolates into the
/// unbounded tails of the underlying distribution.
const TABLE_SIZE: usize = 1 << INDEX_BITS;

/// Bits of one draw that pick the knot interval: `log₂ TABLE_SIZE`.
const INDEX_BITS: u32 = 12;

/// Bits of one draw below the index that give the interpolation fraction:
/// the rest of the 53 bits [`DetRng::next_f64`] keeps.
const FRACTION_BITS: u32 = 53 - INDEX_BITS;

/// A latency sampled from a precomputed inverse-CDF quantile table.
///
/// It replaces sampling an analytic log-normal or a weighted mixture of
/// them: the quantile function is evaluated once at
/// construction (4096 intervals, 4097 knots) and a sample is one [`DetRng`]
/// draw split by shifts into a knot index and an interpolation fraction,
/// plus a linear interpolation — no `ln`/`exp`/`cos` and no float-to-integer
/// index conversion per sample, and no rejection, so the sampler consumes
/// exactly **one** `next_u64` per sample.
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
    /// non-decreasing, floor-clamped at construction. Both constructors
    /// memoize their tables process-wide by exact parameter bits (see
    /// [`memoized_knots`]), so the data paths and backends every replay
    /// rebuilds per shard worker never re-evaluate a quantile function:
    /// a mixture table shares the memoized allocation, a log-normal table
    /// copies it.
    knots: Arc<[f64]>,
    nominal: Nanos,
}

impl TableLatency {
    /// Builds a quantile table for a log-normal with the given median,
    /// log-space sigma, and lower clamp: median · exp(sigma · z) for a
    /// standard normal z, raised to `floor`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not finite and positive.
    pub fn from_lognormal(median: Nanos, sigma: f64, floor: Nanos) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "TableLatency needs a positive sigma"
        );
        let key = TableKey::LogNormal(median.as_nanos(), sigma.to_bits(), floor.as_nanos());
        let memoized = memoized_knots(key, || {
            let m = median.as_nanos() as f64;
            let f = floor.as_nanos() as f64;
            (0..=TABLE_SIZE)
                .map(|i| (m * (sigma * inverse_normal_cdf(winsorized_quantile(i))).exp()).max(f))
                .collect()
        });
        // A private copy: ~2 µs against the ~85 µs evaluation it skips.
        // Sharing one allocation across the data paths that every replay
        // rebuilds per shard worker raised the replay benchmark's peak RSS
        // by ~1.5 MiB on its threaded workloads (2-vCPU VM, glibc: the
        // worker threads' heaps grew instead of returning memory).
        TableLatency {
            knots: Arc::from(&memoized[..]),
            nominal: median,
        }
    }

    /// Builds one combined quantile table for a weighted mixture of clamped
    /// log-normals, given as `(weight, median, sigma, floor)` components —
    /// the table twin of a weighted mixture of clamped log-normals.
    ///
    /// The mixture CDF `F(x) = Σ wᵢ·Φ(ln(x/mᵢ)/σᵢ)` (with each component
    /// contributing zero below its floor — clamping is a point mass at the
    /// floor) is inverted by bisection at every knot. Folding the mixture
    /// into one table halves the per-sample RNG cost: the analytic mixture
    /// draws once to pick a component and again inside it, the table draws
    /// exactly once.
    ///
    /// The nominal is the weighted average of component medians, matching
    /// the analytic mixture's nominal bit-for-bit so report/recovery
    /// arithmetic is unchanged by the switch.
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
        // Inverting the mixture CDF (~42 evaluations per knot × 4097 knots:
        // ~8 ms on a 2-vCPU Xeon VM) is the one construction cost left once
        // the table is memoized.
        let key = TableKey::Mixture(
            components
                .iter()
                .map(|&(w, median, sigma, floor)| {
                    (
                        w.to_bits(),
                        median.as_nanos(),
                        sigma.to_bits(),
                        floor.as_nanos(),
                    )
                })
                .collect(),
        );
        let knots = memoized_knots(key, || {
            let mut knots: Arc<[f64]> = std::iter::repeat_n(0.0, TABLE_SIZE + 1).collect();
            let slots = Arc::get_mut(&mut knots).expect("a new table is unshared");
            mixture_knots(slots, &comps, total_weight);
            knots
        });
        // Same arithmetic as the analytic mixture's nominal over log-normal
        // components (whose nominal is the median).
        let weighted: f64 = comps.iter().map(|&(w, m, ..)| w * m).sum();
        TableLatency {
            knots,
            nominal: Nanos::from_nanos((weighted / total_weight).round() as u64),
        }
    }

    /// Draws one latency sample: exactly one `next_u64` from `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> Nanos {
        Nanos::from_nanos(self.at_draw(rng.next_u64()))
    }

    /// Draws one sample and scales it by a fault-epoch multiplier expressed
    /// in thousandths. The sample is always drawn first (the RNG stream moves
    /// identically under any multiplier), then scaled by exact integer
    /// arithmetic via [`scale_nanos_milli`].
    #[inline]
    pub fn sample_scaled(&self, rng: &mut DetRng, multiplier_milli: u64) -> Nanos {
        scale_nanos_milli(self.sample(rng), multiplier_milli)
    }

    /// The nominal (median/typical) latency; the host agent prices slab
    /// reconstruction with it.
    pub fn nominal(&self) -> Nanos {
        self.nominal
    }

    /// The interpolated quantile function: latency at cumulative probability
    /// `q` (clamped to `[0, 1]`), in nanoseconds. `sample` is exactly
    /// `quantile(u)` for one uniform draw `u`.
    #[cfg(test)]
    fn quantile(&self, q: f64) -> Nanos {
        Nanos::from_nanos(self.lerp(q.clamp(0.0, 1.0)))
    }

    /// The sample for one raw draw `r`. The top [`INDEX_BITS`] pick the
    /// knot interval and the next [`FRACTION_BITS`] the position inside
    /// it: bit for bit what the float reference `lerp` computes from
    /// `next_f64`'s `u = (r >> 11)·2⁻⁵³`, because `u · TABLE_SIZE` is
    /// `(r >> 11)·2⁻⁴¹` exactly, so its floor is `r >> 52` (never
    /// `TABLE_SIZE`) and its fraction is the low 41 bits of `r >> 11`
    /// times 2⁻⁴¹, also exact.
    #[inline]
    fn at_draw(&self, r: u64) -> u64 {
        let idx = (r >> (64 - INDEX_BITS)) as usize;
        let fraction_mask = (1u64 << FRACTION_BITS) - 1;
        let frac = ((r >> 11) & fraction_mask) as f64 * (1.0 / (1u64 << FRACTION_BITS) as f64);
        let lo = self.knots[idx];
        let hi = self.knots[idx + 1];
        round_to_u64(lo + (hi - lo) * frac)
    }

    /// Linear interpolation over the knots at position `u ∈ [0, 1)`: the
    /// float reference [`TableLatency::at_draw`] must agree with.
    #[cfg(test)]
    fn lerp(&self, u: f64) -> u64 {
        let x = u * TABLE_SIZE as f64;
        let idx = (x as usize).min(TABLE_SIZE - 1);
        let frac = x - idx as f64;
        let lo = self.knots[idx];
        let hi = self.knots[idx + 1];
        round_to_u64(lo + (hi - lo) * frac)
    }
}

/// `x.round() as u64` (half away from zero, saturating, NaN to zero) in
/// branchless integer arithmetic: `f64::round` is an out-of-line libm call
/// on every latency draw. `x - t` is exact for every `t` this produces.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

/// The winsorized quantile for knot `i`: endpoints are pulled in by half an
/// interval so the table never evaluates the quantile function at 0 or 1.
fn winsorized_quantile(i: usize) -> f64 {
    let n = TABLE_SIZE as f64;
    ((i as f64) / n).clamp(0.5 / n, 1.0 - 0.5 / n)
}

/// What a [`TableLatency`]'s knots were built from, by exact parameter
/// bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TableKey {
    /// [`TableLatency::from_lognormal`]: median nanos, sigma bits, floor
    /// nanos.
    LogNormal(u64, u64, u64),
    /// [`TableLatency::from_lognormal_mixture`]: per component, weight
    /// bits, median nanos, sigma bits, floor nanos.
    Mixture(Vec<(u64, u64, u64, u64)>),
}

/// The knots memoized under `key`, built by `build` on the first request.
///
/// Shard workers rebuild their data paths and backends on every replay,
/// and the workspace uses only a handful of distinct tables, so one
/// process-wide map holds them all. Only bit-identical parameters share a
/// key, so sampled values are unchanged by the cache. `build` runs without
/// the lock held.
fn memoized_knots(key: TableKey, build: impl FnOnce() -> Arc<[f64]>) -> Arc<[f64]> {
    static TABLES: OnceLock<Mutex<FxHashMap<TableKey, Arc<[f64]>>>> = OnceLock::new();
    let tables = TABLES.get_or_init(Default::default);
    let cached = tables.lock().expect("knot table cache").get(&key).cloned();
    cached.unwrap_or_else(|| {
        let knots = build();
        tables
            .lock()
            .expect("knot table cache")
            .insert(key, knots.clone());
        knots
    })
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

#[cfg(test)]
thread_local! {
    /// Calls to [`mixture_cdf`] on this thread, for the evaluation-count test.
    static CDF_EVALUATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// CDF of a weighted mixture of floor-clamped log-normals at `x`.
fn mixture_cdf(x: f64, comps: &[(f64, f64, f64, f64)], total_weight: f64) -> f64 {
    #[cfg(test)]
    CDF_EVALUATIONS.with(|n| n.set(n.get() + 1));
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

/// The bisection's first upper bracket: beyond every component's
/// p(1 - 6σ) and floor.
fn upper_bracket(comps: &[(f64, f64, f64, f64)]) -> f64 {
    comps
        .iter()
        .map(|&(_, m, s, f)| (m * (6.0 * s).exp()).max(f))
        .fold(1.0_f64, f64::max)
}

/// Inverts the mixture CDF at quantile `q` by bisection, one knot on its
/// own: the reference [`mixture_knots`] must agree with bit-for-bit.
#[cfg(test)]
fn mixture_quantile(q: f64, comps: &[(f64, f64, f64, f64)], total_weight: f64) -> f64 {
    let mut hi = upper_bracket(comps);
    while mixture_cdf(hi, comps, total_weight) < q {
        hi *= 2.0;
    }
    let mut lo = 0.0_f64;
    for _ in 0..BISECTION_STEPS {
        let mid = 0.5 * (lo + hi);
        if mixture_cdf(mid, comps, total_weight) < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Bisection steps per knot.
const BISECTION_STEPS: usize = 64;

/// How many contiguous runs of knots [`mixture_knots`] bisects in lockstep.
/// Each round evaluates one CDF per run, back to back: the evaluations are
/// independent `ln`/`exp`/divide chains, so the out-of-order core overlaps
/// them (4 and 8 lanes measured alike).
const MIXTURE_LANES: usize = 8;

/// Sets `knots[i]` to the mixture quantile at [`winsorized_quantile`]`(i)`,
/// bit-identical to bisecting each knot on its own (`mixture_quantile`),
/// in ~42 CDF evaluations per knot instead of 65:
///
/// - the upper bracket's CDF is evaluated once per table, and a run
///   doubles the bracket only when a knot's quantile first exceeds its CDF
///   (quantiles grow along a run);
/// - a knot reuses its predecessor's `(mid, cdf)` pairs while its
///   midpoints are bit-equal to theirs, since the CDF is a pure function;
/// - a knot stops, without evaluating it, at a midpoint equal to a bound:
///   every remaining step would reassign that same bound.
fn mixture_knots(knots: &mut [f64], comps: &[(f64, f64, f64, f64)], total_weight: f64) {
    let cdf = |x: f64| mixture_cdf(x, comps, total_weight);
    let hi = upper_bracket(comps);
    let bracket = (hi, cdf(hi));
    let run = knots.len().div_ceil(MIXTURE_LANES);
    let mut runs = knots.chunks_mut(run);
    let mut lanes: [KnotLane; MIXTURE_LANES] = std::array::from_fn(|r| {
        KnotLane::new(runs.next().unwrap_or_default(), r * run, bracket, cdf)
    });
    loop {
        let mids = lanes.each_mut().map(|lane| lane.advance(cdf));
        if mids.iter().all(Option::is_none) {
            return;
        }
        let cdfs = mids.map(|mid| mid.map(cdf));
        for ((lane, mid), c) in lanes.iter_mut().zip(mids).zip(cdfs) {
            if let (Some(mid), Some(c)) = (mid, c) {
                lane.resolve(mid, c);
            }
        }
    }
}

/// One run of [`mixture_knots`]: its knots, inverted in order, and the
/// bisection state of the current one.
struct KnotLane<'a> {
    knots: &'a mut [f64],
    /// Table index of `knots[0]`.
    first: usize,
    /// Index into `knots` of the knot being inverted.
    next: usize,
    q: f64,
    /// The upper bracket and its CDF.
    bracket: (f64, f64),
    lo: f64,
    hi: f64,
    step: usize,
    /// `(mid bits, cdf)` at each step of the latest path through the
    /// bisection; the first `path_len` entries are valid.
    path: [(u64, f64); BISECTION_STEPS],
    path_len: usize,
}

impl<'a> KnotLane<'a> {
    fn new(
        knots: &'a mut [f64],
        first: usize,
        bracket: (f64, f64),
        cdf: impl Fn(f64) -> f64,
    ) -> Self {
        let mut lane = KnotLane {
            knots,
            first,
            next: 0,
            q: 0.0,
            bracket,
            lo: 0.0,
            hi: 0.0,
            step: 0,
            path: [(0, 0.0); BISECTION_STEPS],
            path_len: 0,
        };
        lane.start(cdf);
        lane
    }

    /// Begins bisecting knot `next`.
    fn start(&mut self, cdf: impl Fn(f64) -> f64) {
        self.q = winsorized_quantile(self.first + self.next);
        while self.bracket.1 < self.q {
            self.bracket.0 *= 2.0;
            self.bracket.1 = cdf(self.bracket.0);
        }
        (self.lo, self.hi, self.step) = (0.0, self.bracket.0, 0);
    }

    /// Takes every step whose CDF the path already holds, storing finished
    /// knots, and returns the next midpoint to evaluate, or `None` once the
    /// run is done.
    fn advance(&mut self, cdf: impl Fn(f64) -> f64 + Copy) -> Option<f64> {
        while self.next < self.knots.len() {
            if self.step == BISECTION_STEPS {
                self.knots[self.next] = 0.5 * (self.lo + self.hi);
                self.next += 1;
                if self.next < self.knots.len() {
                    self.start(cdf);
                }
                continue;
            }
            let mid = 0.5 * (self.lo + self.hi);
            // A midpoint equal to a bound has that bound's CDF, on the side
            // of `q` that made it the bound (the bracket's by the doubling
            // loop), so this step and every later one leave `lo` and `hi`
            // where they are. `lo`'s CDF is unknown only at its start, 0.
            if mid == self.hi || (mid == self.lo && self.lo != 0.0) {
                self.step = BISECTION_STEPS;
                continue;
            }
            match self.path[..self.path_len].get(self.step) {
                Some(&(bits, c)) if bits == mid.to_bits() => self.bisect(mid, c),
                _ => return Some(mid),
            }
        }
        None
    }

    /// Takes the step at `mid` with its freshly evaluated CDF `c`, which
    /// replaces the path from this step on.
    fn resolve(&mut self, mid: f64, c: f64) {
        self.path[self.step] = (mid.to_bits(), c);
        self.path_len = self.step + 1;
        self.bisect(mid, c);
    }

    fn bisect(&mut self, mid: f64, c: f64) {
        if c < self.q {
            self.lo = mid;
        } else {
            self.hi = mid;
        }
        self.step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A latency sampled from a log-normal distribution: the analytic
    /// reference for [`TableLatency::from_lognormal`].
    ///
    /// Parameterised by the *median* and a multiplicative spread `sigma`
    /// (the standard deviation of the underlying normal in log space),
    /// clamped below at `floor`.
    #[derive(Debug, Clone, Copy)]
    struct LogNormalLatency {
        median: Nanos,
        sigma: f64,
        floor: Nanos,
    }

    impl LogNormalLatency {
        fn new(median: Nanos, sigma: f64, floor: Nanos) -> Self {
            LogNormalLatency {
                median,
                sigma,
                floor,
            }
        }

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

    /// A weighted mixture of log-normals: the analytic reference for
    /// [`TableLatency::from_lognormal_mixture`].
    #[derive(Debug)]
    struct MixtureLatency {
        components: Vec<(f64, LogNormalLatency)>,
        total_weight: f64,
    }

    impl MixtureLatency {
        fn new(components: Vec<(f64, LogNormalLatency)>) -> Self {
            let total_weight: f64 = components.iter().map(|(w, _)| w.max(0.0)).sum();
            assert!(total_weight > 0.0, "MixtureLatency needs positive weight");
            MixtureLatency {
                components,
                total_weight,
            }
        }

        /// Picks a component with one draw, then samples it.
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

        /// The weighted average of component medians.
        fn nominal(&self) -> Nanos {
            let weighted: f64 = self
                .components
                .iter()
                .map(|(w, s)| w.max(0.0) * s.nominal().as_nanos() as f64)
                .sum();
            Nanos::from_nanos((weighted / self.total_weight).round() as u64)
        }
    }

    fn rng() -> DetRng {
        DetRng::seed_from(0xC0FFEE)
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
        let narrow = |median| LogNormalLatency::new(Nanos::from_nanos(median), 0.01, Nanos::ZERO);
        let s = MixtureLatency::new(vec![(0.5, narrow(10)), (0.5, narrow(1000))]);
        let mut r = rng();
        let mut saw_fast = false;
        let mut saw_slow = false;
        for _ in 0..1000 {
            match s.sample(&mut r).as_nanos() {
                9..=11 => saw_fast = true,
                900..=1100 => saw_slow = true,
                other => panic!("unexpected sample {other}"),
            }
        }
        assert!(saw_fast && saw_slow);
        assert_eq!(s.nominal(), Nanos::from_nanos(505));
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

    proptest! {
        /// The `u64` path equals the `u128` formula over the full range:
        /// small products, products just past `u64::MAX` (where the wide
        /// path takes over) and saturating ones.
        #[test]
        fn prop_scale_nanos_milli_matches_the_wide_formula(
            base in any::<u64>(),
            small in 0u64..1_000_000,
            multiplier_milli in any::<u64>(),
            shift in 0u32..64,
        ) {
            // At least 2, so `u64::MAX / m + 1` exists and overflows when
            // multiplied by m.
            let multiplier_small = (multiplier_milli % 100_000).max(2);
            for (base, multiplier_milli) in [
                (base, multiplier_milli),
                (base, multiplier_small),
                (small, multiplier_small),
                (base >> shift, multiplier_milli >> (63 - shift)),
                (u64::MAX / multiplier_small, multiplier_small),
                (u64::MAX / multiplier_small + 1, multiplier_small),
            ] {
                let base = Nanos::from_nanos(base);
                prop_assert_eq!(
                    scale_nanos_milli(base, multiplier_milli),
                    scale_nanos_milli_wide(base, multiplier_milli),
                    "{:?} x {}", base, multiplier_milli
                );
            }
        }
    }

    #[test]
    fn table_sample_consumes_exactly_one_draw() {
        let lognormal =
            TableLatency::from_lognormal(Nanos::from_micros_f64(4.3), 0.25, Nanos::from_micros(2));
        // A floor at the median and a sigma too small to move any knot
        // above it: every knot is 5 µs, yet a sample still draws once.
        let constant = TableLatency::from_lognormal(
            Nanos::from_micros(5),
            f64::MIN_POSITIVE,
            Nanos::from_micros(5),
        );
        assert!(constant.knots.iter().all(|&k| k == 5_000.0));
        for s in [lognormal, constant] {
            let mut a = rng();
            let mut b = rng();
            for _ in 0..100 {
                let _ = s.sample(&mut a);
                let _ = b.next_u64();
            }
            // Both streams must now be in the same state.
            assert_eq!(a.next_u64(), b.next_u64());
        }
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
    fn lognormal_tables_are_memoized_by_exact_parameters() {
        let (median, floor) = (Nanos::from_nanos(7_321), Nanos::from_nanos(950));
        let key =
            |sigma: f64| TableKey::LogNormal(median.as_nanos(), sigma.to_bits(), floor.as_nanos());
        let direct = |sigma: f64| -> Vec<u64> {
            (0..=TABLE_SIZE)
                .map(|i| {
                    let q = winsorized_quantile(i);
                    (7_321.0 * (sigma * inverse_normal_cdf(q)).exp())
                        .max(950.0)
                        .to_bits()
                })
                .collect()
        };
        let bits = |knots: &[f64]| knots.iter().map(|k| k.to_bits()).collect::<Vec<u64>>();
        // Two sigmas one bit apart are two keys, each memoized by its first
        // construction and equal to a direct evaluation.
        let sigma = 0.37_f64;
        let next_sigma = f64::from_bits(sigma.to_bits() + 1);
        for s in [sigma, next_sigma] {
            let table = TableLatency::from_lognormal(median, s, floor);
            let memoized = memoized_knots(key(s), || panic!("sigma {s} must be memoized"));
            assert_eq!(bits(&table.knots), direct(s));
            assert_eq!(bits(&memoized), direct(s));
        }
        // A one-component mixture with the same parameters (built by
        // bisection) has its own key, and shares its memoized allocation.
        let mixture = TableLatency::from_lognormal_mixture(&[(1.0, median, sigma, floor)]);
        let mixture_key = TableKey::Mixture(vec![(
            1.0f64.to_bits(),
            median.as_nanos(),
            sigma.to_bits(),
            floor.as_nanos(),
        )]);
        let shared = memoized_knots(mixture_key, || panic!("the mixture must be memoized"));
        assert!(Arc::ptr_eq(&mixture.knots, &shared), "mixtures share");
        let lognormal = memoized_knots(key(sigma), || unreachable!());
        assert!(!Arc::ptr_eq(&shared, &lognormal));
    }

    #[test]
    fn mixture_table_nominal_matches_analytic_mixture() {
        let analytic = MixtureLatency::new(vec![
            (
                0.99,
                LogNormalLatency::new(Nanos::from_micros_f64(4.3), 0.25, Nanos::from_micros(2)),
            ),
            (
                0.01,
                LogNormalLatency::new(Nanos::from_micros(40), 0.40, Nanos::from_micros(10)),
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

    /// `from_lognormal_mixture`'s components in the form `mixture_cdf`
    /// takes, with their total weight.
    fn cdf_params(mixture: &[(f64, Nanos, f64, Nanos)]) -> (Vec<(f64, f64, f64, f64)>, f64) {
        let comps: Vec<_> = mixture
            .iter()
            .map(|&(w, m, s, f)| (w.max(0.0), m.as_nanos() as f64, s, f.as_nanos() as f64))
            .collect();
        let total_weight = comps.iter().map(|c| c.0).sum();
        (comps, total_weight)
    }

    /// Every knot bisected on its own, as bits.
    fn reference_knots(comps: &[(f64, f64, f64, f64)], total_weight: f64) -> Vec<u64> {
        (0..=TABLE_SIZE)
            .map(|i| mixture_quantile(winsorized_quantile(i), comps, total_weight).to_bits())
            .collect()
    }

    fn rdma_mixture() -> [(f64, Nanos, f64, Nanos); 2] {
        [
            (
                0.99,
                Nanos::from_micros_f64(4.3),
                0.25,
                Nanos::from_micros(2),
            ),
            (0.01, Nanos::from_micros(40), 0.40, Nanos::from_micros(10)),
        ]
    }

    /// The four storage backends' mixtures, as `leap_remote`'s
    /// `StorageBackend` builds them: RDMA, HDD, SSD read, SSD write.
    fn backend_mixtures() -> [Vec<(f64, Nanos, f64, Nanos)>; 4] {
        let us = Nanos::from_micros;
        let (stall_median, stall_sigma, stall_floor) = (us(400), 0.50, us(100));
        [
            rdma_mixture().to_vec(),
            vec![
                (0.97, Nanos::from_micros_f64(91.48), 0.35, us(40)),
                (
                    0.03,
                    Nanos::from_millis_f64(4.5),
                    0.30,
                    Nanos::from_millis(1),
                ),
            ],
            vec![
                (0.995, us(20), 0.25, us(8)),
                (0.005, stall_median, stall_sigma, stall_floor),
            ],
            vec![
                (0.99, us(30), 0.30, us(10)),
                (0.01, stall_median, stall_sigma, stall_floor),
            ],
        ]
    }

    /// Every table the workspace builds: the backend mixtures, then the
    /// software-stage log-normals at `leap_datapath`'s default parameters
    /// (the lean path's prefetcher and remote-interface stages, the legacy
    /// path's bio, queueing and dispatch stages), then one table whose
    /// upper knots pass 2⁶⁴ so that `round_to_u64` saturates.
    fn workspace_tables() -> Vec<TableLatency> {
        let ns = Nanos::from_nanos;
        let mut tables: Vec<TableLatency> = backend_mixtures()
            .iter()
            .map(|mixture| TableLatency::from_lognormal_mixture(mixture))
            .collect();
        for (median, sigma, floor) in [
            (ns(350), 0.2, ns(100)),
            (ns(600), 0.2, ns(200)),
            (Nanos::from_micros_f64(10.04), 0.6, ns(500)),
            (Nanos::from_micros_f64(17.5), 0.6, Nanos::from_micros(1)),
            (Nanos::from_micros_f64(4.38), 0.6, ns(500)),
            (ns(1 << 62), 3.0, ns(0)),
        ] {
            tables.push(TableLatency::from_lognormal(median, sigma, floor));
        }
        tables
    }

    #[test]
    fn mixture_tables_match_per_knot_bisection_bit_for_bit() {
        for mixture in &backend_mixtures() {
            let mixture = &mixture[..];
            let (comps, total_weight) = cdf_params(mixture);
            let table = TableLatency::from_lognormal_mixture(mixture);
            let bits: Vec<u64> = table.knots.iter().map(|k| k.to_bits()).collect();
            assert_eq!(bits, reference_knots(&comps, total_weight), "{mixture:?}");
        }
        // At σ = 1e-18, exp(6σ) rounds to 1, so the base bracket is the
        // median, whose CDF is ½: the upper knots double it. Their CDF
        // steps to 1 one float above the median, and with the median's
        // last mantissa bit odd, they round up only if it was doubled.
        let comps = [(1.0, 4_300.0_f64.next_up(), 1e-18, 2_000.0)];
        let base = mixture_cdf(upper_bracket(&comps), &comps, 1.0);
        assert!(
            base < winsorized_quantile(TABLE_SIZE),
            "no doubling: {base}"
        );
        let mut knots = [0.0; TABLE_SIZE + 1];
        mixture_knots(&mut knots, &comps, 1.0);
        let bits: Vec<u64> = knots.iter().map(|k| k.to_bits()).collect();
        assert_eq!(bits, reference_knots(&comps, 1.0));
    }

    #[test]
    fn rdma_table_costs_at_most_45_cdf_evaluations_per_knot() {
        let (comps, total_weight) = cdf_params(&rdma_mixture());
        let evaluations = |build: &mut dyn FnMut()| {
            let before = CDF_EVALUATIONS.with(|n| n.get());
            build();
            CDF_EVALUATIONS.with(|n| n.get()) - before
        };
        let knot_count = (TABLE_SIZE + 1) as u64;
        let mut knots = [0.0; TABLE_SIZE + 1];
        let lockstep = evaluations(&mut || mixture_knots(&mut knots, &comps, total_weight));
        assert!(lockstep <= 45 * knot_count, "{lockstep} evaluations");
        let reference = evaluations(&mut || {
            reference_knots(&comps, total_weight);
        });
        assert!(reference >= 65 * knot_count, "{reference} evaluations");
    }

    proptest! {
        /// The lockstep build agrees bit-for-bit with per-knot bisection on
        /// 1–3-component mixtures with zero weights, floors above the
        /// median (knots on a floor's point mass), tiny sigmas (the
        /// bracket-doubling loop; fractional medians make it change
        /// knots), large sigmas (wide brackets, knots far below a
        /// nanosecond) and duplicate components.
        #[test]
        fn prop_mixture_knots_match_per_knot_bisection(
            picks in collection::vec(
                (0usize..5, (1u64..200_000, 0.0f64..1.0), 0usize..6, 0u64..400_000),
                1..4,
            ),
            duplicate in any::<bool>(),
        ) {
            const WEIGHTS: [f64; 5] = [0.0, 0.01, 0.3, 0.99, 4.0];
            const SIGMAS: [f64; 6] = [1e-18, 0.05, 0.25, 0.8, 3.0, 12.0];
            let mut comps: Vec<(f64, f64, f64, f64)> = picks
                .iter()
                .map(|&(w, (m, frac), s, f)| (WEIGHTS[w], m as f64 + frac, SIGMAS[s], f as f64))
                .collect();
            if duplicate {
                comps.push(comps[0]);
            }
            let total_weight: f64 = comps.iter().map(|c| c.0).sum();
            prop_assume!(total_weight > 0.0);
            let mut knots = [0.0; TABLE_SIZE + 1];
            mixture_knots(&mut knots, &comps, total_weight);
            let bits: Vec<u64> = knots.iter().map(|k| k.to_bits()).collect();
            prop_assert_eq!(bits, reference_knots(&comps, total_weight), "{:?}", comps);
        }
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

    #[test]
    fn rounding_matches_f64_round_at_the_edges() {
        let halfway = |v: f64| [v - 0.5, v + 0.5, v.next_down() + 0.5, v.next_up() + 0.5];
        let mut edges = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            -0.5,
            -0.7,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            18_446_744_073_709_551_615.0,
            18_446_744_073_709_549_568.0,
        ];
        for v in [1.0, 2.0, 4_503_599_627_370_496.0, 9_007_199_254_740_992.0] {
            edges.extend(halfway(v));
        }
        for x in edges {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        }
    }

    proptest! {
        /// The branchless rounding agrees with `f64::round() as u64` over
        /// every bit pattern, around every half-integer, and on the
        /// interpolated values the tables actually produce.
        #[test]
        fn prop_rounding_matches_f64_round(
            bits in any::<u64>(),
            whole in 0u64..(1 << 53),
            small in 0.0f64..1e7,
            u in 0.0f64..1.0,
        ) {
            for i in 0..256u64 {
                let x = f64::from_bits(bits.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                prop_assert_eq!(round_to_u64(x), x.round() as u64);
            }
            let half = whole as f64 + 0.5;
            for y in [half, half.next_down(), half.next_up(), small] {
                prop_assert_eq!(round_to_u64(y), y.round() as u64);
            }
            let table = TableLatency::from_lognormal(
                Nanos::from_micros(20), 0.4, Nanos::from_micros(8));
            let pos = u * TABLE_SIZE as f64;
            let idx = (pos as usize).min(TABLE_SIZE - 1);
            let (lo, hi) = (table.knots[idx], table.knots[idx + 1]);
            let exact = (lo + (hi - lo) * (pos - idx as f64)).round() as u64;
            prop_assert_eq!(table.lerp(u), exact);
        }

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

        /// Splitting one draw into index and fraction bits samples exactly
        /// what interpolating at `next_f64` did, for every table the
        /// workspace builds and arbitrary streams.
        #[test]
        fn prop_integer_split_draws_match_the_float_reference(seed in any::<u64>()) {
            for table in workspace_tables() {
                let mut split = DetRng::seed_from(seed);
                let mut float = split.clone();
                for _ in 0..256 {
                    prop_assert_eq!(table.sample(&mut split).as_nanos(), table.lerp(float.next_f64()));
                }
            }
        }
    }

    #[test]
    fn integer_split_draws_match_the_float_reference_at_the_edges() {
        // `DetRng::next_f64`'s arithmetic on a given raw draw.
        let uniform = |r: u64| (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        // Zero, all ones, and every draw whose fraction bits are all zero
        // (an exact knot) or all one (just below the next knot).
        let mut draws = vec![0, u64::MAX];
        for idx in 0..TABLE_SIZE as u64 {
            draws.push(idx << 52);
            draws.push((idx << 52) | ((1 << 52) - 1));
        }
        for table in workspace_tables() {
            for &r in &draws {
                assert_eq!(table.at_draw(r), table.lerp(uniform(r)), "draw {r:#x}");
            }
        }
        let top = workspace_tables().pop().expect("a saturating table");
        assert_eq!(top.at_draw(u64::MAX), u64::MAX, "upper knots must saturate");
    }
}
