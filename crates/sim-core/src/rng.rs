//! Deterministic random number generation.
//!
//! Every stochastic component of the simulator (latency jitter, workload
//! generators, slab placement) draws from a [`DetRng`] seeded from the
//! experiment configuration so that repeated runs are bit-for-bit identical.

use std::cell::Cell;

/// A seedable, deterministic random number generator.
///
/// Internally this is a self-contained xoshiro256++ generator whose state is
/// expanded from the 64-bit seed with splitmix64 (no external dependencies);
/// the wrapper exists so that the rest of the workspace depends on a single,
/// stable interface and so that derived sub-streams (one per process, per
/// device, ...) can be forked reproducibly with [`DetRng::fork`].
///
/// # Examples
///
/// ```
/// use leap_sim_core::DetRng;
///
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
    seed: u64,
    forks: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng {
            state,
            seed,
            forks: 0,
        }
    }

    /// Creates an independent sub-stream.
    ///
    /// Each fork gets a seed derived from the parent seed and a fork counter,
    /// so components created in the same order always observe the same
    /// stream regardless of how much randomness other components consumed.
    pub fn fork(&mut self) -> DetRng {
        self.forks += 1;
        let child_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.forks);
        DetRng::seed_from(child_seed)
    }

    /// Returns the next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn gen_range_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "gen_range_u64 requires low < high");
        let span = high - low;
        // Debiased multiply-shift (Lemire); the rejection loop terminates
        // almost immediately for any span that is not close to 2^64.
        let threshold = span.wrapping_neg() % span;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (span as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return low + hi;
            }
        }
    }

    /// Returns a uniform integer in `[low, high)` as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn gen_range_usize(&mut self, low: usize, high: usize) -> usize {
        assert!(low < high, "gen_range_usize requires low < high");
        self.gen_range_u64(low as u64, high as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Samples a standard normal variate via the Box–Muller transform, for
    /// the analytic log-normal the latency tables are tested against.
    #[cfg(test)]
    pub(crate) fn standard_normal(&mut self) -> f64 {
        // Box–Muller needs u1 in (0, 1]; avoid ln(0).
        let mut u1 = self.next_f64();
        if u1 <= f64::MIN_POSITIVE {
            u1 = f64::MIN_POSITIVE;
        }
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Samples a Zipfian-distributed rank in `[0, n)` with skew `theta`.
    ///
    /// Exact inverse-CDF sampling would need the whole precomputed harmonic
    /// table; instead this uses the closed-form approximation from Gray et
    /// al. (the "quick and dirty" zipf of YCSB-like generators), with the
    /// normalising ζ(n) sum computed exactly over the first 1024 terms and
    /// by an integral approximation beyond.
    ///
    /// ζ(n) and the constants derived from it depend only on `n` and the
    /// clamped `theta`, so each thread memoizes them for its last
    /// `(n, theta bits)` key. A generator drawing from one key pays the
    /// 1024-term sum once; every further sample is one draw and at most one
    /// `powf`, with no lock and no allocation. Switching keys recomputes
    /// the same expressions, so every sample is bit-identical to an
    /// unmemoized evaluation.
    pub fn zipf(&mut self, n: usize, theta: f64) -> usize {
        assert!(n > 0, "zipf requires n > 0");
        if n == 1 {
            return 0;
        }
        let theta = theta.clamp(0.0001, 0.9999);
        let c = ZipfConstants::of(n, theta);
        let u = self.next_f64();
        let uz = u * c.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < c.zeta2 {
            return 1;
        }
        let rank = (n as f64 * (c.eta * u - c.eta + 1.0).powf(c.alpha)) as usize;
        rank.min(n - 1)
    }

    fn zeta_approx(n: usize, theta: f64) -> f64 {
        // Exact for small n, integral approximation for large n. Up to 1024
        // `powf` calls, so `ZipfConstants::of` runs it once per key, not
        // per sample.
        if n <= 1024 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=1024).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let tail = ((n as f64).powf(1.0 - theta) - 1024f64.powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }
}

/// The per-key constants of [`DetRng::zipf`], for one `(n, theta)` with
/// `theta` already clamped.
#[derive(Debug, Clone, Copy)]
struct ZipfConstants {
    n: usize,
    theta_bits: u64,
    /// ζ(2) = 1 + 2^-θ: a draw below it (and at or above 1) is rank 1.
    zeta2: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

thread_local! {
    /// The last key's constants on this thread. A `Copy` value in a `Cell`:
    /// reading and replacing it takes no lock and allocates nothing.
    static ZIPF_MEMO: Cell<Option<ZipfConstants>> = const { Cell::new(None) };
}

impl ZipfConstants {
    /// The constants for `(n, theta)`, from this thread's memo when the
    /// key matches its last one, computed (and memoized) otherwise.
    #[inline]
    fn of(n: usize, theta: f64) -> ZipfConstants {
        let theta_bits = theta.to_bits();
        ZIPF_MEMO.with(|memo| match memo.get() {
            Some(c) if c.n == n && c.theta_bits == theta_bits => c,
            _ => {
                let c = ZipfConstants::compute(n, theta);
                memo.set(Some(c));
                c
            }
        })
    }

    fn compute(n: usize, theta: f64) -> ZipfConstants {
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let zetan = DetRng::zeta_approx(n, theta);
        ZipfConstants {
            n,
            theta_bits: theta.to_bits(),
            zeta2,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_reproducible_and_independent() {
        let mut parent1 = DetRng::seed_from(99);
        let mut parent2 = DetRng::seed_from(99);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        assert_eq!(c1.next_u64(), c2.next_u64());
        // A second fork observes a different stream than the first.
        let mut c3 = parent1.fork();
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::seed_from(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn standard_normal_has_reasonable_moments() {
        let mut rng = DetRng::seed_from(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let mut rng = DetRng::seed_from(3);
        let n = 10_000;
        let mut head = 0usize;
        for _ in 0..n {
            if rng.zipf(1000, 0.99) < 10 {
                head += 1;
            }
        }
        // With high skew, a large fraction of accesses hit the top-10 ranks.
        assert!(head > n / 4, "only {head} of {n} samples in the head");
    }

    /// `DetRng::zipf` without the memo: every expression evaluated per
    /// call, in the same order.
    fn zipf_unmemoized(rng: &mut DetRng, n: usize, theta: f64) -> usize {
        assert!(n > 0);
        if n == 1 {
            return 0;
        }
        let theta = theta.clamp(0.0001, 0.9999);
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let zetan = if n <= 1024 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=1024).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            head + ((n as f64).powf(1.0 - theta) - 1024f64.powf(1.0 - theta)) / (1.0 - theta)
        };
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        let u = rng.next_f64();
        let uz = u * zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(theta) {
            return 1;
        }
        let rank = (n as f64 * (eta * u - eta + 1.0).powf(alpha)) as usize;
        rank.min(n - 1)
    }

    /// `n` on both sides of the exact-sum boundary (1024).
    const ZIPF_NS: [usize; 9] = [1, 2, 3, 512, 1023, 1024, 1025, 2048, 100_000];
    /// Inside the clamp, at both clamp bounds, and beyond them.
    const ZIPF_THETAS: [f64; 9] = [-1.0, 0.0, 0.0001, 0.5, 0.7, 0.99, 0.9999, 1.0, 2.0];

    proptest! {
        /// Interleaved keys, each drawn a few times in a row, must give the
        /// unmemoized sampler's ranks draw for draw, and leave both
        /// generators in the same state.
        #[test]
        fn prop_zipf_memo_matches_unmemoized(
            seed in any::<u64>(),
            runs in proptest::collection::vec((0usize..9, 0usize..9, 1usize..4), 1..24),
        ) {
            let mut memoized = DetRng::seed_from(seed);
            let mut direct = DetRng::seed_from(seed);
            for (ni, ti, draws) in runs {
                let (n, theta) = (ZIPF_NS[ni], ZIPF_THETAS[ti]);
                for _ in 0..draws {
                    prop_assert_eq!(
                        memoized.zipf(n, theta),
                        zipf_unmemoized(&mut direct, n, theta),
                        "n {} theta {}", n, theta
                    );
                }
            }
            prop_assert_eq!(memoized.next_u64(), direct.next_u64());
        }
    }

    proptest! {
        #[test]
        fn prop_gen_range_in_bounds(low in 0u64..1000, span in 1u64..1000, seed in any::<u64>()) {
            let mut rng = DetRng::seed_from(seed);
            let v = rng.gen_range_u64(low, low + span);
            prop_assert!(v >= low && v < low + span);
        }

        #[test]
        fn prop_zipf_in_bounds(n in 1usize..5000, seed in any::<u64>()) {
            let mut rng = DetRng::seed_from(seed);
            let v = rng.zipf(n, 0.9);
            prop_assert!(v < n);
        }

        #[test]
        fn prop_chance_clamps(p in -2.0f64..2.0, seed in any::<u64>()) {
            let mut rng = DetRng::seed_from(seed);
            let _ = rng.chance(p); // Must not panic for out-of-range p.
        }
    }
}
