//! Seedable deterministic random numbers.
//!
//! A PCG-XSH-RR 64/32 generator seeded through SplitMix64, with the
//! distributions the experiments use. We implement the generator from scratch
//! (rather than pulling in `rand`'s runtime) so simulation streams stay stable
//! regardless of dependency versions; `rand` remains a dev-dependency for
//! property tests only.

use crate::Duration;

/// A small, fast, deterministic random number generator (PCG-XSH-RR 64/32).
///
/// # Example
///
/// ```
/// use beehive_sim::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = splitmix64(&mut sm);
        let inc = splitmix64(&mut sm) | 1;
        let mut rng = Rng { state, inc };
        // Advance once so that the first output depends on both state words.
        rng.next_u32();
        rng
    }

    /// Derive an independent child generator; used to give each simulation
    /// component its own stream so adding draws in one place does not perturb
    /// another.
    pub fn split(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's method, unbiased enough for
    /// simulation purposes).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Widening multiply keeps the distribution close to uniform without a
        // rejection loop; bias is < 2^-64 * bound which is negligible here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed duration with the given mean; the classic
    /// inter-arrival distribution for open-loop (Poisson) request traffic.
    pub fn exponential(&mut self, mean: Duration) -> Duration {
        // Avoid ln(0).
        let u = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        mean.mul_f64(-u.ln())
    }

    /// A standard normal variate (Box–Muller, one half discarded for
    /// simplicity — determinism matters more than throughput here).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normally distributed duration around `median` with shape `sigma`;
    /// used for cold-boot and provisioning time jitter.
    pub fn lognormal(&mut self, median: Duration, sigma: f64) -> Duration {
        let z = self.standard_normal();
        median.mul_f64((sigma * z).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_parent_usage() {
        let mut parent1 = Rng::new(9);
        let child_a = parent1.split();
        let mut parent2 = Rng::new(9);
        let child_b = parent2.split();
        let mut ca = child_a.clone();
        let mut cb = child_b.clone();
        for _ in 0..16 {
            assert_eq!(ca.next_u64(), cb.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = Rng::new(4);
        for _ in 0..10_000 {
            assert!(rng.gen_range(17) < 17);
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = Rng::new(5);
        let mean = Duration::from_millis(10);
        let n = 50_000u64;
        let total: u64 = (0..n).map(|_| rng.exponential(mean).as_nanos()).sum();
        let observed = total as f64 / n as f64;
        let expected = mean.as_nanos() as f64;
        assert!(
            (observed - expected).abs() / expected < 0.03,
            "observed mean {observed}, expected {expected}"
        );
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut rng = Rng::new(6);
        let median = Duration::from_millis(40);
        let mut xs: Vec<u64> = (0..20_001)
            .map(|_| rng.lognormal(median, 0.25).as_nanos())
            .collect();
        xs.sort_unstable();
        let observed = xs[xs.len() / 2] as f64;
        let expected = median.as_nanos() as f64;
        assert!(
            (observed - expected).abs() / expected < 0.05,
            "observed median {observed}, expected {expected}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
