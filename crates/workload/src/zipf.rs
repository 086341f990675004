//! Zipf-distributed sampling for name popularity.
//!
//! DNS name popularity is famously heavy-tailed; the cache analyses (§7)
//! are meaningless under uniform traffic. This sampler draws ranks
//! `0..n` with probability ∝ `1/(rank+1)^s` by inverting the CDF: a guide
//! table maps the draw's bucket of `[0, 1)` to the first rank that bucket
//! can reach, and a short forward scan finishes — O(1) expected per
//! sample, deterministic for a given RNG.

use rand::Rng;

/// A Zipf sampler over `n` ranks with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[b]` is the first rank whose CDF value is ≥ `b / guide.len()`
    /// (clamped to the last rank): where the scan for any `u` in bucket `b`
    /// starts. The length is a power of two ≥ 2n, so `u · len` is exact and
    /// a bucket holds half a CDF value on average.
    guide: Vec<u32>,
}

impl Zipf {
    /// Creates a sampler. `n` must be ≥ 1; `s` is typically 0.8–1.2 for
    /// DNS workloads.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        assert!(n <= u32::MAX as usize, "Zipf ranks are indexed by u32");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let buckets = (2 * n).next_power_of_two();
        let mut guide = Vec::with_capacity(buckets);
        let mut rank = 0usize;
        for b in 0..buckets {
            let edge = b as f64 / buckets as f64;
            while rank < n - 1 && cdf[rank] < edge {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Zipf { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there is a single rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Samples a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First rank whose CDF value is >= u, or the last rank. `u < 1`
        // keeps the bucket in range.
        let last = self.cdf.len() - 1;
        let mut rank = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while rank < last && self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn rank_zero_dominates() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Under Zipf(1.0, 1000): P(0) ≈ 0.133, P(1) ≈ 0.067.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
        let p0 = counts[0] as f64 / 100_000.0;
        assert!((0.10..0.17).contains(&p0), "{p0}");
    }

    #[test]
    fn single_rank_always_zero() {
        let z = Zipf::new(1, 1.0);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let p = c as f64 / 100_000.0;
            assert!((0.08..0.12).contains(&p), "{p}");
        }
    }

    #[test]
    fn deterministic_with_seed() {
        let z = Zipf::new(50, 1.1);
        let a: Vec<usize> = {
            let mut rng = SmallRng::seed_from_u64(9);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = SmallRng::seed_from_u64(9);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
