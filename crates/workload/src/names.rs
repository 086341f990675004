//! The hostname universe: second-level domains and hostnames under them.
//!
//! The All-Names dataset covers 134,925 unique hostnames in 19,014 SLDs
//! (§4) — about 7 hostnames per SLD, heavy-tailed. [`NameUniverse`]
//! generates a scaled version with the same shape, plus per-name TTL
//! assignment spanning the mix seen in the wild (CDN names at 20 s up to
//! static records at an hour).

use dns_wire::Name;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// A generated universe of names with popularity and TTLs.
#[derive(Debug, Clone)]
pub struct NameUniverse {
    names: Vec<Name>,
    ttls: Vec<u32>,
    popularity: Zipf,
}

/// TTL buckets mirroring common operational choices. Weights sum to 100.
const TTL_BUCKETS: &[(u32, u32)] = &[
    (20, 35), // CDN-style rapid re-mapping
    (60, 25),
    (300, 25),
    (3600, 15),
];

impl NameUniverse {
    /// Generates `sld_count` second-level domains with about
    /// `hostnames_per_sld` names each (1..2× spread), Zipf popularity with
    /// exponent `s`.
    pub fn generate(sld_count: usize, hostnames_per_sld: usize, s: f64, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut names = Vec::new();
        for sld_i in 0..sld_count {
            let tld = ["com", "net", "org", "io"][sld_i % 4];
            let sld = Name::from_ascii(&format!("sld{sld_i}.{tld}")).expect("valid");
            let n = if hostnames_per_sld <= 1 {
                1
            } else {
                rng.gen_range(1..hostnames_per_sld * 2)
            };
            for h in 0..n {
                let label = match h {
                    0 => "www".to_string(),
                    1 => "img".to_string(),
                    2 => "api".to_string(),
                    other => format!("h{other}"),
                };
                names.push(sld.child(&label).expect("valid"));
            }
        }
        let ttls = names
            .iter()
            .map(|_| {
                let roll = rng.gen_range(0..100u32);
                let mut acc = 0;
                for &(ttl, w) in TTL_BUCKETS {
                    acc += w;
                    if roll < acc {
                        return ttl;
                    }
                }
                3600
            })
            .collect();
        let popularity = Zipf::new(names.len(), s);
        NameUniverse {
            names,
            ttls,
            popularity,
        }
    }

    /// Number of hostnames.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when empty (never: generation requires ≥ 1 SLD).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name at a rank.
    pub fn name(&self, idx: usize) -> &Name {
        &self.names[idx]
    }

    /// Authoritative TTL of a name.
    pub fn ttl(&self, idx: usize) -> u32 {
        self.ttls[idx]
    }

    /// Overrides every TTL (for the Fig-1 sweeps where the CDN returns a
    /// fixed TTL).
    pub fn set_uniform_ttl(&mut self, ttl: u32) {
        for t in &mut self.ttls {
            *t = ttl;
        }
    }

    /// Samples a name index by popularity.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.popularity.sample(rng)
    }

    /// All names (rank order).
    pub fn names(&self) -> &[Name] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let u = NameUniverse::generate(100, 7, 1.0, 1);
        assert!(u.len() >= 100);
        // Mean ≈ 7 names per SLD.
        let per_sld = u.len() as f64 / 100.0;
        assert!((3.0..12.0).contains(&per_sld), "{per_sld}");
        assert!(!u.is_empty());
    }

    #[test]
    fn names_are_unique_and_valid() {
        let u = NameUniverse::generate(50, 5, 1.0, 2);
        let mut set = std::collections::HashSet::new();
        for n in u.names() {
            assert!(n.label_count() >= 3);
            assert!(set.insert(n.clone()), "duplicate {n}");
        }
    }

    #[test]
    fn ttls_come_from_buckets() {
        let u = NameUniverse::generate(200, 5, 1.0, 3);
        let allowed = [20, 60, 300, 3600];
        let mut seen = std::collections::HashSet::new();
        for i in 0..u.len() {
            assert!(allowed.contains(&u.ttl(i)));
            seen.insert(u.ttl(i));
        }
        assert!(seen.len() >= 3, "TTL mix should be diverse");
        let mut u2 = u.clone();
        u2.set_uniform_ttl(20);
        assert!((0..u2.len()).all(|i| u2.ttl(i) == 20));
    }

    #[test]
    fn popularity_sampling_is_heavy_tailed() {
        let u = NameUniverse::generate(100, 5, 1.0, 4);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut count0 = 0;
        for _ in 0..10_000 {
            if u.sample(&mut rng) == 0 {
                count0 += 1;
            }
        }
        assert!(count0 > 200, "rank 0 should be hot: {count0}");
    }

    #[test]
    fn deterministic() {
        let a = NameUniverse::generate(30, 4, 1.0, 7);
        let b = NameUniverse::generate(30, 4, 1.0, 7);
        assert_eq!(a.names(), b.names());
    }
}
