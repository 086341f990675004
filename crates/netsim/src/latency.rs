//! Distance → delay conversion.
//!
//! One-way delay is modeled as
//!
//! ```text
//! delay = base + distance / v + jitter
//! ```
//!
//! where `v` is the effective propagation speed of long-haul fiber
//! (≈ 2/3 c, further derated for routing indirection), `base` covers local
//! serialization/queueing/last-mile overhead, and jitter is a small
//! deterministic pseudo-random component. With the defaults, a ~560 km
//! Cleveland–Chicago round trip lands in the tens of milliseconds and a
//! transatlantic round trip in the low hundreds — matching the magnitudes in
//! the paper's Table 2.

use rand::Rng;

use crate::geo::GeoPoint;
use crate::time::SimDuration;

/// Speed of light in vacuum, km per ms.
const C_KM_PER_MS: f64 = 299.792;

/// Fixed per-packet overhead (serialization, last mile), one way, in ms.
const BASE_MS: f64 = 1.5;
/// Fraction of c achieved end-to-end (fiber ≈ 0.67, derated to ≈ 0.47 for
/// path indirection).
const SPEED_FRACTION: f64 = 0.47;
/// Maximum uniform jitter added per packet, one way, in ms.
const JITTER_MS: f64 = 0.5;

/// The latency model. Packet loss is not its business: a
/// [`crate::FaultPlan`] drops packets before they are delayed.
#[derive(Debug, Clone, Default)]
pub struct LatencyModel {}

impl LatencyModel {
    /// Deterministic (jitter-free) one-way delay between two points.
    pub fn one_way_ms(&self, a: &GeoPoint, b: &GeoPoint) -> f64 {
        let dist = a.distance_km(b);
        BASE_MS + dist / (C_KM_PER_MS * SPEED_FRACTION)
    }

    /// Jitter-free round-trip time in ms.
    pub fn rtt_ms(&self, a: &GeoPoint, b: &GeoPoint) -> f64 {
        2.0 * self.one_way_ms(a, b)
    }

    /// Samples a one-way delay, adding jitter from `rng`.
    pub fn sample<R: Rng>(&self, a: &GeoPoint, b: &GeoPoint, rng: &mut R) -> SimDuration {
        self.jittered(self.one_way_ms(a, b), rng)
    }

    /// A one-way delay of `one_way_ms` (as [`LatencyModel::one_way_ms`]
    /// returned it) plus jitter from `rng`: [`LatencyModel::sample`] with
    /// the trigonometry already done.
    pub(crate) fn jittered<R: Rng>(&self, one_way_ms: f64, rng: &mut R) -> SimDuration {
        let jitter = rng.gen::<f64>() * JITTER_MS;
        SimDuration::from_millis_f64(one_way_ms + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::city;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rtt_magnitudes_match_paper_scale() {
        let m = LatencyModel::default();
        let cle = city("Cleveland").unwrap().pos;
        // Cleveland ↔ Chicago: paper observed ~35 ms application RTT; our
        // propagation-only model should be well under that but the right
        // order of magnitude (propagation sets the floor).
        let chi = city("Chicago").unwrap().pos;
        let rtt = m.rtt_ms(&cle, &chi);
        assert!((5.0..40.0).contains(&rtt), "{rtt}");
        // Cleveland ↔ Zurich (paper: 155 ms to Switzerland).
        let zrh = city("Zurich").unwrap().pos;
        let rtt = m.rtt_ms(&cle, &zrh);
        assert!((80.0..200.0).contains(&rtt), "{rtt}");
        // Cleveland ↔ Johannesburg (paper: 285 ms to South Africa).
        let jnb = city("Johannesburg").unwrap().pos;
        let rtt = m.rtt_ms(&cle, &jnb);
        assert!((150.0..400.0).contains(&rtt), "{rtt}");
        // Ordering must hold regardless of constants.
        assert!(m.rtt_ms(&cle, &chi) < m.rtt_ms(&cle, &zrh));
        assert!(m.rtt_ms(&cle, &zrh) < m.rtt_ms(&cle, &jnb));
    }

    #[test]
    fn sample_respects_bounds() {
        let m = LatencyModel::default();
        let mut rng = SmallRng::seed_from_u64(7);
        let a = city("London").unwrap().pos;
        let b = city("Paris").unwrap().pos;
        let floor = m.one_way_ms(&a, &b);
        for _ in 0..100 {
            let d = m.sample(&a, &b, &mut rng).as_millis_f64();
            assert!(d >= floor - 1e-6);
            assert!(d <= floor + JITTER_MS + 1e-6);
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let m = LatencyModel::default();
        let a = city("Tokyo").unwrap().pos;
        let b = city("Sydney").unwrap().pos;
        let s1: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..10).map(|_| m.sample(&a, &b, &mut rng)).collect()
        };
        let s2: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..10).map(|_| m.sample(&a, &b, &mut rng)).collect()
        };
        assert_eq!(s1, s2);
    }

    #[test]
    fn zero_distance_is_base_cost() {
        let m = LatencyModel::default();
        let a = city("Miami").unwrap().pos;
        assert!((m.one_way_ms(&a, &a) - BASE_MS).abs() < 1e-9);
    }
}
