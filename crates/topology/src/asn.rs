//! Autonomous systems: the unit of resolver ownership in the paper.
//!
//! The CDN dataset's 4147 ECS-enabled resolver addresses belong to 83 ASes,
//! with a single Chinese "dominant AS" holding 3067 of them; the Scan
//! dataset's non-Google egress resolvers span 45 ASes, 19 of them Chinese
//! ISPs. We model ASes as named entities with a home country and a set of
//! cities where they have presence.

use netsim::geo::{City, GeoPoint, CITIES};
use rand::seq::SliceRandom;
use rand::Rng;

/// Identifies an autonomous system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

/// An autonomous system with geographic presence.
#[derive(Debug, Clone)]
pub struct AutonomousSystem {
    /// AS number.
    pub id: AsId,
    /// Country of registration.
    pub country: &'static str,
    /// Cities where the AS operates infrastructure.
    pub cities: Vec<&'static City>,
}

impl AutonomousSystem {
    /// Picks one of the AS's cities.
    pub fn pick_city<R: Rng>(&self, rng: &mut R) -> &'static City {
        self.cities.choose(rng).expect("AS has at least one city")
    }

    /// A position near one of the AS's cities (within ~50 km), so co-located
    /// entities don't all share identical coordinates.
    pub fn pick_position<R: Rng>(&self, rng: &mut R) -> GeoPoint {
        let c = self.pick_city(rng);
        jitter_position(c.pos, 50.0, rng)
    }
}

/// Returns a point uniformly within roughly `radius_km` of `center`.
pub fn jitter_position<R: Rng>(center: GeoPoint, radius_km: f64, rng: &mut R) -> GeoPoint {
    // ~111 km per degree latitude; longitude shrinks with cos(lat).
    let dlat = (rng.gen::<f64>() - 0.5) * 2.0 * radius_km / 111.0;
    let coslat = center.lat.to_radians().cos().abs().max(0.05);
    let dlon = (rng.gen::<f64>() - 0.5) * 2.0 * radius_km / (111.0 * coslat);
    GeoPoint::new(center.lat + dlat, center.lon + dlon)
}

/// Builds a world AS population:
///
/// * one dominant Chinese AS (mirroring the paper's dominant AS);
/// * `chinese_ases - 1` further Chinese ASes (the paper: 19 Chinese ASes
///   among scan-dataset egress ASes);
/// * `other_ases` spread across the remaining countries in the city table.
pub fn generate_ases<R: Rng>(
    chinese_ases: usize,
    other_ases: usize,
    rng: &mut R,
) -> Vec<AutonomousSystem> {
    let chinese_cities: Vec<&'static City> = CITIES.iter().filter(|c| c.country == "CN").collect();
    let non_chinese: Vec<&'static City> = CITIES.iter().filter(|c| c.country != "CN").collect();

    let mut out = Vec::with_capacity(chinese_ases + other_ases);
    let mut next_id = 64_500u32; // private-use ASN range

    for i in 0..chinese_ases {
        let cities = if i == 0 {
            // The dominant AS is present in all major Chinese cities.
            chinese_cities.clone()
        } else {
            let mut cs = chinese_cities.clone();
            cs.shuffle(rng);
            cs.truncate(1 + rng.gen_range(0..2));
            cs
        };
        out.push(AutonomousSystem {
            id: AsId(next_id),
            country: "CN",
            cities,
        });
        next_id += 1;
    }

    for _ in 0..other_ases {
        let home = *non_chinese.choose(rng).expect("non-empty city table");
        // An AS concentrates in its home city, with a chance of one more
        // domestic point of presence.
        let mut cities = vec![home];
        if rng.gen_bool(0.3) {
            let extra: Vec<&'static City> = non_chinese
                .iter()
                .filter(|c| c.country == home.country && c.name != home.name)
                .copied()
                .collect();
            if let Some(e) = extra.choose(rng) {
                cities.push(*e);
            }
        }
        out.push(AutonomousSystem {
            id: AsId(next_id),
            country: home.country,
            cities,
        });
        next_id += 1;
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_counts() {
        let mut rng = SmallRng::seed_from_u64(1);
        let ases = generate_ases(19, 64, &mut rng);
        assert_eq!(ases.len(), 83); // the CDN dataset's AS count
        assert_eq!(ases.iter().filter(|a| a.country == "CN").count(), 19);
    }

    #[test]
    fn dominant_as_is_first_and_chinese() {
        let mut rng = SmallRng::seed_from_u64(2);
        let ases = generate_ases(5, 10, &mut rng);
        assert_eq!(ases[0].country, "CN");
        assert!(
            ases[0].cities.len() >= 3,
            "dominant AS covers Chinese cities"
        );
    }

    #[test]
    fn as_ids_are_unique() {
        let mut rng = SmallRng::seed_from_u64(3);
        let ases = generate_ases(10, 40, &mut rng);
        let mut ids: Vec<_> = ases.iter().map(|a| a.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn positions_are_near_home_cities() {
        let mut rng = SmallRng::seed_from_u64(4);
        let ases = generate_ases(2, 5, &mut rng);
        for a in &ases {
            let pos = a.pick_position(&mut rng);
            let close = a.cities.iter().any(|c| c.pos.distance_km(&pos) < 120.0);
            assert!(
                close,
                "AS{} position {pos} far from all home cities",
                a.id.0
            );
        }
    }

    #[test]
    fn jitter_stays_within_radius() {
        let mut rng = SmallRng::seed_from_u64(5);
        let center = GeoPoint::new(39.9, 116.4);
        for _ in 0..200 {
            let p = jitter_position(center, 50.0, &mut rng);
            // Allow slack for the lat/lon box vs circle difference.
            assert!(center.distance_km(&p) < 80.0);
        }
    }

    #[test]
    fn determinism_with_seed() {
        let a: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(6);
            generate_ases(4, 7, &mut rng).iter().map(|a| a.id).collect()
        };
        let b: Vec<_> = {
            let mut rng = SmallRng::seed_from_u64(6);
            generate_ases(4, 7, &mut rng).iter().map(|a| a.id).collect()
        };
        assert_eq!(a, b);
    }
}
