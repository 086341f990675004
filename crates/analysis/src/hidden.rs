//! Hidden-resolver distance analysis (§8.2, Figures 4–5).
//!
//! ECS accidentally exposed a previously unobservable component: when a
//! resolver derives its ECS prefix from the *immediate sender* of a query,
//! and that sender is an intermediary ("hidden") resolver, the prefix in
//! the authoritative's log covers neither the probed forwarder nor the
//! egress resolver. Comparing the forwarder→hidden distance (F-H) against
//! forwarder→recursive (F-R) shows whether ECS helped or hurt the
//! authoritative's understanding of client location.

use netsim::GeoPoint;

use crate::stats::Cdf;

/// One (forwarder, hidden, recursive) combination with geolocated members.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceCombo {
    /// Forwarder position.
    pub forwarder: GeoPoint,
    /// Hidden-resolver position (geolocated from the ECS prefix).
    pub hidden: GeoPoint,
    /// Egress (recursive) resolver position.
    pub recursive: GeoPoint,
    /// Whether the egress belongs to the major public service.
    pub via_public_service: bool,
}

impl DistanceCombo {
    /// Forwarder→hidden distance (km).
    fn f_h_km(&self) -> f64 {
        self.forwarder.distance_km(&self.hidden)
    }

    /// Forwarder→recursive distance (km).
    fn f_r_km(&self) -> f64 {
        self.forwarder.distance_km(&self.recursive)
    }
}

/// The Figure-4/5 summary for a set of combinations.
#[derive(Debug, Clone)]
pub struct HiddenResolverReport {
    /// Combos where the hidden resolver is FARTHER from the forwarder than
    /// the recursive is (below the diagonal — ECS actively hurts; paper: 8%
    /// for the MP resolver, 7.8% for others).
    pub below_diagonal: usize,
    /// Combos where both are equidistant within tolerance (paper: 1.3% /
    /// 19.5%).
    pub on_diagonal: usize,
    /// Combos where the hidden resolver is closer (ECS helps; paper:
    /// 90.7% / 72.7%).
    pub above_diagonal: usize,
    /// CDF of F-H distances.
    pub f_h_cdf: Cdf,
    /// CDF of F-R distances.
    pub f_r_cdf: Cdf,
    /// The raw (F-H, F-R) points for binning/plotting.
    pub points: Vec<(f64, f64)>,
}

/// Analyses a set of combos with a distance tolerance (km) for the
/// diagonal.
pub struct HiddenAnalysis {
    /// Equidistance tolerance in km.
    pub tolerance_km: f64,
}

impl Default for HiddenAnalysis {
    fn default() -> Self {
        HiddenAnalysis { tolerance_km: 50.0 }
    }
}

impl HiddenAnalysis {
    /// Produces the report.
    pub fn analyze(&self, combos: &[DistanceCombo]) -> HiddenResolverReport {
        let mut below = 0;
        let mut on = 0;
        let mut above = 0;
        let mut points = Vec::with_capacity(combos.len());
        for c in combos {
            let fh = c.f_h_km();
            let fr = c.f_r_km();
            points.push((fh, fr));
            if (fh - fr).abs() <= self.tolerance_km {
                on += 1;
            } else if fh > fr {
                below += 1; // hidden farther → ECS delivers a worse proxy
            } else {
                above += 1;
            }
        }
        HiddenResolverReport {
            below_diagonal: below,
            on_diagonal: on,
            above_diagonal: above,
            f_h_cdf: Cdf::new(points.iter().map(|(x, _)| *x).collect()),
            f_r_cdf: Cdf::new(points.iter().map(|(_, y)| *y).collect()),
            points,
        }
    }
}

impl HiddenResolverReport {
    /// Total combos.
    pub fn total(&self) -> usize {
        self.below_diagonal + self.on_diagonal + self.above_diagonal
    }

    /// Fraction below the diagonal (ECS harmful).
    pub fn harmful_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.below_diagonal as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::city;

    fn combo(f: &str, h: &str, r: &str) -> DistanceCombo {
        DistanceCombo {
            forwarder: city(f).unwrap().pos,
            hidden: city(h).unwrap().pos,
            recursive: city(r).unwrap().pos,
            via_public_service: true,
        }
    }

    #[test]
    fn santiago_italy_case_is_below_diagonal() {
        // The paper's flagship example: forwarder and recursive both in
        // Santiago, hidden in Italy 12,000 km away.
        let c = combo("Santiago", "Milan", "Santiago");
        assert!(c.f_h_km() > 10_000.0);
        assert!(c.f_r_km() < 50.0);
        let report = HiddenAnalysis::default().analyze(&[c]);
        assert_eq!(report.below_diagonal, 1);
        assert_eq!(report.harmful_fraction(), 1.0);
    }

    #[test]
    fn diagonal_classification() {
        let combos = vec![
            // Hidden nearby, recursive far → above (ECS helps).
            combo("Beijing", "Beijing", "Guangzhou"),
            // Hidden far, recursive near → below (ECS hurts).
            combo("Beijing", "Guangzhou", "Beijing"),
            // Both in the same city → on diagonal.
            combo("Shanghai", "Shanghai", "Shanghai"),
        ];
        let r = HiddenAnalysis::default().analyze(&combos);
        assert_eq!(r.above_diagonal, 1);
        assert_eq!(r.below_diagonal, 1);
        assert_eq!(r.on_diagonal, 1);
        assert_eq!(r.total(), 3);
        assert_eq!(r.points.len(), 3);
        assert!(r.f_h_cdf.len() == 3 && r.f_r_cdf.len() == 3);
    }
}
