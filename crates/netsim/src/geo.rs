//! Geographic positions and great-circle distances.
//!
//! The paper's mapping-quality arguments (§8.1–§8.3) are all about
//! *distance*: an edge server across the globe costs hundreds of
//! milliseconds. Every simulated node carries a [`GeoPoint`]; the latency
//! model converts haversine distance to propagation delay.

use std::fmt;

/// Mean Earth radius in kilometres.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// A point on the Earth's surface (degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north. Clamped to [-90, 90].
    pub lat: f64,
    /// Longitude in degrees, positive east. Normalized to [-180, 180).
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, clamping latitude and wrapping longitude.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0) % 360.0;
        if lon < 0.0 {
            lon += 360.0;
        }
        GeoPoint {
            lat,
            lon: lon - 180.0,
        }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().min(1.0).asin()
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.lat, self.lon)
    }
}

/// A named city used to place simulated infrastructure. The table below
/// covers the locations the paper mentions (Cleveland, Chicago, Mountain
/// View, Switzerland, South Africa, Santiago, Italy, Beijing, Shanghai,
/// Guangzhou, Toronto, Amsterdam) plus enough world coverage for synthetic
/// populations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct City {
    /// City name.
    pub name: &'static str,
    /// ISO-like country tag.
    pub country: &'static str,
    /// Position.
    pub pos: GeoPoint,
}

/// World city table for topology generation.
pub const CITIES: &[City] = &[
    City {
        name: "Cleveland",
        country: "US",
        pos: GeoPoint {
            lat: 41.50,
            lon: -81.69,
        },
    },
    City {
        name: "Chicago",
        country: "US",
        pos: GeoPoint {
            lat: 41.88,
            lon: -87.63,
        },
    },
    City {
        name: "New York",
        country: "US",
        pos: GeoPoint {
            lat: 40.71,
            lon: -74.01,
        },
    },
    City {
        name: "Mountain View",
        country: "US",
        pos: GeoPoint {
            lat: 37.39,
            lon: -122.08,
        },
    },
    City {
        name: "Seattle",
        country: "US",
        pos: GeoPoint {
            lat: 47.61,
            lon: -122.33,
        },
    },
    City {
        name: "Dallas",
        country: "US",
        pos: GeoPoint {
            lat: 32.78,
            lon: -96.80,
        },
    },
    City {
        name: "Miami",
        country: "US",
        pos: GeoPoint {
            lat: 25.76,
            lon: -80.19,
        },
    },
    City {
        name: "Toronto",
        country: "CA",
        pos: GeoPoint {
            lat: 43.65,
            lon: -79.38,
        },
    },
    City {
        name: "Mexico City",
        country: "MX",
        pos: GeoPoint {
            lat: 19.43,
            lon: -99.13,
        },
    },
    City {
        name: "Sao Paulo",
        country: "BR",
        pos: GeoPoint {
            lat: -23.55,
            lon: -46.63,
        },
    },
    City {
        name: "Santiago",
        country: "CL",
        pos: GeoPoint {
            lat: -33.45,
            lon: -70.67,
        },
    },
    City {
        name: "London",
        country: "GB",
        pos: GeoPoint {
            lat: 51.51,
            lon: -0.13,
        },
    },
    City {
        name: "Amsterdam",
        country: "NL",
        pos: GeoPoint {
            lat: 52.37,
            lon: 4.90,
        },
    },
    City {
        name: "Frankfurt",
        country: "DE",
        pos: GeoPoint {
            lat: 50.11,
            lon: 8.68,
        },
    },
    City {
        name: "Paris",
        country: "FR",
        pos: GeoPoint {
            lat: 48.86,
            lon: 2.35,
        },
    },
    City {
        name: "Zurich",
        country: "CH",
        pos: GeoPoint {
            lat: 47.38,
            lon: 8.54,
        },
    },
    City {
        name: "Milan",
        country: "IT",
        pos: GeoPoint {
            lat: 45.46,
            lon: 9.19,
        },
    },
    City {
        name: "Madrid",
        country: "ES",
        pos: GeoPoint {
            lat: 40.42,
            lon: -3.70,
        },
    },
    City {
        name: "Stockholm",
        country: "SE",
        pos: GeoPoint {
            lat: 59.33,
            lon: 18.07,
        },
    },
    City {
        name: "Warsaw",
        country: "PL",
        pos: GeoPoint {
            lat: 52.23,
            lon: 21.01,
        },
    },
    City {
        name: "Moscow",
        country: "RU",
        pos: GeoPoint {
            lat: 55.76,
            lon: 37.62,
        },
    },
    City {
        name: "Istanbul",
        country: "TR",
        pos: GeoPoint {
            lat: 41.01,
            lon: 28.98,
        },
    },
    City {
        name: "Dubai",
        country: "AE",
        pos: GeoPoint {
            lat: 25.20,
            lon: 55.27,
        },
    },
    City {
        name: "Johannesburg",
        country: "ZA",
        pos: GeoPoint {
            lat: -26.20,
            lon: 28.05,
        },
    },
    City {
        name: "Lagos",
        country: "NG",
        pos: GeoPoint {
            lat: 6.52,
            lon: 3.38,
        },
    },
    City {
        name: "Cairo",
        country: "EG",
        pos: GeoPoint {
            lat: 30.04,
            lon: 31.24,
        },
    },
    City {
        name: "Mumbai",
        country: "IN",
        pos: GeoPoint {
            lat: 19.08,
            lon: 72.88,
        },
    },
    City {
        name: "Delhi",
        country: "IN",
        pos: GeoPoint {
            lat: 28.70,
            lon: 77.10,
        },
    },
    City {
        name: "Singapore",
        country: "SG",
        pos: GeoPoint {
            lat: 1.35,
            lon: 103.82,
        },
    },
    City {
        name: "Jakarta",
        country: "ID",
        pos: GeoPoint {
            lat: -6.21,
            lon: 106.85,
        },
    },
    City {
        name: "Hong Kong",
        country: "HK",
        pos: GeoPoint {
            lat: 22.32,
            lon: 114.17,
        },
    },
    City {
        name: "Beijing",
        country: "CN",
        pos: GeoPoint {
            lat: 39.90,
            lon: 116.41,
        },
    },
    City {
        name: "Shanghai",
        country: "CN",
        pos: GeoPoint {
            lat: 31.23,
            lon: 121.47,
        },
    },
    City {
        name: "Guangzhou",
        country: "CN",
        pos: GeoPoint {
            lat: 23.13,
            lon: 113.26,
        },
    },
    City {
        name: "Chengdu",
        country: "CN",
        pos: GeoPoint {
            lat: 30.57,
            lon: 104.07,
        },
    },
    City {
        name: "Seoul",
        country: "KR",
        pos: GeoPoint {
            lat: 37.57,
            lon: 126.98,
        },
    },
    City {
        name: "Tokyo",
        country: "JP",
        pos: GeoPoint {
            lat: 35.68,
            lon: 139.69,
        },
    },
    City {
        name: "Sydney",
        country: "AU",
        pos: GeoPoint {
            lat: -33.87,
            lon: 151.21,
        },
    },
    City {
        name: "Auckland",
        country: "NZ",
        pos: GeoPoint {
            lat: -36.85,
            lon: 174.76,
        },
    },
];

/// Looks up a city by name.
pub fn city(name: &str) -> Option<&'static City> {
    CITIES.iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = GeoPoint::new(41.5, -81.7);
        assert!(p.distance_km(&p) < 1e-6);
    }

    #[test]
    fn known_distances() {
        // Cleveland to Chicago: ~500 km.
        let d = city("Cleveland")
            .unwrap()
            .pos
            .distance_km(&city("Chicago").unwrap().pos);
        assert!((400.0..600.0).contains(&d), "{d}");
        // Beijing to Shanghai: ~1070 km (the paper cites ~1000 km).
        let d = city("Beijing")
            .unwrap()
            .pos
            .distance_km(&city("Shanghai").unwrap().pos);
        assert!((950.0..1200.0).contains(&d), "{d}");
        // Beijing to Guangzhou: ~1900 km (paper: ~2000 km).
        let d = city("Beijing")
            .unwrap()
            .pos
            .distance_km(&city("Guangzhou").unwrap().pos);
        assert!((1700.0..2100.0).contains(&d), "{d}");
        // Santiago to Milan: ~12000 km (the paper's Chile/Italy example).
        let d = city("Santiago")
            .unwrap()
            .pos
            .distance_km(&city("Milan").unwrap().pos);
        assert!((11_000.0..13_000.0).contains(&d), "{d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = city("Tokyo").unwrap().pos;
        let b = city("London").unwrap().pos;
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn antipodal_distance_near_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = a.distance_km(&b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "{d} vs {half}");
    }

    #[test]
    fn constructor_normalizes() {
        let p = GeoPoint::new(95.0, 190.0);
        assert_eq!(p.lat, 90.0);
        assert!((-180.0..180.0).contains(&p.lon));
        let q = GeoPoint::new(0.0, -190.0);
        assert!((q.lon - 170.0).abs() < 1e-9, "{}", q.lon);
    }

    #[test]
    fn city_table_has_papers_locations() {
        for name in [
            "Cleveland",
            "Chicago",
            "Mountain View",
            "Zurich",
            "Johannesburg",
            "Santiago",
            "Milan",
            "Beijing",
            "Shanghai",
            "Guangzhou",
            "Toronto",
            "Amsterdam",
        ] {
            assert!(city(name).is_some(), "missing {name}");
        }
        assert!(CITIES.len() >= 30);
    }

    #[test]
    fn triangle_inequality_samples() {
        let a = city("London").unwrap().pos;
        let b = city("Dubai").unwrap().pos;
        let c = city("Singapore").unwrap().pos;
        assert!(a.distance_km(&c) <= a.distance_km(&b) + b.distance_km(&c) + 1e-6);
    }
}
