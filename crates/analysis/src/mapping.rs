//! Mapping-quality evaluation (§8.1 Table 2, §8.3 Figures 6–7).
//!
//! The paper measures "quality" as the TCP handshake time from a probe
//! (RIPE Atlas node / lab machine) to the first IP address in the DNS
//! answer. In the simulation that is one network RTT between the probe's
//! position and the returned edge's position, which the latency model
//! provides directly.

use std::collections::HashSet;
use std::net::IpAddr;

use netsim::{GeoPoint, LatencyModel};

use crate::stats::Cdf;

/// One probe's outcome: where it is and which edge it was given.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectTimeSample {
    /// Probe position.
    pub probe: GeoPoint,
    /// First answer address.
    pub edge_addr: IpAddr,
    /// Edge position.
    pub edge: GeoPoint,
}

impl ConnectTimeSample {
    /// Simulated TCP handshake time: one RTT.
    fn connect_ms(&self, latency: &LatencyModel) -> f64 {
        latency.rtt_ms(&self.probe, &self.edge)
    }
}

/// Aggregated mapping quality for one experiment condition (e.g. one
/// source prefix length in Figure 6).
#[derive(Debug, Clone)]
pub struct MappingQuality {
    /// CDF of connect times in ms.
    pub connect_cdf: Cdf,
    /// Number of distinct first-answer addresses across probes (the
    /// 400-vs-5 signal that CDN-1 stopped doing proximity mapping).
    pub unique_first_answers: usize,
    /// Median connect time (ms).
    pub median_ms: f64,
}

impl MappingQuality {
    /// Builds the summary from samples.
    pub fn from_samples(samples: &[ConnectTimeSample], latency: &LatencyModel) -> Self {
        let times: Vec<f64> = samples.iter().map(|s| s.connect_ms(latency)).collect();
        let unique: HashSet<IpAddr> = samples.iter().map(|s| s.edge_addr).collect();
        let cdf = Cdf::new(times);
        let median_ms = cdf.quantile(0.5);
        MappingQuality {
            connect_cdf: cdf,
            unique_first_answers: unique.len(),
            median_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::city;
    use std::net::Ipv4Addr;

    fn sample(probe: &str, edge: &str, a: u8) -> ConnectTimeSample {
        ConnectTimeSample {
            probe: city(probe).unwrap().pos,
            edge_addr: IpAddr::V4(Ipv4Addr::new(203, 0, 113, a)),
            edge: city(edge).unwrap().pos,
        }
    }

    #[test]
    fn near_mapping_beats_far_mapping() {
        let latency = LatencyModel::default();
        let near = MappingQuality::from_samples(
            &[
                sample("Cleveland", "Chicago", 1),
                sample("Paris", "London", 2),
                sample("Seoul", "Tokyo", 3),
            ],
            &latency,
        );
        let far = MappingQuality::from_samples(
            &[
                sample("Cleveland", "Johannesburg", 1),
                sample("Paris", "Sydney", 2),
                sample("Seoul", "Sao Paulo", 3),
            ],
            &latency,
        );
        assert!(near.median_ms < far.median_ms / 3.0);
        assert_eq!(near.unique_first_answers, 3);
    }

    #[test]
    fn unique_answer_collapse_detected() {
        let latency = LatencyModel::default();
        // All probes handed the same edge: the degraded-CDN signature.
        let q = MappingQuality::from_samples(
            &[
                sample("Cleveland", "Singapore", 7),
                sample("Paris", "Singapore", 7),
                sample("Seoul", "Singapore", 7),
            ],
            &latency,
        );
        assert_eq!(q.unique_first_answers, 1);
        assert_eq!(q.connect_cdf.len(), 3);
    }

    #[test]
    fn connect_ms_is_one_rtt() {
        let latency = LatencyModel::default();
        let s = sample("Cleveland", "Chicago", 1);
        let expected = latency.rtt_ms(
            &city("Cleveland").unwrap().pos,
            &city("Chicago").unwrap().pos,
        );
        assert!((s.connect_ms(&latency) - expected).abs() < 1e-9);
    }
}
