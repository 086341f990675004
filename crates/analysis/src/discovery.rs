//! Passive vs. active discovery of ECS resolvers (§5).
//!
//! The paper compares resolvers discovered passively (CDN logs) with those
//! found actively (scanning through open forwarders): the scan found far
//! fewer (278 non-Google, against every resolver of
//! [`workload::PROBING_TABLE`] passively), but most scan-discovered
//! resolvers (234 of 278) also appear in the passive logs.

use std::collections::HashSet;
use std::net::IpAddr;

/// Overlap summary between two discovery methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryOverlap {
    /// Resolvers only the passive method found.
    pub passive_only: usize,
    /// Resolvers only the active method found.
    pub active_only: usize,
    /// Resolvers both methods found.
    pub both: usize,
}

impl DiscoveryOverlap {
    /// Computes the overlap.
    pub fn compute(passive: &HashSet<IpAddr>, active: &HashSet<IpAddr>) -> Self {
        let both = passive.intersection(active).count();
        DiscoveryOverlap {
            passive_only: passive.len() - both,
            active_only: active.len() - both,
            both,
        }
    }

    /// Total resolvers the passive method discovered.
    pub fn passive_total(&self) -> usize {
        self.passive_only + self.both
    }

    /// Total resolvers the active method discovered.
    pub fn active_total(&self) -> usize {
        self.active_only + self.both
    }

    /// Fraction of actively discovered resolvers also seen passively
    /// (paper: 234/278 ≈ 84%).
    pub fn active_coverage_by_passive(&self) -> f64 {
        if self.active_total() == 0 {
            0.0
        } else {
            self.both as f64 / self.active_total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(a: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, a))
    }

    #[test]
    fn overlap_math() {
        let passive: HashSet<IpAddr> = (1..=10).map(ip).collect();
        let active: HashSet<IpAddr> = (8..=12).map(ip).collect();
        let o = DiscoveryOverlap::compute(&passive, &active);
        assert_eq!(o.both, 3);
        assert_eq!(o.passive_only, 7);
        assert_eq!(o.active_only, 2);
        assert_eq!(o.passive_total(), 10);
        assert_eq!(o.active_total(), 5);
        assert!((o.active_coverage_by_passive() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_sets() {
        let empty = HashSet::new();
        let o = DiscoveryOverlap::compute(&empty, &empty);
        assert_eq!(o.both, 0);
        assert_eq!(o.active_coverage_by_passive(), 0.0);
    }
}
