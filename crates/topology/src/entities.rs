//! Descriptions of the actors in a DNS resolution path.
//!
//! Terminology follows the paper (§3): *ingress* resolvers (here,
//! forwarders) take queries from end hosts; *egress* resolvers talk to
//! authoritative nameservers; *hidden* resolvers sit in between and were
//! believed unobservable before ECS exposed them.

use dns_wire::IpPrefix;
use netsim::GeoPoint;
use std::net::IpAddr;

use crate::asn::AsId;

/// An end host (stub client) behind a forwarder or talking directly to a
/// resolution service.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSpec {
    /// The client's own address.
    pub addr: IpAddr,
    /// The client's /24 (IPv4) or /48 (IPv6) subnet.
    pub subnet: IpPrefix,
    /// Geographic location.
    pub pos: GeoPoint,
    /// Home AS.
    pub asn: AsId,
}

/// An open ingress resolver (forwarder). Most are home routers that simply
/// relay queries to a recursive resolver.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwarderSpec {
    /// The forwarder's address.
    pub addr: IpAddr,
    /// Location (typically colocated with its clients).
    pub pos: GeoPoint,
    /// Home AS.
    pub asn: AsId,
    /// Index of the chain this forwarder uses (into [`crate::World::chains`]).
    pub chain: usize,
}

/// A hidden resolver: an intermediary between forwarders and egress
/// resolvers. Many real deployments put these far from the clients —
/// the §8.2 pitfall.
#[derive(Debug, Clone, PartialEq)]
pub struct HiddenResolverSpec {
    /// Address (what egress resolvers see as the query source).
    pub addr: IpAddr,
    /// Location.
    pub pos: GeoPoint,
    /// Home AS.
    pub asn: AsId,
}

/// An egress (recursive) resolver: the party that queries authoritative
/// nameservers, adds ECS options, and maintains the cache under study.
#[derive(Debug, Clone, PartialEq)]
pub struct EgressResolverSpec {
    /// Address seen by authoritative nameservers.
    pub addr: IpAddr,
    /// Location.
    pub pos: GeoPoint,
    /// Home AS.
    pub asn: AsId,
    /// True when the resolver belongs to the major public (anycast) DNS
    /// service — "MP resolver" in the paper's §8.2 terminology.
    pub public_service: bool,
}

/// A resolution path from forwarder to egress. The paper observes paths
/// with zero or more hidden hops; we model zero or one, which captures the
/// phenomena studied (§8.2 footnote: resolvers report hidden resolvers at
/// /24 granularity, one level deep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainSpec {
    /// Index into [`crate::World::hidden_resolvers`], if the path includes a
    /// hidden hop.
    pub hidden: Option<usize>,
    /// Index into [`crate::World::egress_resolvers`].
    pub egress: usize,
}

/// An anycast public DNS resolution service: front-ends that accept client
/// queries and stamp the client's subnet into ECS, plus the egress resolver
/// pool behind them. Models the "major public DNS service" / All-Names
/// resolver service of §4.
#[derive(Debug, Clone, PartialEq)]
pub struct PublicServiceSpec {
    /// Front-end addresses/locations (one per region).
    pub frontends: Vec<(IpAddr, GeoPoint)>,
    /// Indices of the service's egress resolvers in
    /// [`crate::World::egress_resolvers`].
    pub egress_indices: Vec<usize>,
}

/// One CDN edge server (or edge cluster virtual IP).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeServerSpec {
    /// Virtual IP returned in DNS answers.
    pub addr: IpAddr,
    /// Location.
    pub pos: GeoPoint,
    /// Human-readable deployment city.
    pub city: String,
}

/// A CDN's serving footprint: edge servers spread across the world.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CdnFootprint {
    /// All deployed edges.
    pub edges: Vec<EdgeServerSpec>,
}

impl CdnFootprint {
    /// Deterministically maps an opaque key (e.g. a hashed DNS name or an
    /// unroutable prefix) to an arbitrary edge. This reproduces the §8.1
    /// behaviour where unroutable ECS prefixes get answers uncorrelated
    /// with the querier's location.
    pub fn arbitrary_edge(&self, key: u64) -> Option<usize> {
        if self.edges.is_empty() {
            None
        } else {
            Some((key % self.edges.len() as u64) as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geo::city;
    use std::net::Ipv4Addr;

    fn edge(name: &str, a: u8) -> EdgeServerSpec {
        let c = city(name).unwrap();
        EdgeServerSpec {
            addr: IpAddr::V4(Ipv4Addr::new(203, 0, 113, a)),
            pos: c.pos,
            city: name.to_string(),
        }
    }

    #[test]
    fn arbitrary_edge_of_an_empty_footprint_is_none() {
        assert_eq!(CdnFootprint::default().arbitrary_edge(7), None);
    }

    #[test]
    fn arbitrary_edge_is_deterministic_and_in_range() {
        let cdn = CdnFootprint {
            edges: vec![edge("Chicago", 1), edge("Zurich", 2), edge("Tokyo", 3)],
        };
        for key in 0..100u64 {
            let a = cdn.arbitrary_edge(key).unwrap();
            let b = cdn.arbitrary_edge(key).unwrap();
            assert_eq!(a, b);
            assert!(a < 3);
        }
        // Different keys reach different edges.
        let distinct: std::collections::HashSet<_> = (0..100u64)
            .map(|k| cdn.arbitrary_edge(k).unwrap())
            .collect();
        assert_eq!(distinct.len(), 3);
    }
}
