//! Source-prefix construction policies (§6.2, Table 1).
//!
//! Given the client address a resolver believes it is acting for, the
//! policy decides what goes into the outgoing ECS option. Table 1 of the
//! paper shows the observed spread; every row is constructible here.

use std::net::IpAddr;

use dns_wire::{EcsOption, IpPrefix};

/// How a resolver builds the ECS prefix from a client address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixPolicy {
    /// Truncate to at most `v4`/`v6` bits — `Truncate { v4: 24, v6: 56 }`
    /// is the RFC recommendation; `{ v4: 25, .. }` reproduces the
    /// bit-leaking resolvers; `{ v4: 16, .. }` the coarse ones.
    Truncate {
        /// IPv4 maximum source prefix length.
        v4: u8,
        /// IPv6 maximum source prefix length.
        v6: u8,
    },
    /// Send the full address (source prefix 32/128). The "no truncation at
    /// all" rows of Table 1.
    Full,
    /// Send source prefix 32/128 but overwrite the last byte with a fixed
    /// value — the "jammed last byte" behaviour of the dominant AS's
    /// CDN-dataset resolvers (mostly 0x01, some 0x00). Reveals only 24 bits
    /// while *claiming* 32, which misleads authoritative servers.
    JammedFull {
        /// The constant final octet.
        jam: u8,
    },
    /// Pass through whatever prefix arrived from the client/forwarder,
    /// up to a maximum length (the resolvers that accept arbitrary client
    /// ECS; max 32 reproduces the privacy-eroding accepts-long class, max 22
    /// the /22-cap class when combined with `CacheCompliance::CapPrefix`).
    PassThrough {
        /// Maximum accepted/conveyed prefix length (IPv4; IPv6 uses 2×).
        max_v4: u8,
    },
    /// Use the resolver's own public address at /24 — the RFC-suggested,
    /// privacy-preserving option (and this paper's recommendation for
    /// probing).
    ResolverOwn,
    /// Send the loopback address (127.0.0.1/32) — the interval-probing
    /// resolvers of §6.1 and the §8.1 pitfall.
    Loopback,
    /// Send a private-space prefix (10.0.0.0/8 network, /24 source) — the
    /// PowerDNS misconfiguration of §8.1.
    PrivateLeak,
}

impl PrefixPolicy {
    /// The RFC 7871 recommended policy.
    pub fn rfc_recommended() -> Self {
        PrefixPolicy::Truncate { v4: 24, v6: 56 }
    }

    /// Builds the ECS option for a query.
    ///
    /// * `client` — address of the party the resolver acts for (its idea of
    ///   the client: the real client, the forwarder, or a hidden resolver);
    /// * `client_ecs` — ECS option received from downstream, if any (used
    ///   by [`PrefixPolicy::PassThrough`]);
    /// * `own_addr` — the resolver's own public address.
    pub fn build(
        &self,
        client: IpAddr,
        client_ecs: Option<&EcsOption>,
        own_addr: IpAddr,
    ) -> EcsOption {
        match *self {
            PrefixPolicy::Truncate { v4, v6 } => {
                let len = if client.is_ipv4() { v4 } else { v6 };
                EcsOption::new(client, len)
            }
            PrefixPolicy::Full => EcsOption::from_prefix(IpPrefix::host(client)),
            PrefixPolicy::JammedFull { jam } => match client {
                IpAddr::V4(a) => {
                    let mut o = a.octets();
                    o[3] = jam;
                    EcsOption::from_v4(o.into(), 32)
                }
                IpAddr::V6(a) => {
                    let mut o = a.octets();
                    o[15] = jam;
                    EcsOption::from_v6(o.into(), 128)
                }
            },
            PrefixPolicy::PassThrough { max_v4 } => match client_ecs {
                Some(opt) => {
                    let max = if opt.source_prefix().is_v4() {
                        max_v4
                    } else {
                        max_v4.saturating_mul(2)
                    };
                    let len = opt.source_prefix_len().min(max);
                    EcsOption::new(opt.addr(), len)
                }
                None => {
                    // Self-derived fallback still honors the cap (the /22
                    // resolvers convey 22 bits even for prefixes they build
                    // from the sender address themselves).
                    let len = if client.is_ipv4() {
                        24.min(max_v4)
                    } else {
                        56.min(max_v4.saturating_mul(2))
                    };
                    EcsOption::new(client, len)
                }
            },
            PrefixPolicy::ResolverOwn => {
                EcsOption::new(own_addr, if own_addr.is_ipv4() { 24 } else { 56 })
            }
            PrefixPolicy::Loopback => EcsOption::from_v4(std::net::Ipv4Addr::new(127, 0, 0, 1), 32),
            PrefixPolicy::PrivateLeak => {
                EcsOption::from_v4(std::net::Ipv4Addr::new(10, 0, 0, 0), 24)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 77));
    const OWN: IpAddr = IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8));

    #[test]
    fn rfc_truncation() {
        let e = PrefixPolicy::rfc_recommended().build(CLIENT, None, OWN);
        assert_eq!(e.source_prefix_len(), 24);
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(192, 0, 2, 0)));
        let v6: IpAddr = "2001:db8:a:b:c::1".parse().unwrap();
        let e = PrefixPolicy::rfc_recommended().build(v6, None, OWN);
        assert_eq!(e.source_prefix_len(), 56);
    }

    #[test]
    fn full_reveals_everything() {
        let e = PrefixPolicy::Full.build(CLIENT, None, OWN);
        assert_eq!(e.source_prefix_len(), 32);
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(192, 0, 2, 77)));
    }

    #[test]
    fn jammed_claims_32_reveals_24() {
        let e = PrefixPolicy::JammedFull { jam: 0x01 }.build(CLIENT, None, OWN);
        assert_eq!(e.source_prefix_len(), 32);
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(192, 0, 2, 1)));
        let e = PrefixPolicy::JammedFull { jam: 0x00 }.build(CLIENT, None, OWN);
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(192, 0, 2, 0)));
    }

    #[test]
    fn pass_through_respects_max() {
        let incoming = EcsOption::from_v4(Ipv4Addr::new(198, 51, 100, 99), 32);
        let e = PrefixPolicy::PassThrough { max_v4: 32 }.build(CLIENT, Some(&incoming), OWN);
        assert_eq!(e.source_prefix_len(), 32);
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(198, 51, 100, 99)));
        let e = PrefixPolicy::PassThrough { max_v4: 22 }.build(CLIENT, Some(&incoming), OWN);
        assert_eq!(e.source_prefix_len(), 22);
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(198, 51, 100, 0)));
        // Without incoming ECS, falls back to the sender at /24 (capped).
        let e = PrefixPolicy::PassThrough { max_v4: 32 }.build(CLIENT, None, OWN);
        assert_eq!(e.source_prefix_len(), 24);
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(192, 0, 2, 0)));
        let e = PrefixPolicy::PassThrough { max_v4: 22 }.build(CLIENT, None, OWN);
        assert_eq!(e.source_prefix_len(), 22);
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(192, 0, 0, 0)));
    }

    #[test]
    fn resolver_own_uses_public_address() {
        let e = PrefixPolicy::ResolverOwn.build(CLIENT, None, OWN);
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(8, 8, 8, 0)));
        assert_eq!(e.source_prefix_len(), 24);
    }

    #[test]
    fn loopback_and_private_are_non_routable() {
        let e = PrefixPolicy::Loopback.build(CLIENT, None, OWN);
        assert!(e.is_non_routable());
        assert_eq!(e.source_prefix_len(), 32);
        let e = PrefixPolicy::PrivateLeak.build(CLIENT, None, OWN);
        assert!(e.is_non_routable());
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(10, 0, 0, 0)));
    }

    #[test]
    fn truncate_25_leaks_one_extra_bit() {
        let p = PrefixPolicy::Truncate { v4: 25, v6: 56 };
        let e = p.build(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 200)), None, OWN);
        assert_eq!(e.source_prefix_len(), 25);
        assert_eq!(e.to_v4(), Some(Ipv4Addr::new(192, 0, 2, 128)));
    }
}
