//! Resolver configuration: one struct that composes a prefix policy, a
//! probing strategy, and a cache-compliance mode into a full behaviour
//! profile — including presets for every resolver class the paper observed.

use std::net::IpAddr;

use netsim::{SimDuration, Transport};

use crate::cache::{CacheCompliance, CacheLimits};
use crate::prefix_policy::PrefixPolicy;
use crate::probing::ProbingStrategy;

/// Retry/backoff policy for upstream exchanges.
///
/// Attempts are spaced on the *SimTime axis*: after a timed-out attempt the
/// engine advances its virtual clock by the current timeout and doubles
/// the timeout (exponential backoff, RFC 1035 §4.2.1 spirit).
/// The ECS knobs implement RFC 7871 §7.1.3: a resolver whose ECS query goes
/// unanswered retries without the option and remembers the server as
/// non-ECS.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Attempts spent on each rung of the transport ladder (first try +
    /// retries), ≥ 1 — per upstream exchange on the default UDP-only
    /// ladder.
    pub attempts: u8,
    /// Timeout of the first attempt.
    pub initial_timeout: SimDuration,
    /// RFC 7871 §7.1.3: when an ECS query times out, withdraw the option
    /// from the retry and mark the server non-ECS in the probing state.
    pub withdraw_ecs_on_timeout: bool,
    /// Retry FORMERR responses to ECS queries once without the option
    /// (ECS-intolerant middleboxes/servers). Off by default: the stock
    /// engine surfaces FORMERR to the client unchanged.
    pub withdraw_ecs_on_formerr: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            initial_timeout: SimDuration::from_secs(2),
            withdraw_ecs_on_timeout: true,
            withdraw_ecs_on_formerr: false,
        }
    }
}

impl RetryPolicy {
    /// The timeout in effect for 0-based attempt `attempt`
    /// (`initial_timeout * 2^attempt`, rounded to microseconds; saturates
    /// at `u64::MAX` µs from attempt 44).
    pub fn timeout_for(&self, attempt: u8) -> SimDuration {
        let scale = 2.0_f64.powi(attempt as i32);
        SimDuration::from_micros((self.initial_timeout.as_micros() as f64 * scale).round() as u64)
    }
}

/// Which transports an upstream exchange may use, in fallback order, and
/// the EDNS buffer size the engine advertises.
///
/// The engine climbs the ladder on two triggers: a TC-bit/truncated reply
/// jumps straight to the next *stream* rung (RFC 7766 generalized), and an
/// exhausted retry budget ([`RetryPolicy::attempts`], spent per rung) falls
/// to the next rung whatever it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportPolicy {
    /// The preference ladder, tried left to right. Empty is treated as
    /// `[Udp]`.
    pub ladder: Vec<Transport>,
    /// EDNS buffer size (RFC 6891 `udp_payload_size`) advertised on
    /// upstream queries. Answers larger than this come back truncated.
    pub edns_buf: u16,
}

impl Default for TransportPolicy {
    fn default() -> Self {
        TransportPolicy::udp_only()
    }
}

impl TransportPolicy {
    /// The legacy behaviour: plain UDP with the engine's historical
    /// 4096-byte EDNS buffer, TC handled by an inline RFC 7766 TCP
    /// re-query.
    pub fn udp_only() -> Self {
        TransportPolicy {
            ladder: vec![Transport::Udp],
            edns_buf: 4096,
        }
    }

    /// A single-transport ladder pinned to `transport`.
    pub fn prefer(transport: Transport) -> Self {
        TransportPolicy {
            ladder: vec![transport],
            ..TransportPolicy::udp_only()
        }
    }

    /// An explicit ladder.
    pub fn with_ladder(ladder: impl Into<Vec<Transport>>) -> Self {
        TransportPolicy {
            ladder: ladder.into(),
            ..TransportPolicy::udp_only()
        }
    }

    /// The full UDP → TCP → DoT ladder.
    pub fn full_ladder() -> Self {
        TransportPolicy::with_ladder(Transport::ALL)
    }
}

/// Graceful-degradation knobs: a cache bound and query coalescing. Both
/// default to unlimited/off, so a default-configured resolver behaves
/// bit-identically to one predating these knobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverloadConfig {
    /// Maximum live cache entries; LRU eviction beyond it. `None` = unbounded.
    pub max_cache_entries: Option<usize>,
    /// Join identical (qname, qtype, effective-ECS-prefix) lookups into one
    /// upstream flight.
    pub coalesce: bool,
}

impl OverloadConfig {
    /// The limits a resolver's cache (private or shared) runs under.
    pub fn cache_limits(&self) -> CacheLimits {
        CacheLimits {
            max_entries: self.max_cache_entries,
        }
    }
}

/// Full behavioural configuration of a recursive resolver.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// The resolver's public address (what authoritative servers see).
    pub addr: IpAddr,
    /// How outgoing ECS prefixes are built.
    pub prefix_policy: PrefixPolicy,
    /// When ECS is attached at all.
    pub probing: ProbingStrategy,
    /// How scope restrictions are honored in the cache.
    pub compliance: CacheCompliance,
    /// Whether ECS options arriving in client queries are trusted and used
    /// (true for resolvers behind cooperating front-ends and for the "accept
    /// arbitrary ECS" resolvers of §6.3; false for resolvers that override
    /// with the immediate sender's address to prevent spoofing — the
    /// behaviour that makes hidden resolvers poison mapping, §8.2).
    pub accept_client_ecs: bool,
    /// Whether zero-scope responses are cached (false reproduces the
    /// misconfigured resolver in §6.3).
    pub cache_zero_scope: bool,
    /// §8.3/§9 extension: learn, per second-level domain, the scope the
    /// authoritative actually uses, and truncate future source prefixes to
    /// it. Saves client bits against CDNs with coarse minimums (CDN-2
    /// needs only /21) at the cost of per-zone state. Only non-zero scopes
    /// are learned (a zero scope would otherwise poison the zone, the
    /// "this can get complicated very quickly" trap the paper warns
    /// about), and the learned value is the maximum scope ever observed.
    pub adaptive_prefix: bool,
    /// How upstream exchanges are retried when the transport fails.
    pub retry: RetryPolicy,
    /// Which transports upstream exchanges may use and in what fallback
    /// order, plus the advertised EDNS buffer. The default (UDP only,
    /// 4096-byte buffer) reproduces the pre-transport-ladder engine
    /// bit-for-bit.
    pub transport: TransportPolicy,
    /// Graceful-degradation limits (cache bound, coalescing). Both
    /// off/unlimited by default.
    pub overload: OverloadConfig,
}

impl ResolverConfig {
    /// A fully RFC-compliant resolver: /24–/56 truncation, ECS always (it
    /// has whitelisted this authoritative), honors scope.
    pub fn rfc_compliant(addr: IpAddr) -> Self {
        ResolverConfig {
            addr,
            prefix_policy: PrefixPolicy::rfc_recommended(),
            probing: ProbingStrategy::Always,
            compliance: CacheCompliance::Honor,
            accept_client_ecs: false,
            cache_zero_scope: true,
            adaptive_prefix: false,
            retry: RetryPolicy::default(),
            transport: TransportPolicy::default(),
            overload: OverloadConfig::default(),
        }
    }

    /// An egress of an anycast service whose *front-ends* stamp trusted
    /// client ECS (the All-Names resolver): trusts incoming ECS, truncates
    /// to /24.
    pub fn anycast_service_egress(addr: IpAddr) -> Self {
        ResolverConfig {
            accept_client_ecs: true,
            ..Self::rfc_compliant(addr)
        }
    }

    /// The dominant-AS behaviour: /32 source with jammed last byte,
    /// ECS on every query, scope ignored in cache.
    pub fn jammed_full(addr: IpAddr, jam: u8) -> Self {
        ResolverConfig {
            prefix_policy: PrefixPolicy::JammedFull { jam },
            compliance: CacheCompliance::IgnoreScope,
            ..Self::rfc_compliant(addr)
        }
    }

    /// The §6.3 accepts-long class, which erodes privacy: accepts and
    /// forwards client prefixes up to /32 and caches at the matching long
    /// scopes.
    pub fn long_prefix_acceptor(addr: IpAddr) -> Self {
        ResolverConfig {
            prefix_policy: PrefixPolicy::PassThrough { max_v4: 32 },
            accept_client_ecs: true,
            ..Self::rfc_compliant(addr)
        }
    }

    /// The §6.3 /22-cap class: caps conveyed prefix and cache scope at /22.
    pub fn cap22(addr: IpAddr) -> Self {
        ResolverConfig {
            prefix_policy: PrefixPolicy::PassThrough { max_v4: 22 },
            compliance: CacheCompliance::CapPrefix(22),
            accept_client_ecs: true,
            ..Self::rfc_compliant(addr)
        }
    }

    /// The misconfigured PowerDNS-like resolver: leaks a private prefix and
    /// does not cache zero-scope answers.
    pub fn private_leaker(addr: IpAddr) -> Self {
        ResolverConfig {
            prefix_policy: PrefixPolicy::PrivateLeak,
            cache_zero_scope: false,
            ..Self::rfc_compliant(addr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    const A: IpAddr = IpAddr::V4(Ipv4Addr::new(5, 5, 5, 5));

    #[test]
    fn policy_defaults_and_builders() {
        assert_eq!(TransportPolicy::default(), TransportPolicy::udp_only());
        assert_eq!(TransportPolicy::default().edns_buf, 4096);
        assert_eq!(
            TransportPolicy::prefer(Transport::Dot).ladder,
            vec![Transport::Dot]
        );
        assert_eq!(TransportPolicy::full_ladder().ladder.len(), 3);
    }

    #[test]
    fn presets_have_expected_shapes() {
        let c = ResolverConfig::rfc_compliant(A);
        assert_eq!(c.compliance, CacheCompliance::Honor);
        assert!(!c.accept_client_ecs);

        let c = ResolverConfig::jammed_full(A, 1);
        assert_eq!(c.compliance, CacheCompliance::IgnoreScope);
        assert!(matches!(
            c.prefix_policy,
            PrefixPolicy::JammedFull { jam: 1 }
        ));

        let c = ResolverConfig::long_prefix_acceptor(A);
        assert!(c.accept_client_ecs);
        assert!(matches!(
            c.prefix_policy,
            PrefixPolicy::PassThrough { max_v4: 32 }
        ));

        let c = ResolverConfig::cap22(A);
        assert_eq!(c.compliance, CacheCompliance::CapPrefix(22));

        let c = ResolverConfig::private_leaker(A);
        assert!(!c.cache_zero_scope);
        assert!(matches!(c.prefix_policy, PrefixPolicy::PrivateLeak));

        let c = ResolverConfig::anycast_service_egress(A);
        assert!(c.accept_client_ecs);
    }

    #[test]
    fn overload_defaults_are_all_off() {
        let o = OverloadConfig::default();
        assert_eq!(o.max_cache_entries, None);
        assert!(!o.coalesce);
        // Every preset inherits the off-by-default knobs.
        assert_eq!(ResolverConfig::cap22(A).overload, o);
        assert_eq!(ResolverConfig::private_leaker(A).overload, o);
    }

    #[test]
    fn retry_policy_backs_off_exponentially() {
        let p = RetryPolicy::default();
        assert_eq!(p.timeout_for(0), SimDuration::from_secs(2));
        assert_eq!(p.timeout_for(1), SimDuration::from_secs(4));
        assert_eq!(p.timeout_for(2), SimDuration::from_secs(8));
    }
}
