//! Resolver configuration: one struct that composes a prefix policy, a
//! probing strategy, and a cache-compliance mode into a full behaviour
//! profile — including presets for every resolver class the paper observed.

use std::net::IpAddr;

use netsim::SimDuration;

use crate::cache::CacheCompliance;
use crate::prefix_policy::PrefixPolicy;
use crate::probing::ProbingStrategy;
use crate::transport::TransportPolicy;

/// Retry/backoff policy for upstream exchanges.
///
/// Attempts are spaced on the *SimTime axis*: after a timed-out attempt the
/// engine advances its virtual clock by the current timeout and multiplies
/// the timeout by `backoff` (exponential backoff, RFC 1035 §4.2.1 spirit).
/// The ECS knobs implement RFC 7871 §7.1.3: a resolver whose ECS query goes
/// unanswered retries without the option and remembers the server as
/// non-ECS.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per upstream exchange (first try + retries), ≥ 1.
    pub attempts: u8,
    /// Timeout of the first attempt.
    pub initial_timeout: SimDuration,
    /// Multiplier applied to the timeout after each timed-out attempt.
    pub backoff: f64,
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
            backoff: 2.0,
            withdraw_ecs_on_timeout: true,
            withdraw_ecs_on_formerr: false,
        }
    }
}

impl RetryPolicy {
    /// The timeout in effect for 0-based attempt `attempt`
    /// (`initial_timeout * backoff^attempt`, rounded to microseconds).
    pub fn timeout_for(&self, attempt: u8) -> SimDuration {
        let scale = self.backoff.max(0.0).powi(attempt as i32);
        SimDuration::from_micros((self.initial_timeout.as_micros() as f64 * scale).round() as u64)
    }
}

/// Graceful-degradation knobs: cache bounds, admission control, query
/// coalescing, and RFC 8767 serve-stale. Every limit defaults to
/// unlimited/off, so a default-configured resolver behaves bit-identically
/// to one predating these knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Maximum live cache entries; LRU eviction beyond it. `None` = unbounded.
    pub max_cache_entries: Option<usize>,
    /// Approximate maximum resident cache bytes; LRU eviction beyond it.
    pub max_cache_bytes: Option<usize>,
    /// Maximum ECS entries per (qname, qtype) — a popular name's scope
    /// explosion evicts its own LRU entries instead of the long tail.
    pub per_name_cap: Option<usize>,
    /// Maximum concurrent upstream flights in the egress actor; excess
    /// queries are shed with SERVFAIL instead of queueing unboundedly.
    pub max_in_flight: Option<usize>,
    /// Join identical (qname, qtype, effective-ECS-prefix) lookups into one
    /// upstream flight.
    pub coalesce: bool,
    /// RFC 8767 stale budget: how long past expiry an entry may still be
    /// served when the upstream times out or SERVFAILs. Zero disables
    /// serve-stale (and stale retention) entirely.
    pub serve_stale_ttl: SimDuration,
    /// TTL stamped on records served stale (RFC 8767 §5 recommends 30s).
    pub stale_answer_ttl: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            max_cache_entries: None,
            max_cache_bytes: None,
            per_name_cap: None,
            max_in_flight: None,
            coalesce: false,
            serve_stale_ttl: SimDuration::ZERO,
            stale_answer_ttl: 30,
        }
    }
}

impl OverloadConfig {
    /// True when a non-zero stale budget enables RFC 8767 behaviour.
    pub fn serve_stale_enabled(&self) -> bool {
        self.serve_stale_ttl > SimDuration::ZERO
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
    /// Whether responses to clients echo the ECS option (with the
    /// authoritative scope). The All-Names service does this.
    pub echo_ecs_to_client: bool,
    /// Negative/failure-response TTL used when an upstream answer carries
    /// no records.
    pub negative_ttl: u32,
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
    /// Graceful-degradation limits (cache bounds, coalescing, admission
    /// control, serve-stale). All off/unlimited by default.
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
            echo_ecs_to_client: true,
            negative_ttl: 60,
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

    /// One of the 15 privacy-eroding resolvers: accepts and forwards client
    /// prefixes up to /32 and caches at the matching long scopes.
    pub fn long_prefix_acceptor(addr: IpAddr) -> Self {
        ResolverConfig {
            prefix_policy: PrefixPolicy::PassThrough { max_v4: 32 },
            accept_client_ecs: true,
            ..Self::rfc_compliant(addr)
        }
    }

    /// One of the 8 coarse resolvers: caps conveyed prefix and cache scope
    /// at /22.
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
        assert_eq!(o.max_cache_bytes, None);
        assert_eq!(o.per_name_cap, None);
        assert_eq!(o.max_in_flight, None);
        assert!(!o.coalesce);
        assert!(!o.serve_stale_enabled());
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
        let flat = RetryPolicy {
            backoff: 1.0,
            ..RetryPolicy::default()
        };
        assert_eq!(flat.timeout_for(3), flat.initial_timeout);
    }
}
