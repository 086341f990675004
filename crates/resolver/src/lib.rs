#![warn(missing_docs)]

//! ECS-aware recursive resolver.
//!
//! This crate implements the party the paper studies: the egress resolver
//! that decides *whether* to attach an ECS option (probing strategy, §6.1),
//! *what* prefix to put in it (prefix policy, §6.2 / Table 1), and *how* to
//! cache the scoped answers (compliance mode, §6.3) — including every
//! deviant behaviour the measurements uncovered, so the study's classifiers
//! can be exercised against ground truth:
//!
//! | paper finding | here |
//! |---|---|
//! | 3382 resolvers send ECS on 100% of A/AAAA queries | [`ProbingStrategy::Always`] |
//! | 258 probe via specific hostnames, ignoring the cache | [`ProbingStrategy::HostnameProbe`] |
//! | 32 probe at 30-minute multiples with a loopback prefix | [`ProbingStrategy::IntervalProbe`] |
//! | 88 send ECS for specific hostnames on cache miss | [`ProbingStrategy::OnMiss`] |
//! | per-zone whitelists (OpenDNS style) | [`ProbingStrategy::ZoneWhitelist`] |
//! | /24 truncation per RFC | [`PrefixPolicy::Truncate`] |
//! | /32 with "jammed" last byte (3084 resolvers) | [`PrefixPolicy::JammedFull`] |
//! | /25 prefixes that leak an extra bit | `PrefixPolicy::Truncate(25)` |
//! | /22 cap on both prefix and scope (8 resolvers) | [`CacheCompliance::CapPrefix`] |
//! | scope ignored entirely (103 resolvers) | [`CacheCompliance::IgnoreScope`] |
//! | >24-bit client prefixes accepted & cached (15) | [`ResolverConfig::accept_client_ecs`] + `PrefixPolicy::PassThrough` |
//! | PowerDNS private-prefix misconfiguration | [`PrefixPolicy::PrivateLeak`] + `cache_zero_scope = false` |
//!
//! The resolver exposes a synchronous engine ([`engine::Resolver`]) driven
//! by any [`engine::Upstream`] (directly by an
//! [`authoritative::AuthServer`], or by a zone-routing table), plus
//! event-driven actors ([`actors`]) for full packet-level simulation of
//! forwarder → hidden resolver → egress chains and anycast front-ends.
//! Both are thin drivers of the one sans-IO upstream-exchange machine in
//! [`exchange`].
//!
//! ```
//! use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
//! use dns_wire::{Message, Name, Question};
//! use netsim::SimTime;
//! use resolver::{Resolver, ResolverConfig};
//!
//! // An ECS-enabled authoritative server with one record.
//! let mut zone = Zone::new(Name::from_ascii("example.com").unwrap());
//! zone.add_a(
//!     Name::from_ascii("www.example.com").unwrap(),
//!     60,
//!     std::net::Ipv4Addr::new(198, 51, 100, 1),
//! ).unwrap();
//! let mut auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
//!
//! // An RFC-compliant resolver answering two clients in one /24.
//! let mut r = Resolver::new(ResolverConfig::rfc_compliant("9.9.9.9".parse().unwrap()));
//! let q = Message::query(1, Question::a(Name::from_ascii("www.example.com").unwrap()));
//! r.resolve_msg(&q, "100.70.1.1".parse().unwrap(), SimTime::from_secs(0), &mut auth);
//! r.resolve_msg(&q, "100.70.1.2".parse().unwrap(), SimTime::from_secs(1), &mut auth);
//! // Scope-24 caching: the second client was served from cache.
//! assert_eq!(r.stats().upstream_queries, 1);
//! assert_eq!(r.cache_stats().hits, 1);
//! ```

pub mod actors;
pub mod cache;
pub mod config;
pub mod engine;
pub mod exchange;
pub mod faulty;
pub mod flight;
pub mod prefix_policy;
pub mod probing;
pub mod shared_cache;
pub mod transport;

pub use cache::{CacheCompliance, CacheLimits, CacheStats, EcsCache};
pub use config::{OverloadConfig, ResolverConfig, RetryPolicy};
pub use engine::{
    FlightKey, PendingQuery, Resolver, ResolverStats, Step, Upstream, UpstreamError, ZoneRouter,
};
pub use exchange::{Action, Exchange};
pub use faulty::{FaultyUpstream, InjectedFault, InjectionStats};
pub use flight::{Admission, Flight, FlightTable, OwnerToken};
pub use prefix_policy::PrefixPolicy;
pub use probing::{ProbingState, ProbingStrategy};
pub use shared_cache::SharedEcsCache;
pub use transport::{
    Transport, TransportFault, TransportFaults, TransportPolicy, TransportStats, TransportUpstream,
};
