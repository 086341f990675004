//! Extension experiment: the upstream query amplification ECS causes.
//!
//! The paper's related-work discussion cites Chen et al.: enabling ECS
//! increased the query volume Akamai's authoritative servers received from
//! public resolvers ~8×. The mechanism is the §7 cache fragmentation:
//! answers cached per client scope stop being shared, so more client
//! queries become upstream misses. We drive the identical client workload
//! through an ECS-enabled and an ECS-disabled resolver against the same
//! scoped CDN and compare upstream volumes.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question};
use netsim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resolver::{ProbingStrategy, Resolver, ResolverConfig};
use workload::Zipf;

use crate::report::Report;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Client /24 subnets behind the resolver.
    pub subnets: usize,
    /// Total client queries.
    pub queries: usize,
    /// Distinct CDN hostnames.
    pub hostnames: usize,
    /// CDN answer TTL (the paper's CDN used 20 s).
    pub ttl: u32,
    /// Workload duration in seconds.
    pub duration_secs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            subnets: 120,
            queries: 300_000,
            hostnames: 60,
            ttl: 20,
            duration_secs: 1800,
            seed: 0,
        }
    }
}

/// Outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Upstream queries with ECS enabled.
    pub upstream_with_ecs: u64,
    /// Upstream queries without ECS.
    pub upstream_without_ecs: u64,
    /// Client queries driven (same in both conditions).
    pub client_queries: u64,
}

impl Outcome {
    /// The amplification factor.
    pub fn factor(&self) -> f64 {
        self.upstream_with_ecs as f64 / self.upstream_without_ecs.max(1) as f64
    }
}

fn drive(ecs_enabled: bool, config: &Config) -> (u64, u64) {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let apex = Name::from_ascii("cdn.example").expect("valid");
    let mut zone = Zone::new(apex.clone());
    let mut hostnames = Vec::new();
    for i in 0..config.hostnames {
        let n = apex.child(&format!("h{i}")).expect("valid");
        zone.add_a(
            n.clone(),
            config.ttl,
            Ipv4Addr::new(198, 51, (i / 250) as u8, (i % 250) as u8 + 1),
        )
        .expect("in zone");
        hostnames.push(n);
    }
    // The CDN maps at /24 granularity: MatchSource on /24 sources.
    let mut cdn = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
    cdn.set_logging(false);

    let mut resolver = Resolver::new(ResolverConfig {
        probing: if ecs_enabled {
            ProbingStrategy::Always
        } else {
            ProbingStrategy::ZoneWhitelist { zones: vec![] }
        },
        ..ResolverConfig::rfc_compliant("9.9.9.9".parse().expect("valid"))
    });

    let zipf = Zipf::new(hostnames.len(), 1.0);
    let mut schedule: Vec<(u64, usize, u32)> = (0..config.queries)
        .map(|_| {
            (
                rng.gen_range(0..config.duration_secs * 1_000_000),
                zipf.sample(&mut rng),
                rng.gen_range(0..config.subnets as u32),
            )
        })
        .collect();
    schedule.sort_unstable();
    for (at, name_idx, subnet) in schedule {
        let client = IpAddr::V4(Ipv4Addr::from(0x0A00_0000 | (subnet << 8) | 7));
        let q = Message::query(1, Question::a(hostnames[name_idx].clone()));
        resolver.resolve_msg(&q, client, SimTime::from_micros(at), &mut cdn);
    }
    (
        resolver.stats().upstream_queries,
        resolver.stats().client_queries,
    )
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let (with_ecs, clients) = drive(true, config);
    let (without_ecs, _) = drive(false, config);
    let outcome = Outcome {
        upstream_with_ecs: with_ecs,
        upstream_without_ecs: without_ecs,
        client_queries: clients,
    };

    let mut report = Report::new(
        "amplification",
        "upstream query amplification from ECS (related-work check)",
    );
    report.row(
        "authoritative query volume multiplier",
        "~8x (Chen et al., public resolvers)",
        format!("{:.1}x", outcome.factor()),
        outcome.factor() > 2.0,
    );
    report.row(
        "upstream queries (no ECS)",
        "baseline",
        outcome.upstream_without_ecs,
        outcome.upstream_without_ecs > 0,
    );
    report.row(
        "upstream queries (ECS)",
        "per-/24 cache fragmentation",
        outcome.upstream_with_ecs,
        outcome.upstream_with_ecs > outcome.upstream_without_ecs,
    );
    report.detail = format!(
        "{} client queries; per-subnet cache entries stop being shared once\nscope-24 responses arrive, so every /24's first query per TTL window\ngoes upstream.\n",
        outcome.client_queries
    );
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecs_amplifies_upstream_volume() {
        let (out, report) = run(&Config {
            subnets: 60,
            queries: 60_000,
            hostnames: 40,
            duration_secs: 600,
            ..Config::default()
        });
        assert!(out.factor() > 2.0, "factor {}\n{report}", out.factor());
        assert_eq!(out.client_queries, 60_000);
    }
}
