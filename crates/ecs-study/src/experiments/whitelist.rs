//! Extension experiment (§9 future work): whitelisted vs non-whitelisted
//! resolvers, compared on the consequences of ECS.
//!
//! The paper studies the two populations separately (whitelisted resolvers
//! in the Public-Resolver/CDN dataset, non-whitelisted in the CDN dataset)
//! and suggests a comparative analysis as future work. Here the comparison
//! is controlled: the *same* resolver configuration serves the *same*
//! client workload against the *same* whitelisting CDN — once from a
//! whitelisted address, once not. Whitelisting buys better user-to-edge
//! mapping at the price of cache fragmentation and upstream amplification.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

use analysis::MappingQuality;
use authoritative::{AuthServer, CdnBehavior, EcsHandling, GeoDb, ScopePolicy, Zone};
use dns_wire::{IpPrefix, Message, Name, Question};
use netsim::geo::CITIES;
use netsim::{GeoPoint, LatencyModel, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resolver::{Resolver, ResolverConfig};
use topology::asn::jitter_position;

use crate::experiments::fig67::sample;
use crate::experiments::table2::world_footprint;
use crate::report::Report;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Client /24 subnets.
    pub subnets: usize,
    /// Client queries.
    pub queries: usize,
    /// Duration in seconds.
    pub duration_secs: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            subnets: 150,
            queries: 120_000,
            duration_secs: 900,
            seed: 0,
        }
    }
}

/// Per-condition metrics.
#[derive(Debug, Clone)]
pub struct Condition {
    /// Peak resolver cache entries.
    pub cache_peak: usize,
    /// Upstream queries sent.
    pub upstream_queries: u64,
    /// Client mapping quality.
    pub quality: MappingQuality,
}

/// Outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `true` key = whitelisted condition.
    pub conditions: HashMap<bool, Condition>,
}

fn run_condition(whitelisted: bool, config: &Config) -> Condition {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let footprint = world_footprint();
    let latency = LatencyModel::default();

    let resolver_addr: IpAddr = "9.9.9.9".parse().expect("valid");
    let mut geodb = GeoDb::new();
    geodb.insert(
        IpPrefix::new(resolver_addr, 24).expect("<=32"),
        CITIES[0].pos,
    );

    // Clients: /24 subnets spread across the world.
    let clients: Vec<(Ipv4Addr, GeoPoint)> = (0..config.subnets)
        .map(|i| {
            let c = CITIES[rng.gen_range(0..CITIES.len())];
            let pos = jitter_position(c.pos, 100.0, &mut rng);
            let addr = Ipv4Addr::new(47, (i / 250) as u8, (i % 250) as u8, 7);
            geodb.insert(IpPrefix::v4(addr, 24).expect("<=32"), pos);
            (addr, pos)
        })
        .collect();

    let apex = Name::from_ascii("cdn.example").expect("valid");
    let qname = apex.child("www").expect("valid");
    let whitelist = if whitelisted {
        std::collections::HashSet::from([resolver_addr])
    } else {
        Default::default()
    };
    let mut cdn = AuthServer::new(
        Zone::new(apex),
        EcsHandling::whitelisted(ScopePolicy::MatchSource, whitelist),
    )
    .with_cdn(CdnBehavior::cdn1(footprint.clone()), geodb);
    cdn.set_logging(false);

    let mut resolver = Resolver::new(ResolverConfig::rfc_compliant(resolver_addr));

    let mut schedule: Vec<(u64, usize)> = (0..config.queries)
        .map(|_| {
            (
                rng.gen_range(0..config.duration_secs * 1_000_000),
                rng.gen_range(0..clients.len()),
            )
        })
        .collect();
    schedule.sort_unstable();

    let mut samples = Vec::new();
    for (at, ci) in schedule {
        let (addr, pos) = clients[ci];
        let q = Message::query(1, Question::a(qname.clone()));
        let resp = resolver.resolve_msg(&q, IpAddr::V4(addr), SimTime::from_micros(at), &mut cdn);
        if let Some(first) = resp.answer_addrs().first() {
            // Sample 1-in-50 responses for the latency CDF to keep memory flat.
            if samples.len() < config.queries / 50 {
                samples.push(sample(&footprint, pos, *first));
            }
        }
    }
    Condition {
        cache_peak: resolver.cache_stats().max_size,
        upstream_queries: resolver.stats().upstream_queries,
        quality: MappingQuality::from_samples(&samples, &latency),
    }
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let mut conditions = HashMap::new();
    for flag in [true, false] {
        conditions.insert(flag, run_condition(flag, config));
    }
    let on = &conditions[&true];
    let off = &conditions[&false];

    let mut report = Report::new(
        "whitelist",
        "whitelisted vs non-whitelisted resolvers (§9 extension)",
    );
    report.row(
        "mapping quality (median connect)",
        "whitelisted ≪ non-whitelisted",
        format!(
            "{:.0} ms vs {:.0} ms",
            on.quality.median_ms, off.quality.median_ms
        ),
        on.quality.median_ms < off.quality.median_ms / 2.0,
    );
    report.row(
        "resolver cache peak",
        "ECS fragments the cache (§7)",
        format!("{} vs {}", on.cache_peak, off.cache_peak),
        on.cache_peak > off.cache_peak * 2,
    );
    report.row(
        "upstream query volume",
        "ECS amplifies (Chen et al. ~8x)",
        format!("{} vs {}", on.upstream_queries, off.upstream_queries),
        on.upstream_queries > off.upstream_queries * 2,
    );
    report.row(
        "distinct edges handed to clients",
        "tailored vs one-size-fits-all",
        format!(
            "{} vs {}",
            on.quality.unique_first_answers, off.quality.unique_first_answers
        ),
        on.quality.unique_first_answers > off.quality.unique_first_answers,
    );
    (Outcome { conditions }, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitelisting_trades_cache_for_mapping() {
        let (out, report) = run(&Config {
            subnets: 60,
            queries: 30_000,
            duration_secs: 600,
            seed: 1,
        });
        let on = &out.conditions[&true];
        let off = &out.conditions[&false];
        assert!(
            on.quality.median_ms < off.quality.median_ms,
            "whitelisting must improve mapping\n{report}"
        );
        assert!(
            on.cache_peak > off.cache_peak,
            "whitelisting must fragment the cache\n{report}"
        );
        assert!(on.upstream_queries > off.upstream_queries, "{report}");
    }
}
