//! §5: passive vs active discovery of ECS-enabled resolvers.
//!
//! A shared population of ECS resolvers is observed two ways:
//!
//! * **passively** — a busy CDN authoritative logs which resolvers sent at
//!   least one ECS query during the window (resolvers whose clients never
//!   touched the CDN's zone are missed);
//! * **actively** — a scan through open forwarders reaches only resolvers
//!   that (a) serve at least one open forwarder and (b) send ECS to an
//!   unknown experimental domain (per-zone whitelisting resolvers don't).
//!
//! Paper: the scan found 278 non-Google egress resolvers vs 4147 in the
//! CDN logs, with 234 of the 278 also present passively.

use std::collections::HashSet;
use std::net::IpAddr;

use analysis::DiscoveryOverlap;
use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question};
use netsim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resolver::{ProbingStrategy, Resolver};
use topology::AddrAllocator;
use workload::CdnDatasetGen;

use crate::behavior::resolver_config_for;
use crate::report::Report;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Divisor on the paper's CDN population.
    pub scale: usize,
    /// Probability a resolver is reachable through at least one open
    /// forwarder (drives the active method's reach; the paper's ratio is
    /// 278/4147 ≈ 6.7% for non-Google resolvers).
    pub open_forwarder_reach: f64,
    /// Probability a reachable resolver zone-whitelists ECS domains and
    /// thus won't send ECS to our unknown experimental zone.
    pub zone_whitelist_fraction: f64,
    /// Probability a resolver's clients touch the CDN zone during the
    /// passive window (busy CDN ⇒ near 1).
    pub passive_activity: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: 4,
            open_forwarder_reach: 0.08,
            zone_whitelist_fraction: 0.15,
            passive_activity: 0.97,
            seed: 0,
        }
    }
}

/// Outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The overlap summary.
    pub overlap: DiscoveryOverlap,
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let population = CdnDatasetGen::scaled(config.scale, config.seed).generate();

    // Passive observation: the CDN authoritative (non-whitelisting, so it
    // sees the ECS options even though it ignores them).
    let cdn_apex = Name::from_ascii("cdn.example").expect("valid");
    let mut cdn_zone = Zone::new(cdn_apex.clone());
    let cdn_name = cdn_apex.child("www").expect("valid");
    cdn_zone
        .add_a(
            cdn_name.clone(),
            60,
            std::net::Ipv4Addr::new(198, 51, 100, 1),
        )
        .expect("in zone");
    let mut cdn = AuthServer::new(
        cdn_zone,
        EcsHandling::whitelisted(ScopePolicy::MatchSource, Default::default()),
    );

    // Active scan: our experimental authoritative.
    let scan_apex = Name::from_ascii("probe.example").expect("valid");
    let mut scan_zone = Zone::new(scan_apex.clone());
    let scan_name = scan_apex.child("x1").expect("valid");
    scan_zone
        .add_a(
            scan_name.clone(),
            60,
            std::net::Ipv4Addr::new(198, 51, 100, 2),
        )
        .expect("in zone");
    let mut scan = AuthServer::new(scan_zone, EcsHandling::open(ScopePolicy::SourceMinusK(4)));

    let mut alloc = AddrAllocator::new();
    for spec in &population {
        let mut cfg = resolver_config_for(spec, std::slice::from_ref(&cdn_name));
        let zone_whitelists = rng.gen_bool(config.zone_whitelist_fraction);
        if zone_whitelists {
            // OpenDNS-style: ECS only for known CDN zones, never for our
            // experimental domain.
            cfg.probing = ProbingStrategy::ZoneWhitelist {
                zones: vec![cdn_apex.clone()],
            };
        }
        let mut resolver = Resolver::new(cfg);
        let client = AddrAllocator::host_in(&alloc.alloc_v4_block(), 9);

        // Passive window: clients query the CDN name (maybe).
        if rng.gen_bool(config.passive_activity) {
            let q = Message::query(1, Question::a(cdn_name.clone()));
            resolver.resolve_msg(&q, client, SimTime::from_secs(1), &mut cdn);
        }
        // Active scan: reaches the resolver only via an open forwarder.
        if rng.gen_bool(config.open_forwarder_reach) {
            let q = Message::query(2, Question::a(scan_name.clone()));
            resolver.resolve_msg(&q, client, SimTime::from_secs(2), &mut scan);
        }
    }

    let passive: HashSet<IpAddr> = cdn
        .log()
        .iter()
        .filter(|e| e.ecs.is_some())
        .map(|e| e.resolver)
        .collect();
    let active: HashSet<IpAddr> = scan
        .log()
        .iter()
        .filter(|e| e.ecs.is_some())
        .map(|e| e.resolver)
        .collect();
    let overlap = DiscoveryOverlap::compute(&passive, &active);

    let mut report = Report::new("discovery", "§5 passive vs active discovery");
    report.row(
        "passive discoveries",
        format!("4147 (scaled pop: {})", population.len()),
        overlap.passive_total(),
        overlap.passive_total() > overlap.active_total(),
    );
    report.row(
        "active discoveries",
        "278 non-Google",
        overlap.active_total(),
        overlap.active_total() < overlap.passive_total() / 2,
    );
    report.row(
        "actively found also seen passively",
        "234/278 ≈ 84%",
        format!(
            "{}/{} = {:.0}%",
            overlap.both,
            overlap.active_total(),
            overlap.active_coverage_by_passive() * 100.0
        ),
        overlap.active_coverage_by_passive() > 0.6,
    );
    (Outcome { overlap }, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_dominates_active() {
        let (out, report) = run(&Config::default());
        assert!(
            out.overlap.passive_total() > out.overlap.active_total() * 3,
            "{report}"
        );
        assert!(out.overlap.active_coverage_by_passive() > 0.5, "{report}");
        assert!(report.all_hold(), "{report}");
    }
}
