//! Forwarder-population worlds for mass scans: scanner → open forwarders
//! (per-AS groups with health profiles over the fault layer) → egress
//! resolvers → one experimental authoritative server.
//!
//! [`ForwarderChainSpec::build`] wires the chain; [`run_scan_with`] drives
//! the simulation in slices, handing the drained authoritative log to the
//! caller each slice (a bounded [`ScanCapture`] through [`run_scan`]) so no
//! component's memory grows with probe count.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, EcsHandling, QueryLogEntry, ScopePolicy, Zone};
use dns_wire::Name;
use netsim::fault::{FaultPlan, LinkFaults};
use netsim::geo::city;
use netsim::{NodeId, SimDuration, Simulation};
use resolver::actors::{AuthActor, EgressActor, RelayActor};
use resolver::{Resolver, ResolverConfig};

use crate::capture::ScanCapture;
use crate::pipeline::{ProbeFeed, ProbeTarget, ScanConfig, ScanStats, ScannerNode};

/// A forwarder group's health profile, realised as link faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ForwarderHealth {
    /// Responds normally.
    Healthy,
    /// A routing blackhole: probes vanish (no RNG drawn), every probe
    /// times out — the breaker-by-timeout population.
    Dead,
    /// Answers, but replies are rewritten to REFUSED — the
    /// breaker-by-rcode population.
    Refusing,
    /// Drops each packet with this probability (both directions) — the
    /// retry-budget population.
    Lossy(f64),
}

/// One group of identically-configured forwarders inside a single AS.
#[derive(Debug, Clone, Copy)]
pub struct ForwarderGroup {
    /// Forwarders in the group.
    pub count: usize,
    /// Their shared health profile.
    pub health: ForwarderHealth,
    /// The AS they all sit in (one rate-limit bucket per AS).
    pub asn: u32,
}

/// Blueprint for a scan world.
#[derive(Debug)]
pub struct ForwarderChainSpec {
    /// Simulation seed — two builds with the same spec and seed run
    /// byte-identically.
    pub seed: u64,
    /// Forwarder populations.
    pub groups: Vec<ForwarderGroup>,
    /// Egress resolvers; group forwarders round-robin across them. Empty →
    /// one RFC-compliant egress at 9.9.9.9.
    pub egress_configs: Vec<ResolverConfig>,
    /// Healthy forwarders placed by
    /// [`ForwarderChainSpec::egress_with_forwarders`]: (index into
    /// `egress_configs`, address, AS), built after the groups' forwarders.
    placed: Vec<(usize, IpAddr, u32)>,
    /// Replaces the default synthesizing authoritative — e.g. a
    /// conformance-scenario server with a scripted ECS stance. The
    /// caller keeps [`ScanConfig::zone`] equal to the server's apex
    /// (that string is what routes egress queries to the auth node).
    pub custom_auth: Option<AuthServer>,
}

/// Where world components live (cycled per forwarder for latency
/// diversity without RNG).
const SITES: &[&str] = &[
    "Chicago",
    "Dallas",
    "Seattle",
    "Miami",
    "Toronto",
    "Santiago",
    "London",
    "Frankfurt",
    "Milan",
    "Stockholm",
];

impl ForwarderChainSpec {
    /// An empty spec: no forwarders, default egress.
    pub fn new(seed: u64) -> Self {
        ForwarderChainSpec {
            seed,
            groups: Vec::new(),
            egress_configs: Vec::new(),
            placed: Vec::new(),
            custom_auth: None,
        }
    }

    /// Serves the scan through `auth` instead of the default synthesizing
    /// zone (see [`ForwarderChainSpec::custom_auth`]).
    pub fn with_auth(mut self, auth: AuthServer) -> Self {
        self.custom_auth = Some(auth);
        self
    }

    /// Adds a forwarder group.
    pub fn group(mut self, count: usize, health: ForwarderHealth, asn: u32) -> Self {
        self.groups.push(ForwarderGroup { count, health, asn });
        self
    }

    /// Adds an egress resolver.
    pub fn egress(mut self, config: ResolverConfig) -> Self {
        self.egress_configs.push(config);
        self
    }

    /// Adds an egress resolver with its own healthy forwarders at
    /// `forwarders`, all in `asn`.
    pub fn egress_with_forwarders(
        mut self,
        config: ResolverConfig,
        forwarders: impl IntoIterator<Item = IpAddr>,
        asn: u32,
    ) -> Self {
        let egress = self.egress_configs.len();
        self.egress_configs.push(config);
        self.placed
            .extend(forwarders.into_iter().map(|addr| (egress, addr, asn)));
        self
    }

    /// Builds the world. `make_feed` receives the realised target list
    /// (one entry per forwarder, group order, then the placed forwarders)
    /// and returns the probe feed.
    pub fn build<F: ProbeFeed>(
        mut self,
        cfg: ScanConfig,
        make_feed: impl FnOnce(&[ProbeTarget]) -> F,
    ) -> ScanWorld {
        let mut sim = Simulation::new(self.seed);
        let pos = |i: usize| city(SITES[i % SITES.len()]).expect("known city").pos;

        // Authoritative: the experimental scan server, logging the queries
        // `run_scan_with` drains. By default it synthesises an A record for
        // every name under the zone, so auto-generated probe qnames all
        // resolve without per-name zone state; a custom server (scripted
        // ECS stance) may stand in.
        let zone_name = Name::from_ascii(&cfg.zone).expect("zone must parse");
        let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
        let auth = self.custom_auth.take().unwrap_or_else(|| {
            let mut zone = Zone::new(zone_name.clone());
            zone.set_synth_a(300, Ipv4Addr::new(198, 51, 100, 1));
            AuthServer::new(zone, EcsHandling::open(ScopePolicy::SourceMinusK(4)))
        });
        let auth_node = sim.add_node(AuthActor::new(auth), auth_addr, pos(0));

        // Egress resolvers.
        let configs = if self.egress_configs.is_empty() {
            vec![ResolverConfig::rfc_compliant("9.9.9.9".parse().unwrap())]
        } else {
            self.egress_configs
        };
        let mut egress_addrs = Vec::new();
        let mut egress_nodes = Vec::new();
        for (i, config) in configs.into_iter().enumerate() {
            let addr = config.addr;
            let node = sim.add_node(
                EgressActor::new(Resolver::new(config), vec![(zone_name.clone(), auth_addr)]),
                addr,
                pos(i + 1),
            );
            egress_addrs.push(addr);
            egress_nodes.push(node);
        }

        // Forwarder populations, with their health realised as link
        // faults between scanner and forwarder. Addresses walk
        // 100.64.0.0/10 (the CGN range real open forwarders often sit
        // behind).
        let population = self.groups.iter().map(|g| g.count).sum::<usize>() + self.placed.len();
        let scanner_node_id = NodeId(sim.node_count() + population);
        let mut plan = FaultPlan::none();
        let mut targets = Vec::new();
        for group in &self.groups {
            for _ in 0..group.count {
                let i = targets.len() as u32;
                assert!(i < (1 << 22), "forwarder population exceeds 100.64/10");
                let addr = IpAddr::V4(Ipv4Addr::from(0x6440_0000u32 + 1 + i));
                let node = sim.add_node(
                    RelayActor::new(egress_nodes[targets.len() % egress_nodes.len()]),
                    addr,
                    pos(targets.len() + 2),
                );
                match group.health {
                    ForwarderHealth::Healthy => {}
                    ForwarderHealth::Dead => {
                        plan.set_link(
                            scanner_node_id,
                            node,
                            LinkFaults {
                                blackhole: true,
                                ..LinkFaults::NONE
                            },
                        );
                    }
                    ForwarderHealth::Refusing => {
                        plan.set_link(
                            node,
                            scanner_node_id,
                            LinkFaults {
                                refused_replies: 1.0,
                                ..LinkFaults::NONE
                            },
                        );
                    }
                    ForwarderHealth::Lossy(p) => {
                        plan.set_link(scanner_node_id, node, LinkFaults::lossy(p));
                        plan.set_link(node, scanner_node_id, LinkFaults::lossy(p));
                    }
                }
                targets.push(ProbeTarget {
                    addr,
                    node,
                    asn: group.asn,
                });
            }
        }
        sim.set_fault_plan(plan);
        for &(egress, addr, asn) in &self.placed {
            let node = sim.add_node(
                RelayActor::new(egress_nodes[egress]),
                addr,
                pos(targets.len() + 2),
            );
            targets.push(ProbeTarget { addr, node, asn });
        }

        // The scanner itself, last so `scanner_node_id` was predictable.
        let feed = make_feed(&targets);
        let scanner = sim.add_node(
            ScannerNode::new(cfg, feed),
            "203.0.113.250".parse().unwrap(),
            pos(0),
        );
        assert_eq!(scanner, scanner_node_id, "scanner must be the last node");

        ScanWorld {
            sim,
            scanner,
            auth: auth_node,
            targets,
            egress_addrs,
        }
    }
}

/// A built scan world, ready for [`run_scan_with`].
pub struct ScanWorld {
    /// The simulation (exposed for metrics/tracer wiring before the run).
    pub sim: Simulation,
    /// The scanner node.
    pub scanner: NodeId,
    /// The authoritative node (its log is drained by [`run_scan_with`]).
    pub auth: NodeId,
    /// One entry per forwarder, group order, then the placed forwarders.
    pub targets: Vec<ProbeTarget>,
    /// Egress resolver addresses (the §6 classification subjects).
    pub egress_addrs: Vec<IpAddr>,
}

impl ScanWorld {
    /// The scanner node, concretely.
    pub fn scanner_mut(&mut self) -> &mut ScannerNode {
        self.sim
            .node_mut::<ScannerNode>(self.scanner)
            .expect("scanner node")
    }

    /// The authoritative actor, concretely.
    pub fn auth_mut(&mut self) -> &mut AuthActor {
        self.sim
            .node_mut::<AuthActor>(self.auth)
            .expect("auth node")
    }
}

/// Final report of a driven scan. All counters are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Pipeline counters.
    pub stats: ScanStats,
    /// Forwarders in the world.
    pub targets: usize,
    /// Distinct ASes rate-limit-tracked.
    pub ases: usize,
    /// Breakers instantiated (targets ever probed).
    pub breakers: usize,
    /// Whether `probes == answered + retry_exhausted + shed_rate_limit +
    /// shed_breaker` held at the end.
    pub reconciled: bool,
    /// True if the run stalled (events drained with probes unaccounted) —
    /// always a bug, surfaced rather than hidden.
    pub stuck: bool,
    /// Virtual time at completion, microseconds.
    pub sim_end_us: u64,
}

impl ScanReport {
    /// Deterministic single-line JSON (stable key order).
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        format!(
            concat!(
                "{{\"probes\":{},\"attempts\":{},\"answered\":{},\"refused\":{},",
                "\"servfail\":{},\"retries\":{},\"retry_exhausted\":{},",
                "\"shed_rate_limit\":{},\"shed_breaker\":{},\"rate_deferrals\":{},",
                "\"breaker_opens\":{},\"max_in_flight\":{},\"targets\":{},",
                "\"ases\":{},\"breakers\":{},\"reconciled\":{},\"stuck\":{},",
                "\"sim_end_us\":{}}}"
            ),
            s.probes,
            s.attempts,
            s.answered,
            s.refused,
            s.servfail,
            s.retries,
            s.retry_exhausted,
            s.shed_rate_limit,
            s.shed_breaker,
            s.rate_deferrals,
            s.breaker_opens,
            s.max_in_flight,
            self.targets,
            self.ases,
            self.breakers,
            self.reconciled,
            self.stuck,
            self.sim_end_us,
        )
    }
}

/// [`run_scan_with`] into a bounded capture.
pub fn run_scan(
    world: &mut ScanWorld,
    slice: SimDuration,
    capture: &mut ScanCapture,
) -> ScanReport {
    run_scan_with(world, slice, |log| capture.absorb(log))
}

/// Drives the world to completion in `slice`-sized steps, handing the
/// authoritative query log drained after each step to `absorb`, so the log
/// never grows with probe count.
pub fn run_scan_with(
    world: &mut ScanWorld,
    slice: SimDuration,
    mut absorb: impl FnMut(Vec<QueryLogEntry>),
) -> ScanReport {
    let slice = if slice == SimDuration::ZERO {
        SimDuration::from_secs(60)
    } else {
        slice
    };
    let mut stuck = false;
    loop {
        let deadline = world.sim.now() + slice;
        world.sim.run_until(deadline);
        absorb(world.auth_mut().server_mut().take_log());
        if world.scanner_mut().is_done() {
            break;
        }
        if !world.sim.events_pending() {
            stuck = true;
            break;
        }
    }
    let sim_end_us = world.sim.now().as_micros();
    let targets = world.targets.len();
    let scanner = world.scanner_mut();
    let stats = scanner.stats();
    ScanReport {
        stats,
        targets,
        ases: scanner.ases_tracked(),
        breakers: scanner.breakers_tracked(),
        reconciled: stats.reconciles() && !stuck,
        stuck,
        sim_end_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RoundRobinFeed;

    #[test]
    fn healthy_world_answers_everything() {
        let world = ForwarderChainSpec::new(11)
            .group(4, ForwarderHealth::Healthy, 64500)
            .build(ScanConfig::default(), |targets| {
                RoundRobinFeed::new(targets.to_vec(), 40)
            });
        let mut world = world;
        let mut capture = ScanCapture::new(256);
        let report = run_scan(&mut world, SimDuration::from_secs(30), &mut capture);
        assert!(report.reconciled, "{report:?}");
        assert!(!report.stuck);
        assert_eq!(report.stats.probes, 40);
        assert_eq!(report.stats.answered, 40);
        assert_eq!(report.stats.refused, 0);
        assert_eq!(report.stats.shed_breaker, 0);
        assert!(capture.total > 0, "probes must reach the authoritative");
    }

    #[test]
    fn dead_forwarders_trip_breakers_and_everything_reconciles() {
        // A small window so probes enter over time: breakers trip while
        // later probes are still being admitted, producing sheds.
        let cfg = ScanConfig {
            window: 4,
            ..ScanConfig::default()
        };
        let mut world = ForwarderChainSpec::new(12)
            .group(2, ForwarderHealth::Healthy, 64500)
            .group(2, ForwarderHealth::Dead, 64501)
            .build(cfg, |targets| RoundRobinFeed::new(targets.to_vec(), 80));
        let mut capture = ScanCapture::new(256);
        let report = run_scan(&mut world, SimDuration::from_secs(30), &mut capture);
        assert!(report.reconciled, "{report:?}");
        assert!(report.stats.retry_exhausted > 0, "dead targets time out");
        assert!(report.stats.breaker_opens > 0, "breakers must trip");
        assert!(report.stats.shed_breaker > 0, "open breakers shed probes");
        assert_eq!(
            report.stats.answered,
            report.stats.probes - report.stats.retry_exhausted - report.stats.shed_breaker,
            "healthy half still answers: {report:?}"
        );
    }

    #[test]
    fn refusing_forwarders_are_accounted_as_answered_refused() {
        let mut world = ForwarderChainSpec::new(13)
            .group(2, ForwarderHealth::Refusing, 64502)
            .build(ScanConfig::default(), |targets| {
                RoundRobinFeed::new(targets.to_vec(), 20)
            });
        let mut capture = ScanCapture::new(256);
        let report = run_scan(&mut world, SimDuration::from_secs(30), &mut capture);
        assert!(report.reconciled, "{report:?}");
        assert!(report.stats.refused > 0, "REFUSED rewrites must be seen");
        assert!(
            report.stats.breaker_opens > 0,
            "REFUSED trips breakers: {report:?}"
        );
    }
}
