//! Extension experiment: graceful degradation under overload.
//!
//! The §7 simulations show ECS inflating resolver caches by orders of
//! magnitude; a production resolver survives that inflation with a bounded
//! cache, query coalescing, load shedding, and RFC 8767 serve-stale. This
//! sweep measures each mechanism on the engine itself:
//!
//! * **cache size × client population** — a bounded [`resolver::EcsCache`] under an
//!   ECS workload whose working set exceeds the bound: hit rate degrades
//!   and evictions climb, but the entry count never passes the cap;
//! * **fault rate × serve-stale** — the same warmed cache re-queried while
//!   the upstream drops queries: with stale retention on, expired entries
//!   answer within the RFC 8767 budget instead of SERVFAIL;
//! * **packet-level burst cells** — duplicate concurrent queries coalesce
//!   into one upstream flight, and an in-flight cap sheds the excess with
//!   SERVFAIL rather than queueing without bound.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question, Rcode};
use netsim::geo::city;
use netsim::{AddressBook, LinkFaults, SimDuration, SimTime, Simulation};
use parking_lot::RwLock;
use resolver::actors::{AuthActor, ClientActor, EgressActor, SharedBook};
use resolver::{FaultyUpstream, Resolver, ResolverConfig};

use crate::report::Report;
use crate::session::Session;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Client queries per cache-sweep cell.
    pub queries: u64,
    /// Cache entry bounds swept (`None` = unbounded).
    pub capacities: Vec<Option<usize>>,
    /// Client /24 populations swept.
    pub populations: Vec<usize>,
    /// Upstream query-loss rates swept in the serve-stale phase.
    pub loss_rates: Vec<f64>,
    /// Distinct hostnames in the zone.
    pub hostnames: usize,
    /// Zone TTL (short, so the stale phase can expire it).
    pub ttl: u32,
    /// RNG seed for the probabilistic fault cells.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            queries: 400,
            capacities: vec![None, Some(16), Some(4)],
            populations: vec![2, 6],
            loss_rates: vec![0.0, 0.5, 1.0],
            hostnames: 8,
            ttl: 30,
            seed: 11,
        }
    }
}

/// One bounded-cache sweep cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheCell {
    /// Entry bound in force (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Client /24s in the workload.
    pub population: usize,
    /// Cache hit rate over the cell's queries.
    pub hit_rate: f64,
    /// Entries evicted to hold the bound.
    pub evictions: u64,
    /// Peak live entry count observed.
    pub max_size: usize,
}

/// One serve-stale sweep cell (the re-query phase against a faulty path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaleCell {
    /// Upstream loss rate.
    pub loss: f64,
    /// Whether stale retention was on.
    pub serve_stale: bool,
    /// Re-queries that ended in a usable answer (fresh or stale).
    pub answered: u64,
    /// Answers served from expired entries (RFC 8767).
    pub stale_answers: u64,
    /// Re-queries that fell through to SERVFAIL.
    pub servfails: u64,
}

/// One packet-level burst cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstCell {
    /// Queries the authoritative actually saw.
    pub upstream_flights: usize,
    /// Client queries answered by joining an existing flight.
    pub coalesced: u64,
    /// Client queries shed at the admission gate.
    pub shed: u64,
    /// Clients that received any response at all.
    pub responded: u64,
}

/// Outcome of the full sweep.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Capacity × population grid.
    pub cache_cells: Vec<CacheCell>,
    /// Loss sweep with serve-stale on, plus the off condition at full loss.
    pub stale_cells: Vec<StaleCell>,
    /// Duplicate burst with coalescing on.
    pub coalesced_burst: BurstCell,
    /// Oversized burst against an in-flight cap.
    pub shed_burst: BurstCell,
}

fn zone(config: &Config) -> Zone {
    let apex = Name::from_ascii("load.example").expect("valid");
    let mut zone = Zone::new(apex.clone());
    for h in 0..config.hostnames {
        zone.add_a(
            apex.child(&format!("h{h}")).expect("valid"),
            config.ttl,
            Ipv4Addr::new(198, 51, 100, (h % 250) as u8 + 1),
        )
        .expect("in zone");
    }
    zone
}

fn qname(config: &Config, i: u64) -> Name {
    Name::from_ascii(&format!("h{}.load.example", i % config.hostnames as u64)).expect("valid")
}

/// Cycles every (hostname, /24) pair before repeating, so the working set
/// is exactly `hostnames × population` entries under MatchSource scoping.
fn client_for(config: &Config, population: usize, i: u64) -> IpAddr {
    let subnet = (i / config.hostnames as u64) % population as u64;
    IpAddr::V4(Ipv4Addr::new(10, (subnet >> 8) as u8, subnet as u8, 9))
}

fn drive_cache(
    capacity: Option<usize>,
    population: usize,
    config: &Config,
    session: &mut Session,
) -> CacheCell {
    let mut server = AuthServer::new(zone(config), EcsHandling::open(ScopePolicy::MatchSource));
    server.set_logging(false);
    let mut rc = ResolverConfig::rfc_compliant("9.9.9.9".parse().expect("valid"));
    rc.overload.max_cache_entries = capacity;
    let mut r = Resolver::new(rc);
    r.set_tracer(session.tracer());
    for i in 0..config.queries {
        let q = Message::query(i as u16, Question::a(qname(config, i)));
        // Two queries per second: the widest working set (8 hostnames ×
        // 6 /24s = 48 pairs) cycles in 24 s, inside the 30 s TTL, so the
        // unbounded cache hits on every revisit while the swept bounds
        // (16, 4) must evict live entries to admit new ones.
        r.resolve_msg(
            &q,
            client_for(config, population, i),
            SimTime::from_micros(i * 500_000),
            &mut server,
        );
    }
    let cs = r.cache_stats();
    let cell = CacheCell {
        capacity,
        population,
        hit_rate: cs.hit_rate(),
        evictions: cs.evictions,
        max_size: cs.max_size,
    };
    session.record(&r.metrics_snapshot());
    cell
}

fn drive_stale(loss: f64, serve_stale: bool, config: &Config, session: &mut Session) -> StaleCell {
    let mut server = AuthServer::new(zone(config), EcsHandling::open(ScopePolicy::MatchSource));
    server.set_logging(false);
    let mut rc = ResolverConfig::rfc_compliant("9.9.9.9".parse().expect("valid"));
    rc.retry.attempts = 2;
    if serve_stale {
        rc.overload.serve_stale_ttl = SimDuration::from_secs(3600);
    }
    let mut r = Resolver::new(rc);
    r.set_tracer(session.tracer());
    let client: IpAddr = "10.0.0.9".parse().expect("valid");

    // Warm phase: fault-free, one query per hostname fills the cache.
    for i in 0..config.hostnames as u64 {
        let q = Message::query(i as u16, Question::a(qname(config, i)));
        r.resolve_msg(&q, client, SimTime::from_secs(i), &mut server);
    }
    let warm_servfails = r.stats().servfail_responses;
    debug_assert_eq!(warm_servfails, 0);

    // Stale phase: every entry has expired (but sits inside the 1 h stale
    // budget) and the upstream path now loses queries.
    let mut faulty = FaultyUpstream::new(
        server,
        LinkFaults {
            loss,
            ..LinkFaults::NONE
        },
        config.seed,
    );
    let t0 = config.hostnames as u64 + config.ttl as u64 + 10;
    let mut answered = 0u64;
    for i in 0..config.hostnames as u64 {
        let q = Message::query(i as u16, Question::a(qname(config, i)));
        let resp = r.resolve_msg(&q, client, SimTime::from_secs(t0 + i * 60), &mut faulty);
        if resp.rcode == Rcode::NoError && !resp.answers.is_empty() {
            answered += 1;
        }
    }
    let s = r.stats();
    let cell = StaleCell {
        loss,
        serve_stale,
        answered,
        stale_answers: s.stale_answers,
        servfails: s.servfail_responses - warm_servfails,
    };
    session.record(&r.metrics_snapshot());
    cell
}

/// A packet-level world: one authoritative, one egress running `rc`, and
/// `clients` co-located nodes all asking the same name at t = 0.
fn drive_burst(rc: ResolverConfig, clients: usize, session: &mut Session) -> BurstCell {
    let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
    let mut sim = Simulation::new(5);
    if session.tracer().is_enabled() {
        sim.enable_metrics();
    }
    let auth_addr: IpAddr = "198.51.100.53".parse().expect("valid");
    let egress_addr: IpAddr = "9.9.9.9".parse().expect("valid");

    let apex = Name::from_ascii("burst.example").expect("valid");
    let mut z = Zone::new(apex.clone());
    z.add_a(
        apex.child("www").expect("valid"),
        60,
        Ipv4Addr::new(198, 51, 100, 1),
    )
    .expect("in zone");
    let auth_node = sim.add_node(
        AuthActor::new(
            AuthServer::new(z, EcsHandling::open(ScopePolicy::MatchSource)),
            book.clone(),
        ),
        city("Chicago").expect("known").pos,
    );
    let egress_node = sim.add_node(
        EgressActor::new(
            {
                let mut r = Resolver::new(rc);
                r.set_tracer(session.tracer());
                r
            },
            vec![(apex.clone(), auth_addr)],
            book.clone(),
        ),
        city("Toronto").expect("known").pos,
    );
    let mut client_nodes = Vec::new();
    for i in 0..clients {
        let q = Message::query(i as u16 + 1, Question::a(apex.child("www").expect("valid")));
        let node = sim.add_node(
            ClientActor::new(egress_node, vec![(SimTime::ZERO, q)]),
            city("Toronto").expect("known").pos,
        );
        book.write()
            .bind(format!("100.70.1.{}", i + 1).parse().expect("valid"), node);
        client_nodes.push(node);
    }
    {
        let mut b = book.write();
        b.bind(auth_addr, auth_node);
        b.bind(egress_addr, egress_node);
    }
    for &c in &client_nodes {
        ClientActor::arm(&mut sim, c);
    }
    sim.run();

    let upstream_flights = sim
        .node_mut::<AuthActor>(auth_node)
        .expect("auth node")
        .server()
        .log()
        .len();
    let mut snapshot = sim.metrics_snapshot().unwrap_or_default();
    let egress = sim
        .node_mut::<EgressActor>(egress_node)
        .expect("egress node");
    snapshot.merge(&egress.resolver().metrics_snapshot());
    let stats = egress.resolver().stats();
    let responded = client_nodes
        .iter()
        .filter(|&&c| {
            !sim.node_mut::<ClientActor>(c)
                .expect("client node")
                .responses
                .is_empty()
        })
        .count() as u64;
    let cell = BurstCell {
        upstream_flights,
        coalesced: stats.coalesced_queries,
        shed: stats.shed_queries,
        responded,
    };
    session.record(&snapshot);
    cell
}

/// Runs the experiment. The engine-level cells and the packet-level
/// bursts (resolver + netsim registries) merge into one snapshot and every
/// resolution traces into the session's tracer; when the session captures
/// telemetry the report gains a p50/p99 latency row and the snapshot is
/// recorded into it.
pub fn run(config: &Config, session: &mut Session) -> (Outcome, Report) {
    let cache_cells: Vec<CacheCell> = config
        .capacities
        .iter()
        .flat_map(|&cap| config.populations.iter().map(move |&pop| (cap, pop)))
        .map(|(cap, pop)| drive_cache(cap, pop, config, session))
        .collect();

    let mut stale_cells: Vec<StaleCell> = config
        .loss_rates
        .iter()
        .map(|&loss| drive_stale(loss, true, config, session))
        .collect();
    stale_cells.push(drive_stale(1.0, false, config, session));

    let mut coalesce_cfg = ResolverConfig::rfc_compliant("9.9.9.9".parse().expect("valid"));
    coalesce_cfg.overload.coalesce = true;
    let coalesced_burst = drive_burst(coalesce_cfg, 6, session);

    let mut shed_cfg = ResolverConfig::rfc_compliant("9.9.9.9".parse().expect("valid"));
    shed_cfg.overload.max_in_flight = Some(2);
    let shed_burst = drive_burst(shed_cfg, 6, session);

    let outcome = Outcome {
        cache_cells,
        stale_cells,
        coalesced_burst,
        shed_burst,
    };

    let mut report = Report::new(
        "overload",
        "graceful degradation under overload (extension)",
    );

    let widest_pop = config.populations.iter().copied().max().unwrap_or(1);
    for cell in outcome
        .cache_cells
        .iter()
        .filter(|c| c.population == widest_pop)
    {
        let cap_label = cell
            .capacity
            .map_or("unbounded".to_string(), |c| c.to_string());
        report.row(
            format!("cache @ cap {cap_label}, {widest_pop} /24s"),
            "peak size respects the bound; evictions only when it bites",
            format!(
                "hit {:.1}%, peak {}, {} evictions",
                cell.hit_rate * 100.0,
                cell.max_size,
                cell.evictions
            ),
            cell.capacity.is_none_or(|cap| cell.max_size <= cap)
                && (cell.capacity.is_some() || cell.evictions == 0),
        );
    }
    let unbounded_hit = outcome
        .cache_cells
        .iter()
        .find(|c| c.capacity.is_none() && c.population == widest_pop)
        .map(|c| c.hit_rate)
        .unwrap_or(0.0);
    let tightest_hit = outcome
        .cache_cells
        .iter()
        .filter(|c| c.population == widest_pop)
        .filter_map(|c| c.capacity.map(|cap| (cap, c.hit_rate)))
        .min_by_key(|&(cap, _)| cap)
        .map(|(_, h)| h)
        .unwrap_or(0.0);
    report.row(
        "bound tightens, hit rate falls",
        "the tightest cap hits no more often than unbounded",
        format!(
            "{:.1}% -> {:.1}%",
            unbounded_hit * 100.0,
            tightest_hit * 100.0
        ),
        tightest_hit <= unbounded_hit,
    );

    for cell in &outcome.stale_cells {
        let mode = if cell.serve_stale {
            "stale on"
        } else {
            "stale off"
        };
        report.row(
            format!("re-query @ loss {:.1}, {mode}", cell.loss),
            "serve-stale converts would-be SERVFAILs into stale answers",
            format!(
                "{} answered, {} stale, {} SERVFAIL",
                cell.answered, cell.stale_answers, cell.servfails
            ),
            if cell.serve_stale {
                cell.servfails == 0 && (cell.loss == 0.0) == (cell.stale_answers == 0)
            } else {
                cell.stale_answers == 0 && cell.servfails > 0
            },
        );
    }

    report.row(
        "duplicate burst coalesces",
        "six identical concurrent queries, one upstream flight",
        format!(
            "{} flights, {} joined, {}/6 responded",
            outcome.coalesced_burst.upstream_flights,
            outcome.coalesced_burst.coalesced,
            outcome.coalesced_burst.responded
        ),
        outcome.coalesced_burst.upstream_flights == 1
            && outcome.coalesced_burst.coalesced == 5
            && outcome.coalesced_burst.responded == 6,
    );
    report.row(
        "in-flight cap sheds",
        "excess queries SERVFAIL promptly instead of queueing",
        format!(
            "{} flights, {} shed, {}/6 responded",
            outcome.shed_burst.upstream_flights,
            outcome.shed_burst.shed,
            outcome.shed_burst.responded
        ),
        outcome.shed_burst.upstream_flights == 2
            && outcome.shed_burst.shed == 4
            && outcome.shed_burst.responded == 6,
    );

    session.latency_row(
        &mut report,
        "cache hits keep p50 at zero sim-time; upstream trips set p99",
    );
    report.detail = format!(
        "{} queries per cache cell over {} hostnames, TTL {} s; capacities\n{:?} x populations {:?}. Stale phase re-queries a warmed cache past\nexpiry against loss rates {:?} (seed {}). Burst cells run the packet-level\nactors: 6 co-located clients, one authoritative.\n",
        config.queries,
        config.hostnames,
        config.ttl,
        config.capacities,
        config.populations,
        config.loss_rates,
        config.seed
    );
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(config: &Config) -> (Outcome, Report) {
        super::run(config, &mut Session::new(false))
    }

    fn small() -> Config {
        Config {
            queries: 160,
            capacities: vec![None, Some(4)],
            populations: vec![2, 4],
            loss_rates: vec![0.0, 1.0],
            ..Config::default()
        }
    }

    #[test]
    fn all_mechanisms_hold() {
        let (out, report) = run(&small());
        assert!(report.all_hold(), "{report}");
        // Duplicate concurrent queries produced exactly one upstream flight.
        assert_eq!(out.coalesced_burst.upstream_flights, 1);
        // The admission gate actually shed load.
        assert!(out.shed_burst.shed > 0);
        // The bound bit somewhere in the grid.
        assert!(out
            .cache_cells
            .iter()
            .any(|c| c.capacity.is_some() && c.evictions > 0));
        // Full loss with stale retention answered everything stale.
        let dark = out
            .stale_cells
            .iter()
            .find(|c| c.serve_stale && c.loss == 1.0)
            .unwrap();
        assert_eq!(dark.stale_answers, dark.answered);
        assert!(dark.answered > 0);
    }

    #[test]
    fn sweep_is_seed_deterministic() {
        let (a, _) = run(&small());
        let (b, _) = run(&small());
        assert_eq!(a.cache_cells, b.cache_cells);
        assert_eq!(a.stale_cells, b.stale_cells);
        assert_eq!(a.coalesced_burst, b.coalesced_burst);
        assert_eq!(a.shed_burst, b.shed_burst);
    }

    #[test]
    fn telemetry_run_matches_and_validates() {
        let (plain, _) = run(&small());
        let mut session = Session::new(true);
        let (traced, report) = super::run(&small(), &mut session);
        let telem = session.take_telemetry().expect("capturing");
        assert_eq!(plain.cache_cells, traced.cache_cells);
        assert_eq!(plain.coalesced_burst, traced.coalesced_burst);
        assert!(report.all_hold(), "{report}");
        assert!(obs::validate::validate_trace(&telem.trace_jsonl).unwrap() > 0);
        // Engine cells contribute resolver/cache series; the burst cells
        // run the packet simulator with its metrics on too.
        assert!(obs::validate::validate_metrics_json(
            &telem.snapshot.to_json(),
            &[
                "resolver_client_queries_total",
                "resolver_coalesced_queries_total",
                "resolver_shed_queries_total",
                "cache_evictions_total",
                "netsim_delivered_total",
            ],
        )
        .is_ok());
        // Every query of every cell closed exactly once — joiners included
        // — and the coalesced burst traced each of its joins.
        let events = obs::analyze::parse_events(&telem.trace_jsonl).unwrap();
        let count = |name: &str| events.iter().filter(|e| e.event == name).count() as u64;
        let queries = telem.snapshot.counter("resolver_client_queries_total");
        assert_eq!(Some(count("query_received")), queries);
        assert_eq!(Some(count("answered")), queries);
        let latency = telem.snapshot.histogram("resolver_query_latency_us");
        assert_eq!(latency.map(|h| h.count), queries);
        assert_eq!(
            Some(count("coalesced_join")),
            telem.snapshot.counter("resolver_coalesced_queries_total")
        );
        assert!(telem.trace_jsonl.contains("\"event\":\"shed\""));
        assert!(telem.trace_jsonl.contains("\"event\":\"stale_serve\""));
    }
}
