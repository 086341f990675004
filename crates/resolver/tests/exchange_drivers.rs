//! One exchange machine, two drivers.
//!
//! A table of scripted upstream outcomes is run through the blocking
//! driver (`Resolver::resolve_msg` over a `FaultyUpstream`) and through the
//! netsim `EgressActor` talking to an authoritative node that plays the
//! same script. Both must give the client the same answer, leave the same
//! `ResolverStats`, and emit the same trace event kinds in the same order
//! — the retry/withdraw/stale decisions live in `resolver::exchange` and
//! nowhere else.
//!
//! A seeded property then drives `step_exchange` directly with random
//! outcome scripts and policies; a failure names the seed, and
//! `EXCHANGE_PROP_SEED=<seed>` replays exactly that case.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question, Rcode, Rdata, Record};
use netsim::geo::city;
use netsim::{AddressBook, Ctx, Node, NodeId, Packet, SimDuration, SimTime, Simulation, Transport};
use parking_lot::RwLock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resolver::actors::{EgressActor, SharedBook};
use resolver::{
    Action, FaultyUpstream, InjectedFault, Resolver, ResolverConfig, ResolverStats, Step,
    TransportPolicy, Upstream, UpstreamError,
};

const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(100, 70, 1, 7));
const EGRESS: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));
const AUTH: IpAddr = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 53));

fn name(s: &str) -> Name {
    Name::from_ascii(s).expect("valid name")
}

fn auth() -> AuthServer {
    let mut zone = Zone::new(name("drivers.example"));
    zone.add_a(
        name("www.drivers.example"),
        60,
        Ipv4Addr::new(198, 51, 100, 1),
    )
    .expect("in zone");
    AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
}

fn query(id: u16) -> Message {
    Message::query(id, Question::a(name("www.drivers.example")))
}

/// One row of the table: a policy tweak, when the client asks, and what
/// the authoritative does to each upstream send in turn.
struct Case {
    label: &'static str,
    configure: fn(&mut ResolverConfig),
    /// Client send times in seconds.
    asks: &'static [u64],
    script: &'static [InjectedFault],
    want: Rcode,
    /// Expected (upstream_timeouts, retries, ecs_withdrawals,
    /// stale_answers, servfail_responses): the row took the transitions
    /// its label names.
    counts: (u64, u64, u64, u64, u64),
}

const CASES: &[Case] = &[
    Case {
        label: "answer",
        configure: |_| {},
        asks: &[0],
        script: &[InjectedFault::Pass],
        want: Rcode::NoError,
        counts: (0, 0, 0, 0, 0),
    },
    Case {
        label: "timeout, withdraw ECS, answer",
        configure: |_| {},
        asks: &[0],
        script: &[InjectedFault::Timeout, InjectedFault::Pass],
        want: Rcode::NoError,
        counts: (1, 1, 1, 0, 0),
    },
    Case {
        label: "FORMERR with withdraw_ecs_on_formerr",
        configure: |c| c.retry.withdraw_ecs_on_formerr = true,
        asks: &[0],
        script: &[InjectedFault::FormErr, InjectedFault::Pass],
        want: Rcode::NoError,
        counts: (0, 1, 1, 0, 0),
    },
    Case {
        label: "upstream SERVFAIL served stale",
        configure: |c| c.overload.serve_stale_ttl = SimDuration::from_secs(3600),
        // Warm the cache, then re-ask past the 60 s TTL.
        asks: &[0, 120],
        script: &[InjectedFault::Pass, InjectedFault::ServFail],
        want: Rcode::NoError,
        counts: (0, 0, 0, 1, 0),
    },
    Case {
        label: "budget exhaustion",
        configure: |_| {},
        asks: &[0],
        script: &[InjectedFault::Timeout; 4],
        want: Rcode::ServFail,
        counts: (4, 3, 1, 0, 1),
    },
];

/// What a driver run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// (rcode, answer records) per client ask.
    answers: Vec<(Rcode, Vec<Record>)>,
    stats: ResolverStats,
    event_kinds: Vec<String>,
}

fn event_kinds(sink: &obs::MemorySink) -> Vec<String> {
    sink.lines()
        .iter()
        .map(|l| {
            let rest = l.split("\"event\":\"").nth(1).expect("event field");
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn traced_resolver(case: &Case) -> (Resolver, Arc<obs::MemorySink>) {
    let mut config = ResolverConfig::rfc_compliant(EGRESS);
    (case.configure)(&mut config);
    let mut r = Resolver::new(config);
    let sink = Arc::new(obs::MemorySink::new());
    r.set_tracer(obs::Tracer::new(sink.clone()));
    (r, sink)
}

fn run_sync(case: &Case) -> Outcome {
    let (mut r, sink) = traced_resolver(case);
    let mut up = FaultyUpstream::scripted(auth(), case.script.to_vec());
    let answers = case
        .asks
        .iter()
        .enumerate()
        .map(|(i, &secs)| {
            let resp = r.resolve_msg(
                &query(i as u16 + 1),
                CLIENT,
                SimTime::from_secs(secs),
                &mut up,
            );
            (resp.rcode, resp.answers)
        })
        .collect();
    Outcome {
        answers,
        stats: r.stats(),
        event_kinds: event_kinds(&sink),
    }
}

/// The authoritative end of the sim world: the same scripted upstream the
/// blocking driver calls, answering packets. A scripted timeout is a
/// datagram that never comes back.
struct ScriptedAuth {
    upstream: FaultyUpstream<AuthServer>,
    book: SharedBook,
}

impl Node for ScriptedAuth {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let msg = Message::from_bytes(&pkt.payload).expect("egress sends valid DNS");
        let from = self.book.read().addr_of(pkt.src).expect("egress is bound");
        if let Ok(resp) = self.upstream.query(&msg, from, ctx.now()) {
            ctx.send(pkt.src, resp.to_bytes().expect("encodes"));
        }
    }
}

/// A stub that asks once per timer and keeps every reply.
struct Stub {
    egress: NodeId,
    responses: Vec<Message>,
}

impl Node for Stub {
    fn on_packet(&mut self, pkt: Packet, _ctx: &mut Ctx) {
        self.responses
            .push(Message::from_bytes(&pkt.payload).expect("egress answers valid DNS"));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        ctx.send(
            self.egress,
            query(token as u16).to_bytes().expect("encodes"),
        );
    }
}

struct World {
    sim: Simulation,
    book: SharedBook,
    stub: NodeId,
    egress: NodeId,
    auth: NodeId,
}

/// Stub, egress and scripted authoritative in one city; `routes` is the
/// egress's routing table.
fn world(resolver: Resolver, script: &[InjectedFault], routes: Vec<(Name, IpAddr)>) -> World {
    let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
    let mut sim = Simulation::new(1);
    let pos = city("Toronto").expect("known city").pos;
    let auth = sim.add_node(
        ScriptedAuth {
            upstream: FaultyUpstream::scripted(auth(), script.to_vec()),
            book: book.clone(),
        },
        pos,
    );
    let egress = sim.add_node(EgressActor::new(resolver, routes, book.clone()), pos);
    let stub = sim.add_node(
        Stub {
            egress,
            responses: Vec::new(),
        },
        pos,
    );
    {
        let mut b = book.write();
        b.bind(AUTH, auth);
        b.bind(EGRESS, egress);
        b.bind(CLIENT, stub);
    }
    World {
        sim,
        book,
        stub,
        egress,
        auth,
    }
}

fn run_actor(case: &Case) -> Outcome {
    let (r, sink) = traced_resolver(case);
    let mut w = world(r, case.script, vec![(name("drivers.example"), AUTH)]);
    for (i, &secs) in case.asks.iter().enumerate() {
        w.sim
            .inject_timer(w.stub, SimDuration::from_secs(secs), i as u64 + 1);
    }
    w.sim.run();
    let answers = w
        .sim
        .node_mut::<Stub>(w.stub)
        .expect("stub node")
        .responses
        .iter()
        .map(|m| (m.rcode, m.answers.clone()))
        .collect();
    let e = w
        .sim
        .node_mut::<EgressActor>(w.egress)
        .expect("egress node");
    assert_eq!(e.in_flight(), 0, "{}: table drained", case.label);
    Outcome {
        answers,
        stats: e.resolver().stats(),
        event_kinds: event_kinds(&sink),
    }
}

#[test]
fn scripted_outcomes_agree_across_drivers() {
    for case in CASES {
        let sync = run_sync(case);
        let actor = run_actor(case);
        assert_eq!(sync, actor, "{}: drivers disagree", case.label);
        assert_eq!(sync.answers.len(), case.asks.len(), "{}", case.label);
        let (rcode, records) = sync.answers.last().expect("asked at least once");
        assert_eq!(*rcode, case.want, "{}", case.label);
        assert_eq!(records.is_empty(), case.want != Rcode::NoError);
        let s = sync.stats;
        assert_eq!(
            (
                s.upstream_timeouts,
                s.retries,
                s.ecs_withdrawals,
                s.stale_answers,
                s.servfail_responses
            ),
            case.counts,
            "{}",
            case.label
        );
    }
}

/// A node that answers whatever id it is told to, whoever asked.
struct Spoofer {
    egress: NodeId,
}

impl Node for Spoofer {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        let mut forged = Message::response_to(&query(token as u16));
        forged.answers.push(Record::new(
            name("www.drivers.example"),
            60,
            Rdata::A(Ipv4Addr::new(203, 0, 113, 66)),
        ));
        ctx.send(self.egress, forged.to_bytes().expect("encodes"));
    }
}

#[test]
fn reply_from_a_third_node_with_the_right_id_is_ignored() {
    // The authoritative loses the first send, so the exchange (upstream id
    // 1, the resolver's first) is still outstanding when the forgery lands
    // at t = 1 s; the real answer comes with the retransmission at 2 s.
    let r = Resolver::new(ResolverConfig::rfc_compliant(EGRESS));
    let mut w = world(
        r,
        &[InjectedFault::Timeout],
        vec![(name("drivers.example"), AUTH)],
    );
    let pos = city("Toronto").expect("known city").pos;
    let spoofer = w.sim.add_node(Spoofer { egress: w.egress }, pos);
    w.book
        .write()
        .bind(IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1)), spoofer);
    w.sim.inject_timer(w.stub, SimDuration::ZERO, 1);
    w.sim.inject_timer(spoofer, SimDuration::from_secs(1), 1);
    w.sim.run();

    let stub = w.sim.node_mut::<Stub>(w.stub).expect("stub node");
    assert_eq!(stub.responses.len(), 1);
    assert_eq!(
        stub.responses[0].answer_addrs(),
        vec![IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1))],
        "the real authoritative's answer, not the forged one"
    );
    let e = w
        .sim
        .node_mut::<EgressActor>(w.egress)
        .expect("egress node");
    assert_eq!(e.ignored_replies(), 1);
    assert_eq!(e.resolver().stats().retries, 1);
    let served = w.sim.node_mut::<ScriptedAuth>(w.auth).expect("auth node");
    assert_eq!(served.upstream.stats().passed, 1);
}

#[test]
fn unroutable_miss_is_answered_servfail_and_uncounted() {
    for routes in [
        // No route for the zone at all.
        vec![],
        // A route whose authoritative address no node is bound to.
        vec![(
            name("drivers.example"),
            IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
        )],
    ] {
        let (r, sink) = traced_resolver(&CASES[0]);
        let mut w = world(r, &[], routes);
        w.sim.inject_timer(w.stub, SimDuration::ZERO, 1);
        w.sim.inject_timer(w.stub, SimDuration::from_secs(1), 2);
        w.sim.run();

        let stub = w.sim.node_mut::<Stub>(w.stub).expect("stub node");
        let answers_sent = stub.responses.len() as u64;
        assert!(stub.responses.iter().all(|m| m.rcode == Rcode::ServFail));
        let e = w
            .sim
            .node_mut::<EgressActor>(w.egress)
            .expect("egress node");
        let s = e.resolver().stats();
        assert_eq!(s.client_queries, answers_sent, "never silence");
        assert_eq!(s.client_queries, 2);
        assert_eq!(
            (s.upstream_queries, s.upstream_ecs_queries),
            (0, 0),
            "nothing was sent, so nothing is counted as sent"
        );
        assert_eq!(s.servfail_responses, 2);
        assert_eq!(e.in_flight(), 0);
        // Every trace that opened also closed.
        let kinds = event_kinds(&sink);
        let count = |k: &str| kinds.iter().filter(|e| *e == k).count();
        assert_eq!(count("query_received"), 2);
        assert_eq!(count("answered"), 2);
        assert_eq!(count("upstream_attempt"), 0);
    }
}

/// One random case of the property, fully determined by `seed`.
fn exchange_property(seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut config = ResolverConfig::rfc_compliant(EGRESS);
    config.retry.attempts = rng.gen_range(1..=6);
    config.retry.withdraw_ecs_on_timeout = rng.gen();
    let mut ladder = Transport::ALL.to_vec();
    ladder.truncate(rng.gen_range(1..=4));
    config.transport = TransportPolicy::with_ladder(ladder.clone());
    if rng.gen() {
        config.transport.attempts_per_transport = Some(rng.gen_range(1..=4));
    }
    let per_rung = config
        .transport
        .attempts_per_transport
        .unwrap_or(config.retry.attempts);
    let bound = u64::from(per_rung) * ladder.len() as u64;
    // How likely each send is to fail; 1.0 exhausts the whole ladder.
    let fail_p = [0.0, 0.5, 0.9, 1.0][rng.gen_range(0..4)];

    let mut r = Resolver::new(config);
    let now = SimTime::from_secs(1);
    let Step::NeedUpstream(pending) = r.begin(&query(1), CLIENT, now) else {
        return Err("first query must miss".into());
    };
    let (mut ex, mut action) = r.start_exchange(pending, now);
    let mut at = now;
    let mut failed_sends = 0u64;
    let mut timeouts = 0u64;
    let (answer, raw) = loop {
        let (transport, timeout) = match action {
            Action::Done { answer, raw } => break (answer, raw),
            Action::Send { transport, timeout } => (transport, timeout),
        };
        if !ladder.contains(&transport) {
            return Err(format!("sent over {transport:?}, not on {ladder:?}"));
        }
        let outcome = if rng.gen::<f64>() < fail_p {
            failed_sends += 1;
            if failed_sends > bound {
                return Err(format!(
                    "{failed_sends} failed sends exceed the bound {bound}"
                ));
            }
            if rng.gen() {
                timeouts += 1;
                at += timeout;
                Err(UpstreamError::Timeout)
            } else {
                Err(UpstreamError::Rcode(Rcode::Refused))
            }
        } else {
            let mut resp = Message::response_to(ex.upstream_query());
            resp.answers.push(Record::new(
                name("www.drivers.example"),
                60,
                Rdata::A(Ipv4Addr::new(198, 51, 100, 1)),
            ));
            Ok(resp)
        };
        action = r.step_exchange(&mut ex, outcome, at);
    };

    let s = r.stats();
    if s.upstream_timeouts != timeouts {
        return Err(format!("{timeouts} timeouts reported, stats {s:?}"));
    }
    if failed_sends != s.retries + s.servfail_responses {
        return Err(format!(
            "{failed_sends} failed sends != retries + servfails in {s:?}"
        ));
    }
    // With no transport-error outcomes this is the identity the fault
    // matrix pins: upstream_timeouts == retries + servfail_responses.
    if failed_sends == timeouts && s.upstream_timeouts != s.retries + s.servfail_responses {
        return Err(format!("timeout identity broken: {s:?}"));
    }
    if s.upstream_queries != 1 + s.retries {
        return Err(format!("sends miscounted: {s:?}"));
    }
    match (answer.rcode, raw.is_some(), s.servfail_responses) {
        (Rcode::NoError, true, 0) => Ok(()),
        (Rcode::ServFail, false, 1) if failed_sends == bound => Ok(()),
        other => Err(format!(
            "inconsistent ending {other:?} after {failed_sends}/{bound}"
        )),
    }
}

#[test]
fn random_outcome_scripts_terminate_within_budget_and_reconcile() {
    let replay = std::env::var("EXCHANGE_PROP_SEED")
        .ok()
        .map(|s| s.parse::<u64>().expect("EXCHANGE_PROP_SEED is a u64"));
    let seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => (0..2000).collect(),
    };
    for seed in seeds {
        if let Err(why) = exchange_property(seed) {
            panic!("seed {seed}: {why}\nreplay with EXCHANGE_PROP_SEED={seed}");
        }
    }
}
