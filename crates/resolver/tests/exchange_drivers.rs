//! One exchange machine, two drivers.
//!
//! A table of scripted upstream outcomes is run through the blocking
//! driver (`begin` → `join` | `drive_upstream_capturing` → `answer_joiner`
//! over a `FaultyUpstream`) and through the netsim `EgressActor` talking to
//! an authoritative node that plays the same script. Both must give every
//! client the same answer, leave the same `ResolverStats`, and emit the
//! same trace event kinds in the same order for every query — the
//! retry/withdraw/stale decisions live in `resolver::exchange`, the answer
//! every waiting party gets in the engine's one exit, and nowhere else.
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
    Action, FaultyUpstream, InjectedFault, PendingQuery, ProbingStrategy, Resolver, ResolverConfig,
    ResolverStats, Step, TransportPolicy, Upstream, UpstreamError,
};

const CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::new(100, 70, 1, 7));
/// In CLIENT's /24, so inside the scope of an entry CLIENT's query cached.
const NEIGHBOUR: IpAddr = IpAddr::V4(Ipv4Addr::new(100, 70, 1, 8));
const FAR: IpAddr = IpAddr::V4(Ipv4Addr::new(198, 18, 5, 5));
const FARTHER: IpAddr = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 5));
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

/// One row of the table: a policy tweak, who asks when, and what the
/// authoritative does to each upstream send in turn.
struct Case {
    label: &'static str,
    configure: fn(&mut ResolverConfig),
    /// (send time in seconds, client) per ask; ask `i` carries id `i + 1`.
    /// Asks of one second are concurrent: they reach the resolver in the
    /// order listed, all before the first one's upstream reply.
    asks: &'static [(u64, IpAddr)],
    script: &'static [InjectedFault],
    /// The rcode each ask is answered with.
    want: &'static [Rcode],
    /// Expected (upstream_timeouts, retries, ecs_withdrawals,
    /// stale_answers, servfail_responses): the row took the transitions
    /// its label names.
    counts: (u64, u64, u64, u64, u64),
}

const CASES: &[Case] = &[
    Case {
        label: "answer",
        configure: |_| {},
        asks: &[(0, CLIENT)],
        script: &[InjectedFault::Pass],
        want: &[Rcode::NoError],
        counts: (0, 0, 0, 0, 0),
    },
    Case {
        label: "timeout, withdraw ECS, answer",
        configure: |_| {},
        asks: &[(0, CLIENT)],
        script: &[InjectedFault::Timeout, InjectedFault::Pass],
        want: &[Rcode::NoError],
        counts: (1, 1, 1, 0, 0),
    },
    Case {
        label: "FORMERR with withdraw_ecs_on_formerr",
        configure: |c| c.retry.withdraw_ecs_on_formerr = true,
        asks: &[(0, CLIENT)],
        script: &[InjectedFault::FormErr, InjectedFault::Pass],
        want: &[Rcode::NoError],
        counts: (0, 1, 1, 0, 0),
    },
    Case {
        label: "upstream SERVFAIL served stale",
        configure: |c| c.overload.serve_stale_ttl = SimDuration::from_secs(3600),
        // Warm the cache, then re-ask past the 60 s TTL.
        asks: &[(0, CLIENT), (120, CLIENT)],
        script: &[InjectedFault::Pass, InjectedFault::ServFail],
        want: &[Rcode::NoError, Rcode::NoError],
        counts: (0, 0, 0, 1, 0),
    },
    Case {
        label: "budget exhaustion",
        configure: |_| {},
        asks: &[(0, CLIENT)],
        script: &[InjectedFault::Timeout; 4],
        want: &[Rcode::ServFail],
        counts: (4, 3, 1, 0, 1),
    },
    Case {
        label: "failed flight, two joiners, stale only inside the scope",
        configure: |c| {
            c.overload.serve_stale_ttl = SimDuration::from_secs(3600);
            c.overload.coalesce = true;
            // ECS on the warm-up only: it caches an entry scoped to
            // CLIENT's /24, and the next three misses go upstream plain,
            // so they share a flight key wherever they come from.
            c.probing = ProbingStrategy::EveryKth { k: 4 };
        },
        // FAR owns the flight at 120 s; NEIGHBOUR and FARTHER join it.
        asks: &[(0, CLIENT), (120, FAR), (120, NEIGHBOUR), (120, FARTHER)],
        script: &[InjectedFault::Pass, InjectedFault::ServFail],
        // RFC 8767 per party: NEIGHBOUR is inside the expired entry's
        // scope, the owner and FARTHER are not.
        want: &[
            Rcode::NoError,
            Rcode::ServFail,
            Rcode::NoError,
            Rcode::ServFail,
        ],
        counts: (0, 0, 0, 1, 2),
    },
];

/// What a driver run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// (rcode, answer records) per client ask.
    answers: Vec<(Rcode, Vec<Record>)>,
    stats: ResolverStats,
    /// Latency samples recorded.
    latency_samples: u64,
    /// The event kinds of each query's trace in emission order, queries
    /// in arrival order. (Per query, not one flat list: a joiner's events
    /// interleave with its owner's differently on a thread than in a
    /// simulation.)
    event_kinds: Vec<Vec<String>>,
}

fn event_kinds(sink: &obs::MemorySink) -> Vec<Vec<String>> {
    let events = obs::analyze::parse_events(&sink.lines().join("\n")).expect("valid trace");
    let mut by_trace = std::collections::BTreeMap::<u64, Vec<String>>::new();
    for e in events {
        by_trace.entry(e.trace).or_default().push(e.event);
    }
    by_trace.into_values().collect()
}

fn outcome(answers: Vec<Message>, r: &Resolver, sink: &obs::MemorySink) -> Outcome {
    Outcome {
        answers: answers.into_iter().map(|m| (m.rcode, m.answers)).collect(),
        stats: r.stats(),
        latency_samples: r
            .registry()
            .snapshot()
            .histogram("resolver_query_latency_us")
            .expect("registered")
            .count,
        event_kinds: event_kinds(sink),
    }
}

fn traced_resolver(case: &Case) -> (Resolver, Arc<obs::MemorySink>) {
    let mut config = ResolverConfig::rfc_compliant(EGRESS);
    (case.configure)(&mut config);
    let mut r = Resolver::new(config);
    let sink = Arc::new(obs::MemorySink::new());
    r.set_tracer(obs::Tracer::new(sink.clone()));
    (r, sink)
}

/// One outstanding flight of the blocking driver: the owner's ask and the
/// asks that joined it, each by its index.
struct SyncFlight {
    owner: (usize, PendingQuery),
    joiners: Vec<(usize, PendingQuery)>,
}

/// The blocking driver on one thread, as a `dnsd` worker drives it: every
/// ask of one second is admitted (join, else own) before the owners'
/// exchanges run, then each flight's joiners are answered from what its
/// owner's exchange ended with.
fn run_sync(case: &Case) -> Outcome {
    let (mut r, sink) = traced_resolver(case);
    let coalesce = r.config().overload.coalesce;
    let mut up = FaultyUpstream::scripted(auth(), case.script.to_vec());
    let mut answers = Vec::new();
    for burst in case.asks.chunk_by(|a, b| a.0 == b.0) {
        let now = SimTime::from_secs(burst[0].0);
        let mut flights: Vec<SyncFlight> = Vec::new();
        for (_, from) in burst {
            let i = answers.len();
            answers.push(None);
            let pending = match r.begin(&query(i as u16 + 1), *from, now) {
                Step::Answer(resp) => {
                    answers[i] = Some(resp);
                    continue;
                }
                Step::NeedUpstream(pending) => pending,
            };
            let key = pending.flight_key();
            match flights
                .iter_mut()
                .find(|f| coalesce && f.owner.1.flight_key() == key)
            {
                Some(flight) => {
                    r.join(&pending, now);
                    flight.joiners.push((i, pending));
                }
                None => flights.push(SyncFlight {
                    owner: (i, pending),
                    joiners: Vec::new(),
                }),
            }
        }
        for SyncFlight { owner, joiners } in flights {
            let (answer, raw) = r.drive_upstream_capturing(owner.1, now, &mut up);
            answers[owner.0] = Some(answer);
            for (i, joiner) in joiners {
                answers[i] = Some(r.answer_joiner(&joiner, raw.as_ref(), now));
            }
        }
    }
    let answers = answers.into_iter().map(|a| a.expect("answered")).collect();
    outcome(answers, &r, &sink)
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
    /// One stub per client address, in the order given.
    stubs: Vec<NodeId>,
    egress: NodeId,
    auth: NodeId,
}

/// A stub per client and the egress in one city, the scripted
/// authoritative a round trip of about 13 ms away; `routes` is the egress's
/// routing table.
fn world(
    resolver: Resolver,
    script: &[InjectedFault],
    routes: Vec<(Name, IpAddr)>,
    clients: &[IpAddr],
) -> World {
    let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
    let mut sim = Simulation::new(1);
    let pos = city("Toronto").expect("known city").pos;
    let auth = sim.add_node(
        ScriptedAuth {
            upstream: FaultyUpstream::scripted(auth(), script.to_vec()),
            book: book.clone(),
        },
        city("Chicago").expect("known city").pos,
    );
    let egress = sim.add_node(EgressActor::new(resolver, routes, book.clone()), pos);
    let stubs: Vec<NodeId> = clients
        .iter()
        .map(|_| {
            sim.add_node(
                Stub {
                    egress,
                    responses: Vec::new(),
                },
                pos,
            )
        })
        .collect();
    {
        let mut b = book.write();
        b.bind(AUTH, auth);
        b.bind(EGRESS, egress);
        for (addr, stub) in clients.iter().zip(&stubs) {
            b.bind(*addr, *stub);
        }
    }
    World {
        sim,
        book,
        stubs,
        egress,
        auth,
    }
}

fn run_actor(case: &Case) -> Outcome {
    let (r, sink) = traced_resolver(case);
    let mut clients: Vec<IpAddr> = case.asks.iter().map(|(_, from)| *from).collect();
    clients.sort_unstable();
    clients.dedup();
    let mut w = world(
        r,
        case.script,
        vec![(name("drivers.example"), AUTH)],
        &clients,
    );
    for (i, (secs, from)) in case.asks.iter().enumerate() {
        let stub = w.stubs[clients.binary_search(from).expect("a client")];
        // A millisecond apart, so concurrent asks arrive in the order
        // listed (jitter is under 1 ms) and well inside the owner's
        // upstream round trip.
        let at = SimDuration::from_secs(*secs) + SimDuration::from_millis(i as u64);
        w.sim.inject_timer(stub, at, i as u64 + 1);
    }
    w.sim.run();
    let mut answers = Vec::new();
    for stub in &w.stubs {
        let stub = w.sim.node_mut::<Stub>(*stub).expect("stub node");
        answers.append(&mut stub.responses);
    }
    answers.sort_by_key(|m| m.id);
    let e = w
        .sim
        .node_mut::<EgressActor>(w.egress)
        .expect("egress node");
    assert_eq!(e.in_flight(), 0, "{}: table drained", case.label);
    outcome(answers, e.resolver(), &sink)
}

#[test]
fn scripted_outcomes_agree_across_drivers() {
    for case in CASES {
        let sync = run_sync(case);
        let actor = run_actor(case);
        assert_eq!(sync, actor, "{}: drivers disagree", case.label);
        let rcodes: Vec<Rcode> = sync.answers.iter().map(|(rcode, _)| *rcode).collect();
        assert_eq!(rcodes, case.want, "{}", case.label);
        for (rcode, records) in &sync.answers {
            assert_eq!(records.is_empty(), *rcode != Rcode::NoError);
        }
        // Every query closed exactly once, whichever way it left: its own
        // latency sample and its own `answered` event, and a
        // `coalesced_join` per query that joined.
        let asked = case.asks.len();
        assert_eq!(sync.latency_samples, asked as u64, "{}", case.label);
        assert_eq!(sync.event_kinds.len(), asked, "{}", case.label);
        let mut joined = 0;
        for kinds in &sync.event_kinds {
            let count = |kind: &str| kinds.iter().filter(|k| *k == kind).count();
            assert_eq!(kinds[0], "query_received", "{}", case.label);
            assert_eq!(kinds.last().map(String::as_str), Some("answered"));
            assert_eq!(count("query_received") + count("answered"), 2);
            joined += count("coalesced_join") as u64;
        }
        assert_eq!(joined, sync.stats.coalesced_queries, "{}", case.label);
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
        &[CLIENT],
    );
    let pos = city("Toronto").expect("known city").pos;
    let spoofer = w.sim.add_node(Spoofer { egress: w.egress }, pos);
    w.book
        .write()
        .bind(IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1)), spoofer);
    w.sim.inject_timer(w.stubs[0], SimDuration::ZERO, 1);
    w.sim.inject_timer(spoofer, SimDuration::from_secs(1), 1);
    w.sim.run();

    let stub = w.sim.node_mut::<Stub>(w.stubs[0]).expect("stub node");
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
        let mut w = world(r, &[], routes, &[CLIENT]);
        w.sim.inject_timer(w.stubs[0], SimDuration::ZERO, 1);
        w.sim.inject_timer(w.stubs[0], SimDuration::from_secs(1), 2);
        w.sim.run();

        let stub = w.sim.node_mut::<Stub>(w.stubs[0]).expect("stub node");
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
        let kinds = event_kinds(&sink).concat();
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
