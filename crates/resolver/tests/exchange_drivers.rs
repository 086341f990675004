//! One exchange machine, two drivers.
//!
//! A table of scripted upstream outcomes is run through the blocking
//! driver (`begin` → `join` | `drive_upstream` → `answer_joiner`
//! over a `FaultyUpstream`) and through the netsim `EgressActor` talking to
//! an authoritative node that plays the same script. Both must give every
//! client the same answer, leave the same `ResolverStats`, and emit the
//! same trace event kinds in the same order for every query — the
//! retry/withdraw decisions live in `resolver::exchange`, the answer
//! every waiting party gets in the engine's one exit, and nowhere else.
//! The upstream seam is one representation, the datagram: the queries
//! the blocking driver's upstream is handed are the ones the actor's
//! authoritative receives, byte for byte.
//!
//! A seeded property then drives `step_exchange` directly with random
//! outcome scripts and policies — answers with and without ECS, timeouts,
//! REFUSED, TC replies, FORMERR and SERVFAIL, under both withdrawal flags; a failure names the seed, and
//! `EXCHANGE_PROP_SEED=<seed>` replays exactly that case.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, MessageView, Name, Question, Rcode, Rdata, Record};
use netsim::geo::city;
use netsim::{Ctx, Node, NodeId, Packet, SimDuration, SimTime, Simulation, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resolver::actors::EgressActor;
use resolver::{
    Action, FaultyUpstream, InjectedFault, PendingQuery, ProbingStrategy, Resolver, ResolverConfig,
    ResolverStats, Step, TransportPolicy, Upstream, UpstreamError, UpstreamReply,
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

/// What the machine reads of a reply datagram.
fn read(reply: &[u8]) -> UpstreamReply {
    UpstreamReply::read(&MessageView::parse(reply).expect("a valid reply"))
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
    /// servfail_responses): the row took the transitions its label names.
    counts: (u64, u64, u64, u64),
}

const CASES: &[Case] = &[
    Case {
        label: "answer",
        configure: |_| {},
        asks: &[(0, CLIENT)],
        script: &[InjectedFault::Pass],
        want: &[Rcode::NoError],
        counts: (0, 0, 0, 0),
    },
    Case {
        label: "timeout, withdraw ECS, answer",
        configure: |_| {},
        asks: &[(0, CLIENT)],
        script: &[InjectedFault::Timeout, InjectedFault::Pass],
        want: &[Rcode::NoError],
        counts: (1, 1, 1, 0),
    },
    Case {
        label: "FORMERR with withdraw_ecs_on_formerr",
        configure: |c| c.retry.withdraw_ecs_on_formerr = true,
        asks: &[(0, CLIENT)],
        script: &[InjectedFault::FormErr, InjectedFault::Pass],
        want: &[Rcode::NoError],
        counts: (0, 1, 1, 0),
    },
    Case {
        label: "upstream SERVFAIL passed through",
        configure: |_| {},
        // Warm the cache, then re-ask past the 60 s TTL: the expired entry
        // answers nobody, the SERVFAIL reply is the answer.
        asks: &[(0, CLIENT), (120, CLIENT)],
        script: &[InjectedFault::Pass, InjectedFault::ServFail],
        want: &[Rcode::NoError, Rcode::ServFail],
        counts: (0, 0, 0, 0),
    },
    Case {
        label: "budget exhaustion",
        configure: |_| {},
        asks: &[(0, CLIENT)],
        script: &[InjectedFault::Timeout; 4],
        want: &[Rcode::ServFail],
        counts: (4, 3, 1, 1),
    },
    Case {
        label: "failed flight, two joiners, each answered SERVFAIL",
        configure: |c| {
            c.overload.coalesce = true;
            // ECS on the warm-up only: it caches an entry scoped to
            // CLIENT's /24, and the next three misses go upstream plain,
            // so they share a flight key wherever they come from.
            c.probing = ProbingStrategy::EveryKth { k: 4 };
        },
        // FAR owns the flight at 120 s; NEIGHBOUR, inside the expired
        // entry's scope, and FARTHER join it.
        asks: &[(0, CLIENT), (120, FAR), (120, NEIGHBOUR), (120, FARTHER)],
        // The flight's every attempt times out: no reply to answer from,
        // so each party leaves through the engine's exit with a SERVFAIL
        // of its own.
        script: &[
            InjectedFault::Pass,
            InjectedFault::Timeout,
            InjectedFault::Timeout,
            InjectedFault::Timeout,
            InjectedFault::Timeout,
        ],
        want: &[
            Rcode::NoError,
            Rcode::ServFail,
            Rcode::ServFail,
            Rcode::ServFail,
        ],
        counts: (4, 3, 0, 3),
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

/// An upstream that keeps every query datagram it is given, in order,
/// before passing it on.
struct Recording<U> {
    inner: U,
    sent: Vec<Vec<u8>>,
}

impl<U: Upstream> Upstream for Recording<U> {
    fn query_via(
        &mut self,
        q: &[u8],
        from: IpAddr,
        now: SimTime,
        transport: Transport,
    ) -> Result<Vec<u8>, UpstreamError> {
        self.sent.push(q.to_vec());
        self.inner.query_via(q, from, now, transport)
    }
}

/// The blocking driver on one thread, as a `dnsd` worker drives it: every
/// ask of one second is admitted (join, else own) before the owners'
/// exchanges run, then each flight's joiners are answered from what its
/// owner's exchange ended with. Returns the upstream datagrams with the
/// outcome.
fn run_sync(case: &Case) -> (Outcome, Vec<Vec<u8>>) {
    let (mut r, sink) = traced_resolver(case);
    let coalesce = r.config().overload.coalesce;
    let mut up = Recording {
        inner: FaultyUpstream::scripted(auth(), case.script.to_vec()),
        sent: Vec::new(),
    };
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
            let (answer, raw) = r.drive_upstream(owner.1, now, &mut up);
            let raw = raw.map(|reply| read(&reply));
            answers[owner.0] = Some(answer.into_message());
            for (i, joiner) in joiners {
                answers[i] = Some(r.answer_joiner(&joiner, raw.as_ref(), now).into_message());
            }
        }
    }
    let answers = answers.into_iter().map(|a| a.expect("answered")).collect();
    (outcome(answers, &r, &sink), up.sent)
}

/// The authoritative end of the sim world: the same scripted upstream the
/// blocking driver calls, answering the datagrams it receives, which it
/// keeps in order. A scripted timeout is a datagram that never comes
/// back.
struct ScriptedAuth {
    upstream: FaultyUpstream<AuthServer>,
    received: Vec<Vec<u8>>,
}

impl Node for ScriptedAuth {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let from = ctx.addr_of(pkt.src).expect("the egress has an address");
        let reply = self
            .upstream
            .query_via(&pkt.payload, from, ctx.now(), Transport::Udp);
        self.received.push(pkt.payload);
        if let Ok(reply) = reply {
            ctx.send(pkt.src, reply);
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
    let mut sim = Simulation::new(1);
    let pos = city("Toronto").expect("known city").pos;
    let auth = sim.add_node(
        ScriptedAuth {
            upstream: FaultyUpstream::scripted(auth(), script.to_vec()),
            received: Vec::new(),
        },
        AUTH,
        city("Chicago").expect("known city").pos,
    );
    let egress = sim.add_node(EgressActor::new(resolver, routes), EGRESS, pos);
    let stubs: Vec<NodeId> = clients
        .iter()
        .map(|&addr| {
            sim.add_node(
                Stub {
                    egress,
                    responses: Vec::new(),
                },
                addr,
                pos,
            )
        })
        .collect();
    World {
        sim,
        stubs,
        egress,
        auth,
    }
}

/// The actor's run of `case`; returns the datagrams the authoritative
/// received with the outcome.
fn run_actor(case: &Case) -> (Outcome, Vec<Vec<u8>>) {
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
    let outcome = outcome(answers, e.resolver(), &sink);
    let auth = w.sim.node_mut::<ScriptedAuth>(w.auth).expect("auth node");
    (outcome, std::mem::take(&mut auth.received))
}

#[test]
fn scripted_outcomes_agree_across_drivers() {
    for case in CASES {
        let (sync, _) = run_sync(case);
        let (actor, _) = run_actor(case);
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
                s.servfail_responses
            ),
            case.counts,
            "{}",
            case.label
        );
    }
}

/// The upstream seam is the datagram: for every row, the blocking
/// driver's upstream queries, as its upstream is handed them, are the
/// datagrams the actor's authoritative receives — byte for byte, in
/// order, withdrawals and retransmissions included.
#[test]
fn upstream_datagrams_agree_byte_for_byte_across_drivers() {
    for case in CASES {
        let (sync, sent) = run_sync(case);
        let (_, received) = run_actor(case);
        assert_eq!(
            sent.len() as u64,
            sync.stats.upstream_queries,
            "{}",
            case.label
        );
        assert_eq!(
            sent, received,
            "{}: the drivers sent different datagrams",
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
    let spoofer = w.sim.add_node(
        Spoofer { egress: w.egress },
        IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1)),
        pos,
    );
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

/// What the scripted upstream does to one send in the property.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Draw {
    /// An answer, echoing the query's ECS option with a /24 scope when
    /// the query carries one and a coin says so.
    Answer,
    Timeout,
    Refused,
    /// A reply with the TC bit set and no records.
    TcReply,
    FormErr,
    ServFail,
}

const FAILURES: [Draw; 5] = [
    Draw::Timeout,
    Draw::Refused,
    Draw::TcReply,
    Draw::FormErr,
    Draw::ServFail,
];

/// How the property's exchange ended, by the last outcome it was given.
#[derive(Debug, PartialEq)]
enum Ending {
    /// A reply completed it: the client gets that reply's rcode.
    Reply(Rcode),
    /// It failed: the attempt budget ran out.
    Failed,
}

/// Branches of the machine a case reached, one bit each (see
/// [`REACHED`]).
type Reached = u16;

/// What the cases must reach between them: a FORMERR re-asked without
/// ECS and one passed through, an upstream SERVFAIL passed through, a TC
/// reply over a datagram transport, an answer after an ECS withdrawal,
/// and an inline TCP re-query.
const REACHED: [&str; 6] = [
    "FORMERR re-asked",
    "FORMERR passed through",
    "SERVFAIL passed through",
    "TC reply over UDP",
    "answer after a withdrawal",
    "inline TCP re-query",
];

/// One random case of the property, fully determined by `seed`.
fn exchange_property(seed: u64) -> Result<Reached, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut config = ResolverConfig::rfc_compliant(EGRESS);
    config.retry.attempts = rng.gen_range(1..=6);
    config.retry.withdraw_ecs_on_timeout = rng.gen();
    config.retry.withdraw_ecs_on_formerr = rng.gen();
    let mut ladder = Transport::ALL.to_vec();
    ladder.truncate(rng.gen_range(1..=4));
    config.transport = TransportPolicy::with_ladder(ladder.clone());
    let bound = u64::from(config.retry.attempts) * ladder.len() as u64;
    // How likely each send is to fail; 1.0 exhausts the whole ladder.
    let fail_p = [0.0, 0.5, 0.9, 1.0][rng.gen_range(0..4)];

    let mut r = Resolver::new(config);
    let now = SimTime::from_secs(1);
    let Step::NeedUpstream(pending) = r.begin(&query(1), CLIENT, now) else {
        return Err("the query must miss".into());
    };
    let (mut ex, mut action) = r.start_exchange(pending, now);
    let mut at = now;
    // Sends that spent an attempt (timeouts, REFUSED, a failed inline TCP
    // leg), the ones of them that timed out, the truncations that climbed
    // to a stream rung, the FORMERR re-asks without ECS, and the
    // withdrawal triggers that met an ECS option.
    let (mut spent, mut timeouts, mut climbs, mut formerr_resends) = (0u64, 0u64, 0u64, 0u64);
    let mut triggers = 0u64;
    let mut inline = false;
    let mut inline_ran = false;
    let mut sent_without_ecs = false;
    let mut last = Draw::Answer;
    let mut reached: Reached = 0;
    let mut reach = |branch: &str| {
        reached |= 1
            << REACHED
                .iter()
                .position(|b| *b == branch)
                .expect("a named branch");
    };
    // The rcode of the message an inline TCP leg completed with.
    let mut inline_reply = None;
    let (answer, raw) = loop {
        let (transport, timeout) = match action {
            Action::Done { answer, raw } => break (answer, raw),
            Action::Send { transport, timeout } => (transport, timeout),
        };
        let inline_tcp = inline && transport == Transport::Tcp;
        if !(ladder.contains(&transport) || inline_tcp) {
            return Err(format!("sent over {transport:?}, not on {ladder:?}"));
        }
        let sent = Message::from_bytes(ex.upstream_query()).expect("the machine sends DNS");
        let carries_ecs = sent.ecs().is_some();
        if sent_without_ecs && carries_ecs {
            return Err("a send after a withdrawal carries ECS".into());
        }
        sent_without_ecs |= !carries_ecs;
        let draw = if rng.gen::<f64>() < fail_p {
            FAILURES[rng.gen_range(0..FAILURES.len())]
        } else {
            Draw::Answer
        };
        let reply = |rcode: Rcode, tc: bool| {
            let mut resp = Message::response_to(&sent);
            resp.rcode = rcode;
            resp.flags.tc = tc;
            resp
        };
        let outcome = match draw {
            Draw::Answer => {
                let mut resp = reply(Rcode::NoError, false);
                resp.answers.push(Record::new(
                    name("www.drivers.example"),
                    60,
                    Rdata::A(Ipv4Addr::new(198, 51, 100, 1)),
                ));
                if let Some(ecs) = sent.ecs().filter(|_| rng.gen()) {
                    resp.set_ecs(ecs.with_scope(24));
                }
                Ok(resp)
            }
            Draw::Timeout => Err(UpstreamError::Timeout),
            Draw::Refused => Err(UpstreamError::Rcode(Rcode::Refused)),
            Draw::TcReply => Ok(reply(Rcode::NoError, true)),
            Draw::FormErr => Ok(reply(Rcode::FormErr, false)),
            Draw::ServFail => Ok(reply(Rcode::ServFail, false)),
        };
        // What the machine must make of it, from the policy alone.
        let rung = ladder.iter().position(|&t| t == transport);
        let stream_above = rung.is_some_and(|i| ladder[i + 1..].iter().any(|t| t.is_stream()));
        let truncated = draw == Draw::TcReply && !transport.is_stream();
        if std::mem::take(&mut inline) {
            // The inline TCP leg: an error spends the truncated attempt,
            // any message completes the exchange.
            inline_ran = true;
            spent += u64::from(outcome.is_err());
            inline_reply = outcome.as_ref().ok().map(|m| m.rcode);
            last = if outcome.is_err() {
                Draw::Refused
            } else {
                draw
            };
        } else if truncated {
            climbs += u64::from(stream_above);
            inline = !stream_above;
            if inline {
                reach("inline TCP re-query");
            }
            reach("TC reply over UDP");
            last = draw;
        } else {
            match draw {
                Draw::Timeout => {
                    spent += 1;
                    timeouts += 1;
                    at += timeout;
                    triggers += u64::from(r.config().retry.withdraw_ecs_on_timeout && carries_ecs);
                }
                Draw::Refused => spent += 1,
                Draw::FormErr if r.config().retry.withdraw_ecs_on_formerr && carries_ecs => {
                    formerr_resends += 1;
                    triggers += 1;
                    reach("FORMERR re-asked");
                }
                Draw::FormErr if carries_ecs => reach("FORMERR passed through"),
                Draw::ServFail => reach("SERVFAIL passed through"),
                Draw::Answer if sent_without_ecs && triggers > 0 => {
                    reach("answer after a withdrawal")
                }
                _ => {}
            }
            last = draw;
        }
        if spent > bound {
            return Err(format!("{spent} spent attempts exceed the bound {bound}"));
        }
        let outcome = outcome.map(|m| read(&m.to_bytes().expect("encodes")));
        action = r.step_exchange(&mut ex, outcome, at);
    };

    let s = r.stats();
    let (retries, sends) = (s.retries, s.upstream_queries);
    let (servfails, withdrawals) = (s.servfail_responses, s.ecs_withdrawals);
    if s.upstream_timeouts != timeouts {
        return Err(format!("{timeouts} timeouts reported, stats {s:?}"));
    }
    if sends != 1 + retries {
        return Err(format!("sends miscounted: {s:?}"));
    }
    if sends > bound + formerr_resends {
        return Err(format!(
            "{sends} sends exceed {bound} + {formerr_resends} FORMERR re-asks"
        ));
    }
    if withdrawals > 1 || withdrawals > triggers || (triggers > 0 && withdrawals == 0) {
        return Err(format!(
            "{withdrawals} withdrawals after {triggers} triggers"
        ));
    }
    let ending = match (inline_reply, last) {
        (Some(rcode), _) => Ending::Reply(rcode),
        (None, last) => match last {
            Draw::Timeout | Draw::Refused => Ending::Failed,
            Draw::Answer | Draw::TcReply => Ending::Reply(Rcode::NoError),
            Draw::FormErr => Ending::Reply(Rcode::FormErr),
            Draw::ServFail => Ending::Reply(Rcode::ServFail),
        },
    };
    // Every retry is a spent attempt that did not end the exchange, a
    // truncation that climbed, or a FORMERR re-ask.
    let exhausted = u64::from(matches!(last, Draw::Timeout | Draw::Refused));
    if retries + exhausted != spent + climbs + formerr_resends {
        return Err(format!(
            "{retries} retries + {exhausted} != {spent} spent + {climbs} climbs + {formerr_resends} re-asks"
        ));
    }
    // With timeouts the only failures this is the identity the fault
    // matrix pins: upstream_timeouts == retries + servfail_responses.
    if spent == timeouts
        && climbs + formerr_resends == 0
        && exhausted == 1
        && timeouts != retries + servfails
    {
        return Err(format!("timeout identity broken: {s:?}"));
    }
    // An exchange gives up only once its whole budget is spent: every
    // rung's attempts, unless a truncation skipped a rung's unused ones.
    if exhausted == 1 && climbs == 0 && !inline_ran && spent != bound {
        return Err(format!(
            "gave up after {spent} of {bound} attempts without a truncation"
        ));
    }
    match (ending, answer.rcode, raw.is_some(), servfails) {
        (Ending::Reply(rc), got, true, 0) if rc == got => Ok(reached),
        (Ending::Failed, Rcode::ServFail, false, 1) => Ok(reached),
        other => Err(format!(
            "inconsistent ending {other:?} after {spent}/{bound} spent attempts"
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
    let mut reached: Reached = 0;
    for seed in seeds {
        match exchange_property(seed) {
            Ok(branches) => reached |= branches,
            Err(why) => panic!("seed {seed}: {why}\nreplay with EXCHANGE_PROP_SEED={seed}"),
        }
    }
    if replay.is_none() {
        for (bit, branch) in REACHED.iter().enumerate() {
            assert!(reached & (1 << bit) != 0, "no case reached: {branch}");
        }
    }
}
