//! Event-driven actors: the DNS parties as [`netsim::Node`]s.
//!
//! These wrap the synchronous logic (`engine`, `authoritative`) behind
//! packet handlers so a whole resolution path — client → forwarder →
//! hidden resolver → egress resolver → authoritative — runs as real
//! message exchanges with geographic latencies.
//!
//! Every node is added to the simulation at its IP address, and an actor
//! translates between addresses and node ids through its [`Ctx`]. Queries
//! are plain DNS wire bytes; malformed packets are dropped, as UDP servers
//! do.

use std::net::IpAddr;

use authoritative::AuthServer;
use dns_wire::{Message, MessageView, Name, WireResult};
use netsim::{Ctx, Node, NodeId, Packet, SimTime, Transport};
use rustc_hash::FxHashMap;

use crate::engine::{FlightKey, PendingQuery, Resolver, Step, Upstream, UpstreamError};
use crate::exchange::{Action, Exchange};
use crate::parts::UpstreamReply;

/// Panic message of an actor that finds a sender without an address:
/// [`netsim::Simulation::add_node`] gives every node one.
const UNADDRESSED: &str = "every simulated node has an address";

/// The DNS id of an accepted datagram.
fn wire_id(datagram: &[u8]) -> u16 {
    u16::from_be_bytes([datagram[0], datagram[1]])
}

/// A plain relay: receives a query, forwards it upstream under a fresh
/// transaction id, and routes the response back. Models both open
/// forwarders and hidden resolvers (which, at this layer, behave
/// identically — their *position* and *address* are what matter).
///
/// Outstanding queries are keyed by the fresh id they went upstream
/// under. Entries leave when the response routes back; an id whose
/// response never came is overwritten when the 16-bit counter wraps, so
/// the table holds at most 65,535. Both directions pass the datagram on
/// as received with only its id (bytes 0–1) rewritten: it was accepted
/// through [`MessageView::parse`], which accepts what
/// [`Message::from_bytes`] accepts, so it holds a full header.
pub struct RelayActor {
    /// Upstream node (a hidden resolver or an egress resolver).
    pub upstream: NodeId,
    pending: FxHashMap<u16, (NodeId, u16)>,
    next_id: u16,
    /// Queries relayed (for assertions).
    pub relayed: u64,
}

impl RelayActor {
    /// Creates a relay pointing at `upstream`.
    pub fn new(upstream: NodeId) -> Self {
        RelayActor {
            upstream,
            pending: FxHashMap::default(),
            next_id: 1,
            relayed: 0,
        }
    }
}

impl Node for RelayActor {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let Ok(msg) = MessageView::parse(&pkt.payload) else {
            return;
        };
        let is_response = msg.is_response();
        let mut datagram = pkt.payload;
        if is_response {
            // Back to the original querier under its original id; a
            // response nobody is waiting for is dropped.
            if let Some((client, orig_id)) = self.pending.remove(&wire_id(&datagram)) {
                datagram[..2].copy_from_slice(&orig_id.to_be_bytes());
                ctx.send(client, datagram);
            }
        } else {
            self.relayed += 1;
            let fresh = self.next_id;
            self.next_id = self.next_id.wrapping_add(1).max(1);
            self.pending.insert(fresh, (pkt.src, wire_id(&datagram)));
            datagram[..2].copy_from_slice(&fresh.to_be_bytes());
            ctx.send(self.upstream, datagram);
        }
    }
}

/// An egress resolver as a simulation node: the packet-and-timer driver of
/// the [`crate::exchange`] machine. Wraps [`Resolver`] and a zone →
/// authoritative-address routing table.
///
/// The actor owns only plumbing: routing, the coalescing index, and one
/// retransmission timer per outstanding exchange. What to do when a reply
/// arrives or a timer fires — retry, withdraw ECS, answer or SERVFAIL — is
/// [`Resolver::step_exchange`]'s decision, so resolution survives the
/// simulator's loss model exactly as the blocking driver does and never
/// hangs or loops. Each send is the datagram the exchange wrote
/// ([`Exchange::take_upstream_query`]). The simulator carries one
/// transport, so exchanges run on a UDP-only ladder and truncated
/// datagrams are dropped before they reach the machine.
pub struct EgressActor {
    resolver: Resolver,
    /// Zone apex → authoritative server address, searched most-specific
    /// first.
    routes: Vec<(Name, IpAddr)>,
    pending: FxHashMap<u16, PendingUpstream>,
    /// Coalescing index: flight key → owning pending id. Only populated
    /// when [`crate::config::OverloadConfig::coalesce`] is on.
    flights: FxHashMap<FlightKey, u16>,
    ignored_replies: u64,
}

struct PendingUpstream {
    client: NodeId,
    exchange: Exchange,
    auth_node: NodeId,
    /// When the send in flight times out. A timer firing earlier was armed
    /// for a send that a reply has since superseded.
    deadline: SimTime,
    /// This flight's coalescing key, when coalescing is on.
    flight: Option<FlightKey>,
    /// Queries that joined this flight instead of going upstream, each
    /// with the node to answer.
    joiners: Vec<(NodeId, PendingQuery)>,
}

/// Sends an answer that encoded; one that did not is never sent.
fn send_answer(ctx: &mut Ctx, to: NodeId, answer: WireResult<Vec<u8>>) {
    if let Ok(bytes) = answer {
        ctx.send(to, bytes);
    }
}

impl EgressActor {
    /// Creates an egress actor.
    pub fn new(mut resolver: Resolver, routes: Vec<(Name, IpAddr)>) -> Self {
        // The packet simulator carries UDP datagrams and nothing else, so
        // whatever ladder the resolver was configured with, this actor's
        // exchanges have one rung: a spent budget ends an exchange instead
        // of climbing to a transport the actor cannot drive.
        resolver.config.transport.ladder = vec![Transport::Udp];
        let mut routes = routes;
        routes.sort_by_key(|(apex, _)| std::cmp::Reverse(apex.label_count()));
        EgressActor {
            resolver,
            routes,
            pending: FxHashMap::default(),
            flights: FxHashMap::default(),
            ignored_replies: 0,
        }
    }

    /// Upstream flights currently outstanding.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Responses dropped because no outstanding exchange has their id,
    /// sender and question — late duplicates, strays, forgeries.
    pub fn ignored_replies(&self) -> u64 {
        self.ignored_replies
    }

    /// The wrapped resolver (for stats and cache inspection).
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// The node of the authoritative responsible for `name`, when a route
    /// exists and a node sits at its address.
    fn route_for(&self, name: &Name, ctx: &Ctx) -> Option<NodeId> {
        let (_, addr) = self
            .routes
            .iter()
            .find(|(apex, _)| name.is_subdomain_of(apex))?;
        ctx.node_of(*addr)
    }

    /// Ends a profiled handler's `exchange step` stage, which began at
    /// `since`, less the `cache insert` stage inside it.
    fn step_stage(&mut self, ctx: &mut Ctx, since: Option<u64>) -> Option<u64> {
        let since = since?;
        let inserts = self.resolver.take_insert_us();
        let now = ctx.profile_clock()?;
        ctx.profile_stage("exchange step", (now - since).saturating_sub(inserts));
        ctx.profile_stage("cache insert", inserts);
        Some(now)
    }

    /// Carries out what the machine decided for outstanding exchange `id`:
    /// (re)transmit and arm the timeout, or answer every waiting party.
    /// `t` is where a profiled handler's current stage began: a send
    /// closes it as `send query`; an ending closes it as `exchange step`
    /// and times the answers as `write answer`.
    fn apply(&mut self, id: u16, action: Action, ctx: &mut Ctx, t: Option<u64>) {
        match action {
            Action::Send { timeout, .. } => {
                let p = self.pending.get_mut(&id).expect("exchange is outstanding");
                ctx.send(p.auth_node, p.exchange.take_upstream_query());
                p.deadline = ctx.now() + timeout;
                ctx.set_timer(timeout, u64::from(id));
                stage(ctx, "send query", t);
            }
            Action::Done { answer, raw } => {
                let t = self.step_stage(ctx, t);
                let p = self.pending.remove(&id).expect("exchange is outstanding");
                if let Some(key) = &p.flight {
                    self.flights.remove(key);
                }
                send_answer(ctx, p.client, answer.to_bytes());
                for (node, joiner) in &p.joiners {
                    let resp = self.resolver.answer_joiner(joiner, raw.as_ref(), ctx.now());
                    send_answer(ctx, *node, resp.to_bytes());
                }
                stage(ctx, "write answer", t);
            }
        }
    }
}

/// Ends the handler stage that began at profile-clock reading `since`
/// and returns the reading the next stage begins at: `None`, at one
/// branch, when the dispatch profile is off.
fn stage(ctx: &mut Ctx, name: &'static str, since: Option<u64>) -> Option<u64> {
    let since = since?;
    let now = ctx.profile_clock()?;
    ctx.profile_stage(name, now - since);
    Some(now)
}

impl Node for EgressActor {
    /// Profiled (see [`netsim::Simulation::enable_profiling`]), a packet's
    /// wall time splits into stages: a client query's `read query`,
    /// `begin`, then `write answer` (a hit) or `send query` (a miss); an
    /// upstream reply's `read reply`, `exchange step`, `cache insert` and
    /// `write answer`.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let t = ctx.profile_clock();
        let Ok(msg) = MessageView::parse(&pkt.payload) else {
            return;
        };
        if msg.is_response() {
            // Only the authoritative we asked, replying to the query we
            // sent, may complete an exchange.
            let id = msg.id();
            let Some(p) = self.pending.get_mut(&id).filter(|p| {
                pkt.src == p.auth_node && msg.is_reply_to(id, Some(p.exchange.pending().question()))
            }) else {
                self.ignored_replies += 1;
                return;
            };
            // A truncated reply is unusable and the simulator has no
            // stream leg to re-ask over: the retry timer resends.
            if msg.flags().tc {
                return;
            }
            let reply = UpstreamReply::read(&msg);
            let t = stage(ctx, "read reply", t);
            // Only joiners read the reply once the owner is answered.
            p.exchange.keep_reply(!p.joiners.is_empty());
            let action = self
                .resolver
                .step_exchange(&mut p.exchange, Ok(reply), ctx.now());
            self.apply(id, action, ctx, t);
            return;
        }
        // A downstream party (client, forwarder, hidden resolver) queries us.
        let t = stage(ctx, "read query", t);
        let src_addr = ctx.addr_of(pkt.src).expect(UNADDRESSED);
        let step = self.resolver.begin(msg, src_addr, ctx.now());
        let t = stage(ctx, "begin", t);
        let pending = match step {
            Step::Answer(resp) => {
                send_answer(ctx, pkt.src, resp.to_bytes());
                stage(ctx, "write answer", t);
                return;
            }
            Step::NeedUpstream(pending) => pending,
        };
        // Coalescing: identical (qname, qtype, effective-ECS-prefix)
        // lookups ride an existing flight instead of going upstream.
        let coalesce = self.resolver.config().overload.coalesce;
        let flight = coalesce.then(|| pending.flight_key());
        if let Some(key) = &flight {
            if let Some(p) = self.flights.get(key).and_then(|o| self.pending.get_mut(o)) {
                self.resolver.join(&pending, ctx.now());
                p.joiners.push((pkt.src, pending));
                return;
            }
        }
        let Some(auth_node) = self.route_for(&pending.question().name, ctx) else {
            // Nowhere to send: a flight that failed before it started.
            let fail = self.resolver.answer_joiner(&pending, None, ctx.now());
            return send_answer(ctx, pkt.src, fail.to_bytes());
        };
        let id = pending.upstream_query.id;
        if let Some(key) = &flight {
            self.flights.insert(key.clone(), id);
        }
        let (exchange, action) = self.resolver.start_exchange(pending, ctx.now());
        self.pending.insert(
            id,
            PendingUpstream {
                client: pkt.src,
                exchange,
                auth_node,
                deadline: ctx.now(),
                flight,
                joiners: Vec::new(),
            },
        );
        self.apply(id, action, ctx, t);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        let id = token as u16;
        let Some(p) = self.pending.get_mut(&id) else {
            return; // answered in the meantime
        };
        if ctx.now() < p.deadline {
            return;
        }
        let action =
            self.resolver
                .step_exchange(&mut p.exchange, Err(UpstreamError::Timeout), ctx.now());
        self.apply(id, action, ctx, None);
    }
}

/// An authoritative server as a simulation node, answering through
/// [`AuthServer::reply`].
pub struct AuthActor {
    server: AuthServer,
}

impl AuthActor {
    /// Wraps a server.
    pub fn new(server: AuthServer) -> Self {
        AuthActor { server }
    }

    /// The wrapped server (for log inspection).
    pub fn server(&self) -> &AuthServer {
        &self.server
    }

    /// Mutable access.
    pub fn server_mut(&mut self) -> &mut AuthServer {
        &mut self.server
    }
}

impl Node for AuthActor {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let src_addr = ctx.addr_of(pkt.src).expect(UNADDRESSED);
        let reply = self
            .server
            .query_via(&pkt.payload, src_addr, ctx.now(), Transport::Udp);
        if let Ok(reply) = reply {
            ctx.send(pkt.src, reply);
        }
    }
}

/// A scripted client that issues queries at given times and records the
/// responses with their arrival times. Like a real stub resolver it
/// retransmits unanswered queries (up to `MAX_RETRIES` times,
/// `RETRY_TIMEOUT` apart).
pub struct ClientActor {
    /// Where queries go (a forwarder or resolver node).
    pub resolver: NodeId,
    /// Scripted queries: (send-at, message).
    pub script: Vec<(SimTime, Message)>,
    /// Collected responses: (arrival time, message).
    pub responses: Vec<(SimTime, Message)>,
    answered: Vec<bool>,
}

impl ClientActor {
    /// Retransmissions per scripted query.
    const MAX_RETRIES: u64 = 3;
    /// Gap between retransmissions.
    const RETRY_TIMEOUT: netsim::SimDuration = netsim::SimDuration::from_secs(3);

    /// Creates a scripted client; adding it to the simulation schedules
    /// its queries.
    pub fn new(resolver: NodeId, script: Vec<(SimTime, Message)>) -> Self {
        let answered = vec![false; script.len()];
        ClientActor {
            resolver,
            script,
            responses: Vec::new(),
            answered,
        }
    }
}

impl Node for ClientActor {
    /// Schedules the send (and retransmission) timers for every scripted
    /// query. Timer token = `index * (MAX_RETRIES+1) + attempt`.
    fn on_start(&mut self, ctx: &mut Ctx) {
        let slots = Self::MAX_RETRIES + 1;
        for (i, (at, _)) in self.script.iter().enumerate() {
            for attempt in 0..slots {
                ctx.set_timer(
                    at.since(ctx.now()) + Self::RETRY_TIMEOUT.mul(attempt),
                    i as u64 * slots + attempt,
                );
            }
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        if let Ok(msg) = Message::from_bytes(&pkt.payload) {
            if msg.is_response() {
                // Mark the matching scripted query as answered so its
                // remaining retransmission timers become no-ops.
                for (i, (_, q)) in self.script.iter().enumerate() {
                    if q.id == msg.id {
                        if self.answered[i] {
                            return; // duplicate (a retry raced the answer)
                        }
                        self.answered[i] = true;
                    }
                }
                self.responses.push((ctx.now(), msg));
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        let slots = Self::MAX_RETRIES + 1;
        let idx = (token / slots) as usize;
        if self.answered.get(idx).copied().unwrap_or(true) {
            return;
        }
        if let Some((_, msg)) = self.script.get(idx) {
            if let Ok(bytes) = msg.to_bytes() {
                ctx.send(self.resolver, bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResolverConfig;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::Question;
    use netsim::geo::city;
    use netsim::{SimDuration, Simulation};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    /// Builds: client (Santiago) → forwarder (Santiago) → hidden (Milan) →
    /// egress (Dallas) → authoritative (Chicago). The §8.2 pathological
    /// chain, verified end to end.
    #[test]
    fn full_chain_resolution_with_hidden_resolver() {
        let mut sim = Simulation::new(11);

        let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
        let egress_addr: IpAddr = "203.0.113.9".parse().unwrap();
        let hidden_addr: IpAddr = "192.0.2.200".parse().unwrap();
        let fwd_addr: IpAddr = "100.66.1.1".parse().unwrap();
        let client_addr: IpAddr = "100.66.1.77".parse().unwrap();

        let mut zone = Zone::new(name("probe.example"));
        zone.add_a(
            name("www.probe.example"),
            60,
            Ipv4Addr::new(198, 51, 100, 1),
        )
        .unwrap();
        let auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::SourceMinusK(4)));
        let auth_node = sim.add_node(
            AuthActor::new(auth),
            auth_addr,
            city("Chicago").unwrap().pos,
        );

        let resolver = Resolver::new(ResolverConfig::rfc_compliant(egress_addr));
        let egress_node = sim.add_node(
            EgressActor::new(resolver, vec![(name("probe.example"), auth_addr)]),
            egress_addr,
            city("Dallas").unwrap().pos,
        );

        let hidden_node = sim.add_node(
            RelayActor::new(egress_node),
            hidden_addr,
            city("Milan").unwrap().pos,
        );
        let fwd_node = sim.add_node(
            RelayActor::new(hidden_node),
            fwd_addr,
            city("Santiago").unwrap().pos,
        );

        let query = Message::query(77, Question::a(name("www.probe.example")));
        let client_node = sim.add_node(
            ClientActor::new(fwd_node, vec![(SimTime::ZERO, query)]),
            client_addr,
            city("Santiago").unwrap().pos,
        );

        sim.run();

        // Client got an answer.
        let client = sim.node_mut::<ClientActor>(client_node).unwrap();
        assert_eq!(client.responses.len(), 1);
        let (at, resp) = &client.responses[0];
        assert_eq!(resp.id, 77);
        assert_eq!(resp.answer_addrs().len(), 1);
        // The full path crosses Santiago→Milan→Dallas→Chicago and back:
        // tens of thousands of km, so hundreds of ms.
        assert!(at.as_micros() > 200_000, "RTT {at}");

        // The egress saw the HIDDEN resolver as its client and conveyed the
        // hidden resolver's /24 in ECS — the §8.2 mechanism.
        let auth_actor = sim.node_mut::<AuthActor>(auth_node).unwrap();
        let log = auth_actor.server().log();
        assert_eq!(log.len(), 1);
        let ecs = log[0].ecs.unwrap();
        assert_eq!(ecs.to_v4(), Some(Ipv4Addr::new(192, 0, 2, 0)));
        assert_eq!(log[0].resolver, egress_addr);
    }

    #[test]
    fn cached_second_query_is_faster_and_skips_authoritative() {
        let mut sim = Simulation::new(5);

        let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
        let egress_addr: IpAddr = "203.0.113.9".parse().unwrap();
        let client_addr: IpAddr = "100.66.2.42".parse().unwrap();

        let mut zone = Zone::new(name("probe.example"));
        zone.add_a(
            name("www.probe.example"),
            600,
            Ipv4Addr::new(198, 51, 100, 1),
        )
        .unwrap();
        let auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
        let auth_node = sim.add_node(AuthActor::new(auth), auth_addr, city("Tokyo").unwrap().pos);
        let egress_node = sim.add_node(
            EgressActor::new(
                Resolver::new(ResolverConfig::rfc_compliant(egress_addr)),
                vec![(name("probe.example"), auth_addr)],
            ),
            egress_addr,
            city("Toronto").unwrap().pos,
        );
        let q1 = Message::query(1, Question::a(name("www.probe.example")));
        let q2 = Message::query(2, Question::a(name("www.probe.example")));
        let client_node = sim.add_node(
            ClientActor::new(
                egress_node,
                vec![
                    (SimTime::ZERO, q1),
                    (SimTime::ZERO + SimDuration::from_secs(2), q2),
                ],
            ),
            client_addr,
            city("Toronto").unwrap().pos,
        );
        sim.run();

        let auth_actor = sim.node_mut::<AuthActor>(auth_node).unwrap();
        assert_eq!(auth_actor.server().log().len(), 1, "second query cached");

        let client = sim.node_mut::<ClientActor>(client_node).unwrap();
        assert_eq!(client.responses.len(), 2);
        let rtt1 = client.responses[0].0.since(SimTime::ZERO);
        let rtt2 = client.responses[1]
            .0
            .since(SimTime::ZERO + SimDuration::from_secs(2));
        assert!(
            rtt2.as_millis_f64() < rtt1.as_millis_f64() / 2.0,
            "cache hit should be much faster: {rtt1} vs {rtt2}"
        );
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use crate::config::ResolverConfig;
    use crate::TransportPolicy;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::Question;
    use netsim::geo::city;
    use netsim::{FaultPlan, LinkFaults, SimTime, Simulation};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn lossy_world(
        transport: TransportPolicy,
        loss: f64,
        seed: u64,
    ) -> (Simulation, NodeId, NodeId, NodeId) {
        let mut sim = Simulation::new(seed);
        sim.set_fault_plan(FaultPlan::uniform(LinkFaults::lossy(loss)));
        let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
        let egress_addr: IpAddr = "9.9.9.9".parse().unwrap();
        let client_addr: IpAddr = "100.70.1.7".parse().unwrap();

        let mut zone = Zone::new(name("probe.example"));
        zone.add_a(
            name("www.probe.example"),
            60,
            Ipv4Addr::new(198, 51, 100, 1),
        )
        .unwrap();
        let auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
        let auth_node = sim.add_node(
            AuthActor::new(auth),
            auth_addr,
            city("Chicago").unwrap().pos,
        );
        let egress_node = sim.add_node(
            EgressActor::new(
                Resolver::new(ResolverConfig {
                    transport,
                    ..ResolverConfig::rfc_compliant(egress_addr)
                }),
                vec![(name("probe.example"), auth_addr)],
            ),
            egress_addr,
            city("Toronto").unwrap().pos,
        );
        let q = Message::query(42, Question::a(name("www.probe.example")));
        let client_node = sim.add_node(
            ClientActor::new(egress_node, vec![(SimTime::ZERO, q)]),
            client_addr,
            city("Toronto").unwrap().pos,
        );
        (sim, client_node, auth_node, egress_node)
    }

    #[test]
    fn moderate_loss_is_absorbed_by_retries() {
        // 30% loss per leg: without retries the end-to-end success rate of
        // a 2-leg exchange would be ~0.24; with 3 retries it is near 1.
        // Check several seeds to exercise different loss patterns.
        let mut answered = 0;
        for seed in 0..10 {
            let (mut sim, client_node, _, _) = lossy_world(TransportPolicy::default(), 0.3, seed);
            sim.run();
            let c = sim.node_mut::<ClientActor>(client_node).unwrap();
            if c.responses
                .iter()
                .any(|(_, m)| m.rcode == dns_wire::Rcode::NoError && !m.answers.is_empty())
            {
                answered += 1;
            }
        }
        assert!(
            answered >= 9,
            "retries should absorb 30% loss: {answered}/10"
        );
    }

    #[test]
    fn total_loss_yields_servfail_not_silence() {
        let (mut sim, client_node, _, egress_node) =
            lossy_world(TransportPolicy::default(), 1.0, 7);
        sim.run();
        let c = sim.node_mut::<ClientActor>(client_node).unwrap();
        // The egress → client response leg is also lossy under loss=1.0, so
        // the client may see nothing; but the egress must have given up
        // cleanly (no pending state, simulation terminates) — reaching this
        // point at all proves no infinite retry loop.
        assert!(c.responses.len() <= 1);
        // Whatever did get through was accounted for: every exchange the
        // egress started either completed or ended in a counted SERVFAIL.
        let e = sim.node_mut::<EgressActor>(egress_node).unwrap();
        let s = e.resolver().stats();
        assert_eq!(s.upstream_timeouts, s.retries + s.servfail_responses);
    }

    #[test]
    fn retry_timer_after_answer_is_harmless() {
        // No loss: the answer arrives well before the 2 s retry timer; the
        // timer must find nothing pending and do nothing (exactly one
        // upstream query in the authoritative log).
        let (mut sim, client_node, auth_node, egress_node) =
            lossy_world(TransportPolicy::default(), 0.0, 1);
        sim.run();
        let c = sim.node_mut::<ClientActor>(client_node).unwrap();
        assert_eq!(c.responses.len(), 1);
        let a = sim.node_mut::<AuthActor>(auth_node).unwrap();
        assert_eq!(a.server().log().len(), 1, "no spurious retransmissions");
        let e = sim.node_mut::<EgressActor>(egress_node).unwrap();
        let s = e.resolver().stats();
        assert_eq!(
            (s.retries, s.upstream_timeouts, s.servfail_responses),
            (0, 0, 0)
        );
    }

    #[test]
    fn egress_backoff_spaces_retransmissions_exponentially() {
        // Blackhole only the egress → authoritative link: queries vanish,
        // the client leg stays clean, and the authoritative log is empty.
        // The egress must send 4 attempts spaced 2/4/8 s apart.
        // The simulator carries datagrams only, so the same holds for a
        // resolver configured with the full ladder: the actor clamps it to
        // [Udp] and the spent budget ends the exchange instead of climbing.
        for transport in [TransportPolicy::default(), TransportPolicy::full_ladder()] {
            let (mut sim, client_node, auth_node, egress_node) = lossy_world(transport, 0.0, 5);
            let plan = {
                let mut p = netsim::FaultPlan::none();
                p.set_link(
                    egress_node,
                    auth_node,
                    netsim::LinkFaults {
                        blackhole: true,
                        ..netsim::LinkFaults::NONE
                    },
                );
                p
            };
            sim.set_fault_plan(plan);
            sim.run();
            // 1 client query + 3 client retransmissions each hit the egress;
            // the first created the pending exchange, later ones were cache
            // misses creating their own exchanges (same id → keyed per id).
            let e = sim.node_mut::<EgressActor>(egress_node).unwrap();
            let s = e.resolver().stats();
            assert!(s.servfail_responses >= 1, "gave up cleanly: {s:?}");
            assert_eq!(s.transport_fallbacks, 0, "one rung: {s:?}");
            assert!(e.resolver().probing_state().marked_non_ecs);
            // The blackhole swallowed every upstream attempt.
            assert_eq!(sim.fault_stats().dropped_blackhole, s.upstream_queries);
            let c = sim.node_mut::<ClientActor>(client_node).unwrap();
            assert!(c
                .responses
                .iter()
                .all(|(_, m)| m.rcode == dns_wire::Rcode::ServFail));
        }
    }
}

#[cfg(test)]
mod overload_tests {
    use super::*;
    use crate::config::ResolverConfig;
    use crate::engine::ResolverStats;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::{Question, Rcode};
    use netsim::geo::city;
    use netsim::{SimTime, Simulation};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    /// One authoritative, one egress with the given config, and `n` clients
    /// in one /24 all asking the same name at t=0 (concurrently: every
    /// query arrives before the first upstream answer returns).
    fn burst_world(config: ResolverConfig, n: usize) -> (Simulation, Vec<NodeId>, NodeId, NodeId) {
        let mut sim = Simulation::new(3);
        let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
        let egress_addr: IpAddr = "9.9.9.9".parse().unwrap();

        let mut zone = Zone::new(name("probe.example"));
        zone.add_a(
            name("www.probe.example"),
            60,
            Ipv4Addr::new(198, 51, 100, 1),
        )
        .unwrap();
        let auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
        let auth_node = sim.add_node(
            AuthActor::new(auth),
            auth_addr,
            city("Chicago").unwrap().pos,
        );
        let egress_node = sim.add_node(
            EgressActor::new(
                Resolver::new(config),
                vec![(name("probe.example"), auth_addr)],
            ),
            egress_addr,
            city("Toronto").unwrap().pos,
        );
        let mut clients = Vec::new();
        for i in 0..n {
            let q = Message::query(i as u16 + 1, Question::a(name("www.probe.example")));
            let node = sim.add_node(
                ClientActor::new(egress_node, vec![(SimTime::ZERO, q)]),
                format!("100.70.1.{}", i + 1).parse().unwrap(),
                city("Toronto").unwrap().pos,
            );
            clients.push(node);
        }
        (sim, clients, auth_node, egress_node)
    }

    /// Turns the simulator's metrics on and installs a tracer on the
    /// egress's engine; returns the trace sink.
    fn traced(sim: &mut Simulation, egress_node: NodeId) -> Arc<obs::MemorySink> {
        sim.enable_metrics();
        let sink = Arc::new(obs::MemorySink::new());
        let e = sim.node_mut::<EgressActor>(egress_node).unwrap();
        e.resolver.set_tracer(obs::Tracer::new(sink.clone()));
        sink
    }

    /// Every client query closed exactly once, whichever way it left: its
    /// own latency sample and `answered` event, a `coalesced_join` per
    /// query that joined a flight, and no trace the analyzer must skip.
    fn assert_every_query_closed(r: &Resolver, sink: &obs::MemorySink) {
        let s = r.stats();
        let snap = r.registry().snapshot();
        let latency = snap.histogram("resolver_query_latency_us").unwrap();
        assert_eq!(latency.count, s.client_queries);
        let trace = sink.lines().join("\n");
        let events = obs::analyze::parse_events(&trace).unwrap();
        let count = |name: &str| events.iter().filter(|e| e.event == name).count() as u64;
        assert_eq!(count("query_received"), s.client_queries);
        assert_eq!(count("answered"), s.client_queries);
        assert_eq!(count("coalesced_join"), s.coalesced_queries);
        assert_eq!(obs::analyze::analyze(&trace, 0).unwrap().skipped, 0);
    }

    /// The simulator's and the egress engine's merged snapshot carries
    /// every overload series, as JSON `obs-validate metrics` accepts.
    fn assert_overload_series(sim: &mut Simulation, egress_node: NodeId) {
        let mut snap = sim.metrics_snapshot().expect("metrics enabled");
        let e = sim.node_mut::<EgressActor>(egress_node).unwrap();
        snap.merge(&e.resolver().metrics_snapshot());
        obs::validate::validate_metrics_json(
            &snap.to_json(),
            &[
                "resolver_client_queries_total",
                "resolver_coalesced_queries_total",
                "cache_evictions_total",
                "netsim_delivered_total",
                "netsim_delivery_latency_us",
            ],
        )
        .unwrap();
        assert!(snap.counter("netsim_delivered_total").unwrap() > 0);
    }

    /// What a burst leaves behind: the authoritative's query count, the
    /// egress's counters and every client's responses.
    fn burst_outcome(
        config: ResolverConfig,
        observed: bool,
    ) -> (usize, ResolverStats, Vec<Vec<(SimTime, Message)>>) {
        let (mut sim, clients, auth_node, egress_node) = burst_world(config, 6);
        if observed {
            traced(&mut sim, egress_node);
        }
        sim.run();
        let flights = sim
            .node_mut::<AuthActor>(auth_node)
            .unwrap()
            .server()
            .log()
            .len();
        let stats = sim
            .node_mut::<EgressActor>(egress_node)
            .unwrap()
            .resolver()
            .stats();
        let responses = clients
            .iter()
            .map(|&c| sim.node_mut::<ClientActor>(c).unwrap().responses.clone())
            .collect();
        (flights, stats, responses)
    }

    #[test]
    fn telemetry_is_pure_observation_for_a_burst() {
        let mut coalescing = ResolverConfig::rfc_compliant("9.9.9.9".parse().unwrap());
        coalescing.overload.coalesce = true;
        let plain = ResolverConfig::rfc_compliant("9.9.9.9".parse().unwrap());
        for config in [coalescing, plain] {
            assert_eq!(
                burst_outcome(config.clone(), true),
                burst_outcome(config, false)
            );
        }
    }

    #[test]
    fn duplicate_concurrent_queries_coalesce_into_one_flight() {
        let mut config = ResolverConfig::rfc_compliant("9.9.9.9".parse().unwrap());
        config.overload.coalesce = true;
        let (mut sim, clients, auth_node, egress_node) = burst_world(config, 5);
        let sink = traced(&mut sim, egress_node);
        sim.run();
        // Exactly one upstream flight for five identical concurrent queries.
        let a = sim.node_mut::<AuthActor>(auth_node).unwrap();
        assert_eq!(a.server().log().len(), 1, "one upstream flight");
        let e = sim.node_mut::<EgressActor>(egress_node).unwrap();
        let s = e.resolver().stats();
        assert_eq!(s.upstream_queries, 1);
        assert_eq!(s.coalesced_queries, 4);
        assert_eq!(s.client_queries, 5);
        assert_every_query_closed(e.resolver(), &sink);
        assert_overload_series(&mut sim, egress_node);
        // Every client still got a real answer.
        for c in clients {
            let cl = sim.node_mut::<ClientActor>(c).unwrap();
            assert_eq!(cl.responses.len(), 1);
            assert_eq!(cl.responses[0].1.rcode, Rcode::NoError);
            assert_eq!(cl.responses[0].1.answers.len(), 1);
        }
    }

    #[test]
    fn coalescing_off_sends_every_query_upstream() {
        // Same burst without coalescing: the five same-/24 clients race —
        // every one misses (the first answer has not returned yet) and goes
        // upstream independently. This is the pre-change behaviour.
        let config = ResolverConfig::rfc_compliant("9.9.9.9".parse().unwrap());
        let (mut sim, _, auth_node, egress_node) = burst_world(config, 5);
        sim.run();
        let a = sim.node_mut::<AuthActor>(auth_node).unwrap();
        assert_eq!(a.server().log().len(), 5, "no coalescing by default");
        let e = sim.node_mut::<EgressActor>(egress_node).unwrap();
        assert_eq!(e.resolver().stats().coalesced_queries, 0);
    }
}

#[cfg(test)]
mod relay_tests {
    use super::*;
    use dns_wire::{EcsOption, Question};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    const RELAY: NodeId = NodeId(0);
    const UPSTREAM: NodeId = NodeId(1);
    const CLIENT: NodeId = NodeId(2);

    /// Delivers `payload` from `src` to `relay` and returns what it sent.
    fn deliver(relay: &mut RelayActor, src: NodeId, payload: Vec<u8>) -> Vec<(NodeId, Vec<u8>)> {
        let mut actions = Vec::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let pkt = Packet {
            src,
            dst: RELAY,
            payload,
        };
        relay.on_packet(
            pkt,
            &mut Ctx::new(
                SimTime::ZERO,
                RELAY,
                &netsim::AddressBook::new(),
                &mut actions,
                &mut rng,
            ),
        );
        actions
            .into_iter()
            .map(|a| match a {
                netsim::Action::Send { to, payload } => (to, payload),
                other => panic!("a relay arms no timers: {other:?}"),
            })
            .collect()
    }

    /// `a.b.` A, id 1, EDNS 4096: the valid query the dns-wire malformed
    /// corpus cuts its truncations from.
    fn valid_query() -> Vec<u8> {
        let mut q = Message::query(1, Question::a(Name::from_ascii("a.b").unwrap()));
        q.set_edns(4096);
        q.to_bytes().unwrap()
    }

    /// A response to `valid_query`'s question, id 1.
    fn valid_response() -> Vec<u8> {
        let query = Message::from_bytes(&valid_query()).unwrap();
        Message::response_to(&query).to_bytes().unwrap()
    }

    /// `valid_query` with its id set to `id`.
    fn query_with_id(id: u16) -> Vec<u8> {
        let mut q = valid_query();
        q[..2].copy_from_slice(&id.to_be_bytes());
        q
    }

    #[test]
    fn the_pending_table_wraps_at_65535_without_id_zero_and_the_newest_query_owns_an_id() {
        let mut relay = RelayActor::new(UPSTREAM);
        let mut issued = std::collections::HashSet::new();
        // 65,535 queries nobody answers: every nonzero id, once each.
        for n in 0..u16::MAX {
            let sent = deliver(&mut relay, CLIENT, query_with_id(n));
            let [(to, wire)] = &sent[..] else {
                panic!("query {n} was not forwarded once: {sent:?}");
            };
            assert_eq!(*to, UPSTREAM);
            let fresh = wire_id(wire);
            assert_ne!(fresh, 0, "id 0 is never issued");
            assert!(
                issued.insert(fresh),
                "id {fresh} issued twice before the wrap"
            );
        }
        assert_eq!(relay.pending.len(), 65_535);

        // The 65,536th wraps onto the oldest id and overwrites its entry.
        let newer = NodeId(3);
        let sent = deliver(&mut relay, newer, query_with_id(0xBEEF));
        assert_eq!(wire_id(&sent[0].1), 1, "the counter wraps past 0 to 1");
        assert_eq!(relay.pending.len(), 65_535, "bounded at 65,535");
        assert_eq!(relay.relayed, 65_536);

        // A late answer to the first query now belongs to the newer client.
        let mut late = valid_response();
        late[..2].copy_from_slice(&1u16.to_be_bytes());
        let back = deliver(&mut relay, UPSTREAM, late);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0, newer);
        assert_eq!(wire_id(&back[0].1), 0xBEEF, "under the newer client's id");
        assert_eq!(relay.pending.len(), 65_534);
    }

    #[test]
    fn relayed_datagrams_are_the_received_bytes_with_only_the_id_rewritten() {
        let mut relay = RelayActor::new(UPSTREAM);
        let mut q = Message::query(
            0x4242,
            Question::a(Name::from_ascii("WwW.b.example").unwrap()),
        );
        q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24));
        let query = q.to_bytes().unwrap();
        let sent = deliver(&mut relay, CLIENT, query.clone());
        let (to, forwarded) = &sent[0];
        assert_eq!(*to, UPSTREAM);
        assert_eq!(forwarded[2..], query[2..]);

        // A reply whose answer owner is spelled out instead of pointing at
        // the question: re-encoding would compress it, so equal bytes
        // prove the datagram itself went back.
        let mut reply = forwarded[..2].to_vec();
        reply.extend_from_slice(&[0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0]);
        let qname: &[u8] = &[
            3, b'W', b'w', b'W', 1, b'b', 7, b'e', b'x', b'a', b'm', b'p', b'l', b'e', 0,
        ];
        reply.extend_from_slice(qname);
        reply.extend_from_slice(&[0, 1, 0, 1]);
        reply.extend_from_slice(qname);
        reply.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1]);
        let decoded = Message::from_bytes(&reply).unwrap();
        assert_ne!(
            decoded.to_bytes().unwrap(),
            reply,
            "not the encoder's own form"
        );
        let back = deliver(&mut relay, UPSTREAM, reply.clone());
        let (to, routed) = &back[0];
        assert_eq!(*to, CLIENT);
        assert_eq!(wire_id(routed), 0x4242);
        assert_eq!(routed[2..], reply[2..]);
        assert!(relay.pending.is_empty());
    }

    /// The shapes `dns-wire/tests/malformed_corpus.rs` pins a decode error
    /// for, each under id 1. (Its pointer-into-a-label and long-pointer-
    /// chain shapes may parse, so they are not here.)
    fn rejected_shapes() -> Vec<(String, Vec<u8>)> {
        let mut shapes = Vec::new();
        for (what, whole) in [("query", valid_query()), ("response", valid_response())] {
            for cut in 0..whole.len() {
                shapes.push((
                    format!("{cut}-byte prefix of a valid {what}"),
                    whole[..cut].to_vec(),
                ));
            }
        }
        let header = |flags: u8, counts: [u8; 4]| {
            let [qd, an, ns, ar] = counts;
            vec![0, 1, flags, 0, 0, qd, 0, an, 0, ns, 0, ar]
        };
        let mut self_pointer = header(0, [1, 0, 0, 0]);
        self_pointer.extend_from_slice(&[0xC0, 12, 0, 1, 0, 1]);
        shapes.push(("self-pointer".into(), self_pointer));
        let mut long_label = header(0, [1, 0, 0, 0]);
        long_label.extend_from_slice(&[0x3F, b'a', b'b', b'c']);
        shapes.push(("label longer than the datagram".into(), long_label));
        for reserved in [0x40u8, 0x80] {
            let mut b = header(0, [1, 0, 0, 0]);
            b.extend_from_slice(&[reserved | 5, 1, 2, 3, 4, 5, 0, 1, 0, 1]);
            shapes.push((format!("reserved label bits {reserved:#x}"), b));
        }
        for (what, rdata) in [
            ("rdlength 2 for an A record", &[0, 2, 9, 9][..]),
            ("rdlength past the end", &[0xFF, 0xFF][..]),
        ] {
            let mut b = header(0x80, [0, 1, 0, 0]);
            b.extend_from_slice(&[1, b'x', 0, 0, 1, 0, 1, 0, 0, 0, 60]);
            b.extend_from_slice(rdata);
            shapes.push((what.into(), b));
        }
        for (what, option) in [
            ("ECS family 0", &[0, 8, 0, 8, 0, 8, 0, 4, 0, 0, 0, 0][..]),
            (
                "ECS bits past the source prefix",
                &[0, 11, 0, 8, 0, 7, 0, 1, 17, 0, 192, 0, 64][..],
            ),
        ] {
            let mut b = header(0, [0, 0, 0, 1]);
            b.extend_from_slice(&[0, 0, 41, 16, 0, 0, 0, 0, 0]);
            b.extend_from_slice(option);
            shapes.push((what.into(), b));
        }
        for byte in [0u8, 0x20, 0xC0, 0xFF] {
            shapes.push((format!("the single byte {byte:#x}"), vec![byte]));
        }
        shapes
    }

    #[test]
    fn a_datagram_the_decoder_rejects_is_dropped_and_changes_nothing() {
        let mut relay = RelayActor::new(UPSTREAM);
        // One outstanding query under fresh id 1, the id every shape
        // carries: a shape that got past the gate would route back.
        deliver(&mut relay, CLIENT, valid_query());
        let shapes = rejected_shapes();
        assert!(shapes.len() > 2 * 12, "every 0–11-byte prefix is in");
        for (what, bytes) in shapes {
            assert!(Message::from_bytes(&bytes).is_err(), "{what} parses");
            let sent = deliver(&mut relay, UPSTREAM, bytes);
            assert!(sent.is_empty(), "{what} was relayed");
            assert_eq!(relay.pending.len(), 1, "{what} moved the table");
            assert_eq!(relay.relayed, 1, "{what} was counted");
        }
    }
}
