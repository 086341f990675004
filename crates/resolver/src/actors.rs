//! Event-driven actors: the DNS parties as [`netsim::Node`]s.
//!
//! These wrap the synchronous logic (`engine`, `authoritative`) behind
//! packet handlers so a whole resolution path — client → forwarder →
//! hidden resolver → egress resolver → authoritative — runs as real
//! message exchanges with geographic latencies.
//!
//! All actors share an [`AddressBook`] (behind a `parking_lot::RwLock`)
//! that maps simulated IP addresses to node ids. Queries are plain DNS
//! wire bytes; malformed packets are dropped, as UDP servers do.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

use authoritative::AuthServer;
use dns_wire::{Message, Name};
use netsim::{AddressBook, Ctx, Node, NodeId, Packet, SimTime, Transport};
use parking_lot::RwLock;

use crate::engine::{FlightKey, PendingQuery, Resolver, Step, UpstreamError};
use crate::exchange::{Action, Exchange};

/// Shared address directory type used by every actor.
pub type SharedBook = Arc<RwLock<AddressBook>>;

/// The relay half of a forwarder: outstanding queries keyed by the fresh
/// transaction id they went upstream under. Entries leave when the
/// response routes back; an id whose response never came is overwritten
/// when the 16-bit counter wraps, so the table holds at most 65,535.
struct RelayTable {
    pending: HashMap<u16, (NodeId, u16)>,
    next_id: u16,
}

impl RelayTable {
    fn new() -> Self {
        RelayTable {
            pending: HashMap::new(),
            next_id: 1,
        }
    }

    /// Sends query `msg` from `client` on to `upstream` under a fresh id.
    fn forward(&mut self, mut msg: Message, client: NodeId, upstream: NodeId, ctx: &mut Ctx) {
        let fresh = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        self.pending.insert(fresh, (client, msg.id));
        msg.id = fresh;
        if let Ok(bytes) = msg.to_bytes() {
            ctx.send(upstream, bytes);
        }
    }

    /// Routes response `msg` back to the original querier under its
    /// original id; a response nobody is waiting for is dropped.
    fn route_back(&mut self, mut msg: Message, ctx: &mut Ctx) {
        if let Some((client, orig_id)) = self.pending.remove(&msg.id) {
            msg.id = orig_id;
            if let Ok(bytes) = msg.to_bytes() {
                ctx.send(client, bytes);
            }
        }
    }
}

/// A plain relay: receives a query, forwards it upstream under a fresh
/// transaction id, and routes the response back. Models both open
/// forwarders and hidden resolvers (which, at this layer, behave
/// identically — their *position* and *address* are what matter).
pub struct RelayActor {
    /// Upstream node (a hidden resolver or an egress resolver).
    pub upstream: NodeId,
    table: RelayTable,
    /// Queries relayed (for assertions).
    pub relayed: u64,
}

impl RelayActor {
    /// Creates a relay pointing at `upstream`.
    pub fn new(upstream: NodeId) -> Self {
        RelayActor {
            upstream,
            table: RelayTable::new(),
            relayed: 0,
        }
    }
}

impl Node for RelayActor {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let Ok(msg) = Message::from_bytes(&pkt.payload) else {
            return;
        };
        if msg.is_response() {
            self.table.route_back(msg, ctx);
        } else {
            self.relayed += 1;
            self.table.forward(msg, pkt.src, self.upstream, ctx);
        }
    }
}

/// An egress resolver as a simulation node: the packet-and-timer driver of
/// the [`crate::exchange`] machine. Wraps [`Resolver`] and a zone →
/// authoritative-address routing table.
///
/// The actor owns only plumbing: routing, the coalescing index, admission,
/// and one retransmission timer per outstanding exchange. What to do when a
/// reply arrives or a timer fires — retry, withdraw ECS, answer stale or
/// SERVFAIL — is [`Resolver::step_exchange`]'s decision, so resolution
/// survives the simulator's loss model exactly as the blocking driver does
/// and never hangs or loops. The simulator carries one transport, so
/// exchanges run on a UDP-only ladder and truncated datagrams are dropped
/// before they reach the machine.
pub struct EgressActor {
    resolver: Resolver,
    /// Zone apex → authoritative server address, searched most-specific
    /// first.
    routes: Vec<(Name, IpAddr)>,
    book: SharedBook,
    pending: HashMap<u16, PendingUpstream>,
    /// Coalescing index: flight key → owning pending id. Only populated
    /// when [`crate::config::OverloadConfig::coalesce`] is on.
    flights: HashMap<FlightKey, u16>,
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

fn send_msg(ctx: &mut Ctx, to: NodeId, msg: &Message) {
    if let Ok(bytes) = msg.to_bytes() {
        ctx.send(to, bytes);
    }
}

impl EgressActor {
    /// Creates an egress actor.
    pub fn new(mut resolver: Resolver, routes: Vec<(Name, IpAddr)>, book: SharedBook) -> Self {
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
            book,
            pending: HashMap::new(),
            flights: HashMap::new(),
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
    /// exists and its address is bound.
    fn route_for(&self, name: &Name) -> Option<NodeId> {
        let (_, addr) = self
            .routes
            .iter()
            .find(|(apex, _)| name.is_subdomain_of(apex))?;
        self.book.read().node_of(*addr)
    }

    /// Carries out what the machine decided for outstanding exchange `id`:
    /// (re)transmit and arm the timeout, or answer every waiting party.
    fn apply(&mut self, id: u16, action: Action, ctx: &mut Ctx) {
        match action {
            Action::Send { timeout, .. } => {
                let p = self.pending.get_mut(&id).expect("exchange is outstanding");
                send_msg(ctx, p.auth_node, p.exchange.upstream_query());
                p.deadline = ctx.now() + timeout;
                ctx.set_timer(timeout, u64::from(id));
            }
            Action::Done { answer, raw } => {
                let p = self.pending.remove(&id).expect("exchange is outstanding");
                if let Some(key) = &p.flight {
                    self.flights.remove(key);
                }
                send_msg(ctx, p.client, &answer);
                for (node, joiner) in &p.joiners {
                    let resp = self.resolver.answer_joiner(joiner, raw.as_ref(), ctx.now());
                    send_msg(ctx, *node, &resp);
                }
            }
        }
    }
}

impl Node for EgressActor {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let Ok(msg) = Message::from_bytes(&pkt.payload) else {
            return;
        };
        if msg.is_response() {
            // Only the authoritative we asked, echoing the question we
            // asked, may complete an exchange: a 16-bit id alone is
            // guessable.
            let id = msg.id;
            let Some(p) = self.pending.get_mut(&id).filter(|p| {
                pkt.src == p.auth_node
                    && msg
                        .question()
                        .is_none_or(|q| *q == p.exchange.pending().question)
            }) else {
                self.ignored_replies += 1;
                return;
            };
            // A truncated reply is unusable and the simulator has no
            // stream leg to re-ask over: the retry timer resends.
            if msg.flags.tc {
                return;
            }
            let action = self
                .resolver
                .step_exchange(&mut p.exchange, Ok(msg), ctx.now());
            self.apply(id, action, ctx);
            return;
        }
        // A downstream party (client, forwarder, hidden resolver) queries us.
        let src_addr = self
            .book
            .read()
            .addr_of(pkt.src)
            .unwrap_or(IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED));
        let pending = match self.resolver.begin(&msg, src_addr, ctx.now()) {
            Step::Answer(resp) => return send_msg(ctx, pkt.src, &resp),
            Step::NeedUpstream(pending) => pending,
        };
        let overload = &self.resolver.config().overload;
        let (coalesce, max_in_flight) = (overload.coalesce, overload.max_in_flight);
        // Coalescing: identical (qname, qtype, effective-ECS-prefix)
        // lookups ride an existing flight instead of going upstream.
        let flight = coalesce.then(|| pending.flight_key());
        if let Some(key) = &flight {
            if let Some(p) = self.flights.get(key).and_then(|o| self.pending.get_mut(o)) {
                self.resolver.join(&pending, ctx.now());
                p.joiners.push((pkt.src, pending));
                return;
            }
        }
        // Admission control: a full in-flight table sheds the query with
        // SERVFAIL instead of queueing unboundedly.
        if max_in_flight.is_some_and(|cap| self.pending.len() >= cap) {
            return send_msg(ctx, pkt.src, &self.resolver.shed(&pending));
        }
        let Some(auth_node) = self.route_for(&pending.question.name) else {
            // Nowhere to send: a flight that failed before it started.
            let fail = self.resolver.answer_joiner(&pending, None, ctx.now());
            return send_msg(ctx, pkt.src, &fail);
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
        self.apply(id, action, ctx);
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
        self.apply(id, action, ctx);
    }
}

/// An authoritative server as a simulation node.
pub struct AuthActor {
    server: AuthServer,
    book: SharedBook,
}

impl AuthActor {
    /// Wraps a server.
    pub fn new(server: AuthServer, book: SharedBook) -> Self {
        AuthActor { server, book }
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
        let Ok(msg) = Message::from_bytes(&pkt.payload) else {
            return;
        };
        if msg.is_response() {
            return;
        }
        let src_addr = self
            .book
            .read()
            .addr_of(pkt.src)
            .unwrap_or(IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED));
        let resp = self.server.handle(&msg, src_addr, ctx.now());
        if let Ok(bytes) = resp.to_bytes() {
            ctx.send(pkt.src, bytes);
        }
    }
}

/// An anycast front-end of the public resolution service: a relay that
/// stamps the (trusted) client address into an ECS option and spreads
/// queries round-robin over the service's egress resolvers.
pub struct FrontendActor {
    /// Egress resolvers of the service.
    pub egresses: Vec<NodeId>,
    book: SharedBook,
    table: RelayTable,
    rr: usize,
}

impl FrontendActor {
    /// Creates a front-end.
    pub fn new(egresses: Vec<NodeId>, book: SharedBook) -> Self {
        FrontendActor {
            egresses,
            book,
            table: RelayTable::new(),
            rr: 0,
        }
    }
}

impl Node for FrontendActor {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let Ok(mut msg) = Message::from_bytes(&pkt.payload) else {
            return;
        };
        if msg.is_response() {
            self.table.route_back(msg, ctx);
            return;
        }
        if self.egresses.is_empty() {
            return;
        }
        // Stamp the real client address as a full-length trusted ECS
        // option (the egress applies its own truncation policy).
        if let Some(client_addr) = self.book.read().addr_of(pkt.src) {
            msg.set_ecs(dns_wire::EcsOption::new(
                client_addr,
                if client_addr.is_ipv4() { 32 } else { 128 },
            ));
        }
        let egress = self.egresses[self.rr % self.egresses.len()];
        self.rr += 1;
        self.table.forward(msg, pkt.src, egress, ctx);
    }
}

/// A scripted client that issues queries at given times and records the
/// responses with their arrival times. Like a real stub resolver it
/// retransmits unanswered queries (up to [`ClientActor::MAX_RETRIES`]
/// times, [`ClientActor::RETRY_TIMEOUT`] apart).
pub struct ClientActor {
    /// Where queries go (a forwarder, front-end, or resolver node).
    pub resolver: NodeId,
    /// Scripted queries: (send-at, message).
    pub script: Vec<(SimTime, Message)>,
    /// Collected responses: (arrival time, message).
    pub responses: Vec<(SimTime, Message)>,
    answered: Vec<bool>,
}

impl ClientActor {
    /// Retransmissions per scripted query.
    pub const MAX_RETRIES: u64 = 3;
    /// Gap between retransmissions.
    pub const RETRY_TIMEOUT: netsim::SimDuration = netsim::SimDuration::from_secs(3);

    /// Creates a scripted client. Call [`ClientActor::arm`] after adding
    /// the node to schedule its queries.
    pub fn new(resolver: NodeId, script: Vec<(SimTime, Message)>) -> Self {
        let answered = vec![false; script.len()];
        ClientActor {
            resolver,
            script,
            responses: Vec::new(),
            answered,
        }
    }

    /// Schedules the send (and retransmission) timers for every scripted
    /// query. `self_id` is the node id returned by `add_node`. Timer token
    /// = `index * (MAX_RETRIES+1) + attempt`.
    pub fn arm(sim: &mut netsim::Simulation, self_id: NodeId) {
        let times: Vec<SimTime> = sim
            .node_mut::<ClientActor>(self_id)
            .expect("client actor")
            .script
            .iter()
            .map(|(t, _)| *t)
            .collect();
        let slots = Self::MAX_RETRIES + 1;
        for (i, at) in times.into_iter().enumerate() {
            for attempt in 0..slots {
                sim.inject_timer(
                    self_id,
                    at.since(SimTime::ZERO) + Self::RETRY_TIMEOUT.mul(attempt),
                    i as u64 * slots + attempt,
                );
            }
        }
    }
}

impl Node for ClientActor {
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
        let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
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
            AuthActor::new(auth, book.clone()),
            city("Chicago").unwrap().pos,
        );

        let resolver = Resolver::new(ResolverConfig::rfc_compliant(egress_addr));
        let egress_node = sim.add_node(
            EgressActor::new(
                resolver,
                vec![(name("probe.example"), auth_addr)],
                book.clone(),
            ),
            city("Dallas").unwrap().pos,
        );

        let hidden_node = sim.add_node(RelayActor::new(egress_node), city("Milan").unwrap().pos);
        let fwd_node = sim.add_node(RelayActor::new(hidden_node), city("Santiago").unwrap().pos);

        let query = Message::query(77, Question::a(name("www.probe.example")));
        let client_node = sim.add_node(
            ClientActor::new(fwd_node, vec![(SimTime::ZERO, query)]),
            city("Santiago").unwrap().pos,
        );

        {
            let mut b = book.write();
            b.bind(auth_addr, auth_node);
            b.bind(egress_addr, egress_node);
            b.bind(hidden_addr, hidden_node);
            b.bind(fwd_addr, fwd_node);
            b.bind(client_addr, client_node);
        }
        ClientActor::arm(&mut sim, client_node);
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
    fn frontend_stamps_client_ecs() {
        let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
        let mut sim = Simulation::new(5);

        let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();
        let egress_addr: IpAddr = "203.0.113.9".parse().unwrap();
        let fe_addr: IpAddr = "203.0.113.1".parse().unwrap();
        let client_addr: IpAddr = "100.66.2.42".parse().unwrap();

        let mut zone = Zone::new(name("probe.example"));
        zone.add_a(
            name("www.probe.example"),
            60,
            Ipv4Addr::new(198, 51, 100, 1),
        )
        .unwrap();
        let auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
        let auth_node = sim.add_node(
            AuthActor::new(auth, book.clone()),
            city("Chicago").unwrap().pos,
        );
        // Anycast egress trusts frontend ECS and truncates to /24.
        let egress_node = sim.add_node(
            EgressActor::new(
                Resolver::new(ResolverConfig::anycast_service_egress(egress_addr)),
                vec![(name("probe.example"), auth_addr)],
                book.clone(),
            ),
            city("Dallas").unwrap().pos,
        );
        let fe_node = sim.add_node(
            FrontendActor::new(vec![egress_node], book.clone()),
            city("Toronto").unwrap().pos,
        );
        let query = Message::query(5, Question::a(name("www.probe.example")));
        let client_node = sim.add_node(
            ClientActor::new(fe_node, vec![(SimTime::ZERO, query)]),
            city("Toronto").unwrap().pos,
        );
        {
            let mut b = book.write();
            b.bind(auth_addr, auth_node);
            b.bind(egress_addr, egress_node);
            b.bind(fe_addr, fe_node);
            b.bind(client_addr, client_node);
        }
        ClientActor::arm(&mut sim, client_node);
        sim.run();

        let auth_actor = sim.node_mut::<AuthActor>(auth_node).unwrap();
        let ecs = auth_actor.server().log()[0].ecs.unwrap();
        // The CLIENT's /24 (not the frontend's, not the egress's).
        assert_eq!(ecs.to_v4(), Some(Ipv4Addr::new(100, 66, 2, 0)));
        assert_eq!(ecs.source_prefix_len(), 24);

        let client = sim.node_mut::<ClientActor>(client_node).unwrap();
        assert_eq!(client.responses.len(), 1);
    }

    #[test]
    fn cached_second_query_is_faster_and_skips_authoritative() {
        let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
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
        let auth_node = sim.add_node(
            AuthActor::new(auth, book.clone()),
            city("Tokyo").unwrap().pos,
        );
        let egress_node = sim.add_node(
            EgressActor::new(
                Resolver::new(ResolverConfig::rfc_compliant(egress_addr)),
                vec![(name("probe.example"), auth_addr)],
                book.clone(),
            ),
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
            city("Toronto").unwrap().pos,
        );
        {
            let mut b = book.write();
            b.bind(auth_addr, auth_node);
            b.bind(egress_addr, egress_node);
            b.bind(client_addr, client_node);
        }
        ClientActor::arm(&mut sim, client_node);
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
    use netsim::{LatencyModel, SimTime, Simulation};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    fn lossy_world(
        transport: TransportPolicy,
        loss: f64,
        seed: u64,
    ) -> (Simulation, NodeId, NodeId, NodeId) {
        let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
        let mut sim = Simulation::with_latency(
            seed,
            LatencyModel {
                loss,
                ..LatencyModel::default()
            },
        );
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
            AuthActor::new(auth, book.clone()),
            city("Chicago").unwrap().pos,
        );
        let egress_node = sim.add_node(
            EgressActor::new(
                Resolver::new(ResolverConfig {
                    transport,
                    ..ResolverConfig::rfc_compliant(egress_addr)
                }),
                vec![(name("probe.example"), auth_addr)],
                book.clone(),
            ),
            city("Toronto").unwrap().pos,
        );
        let q = Message::query(42, Question::a(name("www.probe.example")));
        let client_node = sim.add_node(
            ClientActor::new(egress_node, vec![(SimTime::ZERO, q)]),
            city("Toronto").unwrap().pos,
        );
        {
            let mut b = book.write();
            b.bind(auth_addr, auth_node);
            b.bind(egress_addr, egress_node);
            b.bind(client_addr, client_node);
        }
        ClientActor::arm(&mut sim, client_node);
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
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::{Question, Rcode};
    use netsim::geo::city;
    use netsim::{AddressBook, SimDuration, SimTime, Simulation};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    /// One authoritative, one egress with the given config, and `n` clients
    /// in one /24 all asking the same name at t=0 (concurrently: every
    /// query arrives before the first upstream answer returns).
    fn burst_world(config: ResolverConfig, n: usize) -> (Simulation, Vec<NodeId>, NodeId, NodeId) {
        let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
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
            AuthActor::new(auth, book.clone()),
            city("Chicago").unwrap().pos,
        );
        let egress_node = sim.add_node(
            EgressActor::new(
                Resolver::new(config),
                vec![(name("probe.example"), auth_addr)],
                book.clone(),
            ),
            city("Toronto").unwrap().pos,
        );
        let mut clients = Vec::new();
        for i in 0..n {
            let q = Message::query(i as u16 + 1, Question::a(name("www.probe.example")));
            let node = sim.add_node(
                ClientActor::new(egress_node, vec![(SimTime::ZERO, q)]),
                city("Toronto").unwrap().pos,
            );
            book.write()
                .bind(format!("100.70.1.{}", i + 1).parse().unwrap(), node);
            clients.push(node);
        }
        {
            let mut b = book.write();
            b.bind(auth_addr, auth_node);
            b.bind(egress_addr, egress_node);
        }
        for &c in &clients {
            ClientActor::arm(&mut sim, c);
        }
        (sim, clients, auth_node, egress_node)
    }

    /// Installs a tracer on the egress's engine and returns its sink.
    fn traced(sim: &mut Simulation, egress_node: NodeId) -> Arc<obs::MemorySink> {
        let sink = Arc::new(obs::MemorySink::new());
        let e = sim.node_mut::<EgressActor>(egress_node).unwrap();
        e.resolver.set_tracer(obs::Tracer::new(sink.clone()));
        sink
    }

    /// Every client query closed exactly once, whichever way it left: its
    /// own latency sample and `answered` event, and a `coalesced_join` per
    /// query that joined a flight.
    fn assert_every_query_closed(r: &Resolver, sink: &obs::MemorySink) {
        let s = r.stats();
        let snap = r.registry().snapshot();
        let latency = snap.histogram("resolver_query_latency_us").unwrap();
        assert_eq!(latency.count, s.client_queries);
        let events = obs::analyze::parse_events(&sink.lines().join("\n")).unwrap();
        let count = |name: &str| events.iter().filter(|e| e.event == name).count() as u64;
        assert_eq!(count("query_received"), s.client_queries);
        assert_eq!(count("answered"), s.client_queries);
        assert_eq!(count("coalesced_join"), s.coalesced_queries);
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

    #[test]
    fn in_flight_cap_sheds_excess_load_with_servfail() {
        let mut config = ResolverConfig::rfc_compliant("9.9.9.9".parse().unwrap());
        config.overload.max_in_flight = Some(2);
        let (mut sim, clients, auth_node, egress_node) = burst_world(config, 6);
        let sink = traced(&mut sim, egress_node);
        sim.run();
        let e = sim.node_mut::<EgressActor>(egress_node).unwrap();
        let s = e.resolver().stats();
        // The first two queries entered the in-flight table; the other
        // four of the burst were shed.
        assert_eq!(s.shed_queries, 4);
        assert_every_query_closed(e.resolver(), &sink);
        assert_eq!(e.in_flight(), 0, "table drains after the burst");
        let a = sim.node_mut::<AuthActor>(auth_node).unwrap();
        assert_eq!(a.server().log().len(), 2);
        // Shed clients got SERVFAIL promptly, not silence.
        let mut servfails = 0;
        for c in clients {
            let cl = sim.node_mut::<ClientActor>(c).unwrap();
            assert!(!cl.responses.is_empty());
            if cl.responses[0].1.rcode == Rcode::ServFail {
                servfails += 1;
            }
        }
        assert_eq!(servfails, 4);
    }

    #[test]
    fn egress_serves_stale_when_authoritative_goes_dark() {
        let mut config = ResolverConfig::rfc_compliant("9.9.9.9".parse().unwrap());
        config.overload.serve_stale_ttl = SimDuration::from_secs(3600);
        // One short attempt: the resolver gives up (and answers stale) before
        // the client's own 3 s retransmission timer spawns a second exchange.
        config.retry.attempts = 1;
        config.retry.initial_timeout = SimDuration::from_secs(1);
        let (mut sim, clients, auth_node, egress_node) = build_stale_world(config);
        let sink = traced(&mut sim, egress_node);
        // Let the t=0 warm-up complete, then blackhole the upstream leg
        // before the t=120 re-ask (the 60 s TTL has expired by then).
        sim.run_until(SimTime::from_secs(60));
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
        let cl = sim.node_mut::<ClientActor>(clients[0]).unwrap();
        assert_eq!(cl.responses.len(), 2);
        // First answer fresh, second stale (the auth was dark) — a NoError
        // answer with the RFC 8767 §5 stale TTL, not SERVFAIL.
        assert_eq!(cl.responses[1].1.rcode, Rcode::NoError);
        assert!(!cl.responses[1].1.answers.is_empty());
        assert!(cl.responses[1].1.answers[0].ttl <= 30);
        let e = sim.node_mut::<EgressActor>(egress_node).unwrap();
        let s = e.resolver().stats();
        assert_eq!(s.stale_answers, 1);
        assert_eq!(s.servfail_responses, 0);
        assert_every_query_closed(e.resolver(), &sink);
        let a = sim.node_mut::<AuthActor>(auth_node).unwrap();
        assert_eq!(a.server().log().len(), 1, "only the warm-up reached auth");
    }

    /// A world for the serve-stale test: one client scripted with a warm-up
    /// query at t=0 and a re-ask at t=120 (past the 60 s record TTL).
    fn build_stale_world(config: ResolverConfig) -> (Simulation, Vec<NodeId>, NodeId, NodeId) {
        let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
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
            AuthActor::new(auth, book.clone()),
            city("Chicago").unwrap().pos,
        );
        let egress_node = sim.add_node(
            EgressActor::new(
                Resolver::new(config),
                vec![(name("probe.example"), auth_addr)],
                book.clone(),
            ),
            city("Toronto").unwrap().pos,
        );
        let q1 = Message::query(1, Question::a(name("www.probe.example")));
        let q2 = Message::query(2, Question::a(name("www.probe.example")));
        let client = sim.add_node(
            ClientActor::new(
                egress_node,
                vec![(SimTime::ZERO, q1), (SimTime::from_secs(120), q2)],
            ),
            city("Toronto").unwrap().pos,
        );
        {
            let mut b = book.write();
            b.bind(auth_addr, auth_node);
            b.bind(egress_addr, egress_node);
            b.bind("100.70.1.1".parse().unwrap(), client);
        }
        ClientActor::arm(&mut sim, client);
        (sim, vec![client], auth_node, egress_node)
    }
}

#[cfg(test)]
mod frontend_tests {
    use super::*;
    use crate::config::ResolverConfig;
    use authoritative::{EcsHandling, ScopePolicy, Zone};
    use dns_wire::Question;
    use netsim::geo::city;
    use netsim::{SimDuration, SimTime, Simulation};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    #[test]
    fn frontend_round_robins_across_egresses() {
        let book: SharedBook = Arc::new(RwLock::new(AddressBook::new()));
        let mut sim = Simulation::new(2);
        let auth_addr: IpAddr = "198.51.100.53".parse().unwrap();

        let mut zone = Zone::new(name("probe.example"));
        for i in 0..4 {
            zone.add_a(
                name(&format!("h{i}.probe.example")),
                60,
                Ipv4Addr::new(198, 51, 100, i + 1),
            )
            .unwrap();
        }
        let auth_node = sim.add_node(
            AuthActor::new(
                AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource)),
                book.clone(),
            ),
            city("Chicago").unwrap().pos,
        );

        let mut egresses = Vec::new();
        for i in 0..2 {
            let addr: IpAddr = format!("9.9.9.{}", i + 1).parse().unwrap();
            let node = sim.add_node(
                EgressActor::new(
                    Resolver::new(ResolverConfig::anycast_service_egress(addr)),
                    vec![(name("probe.example"), auth_addr)],
                    book.clone(),
                ),
                city("Dallas").unwrap().pos,
            );
            book.write().bind(addr, node);
            egresses.push(node);
        }
        let fe_node = sim.add_node(
            FrontendActor::new(egresses.clone(), book.clone()),
            city("Toronto").unwrap().pos,
        );
        // Four distinct-name queries → strict alternation across the two
        // egresses.
        let script: Vec<(SimTime, Message)> = (0..4)
            .map(|i| {
                (
                    SimTime::ZERO + SimDuration::from_secs(i),
                    Message::query(
                        i as u16 + 1,
                        Question::a(name(&format!("h{i}.probe.example"))),
                    ),
                )
            })
            .collect();
        let client_node = sim.add_node(
            ClientActor::new(fe_node, script),
            city("Toronto").unwrap().pos,
        );
        {
            let mut b = book.write();
            b.bind(auth_addr, auth_node);
            b.bind("100.66.9.9".parse().unwrap(), fe_node);
            b.bind("100.66.1.1".parse().unwrap(), client_node);
        }
        ClientActor::arm(&mut sim, client_node);
        sim.run();

        let c = sim.node_mut::<ClientActor>(client_node).unwrap();
        assert_eq!(c.responses.len(), 4);
        // The authoritative saw queries from BOTH egress addresses.
        let auth = sim.node_mut::<AuthActor>(auth_node).unwrap();
        let sources: std::collections::HashSet<IpAddr> =
            auth.server().log().iter().map(|e| e.resolver).collect();
        assert_eq!(sources.len(), 2, "round robin must use both egresses");
    }
}
