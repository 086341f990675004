//! The simulation core: nodes, packets, timers, and the event loop.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::IpAddr;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::addrbook::AddressBook;
use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultPlan, FaultStats};
use crate::geo::GeoPoint;
use crate::latency::LatencyModel;
use crate::time::{SimDuration, SimTime};

/// Identifies a node in the simulation (index into the node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A packet delivered to a node.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Sender.
    pub src: NodeId,
    /// Receiver (the node whose handler is running).
    pub dst: NodeId,
    /// Payload bytes (DNS wire format in this project).
    pub payload: Vec<u8>,
}

/// The interface nodes use to act on the world from inside a handler.
///
/// Actions are buffered and applied by the event loop after the handler
/// returns, which keeps handlers free of aliasing problems.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: NodeId,
    book: &'a AddressBook,
    actions: &'a mut Vec<Action>,
    rng: &'a mut SmallRng,
    /// The dispatch profile, when it is on.
    profile: Option<Staged<'a>>,
}

/// A handler's share of the dispatch profile: where its stages fold, and
/// how much of its wall time they took so far.
struct Staged<'a> {
    profiler: &'a mut obs::StageProfiler,
    /// `sim`, the node kind and the event.
    path: [&'static str; 3],
    staged_us: u64,
}

/// What a handler asked of the world through its [`Ctx`]. The loop that
/// stepped the handler applies these after it returns: [`Simulation`]
/// under virtual time, or [`crate::SocketHost`] over a real socket.
#[derive(Debug)]
pub enum Action {
    /// Deliver `payload` to node `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// Datagram bytes.
        payload: Vec<u8>,
    },
    /// Call the node's `on_timer(token)` once `after` has passed.
    Timer {
        /// Delay from the handler's `now`.
        after: SimDuration,
        /// Opaque value handed back to the node.
        token: u64,
    },
}

impl<'a> Ctx<'a> {
    /// A context for stepping node `self_id` at `now` from outside
    /// [`Simulation`]: the handler reads addresses from `book`, its
    /// actions land in `actions` for the caller to apply, its randomness
    /// comes from `rng`.
    pub fn new(
        now: SimTime,
        self_id: NodeId,
        book: &'a AddressBook,
        actions: &'a mut Vec<Action>,
        rng: &'a mut SmallRng,
    ) -> Self {
        Ctx {
            now,
            self_id,
            book,
            actions,
            rng,
            profile: None,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The handling node's own id.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The address `node` was added at.
    pub fn addr_of(&self, node: NodeId) -> Option<IpAddr> {
        self.book.addr_of(node)
    }

    /// The node added at `addr`.
    pub fn node_of(&self, addr: IpAddr) -> Option<NodeId> {
        self.book.node_of(addr)
    }

    /// Sends `payload` to `to`; it arrives after the network latency between
    /// the two nodes (or never, if the fault plan drops it).
    pub fn send(&mut self, to: NodeId, payload: Vec<u8>) {
        self.actions.push(Action::Send { to, payload });
    }

    /// Arms a timer that fires on this node after `after`, carrying `token`.
    pub fn set_timer(&mut self, after: SimDuration, token: u64) {
        self.actions.push(Action::Timer { after, token });
    }

    /// Simulation-owned RNG for any randomness a node needs; using it keeps
    /// the run reproducible.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// The dispatch profile's wall clock in µs, when
    /// [`Simulation::enable_profiling`] turned the profile on; `None`, at
    /// one branch, otherwise. What a handler reads to time its stages for
    /// [`Ctx::profile_stage`].
    pub fn profile_clock(&self) -> Option<u64> {
        self.profile.as_ref().map(|p| p.profiler.now_us())
    }

    /// Folds `took_us` of this handler's wall time under
    /// `sim;<node kind>;<event>;<name>` and takes it out of the handler's
    /// own time, so the profile's stacks still sum to the dispatch time.
    /// Does nothing when the profile is off.
    pub fn profile_stage(&mut self, name: &'static str, took_us: u64) {
        if let Some(p) = &mut self.profile {
            let [sim, kind, event] = p.path;
            p.profiler.record(&[sim, kind, event, name], took_us);
            p.staged_us += took_us;
        }
    }
}

/// Behaviour of a simulated network node.
///
/// The `Any` supertrait lets experiments recover the concrete node type
/// after the run via [`Simulation::node_mut`].
pub trait Node: std::any::Any {
    /// Called once, inside [`Simulation::add_node`], with the clock at the
    /// node's addition: where a node arms the timers it starts with.
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    /// Called when a packet arrives.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx);

    /// Called when a timer armed via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}
}

/// The one `netsim_*` series that has to be recorded as it happens,
/// created on demand by [`Simulation::enable_metrics`]; the five counters
/// of a snapshot are read off `delivered` and [`FaultStats`]
/// when it is asked for. Recording never touches the RNG or the event
/// queue, so an instrumented run stays bit-identical to a bare one;
/// keeping the struct optional makes the default path allocation-free too.
struct SimMetrics {
    registry: obs::MetricsRegistry,
    delivery_latency: obs::Histogram,
}

/// The profile's name for a node of type `N`: the type's own name, its
/// module path and generic arguments stripped (`RelayActor`,
/// `ScannerNode`).
fn kind_of<N>() -> &'static str {
    let full = std::any::type_name::<N>();
    let bare = full.split('<').next().unwrap_or(full);
    bare.rsplit("::").next().unwrap_or(bare)
}

/// FxHash's rotate-xor-multiply over the words of a key. The pair tables
/// (here and in [`FaultPlan`]) are keyed by node indices the simulation
/// assigns itself, so SipHash's resistance to chosen keys buys nothing
/// there.
#[derive(Default)]
pub(crate) struct PairHasher(u64);

/// A table keyed by node pairs, hashed with [`PairHasher`].
pub(crate) type PairMap<V> = HashMap<(NodeId, NodeId), V, BuildHasherDefault<PairHasher>>;

impl PairHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The simulation world: node table, positions, clock, queue, RNG.
pub struct Simulation {
    nodes: Vec<Option<Box<dyn Node>>>,
    positions: Vec<GeoPoint>,
    /// Every node's address, bound as it is added.
    book: AddressBook,
    /// Jitter-free one-way delay in ms of every directed pair that has
    /// carried a packet, computed on its first packet. Positions never
    /// move, so an entry never goes stale.
    base_delay: PairMap<f64>,
    /// The handler action buffer, lent to one dispatch at a time.
    actions: Vec<Action>,
    queue: EventQueue,
    clock: SimTime,
    rng: SmallRng,
    faults: FaultPlan,
    fault_stats: FaultStats,
    delivered: u64,
    metrics: Option<SimMetrics>,
    /// Each node's kind: its type's name, module path and generics
    /// stripped.
    kinds: Vec<&'static str>,
    /// Wall time per dispatch, by node kind; off unless
    /// [`Simulation::enable_profiling`] turned it on.
    profile: obs::StageProfiler,
}

impl Simulation {
    /// Creates a simulation seeded with `seed`, delaying packets by the
    /// [`LatencyModel`] and injecting no faults until
    /// [`Simulation::set_fault_plan`] installs some.
    pub fn new(seed: u64) -> Self {
        Simulation {
            nodes: Vec::new(),
            positions: Vec::new(),
            book: AddressBook::new(),
            base_delay: HashMap::default(),
            actions: Vec::new(),
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            faults: FaultPlan::none(),
            fault_stats: FaultStats::default(),
            delivered: 0,
            metrics: None,
            kinds: Vec::new(),
            profile: obs::StageProfiler::off(),
        }
    }

    /// Turns on telemetry: packet/fault counters and a delivery-latency
    /// histogram. Off by default; enabling it does not perturb the event
    /// order or the RNG stream. Call before the run: the histogram records
    /// from here on, the counters are the simulation's cumulative tallies.
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            let registry = obs::MetricsRegistry::new();
            let delivery_latency = registry.histogram("netsim_delivery_latency_us");
            self.metrics = Some(SimMetrics {
                registry,
                delivery_latency,
            });
        }
    }

    /// A snapshot of the `netsim_*` series, if metrics are enabled: the
    /// counters are [`Simulation::delivered`], [`Simulation::dropped`] and
    /// [`Simulation::fault_stats`], so they agree by construction.
    pub fn metrics_snapshot(&self) -> Option<obs::MetricsSnapshot> {
        let mut snap = self.metrics.as_ref()?.registry.snapshot();
        let f = &self.fault_stats;
        for (name, value) in [
            ("netsim_delivered_total", self.delivered),
            ("netsim_dropped_total", f.dropped()),
            ("netsim_fault_loss_total", f.dropped_loss),
            ("netsim_fault_blackhole_total", f.dropped_blackhole),
            ("netsim_fault_rcode_total", f.rcode_injected),
        ] {
            snap.series
                .insert(name.into(), obs::MetricValue::Counter(value));
        }
        Some(snap)
    }

    /// Turns on the dispatch profile: the wall time of every handler call
    /// (with the sends and timers it asked for applied), folded under
    /// `sim;<node kind>;packet|timer|start`, where a node's kind is its
    /// type's name. A handler may split its time into stages one level
    /// below ([`Ctx::profile_stage`]). Off by default, when a dispatch
    /// pays one branch for it; on, it reads the clock twice per dispatch
    /// and touches neither the RNG nor the event order.
    pub fn enable_profiling(&mut self) {
        if !self.profile.is_on() {
            self.profile = obs::StageProfiler::new();
        }
    }

    /// The dispatch profile so far; empty unless
    /// [`Simulation::enable_profiling`] was called.
    pub fn profile_snapshot(&self) -> obs::ProfileSnapshot {
        self.profile.snapshot()
    }

    /// Replaces the fault plan applied on the send path, before or mid-run
    /// (e.g. to heal or degrade links). With [`FaultPlan::none`] the run is
    /// bit-identical to one that never set a plan.
    pub fn set_fault_plan(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Counters of the faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Adds a node at address `addr` and position `pos`, then starts it
    /// ([`Node::on_start`]); returns its id. Panics if `addr` is already
    /// another node's.
    pub fn add_node<N: Node + 'static>(&mut self, node: N, addr: IpAddr, pos: GeoPoint) -> NodeId {
        let id = NodeId(self.nodes.len());
        if let Some(holder) = self.book.node_of(addr) {
            panic!("{addr} is already the address of {holder:?}");
        }
        self.book.bind(addr, id);
        self.nodes.push(Some(Box::new(node)));
        self.positions.push(pos);
        self.kinds.push(kind_of::<N>());
        self.dispatch(id, "start", |n, ctx| n.on_start(ctx));
        id
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> GeoPoint {
        self.positions[id.0]
    }

    /// Jitter-free RTT between two nodes in milliseconds (what a ping would
    /// measure, net of jitter).
    pub fn rtt_ms(&self, a: NodeId, b: NodeId) -> f64 {
        LatencyModel {}.rtt_ms(&self.positions[a.0], &self.positions[b.0])
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets dropped by the fault plan so far.
    pub fn dropped(&self) -> u64 {
        self.fault_stats.dropped()
    }

    /// Injects a packet from `src` to `dst` at `now + after` plus network
    /// latency. This is how experiments bootstrap traffic. The fault plan
    /// is consulted first: it may drop or mangle the payload.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, mut payload: Vec<u8>, after: SimDuration) {
        let delivered =
            self.faults
                .apply(src, dst, &mut payload, &mut self.rng, &mut self.fault_stats);
        if !delivered {
            return;
        }
        let depart = self.clock + after;
        let positions = &self.positions;
        let one_way_ms = *self
            .base_delay
            .entry((src, dst))
            .or_insert_with(|| LatencyModel {}.one_way_ms(&positions[src.0], &positions[dst.0]));
        let delay = LatencyModel {}.jittered(one_way_ms, &mut self.rng);
        if let Some(m) = &self.metrics {
            m.delivery_latency.record(delay.as_micros());
        }
        self.queue
            .push(depart + delay, EventKind::Deliver { src, dst, payload })
    }

    /// Arms a timer on a node from outside a handler.
    pub fn inject_timer(&mut self, node: NodeId, after: SimDuration, token: u64) {
        self.queue
            .push(self.clock + after, EventKind::Timer { node, token });
    }

    /// Runs until the queue is empty. Returns the number of events processed.
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime::from_micros(u64::MAX))
    }

    /// Number of nodes added so far (equivalently: the id the next
    /// [`Simulation::add_node`] will assign).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether any event (delivery or timer) is still scheduled. Lets
    /// sliced drivers ([`Simulation::run_until`] in a loop) distinguish
    /// "nothing due in this slice" from "the world has gone quiet".
    pub fn events_pending(&self) -> bool {
        self.queue.next_time().is_some()
    }

    /// Runs until the queue empties or the next event would fire after
    /// `deadline`. The clock never exceeds the last processed event's time.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some(at) = self.queue.next_time() {
            if at > deadline {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.clock = ev.at;
            processed += 1;
            match ev.kind {
                EventKind::Deliver { src, dst, payload } => {
                    self.delivered += 1;
                    self.dispatch(dst, "packet", |node, ctx| {
                        node.on_packet(Packet { src, dst, payload }, ctx)
                    });
                }
                EventKind::Timer { node, token } => {
                    self.dispatch(node, "timer", |n, ctx| n.on_timer(token, ctx));
                }
            }
        }
        processed
    }

    /// Runs one handler of node `id` (`what` names the event for the
    /// profile) and applies what it asked for.
    fn dispatch<F>(&mut self, id: NodeId, what: &'static str, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut Ctx),
    {
        if self.profile.is_on() {
            let path = ["sim", self.kinds[id.0], what];
            let start = self.profile.now_us();
            let staged = self.handle(id, Some(path), f);
            let took = self.profile.now_us() - start;
            self.profile.record(&path, took.saturating_sub(staged));
            return;
        }
        self.handle(id, None, f);
    }

    /// Runs the handler and applies its actions; returns the wall time
    /// its stages folded under `profiled` (0 when that is `None`).
    fn handle<F>(&mut self, id: NodeId, profiled: Option<[&'static str; 3]>, f: F) -> u64
    where
        F: FnOnce(&mut dyn Node, &mut Ctx),
    {
        // Take the node out so the handler can't alias the table.
        let mut node = match self.nodes[id.0].take() {
            Some(n) => n,
            None => return 0, // node is re-entrantly dispatching; drop event
        };
        let mut actions = std::mem::take(&mut self.actions);
        let staged = {
            let mut ctx = Ctx::new(self.clock, id, &self.book, &mut actions, &mut self.rng);
            ctx.profile = profiled.map(|path| Staged {
                profiler: &mut self.profile,
                path,
                staged_us: 0,
            });
            f(node.as_mut(), &mut ctx);
            ctx.profile.map_or(0, |p| p.staged_us)
        };
        self.nodes[id.0] = Some(node);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, payload } => {
                    self.inject(id, to, payload, SimDuration::ZERO);
                }
                Action::Timer { after, token } => {
                    self.queue
                        .push(self.clock + after, EventKind::Timer { node: id, token });
                }
            }
        }
        self.actions = actions;
        staged
    }

    /// Grants temporary mutable access to a node for inspection or setup.
    /// Panics if the id is out of range; returns `None` if the node's
    /// concrete type is not `N`.
    pub fn node_mut<N: Node>(&mut self, id: NodeId) -> Option<&mut N> {
        self.nodes[id.0].as_mut().and_then(|n| {
            let any: &mut dyn std::any::Any = n.as_mut();
            any.downcast_mut::<N>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFaults;
    use crate::geo::city;

    /// The next free test address: 10.0.0.1 for node 0, and so on.
    fn addr(sim: &Simulation) -> IpAddr {
        IpAddr::from([10, 0, 0, sim.node_count() as u8 + 1])
    }

    struct Echo {
        seen: u32,
    }
    impl Node for Echo {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
            self.seen += 1;
            if self.seen <= 3 {
                ctx.send(pkt.src, pkt.payload);
            }
        }
    }

    struct Pinger {
        replies: u32,
        last_rtt_ms: f64,
        sent_at: SimTime,
        peer: Option<NodeId>,
    }
    impl Node for Pinger {
        fn on_packet(&mut self, _pkt: Packet, ctx: &mut Ctx) {
            self.replies += 1;
            self.last_rtt_ms = (ctx.now() - self.sent_at).as_millis_f64();
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
            self.sent_at = ctx.now();
            if let Some(peer) = self.peer {
                ctx.send(peer, vec![0]);
            }
        }
    }

    #[test]
    fn ping_pong_measures_rtt() {
        let mut sim = Simulation::new(1);
        let echo = sim.add_node(Echo { seen: 0 }, addr(&sim), city("Amsterdam").unwrap().pos);
        let ping = sim.add_node(
            Pinger {
                replies: 0,
                last_rtt_ms: 0.0,
                sent_at: SimTime::ZERO,
                peer: Some(echo),
            },
            addr(&sim),
            city("New York").unwrap().pos,
        );
        sim.inject_timer(ping, SimDuration::ZERO, 0);
        sim.run();
        let expected = sim.rtt_ms(ping, echo);
        let p = sim.node_mut::<Pinger>(ping).unwrap();
        assert_eq!(p.replies, 1);
        // RTT within jitter bounds (2 × 0.5 ms max).
        assert!(
            (p.last_rtt_ms - expected).abs() < 1.5,
            "{} vs {}",
            p.last_rtt_ms,
            expected
        );
    }

    #[test]
    fn determinism_same_seed_same_clock() {
        let run = |seed| {
            let mut sim = Simulation::new(seed);
            let echo = sim.add_node(Echo { seen: 0 }, addr(&sim), city("Tokyo").unwrap().pos);
            let ping = sim.add_node(
                Pinger {
                    replies: 0,
                    last_rtt_ms: 0.0,
                    sent_at: SimTime::ZERO,
                    peer: Some(echo),
                },
                addr(&sim),
                city("Sydney").unwrap().pos,
            );
            sim.inject(ping, echo, vec![7], SimDuration::ZERO);
            sim.run();
            (sim.now(), sim.delivered())
        };
        assert_eq!(run(5), run(5));
        // Different seeds may differ in jitter but both complete.
        let (t1, d1) = run(5);
        let (_t2, d2) = run(6);
        assert_eq!(d1, d2);
        assert!(t1.as_micros() > 0);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(3);
        struct Loop;
        impl Node for Loop {
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_secs(1), token + 1);
            }
            fn on_packet(&mut self, _p: Packet, _c: &mut Ctx) {}
        }
        let n = sim.add_node(Loop, addr(&sim), city("Paris").unwrap().pos);
        sim.inject_timer(n, SimDuration::from_secs(1), 0);
        let processed = sim.run_until(SimTime::from_secs(10));
        assert_eq!(processed, 10);
        assert!(sim.now() <= SimTime::from_secs(10));
    }

    #[test]
    fn loss_model_drops() {
        let mut sim = Simulation::new(9);
        sim.set_fault_plan(FaultPlan::uniform(LinkFaults::lossy(1.0)));
        let a = sim.add_node(Echo { seen: 0 }, addr(&sim), city("Paris").unwrap().pos);
        let b = sim.add_node(Echo { seen: 0 }, addr(&sim), city("London").unwrap().pos);
        sim.inject(a, b, vec![1], SimDuration::ZERO);
        sim.run();
        assert_eq!(sim.delivered(), 0);
        assert_eq!(sim.dropped(), 1);
    }

    #[test]
    fn fault_plan_blackhole_drops_on_send_path() {
        let mut sim = Simulation::new(4);
        sim.set_fault_plan(FaultPlan::uniform(LinkFaults {
            blackhole: true,
            ..LinkFaults::NONE
        }));
        let a = sim.add_node(Echo { seen: 0 }, addr(&sim), city("Paris").unwrap().pos);
        let b = sim.add_node(Echo { seen: 0 }, addr(&sim), city("London").unwrap().pos);
        sim.inject(a, b, vec![1], SimDuration::ZERO);
        sim.run();
        assert_eq!(sim.delivered(), 0);
        assert_eq!(sim.dropped(), 1);
        assert_eq!(sim.fault_stats().dropped_blackhole, 1);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan() {
        let run = |faulted: bool| {
            let mut sim = Simulation::new(5);
            if faulted {
                sim.set_fault_plan(FaultPlan::none());
            }
            let echo = sim.add_node(Echo { seen: 0 }, addr(&sim), city("Tokyo").unwrap().pos);
            let ping = sim.add_node(
                Pinger {
                    replies: 0,
                    last_rtt_ms: 0.0,
                    sent_at: SimTime::ZERO,
                    peer: Some(echo),
                },
                addr(&sim),
                city("Sydney").unwrap().pos,
            );
            sim.inject(ping, echo, vec![7], SimDuration::ZERO);
            sim.run();
            (sim.now(), sim.delivered())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn metrics_mirror_plain_counters_without_perturbing_the_run() {
        let run = |instrument: bool| {
            let mut sim = Simulation::new(5);
            if instrument {
                sim.enable_metrics();
            }
            let echo = sim.add_node(Echo { seen: 0 }, addr(&sim), city("Tokyo").unwrap().pos);
            let ping = sim.add_node(
                Pinger {
                    replies: 0,
                    last_rtt_ms: 0.0,
                    sent_at: SimTime::ZERO,
                    peer: Some(echo),
                },
                addr(&sim),
                city("Sydney").unwrap().pos,
            );
            sim.inject(ping, echo, vec![7], SimDuration::ZERO);
            sim.run();
            (sim.now(), sim.delivered(), sim.metrics_snapshot())
        };
        let (t_plain, d_plain, none) = run(false);
        let (t_inst, d_inst, snap) = run(true);
        assert!(none.is_none());
        // Identical virtual timeline — telemetry is pure observation.
        assert_eq!((t_plain, d_plain), (t_inst, d_inst));
        let snap = snap.unwrap();
        assert_eq!(snap.counter("netsim_delivered_total"), Some(d_inst));
        let lat = snap.histogram("netsim_delivery_latency_us").unwrap();
        assert_eq!(lat.count, d_inst);
        assert!(lat.min > 0, "cross-Pacific hops take time");
    }

    #[test]
    fn the_dispatch_profile_counts_each_kind_without_perturbing_the_run() {
        let run = |profile: bool| {
            let mut sim = Simulation::new(5);
            if profile {
                sim.enable_profiling();
            }
            let echo = sim.add_node(Echo { seen: 0 }, addr(&sim), city("Tokyo").unwrap().pos);
            let ping = sim.add_node(
                Pinger {
                    replies: 0,
                    last_rtt_ms: 0.0,
                    sent_at: SimTime::ZERO,
                    peer: Some(echo),
                },
                addr(&sim),
                city("Sydney").unwrap().pos,
            );
            sim.inject_timer(ping, SimDuration::ZERO, 0);
            sim.inject(ping, echo, vec![7], SimDuration::ZERO);
            let events = sim.run();
            (sim.now(), events, sim.profile_snapshot())
        };
        let (t_plain, e_plain, off) = run(false);
        let (t_prof, e_prof, on) = run(true);
        assert!(off.is_empty());
        assert_eq!((t_plain, e_plain), (t_prof, e_prof));
        let calls = |path: &str| on.stacks.get(path).map_or(0, |s| s.calls);
        // Two packets reach the echo, it answers both, one timer fires.
        assert_eq!(calls("sim;Echo;packet"), 2);
        assert_eq!(calls("sim;Pinger;packet"), 2);
        assert_eq!(calls("sim;Pinger;timer"), 1);
        assert_eq!(calls("sim;Echo;start") + calls("sim;Pinger;start"), 2);
        assert_eq!(on.total_calls(), e_prof + 2, "every event plus two starts");
        // A generic node is named without its parameters or paths.
        assert_eq!(kind_of::<std::collections::HashMap<u8, Echo>>(), "HashMap");
    }

    /// Folds a fixed one-second stage per packet while profiled.
    struct Stager {
        clocked: Vec<bool>,
    }
    impl Node for Stager {
        fn on_packet(&mut self, _pkt: Packet, ctx: &mut Ctx) {
            self.clocked.push(ctx.profile_clock().is_some());
            ctx.profile_stage("work", 1_000_000);
        }
    }

    #[test]
    fn a_handler_s_stages_fold_under_its_dispatch_and_leave_its_own_time() {
        for profile in [false, true] {
            let mut sim = Simulation::new(5);
            if profile {
                sim.enable_profiling();
            }
            let stager = Stager {
                clocked: Vec::new(),
            };
            let node = sim.add_node(stager, addr(&sim), city("Tokyo").unwrap().pos);
            let peer = sim.add_node(Echo { seen: 0 }, addr(&sim), city("Sydney").unwrap().pos);
            sim.inject(peer, node, vec![1], SimDuration::ZERO);
            sim.inject(peer, node, vec![2], SimDuration::ZERO);
            sim.run();
            let clocked = &sim.node_mut::<Stager>(node).unwrap().clocked;
            assert_eq!(clocked, &vec![profile; 2]);
            let snap = sim.profile_snapshot();
            if !profile {
                assert!(snap.is_empty());
                continue;
            }
            let work = snap.stacks["sim;Stager;packet;work"];
            assert_eq!((work.calls, work.self_us), (2, 2_000_000));
            // The handler ran for less than the second it claims, so its
            // own time is what is left of the dispatch: nothing.
            assert_eq!(snap.stacks["sim;Stager;packet"].calls, 2);
            assert_eq!(snap.stacks["sim;Stager;packet"].self_us, 0);
        }
    }

    #[test]
    fn metrics_count_fault_injections() {
        let mut sim = Simulation::new(4);
        sim.set_fault_plan(FaultPlan::uniform(LinkFaults {
            blackhole: true,
            ..LinkFaults::NONE
        }));
        sim.enable_metrics();
        let a = sim.add_node(Echo { seen: 0 }, addr(&sim), city("Paris").unwrap().pos);
        let b = sim.add_node(Echo { seen: 0 }, addr(&sim), city("London").unwrap().pos);
        sim.inject(a, b, vec![1], SimDuration::ZERO);
        sim.run();
        let snap = sim.metrics_snapshot().unwrap();
        assert_eq!(snap.counter("netsim_fault_blackhole_total"), Some(1));
        assert_eq!(snap.counter("netsim_dropped_total"), Some(1));
        assert_eq!(snap.counter("netsim_delivered_total"), Some(0));
    }

    /// Every send of a [`Hop`] world in send order (which is inject order,
    /// so jitter-draw order), and when each one arrived.
    #[derive(Default)]
    struct Ledger {
        sends: Vec<(NodeId, NodeId, SimTime)>,
        arrivals: Vec<Option<SimTime>>,
    }

    impl Ledger {
        /// Books a send and returns its payload: the send's index, then
        /// the hops it has left.
        fn book(&mut self, src: NodeId, dst: NodeId, at: SimTime, hops: u8) -> Vec<u8> {
            let seq = self.sends.len() as u64;
            self.sends.push((src, dst, at));
            self.arrivals.push(None);
            let mut payload = seq.to_le_bytes().to_vec();
            payload.push(hops);
            payload
        }
    }

    /// Passes each packet on to its next peer, round robin, until the
    /// packet's hop budget is spent.
    struct Hop {
        peers: Vec<NodeId>,
        next: usize,
        ledger: std::rc::Rc<std::cell::RefCell<Ledger>>,
    }

    impl Node for Hop {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
            let seq = u64::from_le_bytes(pkt.payload[..8].try_into().unwrap());
            let mut ledger = self.ledger.borrow_mut();
            ledger.arrivals[seq as usize] = Some(ctx.now());
            let hops = pkt.payload[8];
            if hops == 0 || self.peers.is_empty() {
                return;
            }
            let to = self.peers[self.next % self.peers.len()];
            self.next += 1;
            let payload = ledger.book(ctx.self_id(), to, ctx.now(), hops - 1);
            ctx.send(to, payload);
        }
    }

    #[test]
    fn cached_pair_delays_equal_a_fresh_sample_per_packet_and_cover_only_used_pairs() {
        let ledger = std::rc::Rc::new(std::cell::RefCell::new(Ledger::default()));
        let mut sim = Simulation::new(21);
        let hop = |peers: Vec<NodeId>| Hop {
            peers,
            next: 0,
            ledger: ledger.clone(),
        };
        let sites = ["Tokyo", "Sydney", "Paris", "Santiago"];
        let nodes: Vec<NodeId> = sites
            .iter()
            .map(|c| sim.add_node(hop(Vec::new()), addr(&sim), city(c).unwrap().pos))
            .collect();
        // A ring over the first three; the fourth only ever talks to the
        // first, so most of the 12 directed pairs never carry a packet.
        for i in 0..3 {
            sim.node_mut::<Hop>(nodes[i]).unwrap().peers = vec![nodes[(i + 1) % 3]];
        }
        sim.node_mut::<Hop>(nodes[3]).unwrap().peers = vec![nodes[0]];
        let kick = |sim: &mut Simulation, src: NodeId, dst: NodeId, hops: u8| {
            let payload = ledger.borrow_mut().book(src, dst, sim.now(), hops);
            sim.inject(src, dst, payload, SimDuration::ZERO);
        };
        kick(&mut sim, nodes[0], nodes[1], 20);
        kick(&mut sim, nodes[3], nodes[0], 5);
        sim.run_until(SimTime::from_micros(300_000));
        assert!(sim.events_pending(), "traffic is still under way");

        // A node joins mid-run: its pairs enter the table on first use.
        let late = sim.add_node(
            hop(vec![nodes[2], nodes[0]]),
            addr(&sim),
            city("Cairo").unwrap().pos,
        );
        sim.node_mut::<Hop>(nodes[1]).unwrap().peers.push(late);
        kick(&mut sim, nodes[2], late, 9);
        sim.run();

        let ledger = ledger.borrow();
        let mut twin = SmallRng::seed_from_u64(21);
        for (seq, &(src, dst, sent)) in ledger.sends.iter().enumerate() {
            let delay = LatencyModel {}.sample(&sim.position(src), &sim.position(dst), &mut twin);
            assert_eq!(
                ledger.arrivals[seq],
                Some(sent + delay),
                "send {seq}: {src:?} → {dst:?}"
            );
        }
        assert!(ledger.sends.iter().any(|&(s, d, _)| s == late || d == late));
        let used: std::collections::BTreeSet<(NodeId, NodeId)> =
            ledger.sends.iter().map(|&(s, d, _)| (s, d)).collect();
        let cached: std::collections::BTreeSet<(NodeId, NodeId)> =
            sim.base_delay.keys().copied().collect();
        assert_eq!(cached, used, "one entry per pair that carried a packet");
        assert!(cached.len() < sim.node_count() * (sim.node_count() - 1));
    }

    #[test]
    fn node_mut_downcast() {
        let mut sim = Simulation::new(0);
        let id = sim.add_node(Echo { seen: 41 }, addr(&sim), city("Miami").unwrap().pos);
        sim.node_mut::<Echo>(id).unwrap().seen += 1;
        assert_eq!(sim.node_mut::<Echo>(id).unwrap().seen, 42);
        // Wrong type downcast returns None.
        assert!(sim.node_mut::<Pinger>(id).is_none());
    }

    /// Records, per packet, the sender's address and the node at `ask`.
    struct Whois {
        ask: IpAddr,
        seen: Vec<(Option<IpAddr>, Option<NodeId>)>,
    }

    impl Node for Whois {
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
            self.seen
                .push((ctx.addr_of(pkt.src), ctx.node_of(self.ask)));
        }
    }

    #[test]
    fn a_handler_reads_back_the_addresses_nodes_were_added_at() {
        let mut sim = Simulation::new(2);
        let pos = city("Paris").unwrap().pos;
        let (a_addr, b_addr, nobody): (IpAddr, IpAddr, IpAddr) = (
            "192.0.2.7".parse().unwrap(),
            "2001:db8::53".parse().unwrap(),
            "198.51.100.1".parse().unwrap(),
        );
        let whois = |ask| Whois {
            ask,
            seen: Vec::new(),
        };
        let a = sim.add_node(whois(b_addr), a_addr, pos);
        let b = sim.add_node(whois(a_addr), b_addr, pos);
        let c = sim.add_node(whois(nobody), addr(&sim), pos);
        sim.inject(a, b, vec![1], SimDuration::ZERO);
        sim.inject(b, a, vec![2], SimDuration::ZERO);
        sim.inject(a, c, vec![3], SimDuration::ZERO);
        sim.run();
        assert_eq!(
            sim.node_mut::<Whois>(b).unwrap().seen,
            [(Some(a_addr), Some(a))]
        );
        assert_eq!(
            sim.node_mut::<Whois>(a).unwrap().seen,
            [(Some(b_addr), Some(b))]
        );
        assert_eq!(
            sim.node_mut::<Whois>(c).unwrap().seen,
            [(Some(a_addr), None)]
        );
    }

    #[test]
    #[should_panic(expected = "192.0.2.7 is already the address of NodeId(0)")]
    fn adding_a_node_at_a_taken_address_panics() {
        let mut sim = Simulation::new(2);
        let pos = city("Paris").unwrap().pos;
        let taken: IpAddr = "192.0.2.7".parse().unwrap();
        sim.add_node(Echo { seen: 0 }, taken, pos);
        sim.add_node(Echo { seen: 0 }, taken, pos);
    }

    /// Arms one timer `after` its start and records when each hook ran.
    struct Starter {
        after: SimDuration,
        started_at: Option<SimTime>,
        fired: Vec<(u64, SimTime)>,
    }

    impl Node for Starter {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.started_at = Some(ctx.now());
            ctx.set_timer(self.after, 7);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
            self.fired.push((token, ctx.now()));
        }
        fn on_packet(&mut self, _p: Packet, _c: &mut Ctx) {}
    }

    #[test]
    fn a_node_added_mid_run_starts_at_the_clock_of_its_addition() {
        let mut sim = Simulation::new(3);
        let pos = city("Paris").unwrap().pos;
        let starter = |after| Starter {
            after,
            started_at: None,
            fired: Vec::new(),
        };
        let first = sim.add_node(starter(SimDuration::from_secs(5)), addr(&sim), pos);
        sim.run();
        assert_eq!(sim.now(), SimTime::from_secs(5));
        let late = sim.add_node(starter(SimDuration::from_secs(2)), addr(&sim), pos);
        assert!(sim.events_pending(), "on_start armed its timer at once");
        sim.run();
        let late = sim.node_mut::<Starter>(late).unwrap();
        assert_eq!(late.started_at, Some(SimTime::from_secs(5)));
        assert_eq!(late.fired, [(7, SimTime::from_secs(7))]);
        let first = sim.node_mut::<Starter>(first).unwrap();
        assert_eq!(first.started_at, Some(SimTime::ZERO));
        assert_eq!(first.fired, [(7, SimTime::from_secs(5))], "started once");
    }
}
