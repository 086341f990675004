//! The simulation core: nodes, packets, timers, and the event loop.

use rand::rngs::SmallRng;
use rand::SeedableRng;

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
    actions: &'a mut Vec<Action>,
    rng: &'a mut SmallRng,
}

/// What a handler asked of the world through its [`Ctx`]. The loop that
/// stepped the handler applies these after it returns: [`Simulation`]
/// under virtual time, or a driver of its own over a real socket.
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
    /// [`Simulation`]: the handler's actions land in `actions` for the
    /// caller to apply, its randomness comes from `rng`.
    pub fn new(
        now: SimTime,
        self_id: NodeId,
        actions: &'a mut Vec<Action>,
        rng: &'a mut SmallRng,
    ) -> Self {
        Ctx {
            now,
            self_id,
            actions,
            rng,
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

    /// Sends `payload` to `to`; it arrives after the network latency between
    /// the two nodes (or never, if the loss model drops it).
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
}

/// Behaviour of a simulated network node.
///
/// The `Any` supertrait lets experiments recover the concrete node type
/// after the run via [`Simulation::node_mut`].
pub trait Node: std::any::Any {
    /// Called when a packet arrives.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx);

    /// Called when a timer armed via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}
}

/// The one `netsim_*` series that has to be recorded as it happens,
/// created on demand by [`Simulation::enable_metrics`]; the seven counters
/// of a snapshot are read off `delivered`, `dropped` and [`FaultStats`]
/// when it is asked for. Recording never touches the RNG or the event
/// queue, so an instrumented run stays bit-identical to a bare one;
/// keeping the struct optional makes the default path allocation-free too.
struct SimMetrics {
    registry: obs::MetricsRegistry,
    delivery_latency: obs::Histogram,
}

/// The simulation world: node table, positions, clock, queue, RNG.
pub struct Simulation {
    nodes: Vec<Option<Box<dyn Node>>>,
    positions: Vec<GeoPoint>,
    queue: EventQueue,
    clock: SimTime,
    rng: SmallRng,
    latency: LatencyModel,
    faults: FaultPlan,
    fault_stats: FaultStats,
    delivered: u64,
    dropped: u64,
    metrics: Option<SimMetrics>,
}

impl Simulation {
    /// Creates a simulation seeded with `seed` and the default latency model.
    pub fn new(seed: u64) -> Self {
        Simulation::with_latency(seed, LatencyModel::default())
    }

    /// Creates a simulation with a custom latency model.
    pub fn with_latency(seed: u64, latency: LatencyModel) -> Self {
        Simulation::with_faults(seed, latency, FaultPlan::none())
    }

    /// Creates a simulation with a custom latency model and a fault plan
    /// applied on the send path. With [`FaultPlan::none`] the run is
    /// bit-identical to one built via [`Simulation::with_latency`].
    pub fn with_faults(seed: u64, latency: LatencyModel, faults: FaultPlan) -> Self {
        Simulation {
            nodes: Vec::new(),
            positions: Vec::new(),
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            latency,
            faults,
            fault_stats: FaultStats::default(),
            delivered: 0,
            dropped: 0,
            metrics: None,
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
            ("netsim_dropped_total", self.dropped),
            ("netsim_fault_loss_total", f.dropped_loss),
            ("netsim_fault_blackhole_total", f.dropped_blackhole),
            ("netsim_fault_truncated_total", f.truncated),
            ("netsim_fault_rcode_total", f.rcode_injected),
            ("netsim_fault_delayed_total", f.delayed),
        ] {
            snap.series
                .insert(name.into(), obs::MetricValue::Counter(value));
        }
        Some(snap)
    }

    /// Replaces the fault plan mid-run (e.g. to heal or degrade links).
    pub fn set_fault_plan(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Counters of the faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Adds a node at a position; returns its id.
    pub fn add_node<N: Node + 'static>(&mut self, node: N, pos: GeoPoint) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(Box::new(node)));
        self.positions.push(pos);
        id
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> GeoPoint {
        self.positions[id.0]
    }

    /// Jitter-free RTT between two nodes in milliseconds (what a ping would
    /// measure, net of jitter).
    pub fn rtt_ms(&self, a: NodeId, b: NodeId) -> f64 {
        self.latency
            .rtt_ms(&self.positions[a.0], &self.positions[b.0])
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets dropped by the loss model so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Injects a packet from `src` to `dst` at `now + after` plus network
    /// latency. This is how experiments bootstrap traffic. The fault plan
    /// is consulted first: it may drop, delay, or mangle the payload.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, mut payload: Vec<u8>, after: SimDuration) {
        let verdict =
            self.faults
                .apply(src, dst, &mut payload, &mut self.rng, &mut self.fault_stats);
        let Some(extra) = verdict else {
            self.dropped += 1;
            return;
        };
        let depart = self.clock + after;
        match self.latency.sample(
            &self.positions[src.0],
            &self.positions[dst.0],
            &mut self.rng,
        ) {
            Some(delay) => {
                if let Some(m) = &self.metrics {
                    m.delivery_latency.record((delay + extra).as_micros());
                }
                self.queue.push(
                    depart + delay + extra,
                    EventKind::Deliver { src, dst, payload },
                )
            }
            None => self.dropped += 1,
        }
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
                    self.dispatch(dst, |node, ctx| {
                        node.on_packet(Packet { src, dst, payload }, ctx)
                    });
                }
                EventKind::Timer { node, token } => {
                    self.dispatch(node, |n, ctx| n.on_timer(token, ctx));
                }
            }
        }
        processed
    }

    fn dispatch<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut Ctx),
    {
        // Take the node out so the handler can't alias the table.
        let mut node = match self.nodes[id.0].take() {
            Some(n) => n,
            None => return, // node is re-entrantly dispatching; drop event
        };
        let mut actions = Vec::new();
        {
            let mut ctx = Ctx::new(self.clock, id, &mut actions, &mut self.rng);
            f(node.as_mut(), &mut ctx);
        }
        self.nodes[id.0] = Some(node);
        for action in actions {
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
    use crate::geo::city;

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
        let echo = sim.add_node(Echo { seen: 0 }, city("Amsterdam").unwrap().pos);
        let ping = sim.add_node(
            Pinger {
                replies: 0,
                last_rtt_ms: 0.0,
                sent_at: SimTime::ZERO,
                peer: Some(echo),
            },
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
            let echo = sim.add_node(Echo { seen: 0 }, city("Tokyo").unwrap().pos);
            let ping = sim.add_node(
                Pinger {
                    replies: 0,
                    last_rtt_ms: 0.0,
                    sent_at: SimTime::ZERO,
                    peer: Some(echo),
                },
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
        let n = sim.add_node(Loop, city("Paris").unwrap().pos);
        sim.inject_timer(n, SimDuration::from_secs(1), 0);
        let processed = sim.run_until(SimTime::from_secs(10));
        assert_eq!(processed, 10);
        assert!(sim.now() <= SimTime::from_secs(10));
    }

    #[test]
    fn loss_model_drops() {
        let mut sim = Simulation::with_latency(
            9,
            LatencyModel {
                loss: 1.0,
                ..LatencyModel::default()
            },
        );
        let a = sim.add_node(Echo { seen: 0 }, city("Paris").unwrap().pos);
        let b = sim.add_node(Echo { seen: 0 }, city("London").unwrap().pos);
        sim.inject(a, b, vec![1], SimDuration::ZERO);
        sim.run();
        assert_eq!(sim.delivered(), 0);
        assert_eq!(sim.dropped(), 1);
    }

    #[test]
    fn fault_plan_blackhole_drops_on_send_path() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut sim = Simulation::with_faults(
            4,
            LatencyModel::default(),
            FaultPlan::uniform(LinkFaults {
                blackhole: true,
                ..LinkFaults::NONE
            }),
        );
        let a = sim.add_node(Echo { seen: 0 }, city("Paris").unwrap().pos);
        let b = sim.add_node(Echo { seen: 0 }, city("London").unwrap().pos);
        sim.inject(a, b, vec![1], SimDuration::ZERO);
        sim.run();
        assert_eq!(sim.delivered(), 0);
        assert_eq!(sim.dropped(), 1);
        assert_eq!(sim.fault_stats().dropped_blackhole, 1);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_plan() {
        use crate::fault::FaultPlan;
        let run = |faulted: bool| {
            let mut sim = if faulted {
                Simulation::with_faults(5, LatencyModel::default(), FaultPlan::none())
            } else {
                Simulation::new(5)
            };
            let echo = sim.add_node(Echo { seen: 0 }, city("Tokyo").unwrap().pos);
            let ping = sim.add_node(
                Pinger {
                    replies: 0,
                    last_rtt_ms: 0.0,
                    sent_at: SimTime::ZERO,
                    peer: Some(echo),
                },
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
            let echo = sim.add_node(Echo { seen: 0 }, city("Tokyo").unwrap().pos);
            let ping = sim.add_node(
                Pinger {
                    replies: 0,
                    last_rtt_ms: 0.0,
                    sent_at: SimTime::ZERO,
                    peer: Some(echo),
                },
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
    fn metrics_count_fault_injections() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut sim = Simulation::with_faults(
            4,
            LatencyModel::default(),
            FaultPlan::uniform(LinkFaults {
                blackhole: true,
                ..LinkFaults::NONE
            }),
        );
        sim.enable_metrics();
        let a = sim.add_node(Echo { seen: 0 }, city("Paris").unwrap().pos);
        let b = sim.add_node(Echo { seen: 0 }, city("London").unwrap().pos);
        sim.inject(a, b, vec![1], SimDuration::ZERO);
        sim.run();
        let snap = sim.metrics_snapshot().unwrap();
        assert_eq!(snap.counter("netsim_fault_blackhole_total"), Some(1));
        assert_eq!(snap.counter("netsim_dropped_total"), Some(1));
        assert_eq!(snap.counter("netsim_delivered_total"), Some(0));
    }

    #[test]
    fn node_mut_downcast() {
        let mut sim = Simulation::new(0);
        let id = sim.add_node(Echo { seen: 41 }, city("Miami").unwrap().pos);
        sim.node_mut::<Echo>(id).unwrap().seen += 1;
        assert_eq!(sim.node_mut::<Echo>(id).unwrap().seen, 42);
        // Wrong type downcast returns None.
        assert!(sim.node_mut::<Pinger>(id).is_none());
    }
}
