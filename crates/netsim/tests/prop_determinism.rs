//! Property tests: the simulator is deterministic and its event ordering
//! is a total order.

use netsim::{Ctx, EventQueue, GeoPoint, Node, Packet, SimDuration, SimTime, Simulation};
use proptest::prelude::*;

/// A node that bounces packets a fixed number of times and counts events.
struct Bouncer {
    bounces_left: u32,
    received: u64,
    trace: Vec<u64>,
}

impl Node for Bouncer {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        self.received += 1;
        self.trace.push(ctx.now().as_micros());
        if self.bounces_left > 0 {
            self.bounces_left -= 1;
            ctx.send(pkt.src, pkt.payload);
        }
    }
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
        self.trace.push(ctx.now().as_micros());
    }
}

fn run_world(seed: u64, positions: &[(f64, f64)], bounces: u32) -> (u64, u64, Vec<u64>) {
    let mut sim = Simulation::new(seed);
    let nodes: Vec<_> = positions
        .iter()
        .map(|(lat, lon)| {
            sim.add_node(
                Bouncer {
                    bounces_left: bounces,
                    received: 0,
                    trace: Vec::new(),
                },
                std::net::IpAddr::from([10, 0, 0, sim.node_count() as u8 + 1]),
                GeoPoint::new(*lat, *lon),
            )
        })
        .collect();
    // Everyone pings the next node.
    for (i, &n) in nodes.iter().enumerate() {
        let peer = nodes[(i + 1) % nodes.len()];
        sim.inject(n, peer, vec![i as u8], SimDuration::from_millis(i as u64));
    }
    sim.run();
    let mut trace = Vec::new();
    for &n in &nodes {
        let b = sim.node_mut::<Bouncer>(n).unwrap();
        trace.extend(b.trace.iter().copied());
    }
    (sim.delivered(), sim.now().as_micros(), trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn same_seed_same_world_is_bit_identical(
        seed in any::<u64>(),
        positions in proptest::collection::vec((-80.0f64..80.0, -179.0f64..179.0), 2..8),
        bounces in 0u32..6,
    ) {
        let a = run_world(seed, &positions, bounces);
        let b = run_world(seed, &positions, bounces);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn all_injected_packets_are_delivered_without_loss(
        seed in any::<u64>(),
        positions in proptest::collection::vec((-80.0f64..80.0, -179.0f64..179.0), 2..8),
    ) {
        let n = positions.len() as u64;
        let (delivered, _, _) = run_world(seed, &positions, 0);
        prop_assert_eq!(delivered, n);
    }

    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(
                SimTime::from_micros(*t),
                netsim::event::EventKind::Timer {
                    node: netsim::NodeId(0),
                    token: i as u64,
                },
            );
        }
        let mut last_time = 0u64;
        let mut last_seq_at_time = 0u64;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.at.as_micros() >= last_time);
            if ev.at.as_micros() == last_time {
                prop_assert!(ev.seq > last_seq_at_time || last_time == 0);
            }
            last_time = ev.at.as_micros();
            last_seq_at_time = ev.seq;
        }
    }

    #[test]
    fn latency_is_symmetric_and_positive(
        lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
        lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0,
    ) {
        let m = netsim::LatencyModel::default();
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let ab = m.rtt_ms(&a, &b);
        let ba = m.rtt_ms(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(ab >= m.rtt_ms(&a, &a));
    }
}
