//! The bounds of [`SocketHost`], the one wall-clock loop, each hit by a
//! toy node: the wall budget holds whatever the node arms, each timer
//! fires once, never early and in due order, and only a registered peer's
//! datagram reaches the node.
//!
//! Each test prints a visible `SKIP` line when the sandbox offers no
//! loopback sockets, and fails outright under `ECS_REQUIRE_LOOPBACK`.

use std::net::{IpAddr, Ipv4Addr, UdpSocket};
use std::time::{Duration, Instant};

use netsim::{Ctx, Node, NodeId, Packet, SimDuration, SimTime, SocketHost};

/// Re-arms a zero-delay timer from every firing: the timer heap is never
/// empty and always due. It stops on its own after `gives_up`, so a host
/// that ignores its budget fails the test instead of hanging it.
struct Rearm {
    gives_up: Instant,
    fired: u64,
}

impl Node for Rearm {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        self.fired += 1;
        if Instant::now() < self.gives_up {
            ctx.set_timer(SimDuration::ZERO, token);
        }
    }
}

#[test]
fn a_zero_delay_rearm_cannot_outlast_the_wall_budget() {
    if !dnsd::testutil::require_loopback("a_zero_delay_rearm_cannot_outlast_the_wall_budget") {
        return;
    }
    let mut host = SocketHost::bind("127.0.0.1:0").unwrap();
    let budget = Duration::from_millis(100);
    let slack = Duration::from_millis(400);
    let started = Instant::now();
    let mut node = Rearm {
        gives_up: started + Duration::from_secs(5),
        fired: 0,
    };
    assert!(!host.run(&mut node, budget, |_| false), "never done");
    let took = started.elapsed();
    assert!(took < budget + slack, "{took:?} past a {budget:?} budget");
    assert!(node.fired > 0, "the timer fired");
}

/// Arms one timer per delay at start and records each firing.
struct Alarms {
    delays_ms: Vec<u64>,
    started: SimTime,
    fired: Vec<(u64, SimTime)>,
}

impl Node for Alarms {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.started = ctx.now();
        for (token, &ms) in self.delays_ms.iter().enumerate() {
            ctx.set_timer(SimDuration::from_millis(ms), token as u64);
        }
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        self.fired.push((token, ctx.now()));
    }
}

#[test]
fn each_timer_fires_once_never_early_and_in_due_order() {
    if !dnsd::testutil::require_loopback("each_timer_fires_once_never_early_and_in_due_order") {
        return;
    }
    let mut host = SocketHost::bind("127.0.0.1:0").unwrap();
    let mut node = Alarms {
        delays_ms: vec![60, 20, 40, 0, 30],
        started: SimTime::ZERO,
        fired: Vec::new(),
    };
    let all = |n: &Alarms| n.fired.len() >= n.delays_ms.len();
    assert!(host.run(&mut node, Duration::from_secs(5), all));
    let order: Vec<u64> = node.fired.iter().map(|&(token, _)| token).collect();
    assert_eq!(order, [3, 1, 4, 2, 0], "due order");
    for &(token, at) in &node.fired {
        let due = node.started + SimDuration::from_millis(node.delays_ms[token as usize]);
        assert!(at >= due, "timer {token} fired at {at:?}, due {due:?}");
    }
    // A second run starts the node again, which arms five more: past the
    // last due time, ten armed timers have fired ten times.
    assert!(!host.run(&mut node, Duration::from_millis(150), |_| false));
    assert_eq!(node.fired.len(), 10, "{:?}", node.fired);
}

/// Records each datagram with what the book says of its sender.
#[derive(Default)]
struct Inbox {
    got: Vec<(NodeId, Vec<u8>, Option<IpAddr>)>,
    shared: Option<NodeId>,
}

impl Node for Inbox {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let addr = ctx.addr_of(pkt.src);
        self.shared = ctx.node_of(IpAddr::V4(Ipv4Addr::LOCALHOST));
        self.got.push((pkt.src, pkt.payload, addr));
    }
}

#[test]
fn only_a_registered_peer_s_datagram_reaches_the_node() {
    if !dnsd::testutil::require_loopback("only_a_registered_peer_s_datagram_reaches_the_node") {
        return;
    }
    let mut host = SocketHost::bind("127.0.0.1:0").unwrap();
    let (peer, stranger) = (
        UdpSocket::bind("127.0.0.1:0").unwrap(),
        UdpSocket::bind("127.0.0.1:0").unwrap(),
    );
    let id = host.node_for(peer.local_addr().unwrap());
    assert_eq!(id, NodeId(1), "entry 0 is the host's own socket");
    assert_eq!(
        host.node_for(peer.local_addr().unwrap()),
        id,
        "one entry per peer"
    );
    let to = host.local_addr();
    for (socket, payload) in [
        (&stranger, b"stray"),
        (&peer, b"first"),
        (&stranger, b"stray"),
        (&peer, b"again"),
    ] {
        socket.send_to(payload, to).unwrap();
    }
    let mut node = Inbox::default();
    assert!(host.run(&mut node, Duration::from_secs(5), |n| n.got.len() == 2));
    let localhost = Some(IpAddr::V4(Ipv4Addr::LOCALHOST));
    assert_eq!(
        node.got,
        [
            (id, b"first".to_vec(), localhost),
            (id, b"again".to_vec(), localhost),
        ]
    );
    assert_eq!(node.shared, None, "127.0.0.1 is every peer's address");
}
