//! The live driver of [`ScannerNode`]: the node the simulator steps,
//! stepped instead by a wall-clock loop over one real `UdpSocket` — the
//! adversarial-concurrency soak rig for a running multi-worker `dnsd`.
//!
//! A `netsim::Node` handler does no I/O: its [`Ctx`] only buffers
//! [`Action`]s. So the whole probe lifecycle (window, rate limit,
//! breakers, retry budget, accounting, `scanner_*` telemetry) stays in
//! [`crate::pipeline`], and this module holds only what the simulator
//! otherwise provides: the socket, the `NodeId ↔ SocketAddr` table, the
//! wall-clock → [`SimTime`] epoch and the timer heap. Timers are never
//! cancelled; a token armed for a probe that has since left dies on the
//! slot generation, exactly as under the simulator.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use netsim::{Action, Ctx, Node, NodeId, Packet, SimTime};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::pipeline::{ScanStats, ScannerNode, PUMP};

/// The scanner's own id: entry 0 of the address table is its socket.
const SELF: NodeId = NodeId(0);

/// One loopback socket and the event loop that steps a [`ScannerNode`]
/// over it.
pub struct LiveScanner {
    socket: UdpSocket,
    /// `NodeId(i)` is `addrs[i]`.
    addrs: Vec<SocketAddr>,
    ids: HashMap<SocketAddr, NodeId>,
    /// Wall-clock instant that is `SimTime::ZERO` to the node.
    epoch: Instant,
    /// (due, token), earliest first.
    timers: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Retry jitter only; a live run is not reproducible, so no seed knob.
    rng: SmallRng,
}

impl LiveScanner {
    /// Binds an ephemeral loopback socket.
    pub fn bind() -> io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        let own = socket.local_addr()?;
        Ok(LiveScanner {
            socket,
            addrs: vec![own],
            ids: HashMap::from([(own, SELF)]),
            epoch: Instant::now(),
            timers: BinaryHeap::new(),
            rng: SmallRng::seed_from_u64(0),
        })
    }

    /// The [`NodeId`] probes aimed at `addr` must carry (registering it on
    /// first sight). Datagrams from unregistered addresses are dropped.
    pub fn node_for(&mut self, addr: SocketAddr) -> NodeId {
        *self.ids.entry(addr).or_insert_with(|| {
            self.addrs.push(addr);
            NodeId(self.addrs.len() - 1)
        })
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Runs one handler and applies what it buffered.
    fn step(&mut self, node: &mut ScannerNode, f: impl FnOnce(&mut ScannerNode, &mut Ctx)) {
        let now = self.now();
        let mut actions = Vec::new();
        f(node, &mut Ctx::new(now, SELF, &mut actions, &mut self.rng));
        for action in actions {
            match action {
                // A failed send is a lost datagram: the attempt's timeout
                // accounts for it.
                Action::Send { to, payload } => {
                    if let Some(addr) = self.addrs.get(to.0) {
                        let _ = self.socket.send_to(&payload, addr);
                    }
                }
                Action::Timer { after, token } => self.timers.push(Reverse((now + after, token))),
            }
        }
    }

    fn pop_due(&mut self) -> Option<u64> {
        let Reverse((due, token)) = *self.timers.peek()?;
        (due <= self.now()).then(|| {
            self.timers.pop();
            token
        })
    }

    /// Pumps `node` and steps it until its feed drains or `wall_budget`
    /// elapses; on the deadline every probe still holding a slot leaves
    /// through [`ScannerNode::abort_in_flight`] and the feed is not
    /// pulled again. Returns the node's (cumulative) stats, which
    /// reconcile on return.
    pub fn run(&mut self, node: &mut ScannerNode, wall_budget: Duration) -> ScanStats {
        let deadline = Instant::now() + wall_budget;
        self.timers.push(Reverse((self.now(), PUMP)));
        let mut buf = [0u8; 4096];
        loop {
            while let Some(token) = self.pop_due() {
                self.step(node, |n, ctx| n.on_timer(token, ctx));
            }
            if node.is_done() {
                break;
            }
            let wall = Instant::now();
            if wall >= deadline {
                node.abort_in_flight(self.now());
                break;
            }
            let wake = self.timers.peek().map_or(deadline, |Reverse((due, _))| {
                deadline.min(self.epoch + Duration::from_micros(due.as_micros()))
            });
            let wait = wake.saturating_duration_since(wall);
            if wait.is_zero() {
                continue;
            }
            self.socket
                .set_read_timeout(Some(wait))
                .expect("a nonzero timeout on an open socket");
            // Timed out, interrupted or failed: the timers and the
            // deadline decide what happens next.
            let Ok((n, from)) = self.socket.recv_from(&mut buf) else {
                continue;
            };
            if let Some(&src) = self.ids.get(&from) {
                let pkt = Packet {
                    src,
                    dst: SELF,
                    payload: buf[..n].to_vec(),
                };
                self.step(node, |n, ctx| n.on_packet(pkt, ctx));
            }
        }
        debug_assert!(node.stats().reconciles(), "{:?}", node.stats());
        node.stats()
    }
}
