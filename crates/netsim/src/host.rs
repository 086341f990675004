//! The one wall-clock loop: any [`Node`], stepped over a real socket.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{Action, AddressBook, Ctx, Node, NodeId, Packet, SimTime};

/// The hosted node's own id: entry 0 of the peer table is its socket.
const SELF: NodeId = NodeId(0);

/// One bound `UdpSocket` and the loop that steps a node over it. A
/// handler does no I/O, so the host holds only what
/// [`Simulation`](crate::Simulation) otherwise provides: the socket, the
/// peer table, the epoch and the timer heap.
///
/// A peer is a socket address registered with [`SocketHost::node_for`],
/// the only way the table grows. The node's book answers `addr_of` with
/// each registered id's IP. Several peers can share an IP (on loopback
/// all do), so `node_of` answers `None` for an IP that two or more
/// entries hold, the host's own included. Timers are never cancelled.
pub struct SocketHost {
    socket: UdpSocket,
    /// `NodeId(i)` is `peers[i]`.
    peers: Vec<SocketAddr>,
    ids: HashMap<SocketAddr, NodeId>,
    book: AddressBook,
    /// The wall-clock instant that is `SimTime::ZERO` to the node.
    epoch: Instant,
    /// (due, token), earliest first.
    timers: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Seeded 0: a wall-clock run is not reproducible, so no seed knob.
    rng: SmallRng,
}

impl SocketHost {
    /// Binds the host's socket at `addr`.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        let own = socket.local_addr()?;
        let mut book = AddressBook::new();
        book.bind(own.ip(), SELF);
        Ok(SocketHost {
            socket,
            peers: vec![own],
            ids: HashMap::from([(own, SELF)]),
            book,
            epoch: Instant::now(),
            timers: BinaryHeap::new(),
            rng: SmallRng::seed_from_u64(0),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.peers[SELF.0]
    }

    /// The [`NodeId`] the node knows `addr` by, registering it on first
    /// sight. Datagrams from unregistered addresses are dropped.
    pub fn node_for(&mut self, addr: SocketAddr) -> NodeId {
        *self.ids.entry(addr).or_insert_with(|| {
            let id = NodeId(self.peers.len());
            self.peers.push(addr);
            self.book.bind(addr.ip(), id);
            id
        })
    }

    /// The node's clock now.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Runs one handler and applies what it buffered.
    fn step<N: Node>(&mut self, node: &mut N, f: impl FnOnce(&mut N, &mut Ctx)) {
        let now = self.now();
        let mut actions = Vec::new();
        f(
            node,
            &mut Ctx::new(now, SELF, &self.book, &mut actions, &mut self.rng),
        );
        for action in actions {
            match action {
                // A failed send is a lost datagram.
                Action::Send { to, payload } => {
                    if let Some(addr) = self.peers.get(to.0) {
                        let _ = self.socket.send_to(&payload, addr);
                    }
                }
                Action::Timer { after, token } => self.timers.push(Reverse((now + after, token))),
            }
        }
    }

    /// Starts `node` and steps it until `done(node)` holds (true) or
    /// `wall_budget` lapses (false), whatever timers the node arms: the
    /// deadline is read before each timer fires.
    pub fn run<N: Node>(
        &mut self,
        node: &mut N,
        wall_budget: Duration,
        mut done: impl FnMut(&N) -> bool,
    ) -> bool {
        let deadline = Instant::now() + wall_budget;
        self.step(node, |n, ctx| n.on_start(ctx));
        let mut buf = vec![0u8; u16::MAX as usize];
        loop {
            while let Some(&Reverse((due, token))) = self.timers.peek() {
                if due > self.now() || Instant::now() >= deadline {
                    break;
                }
                self.timers.pop();
                self.step(node, |n, ctx| n.on_timer(token, ctx));
            }
            if done(node) {
                return true;
            }
            let wall = Instant::now();
            if wall >= deadline {
                return false;
            }
            let wake = self.timers.peek().map_or(deadline, |Reverse((due, _))| {
                deadline.min(self.epoch + Duration::from_micros(due.as_micros()))
            });
            let wait = wake.saturating_duration_since(wall);
            // A zero read timeout is an error: wait at least 1 µs.
            self.socket
                .set_read_timeout(Some(wait.max(Duration::from_micros(1))))
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
    }
}
