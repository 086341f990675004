#![warn(missing_docs)]

//! Deterministic discrete-event network simulator.
//!
//! The ECS study needs a network in which DNS actors (clients, forwarders,
//! hidden resolvers, egress resolvers, authoritative nameservers) exchange
//! packets with realistic, geography-derived latencies, fully reproducibly.
//! This crate provides that substrate:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with microsecond
//!   resolution;
//! * [`GeoPoint`] — positions on the globe with haversine distances;
//! * [`LatencyModel`] — distance → one-way delay, with deterministic jitter;
//! * [`FaultPlan`] — deterministic fault injection (loss, blackholes, DNS
//!   reply truncation and REFUSED rewriting) on the send path;
//! * [`TransportModel`] — a link's DNS transport model
//!   (UDP/TCP/DoT): handshake RTT accounting with connection reuse and
//!   TLS resumption, plus EDNS-buffer/path-MTU datagram fate;
//! * [`Simulation`] — the event loop: a node is added at its IP address
//!   ([`AddressBook`]) and started ([`Node::on_start`]), then receives
//!   packets and timers and emits actions through a [`Ctx`], which also
//!   answers which node sits at which address;
//! * [`SocketHost`] — the one wall-clock loop: a handler only buffers
//!   [`Action`]s and reads its book, so any [`Node`] also runs over a
//!   real socket.
//!
//! Determinism: events are ordered by `(time, sequence)` where the sequence
//! number is assigned at scheduling time, and all randomness flows from a
//! single seeded RNG. Two runs with the same seed produce byte-identical
//! traces. (This is also why wall-clock time appears only in `SocketHost`.)
//!
//! ```
//! use netsim::{Simulation, Node, Ctx, Packet, GeoPoint, SimDuration};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
//!         ctx.send(pkt.src, pkt.payload); // bounce it back
//!     }
//! }
//!
//! struct Counter(u32);
//! impl Node for Counter {
//!     fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) { self.0 += 1; }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let echo = sim.add_node(Echo, "192.0.2.1".parse().unwrap(), GeoPoint::new(52.37, 4.90)); // Amsterdam
//! let counter = sim.add_node(Counter(0), "192.0.2.2".parse().unwrap(), GeoPoint::new(40.4, -74.0)); // NYC
//! sim.inject(counter, echo, vec![1, 2, 3], SimDuration::ZERO);
//! sim.run();
//! assert!(sim.now().as_micros() > 0);
//! ```

pub mod addrbook;
pub mod event;
pub mod fault;
pub mod geo;
pub mod host;
pub mod latency;
pub mod sim;
pub mod time;
pub mod transport;

pub use addrbook::AddressBook;
pub use event::{EventQueue, ScheduledEvent};
pub use fault::{FaultPlan, FaultStats, LinkFaults, PacketFate};
pub use geo::{GeoPoint, EARTH_RADIUS_KM};
pub use host::SocketHost;
pub use latency::LatencyModel;
pub use sim::{Action, Ctx, Node, NodeId, Packet, Simulation};
pub use time::{SimDuration, SimTime};
pub use transport::{DatagramFate, PathProfile, Transport, TransportModel, TransportStats};
