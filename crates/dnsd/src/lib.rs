#![warn(missing_docs)]

//! UDP front-end for the study's DNS machinery.
//!
//! Everything else in this workspace runs inside the deterministic
//! simulator; this crate puts the same [`authoritative::AuthServer`] behind
//! a real `std::net::UdpSocket` (answering through `AuthServer::reply`, as
//! the simulated node does), and ships a `dig`-style client that attaches
//! ECS options. The same worker pool, which reads each datagram in place
//! and sends the bytes its handler writes, serves the recursive side:
//! [`UdpResolverServer`] runs one [`resolver::Resolver`] engine per worker
//! over a shared ECS cache and flight table, through [`SocketUpstream`].
//!
//! Binaries:
//!
//! * `ecs-dnsd` — serve a demo CDN zone (world-spread edges, ECS open,
//!   proximity mapping) on a UDP port;
//! * `ecs-dig` — query any DNS server with an optional ECS option and
//!   print the answer, including the returned scope.
//!
//! ```no_run
//! use dnsd::{UdpAuthServer, DigClient};
//! use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
//! use dns_wire::Name;
//!
//! let zone = Zone::new(Name::from_ascii("example.com").unwrap());
//! let auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
//! let server = UdpAuthServer::bind("127.0.0.1:0", auth).unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.spawn();
//! // ... query `addr` with DigClient ...
//! handle.shutdown();
//! ```

pub mod batch;
pub mod client;
pub mod metrics_http;
mod pool;
pub mod resolver_server;
pub mod server;
pub mod tcp;
pub mod testutil;
pub mod upstream;

pub use batch::{RecvBatch, SendBatch, DEFAULT_BATCH, MAX_DATAGRAM};
pub use client::{DigClient, DigError};
pub use metrics_http::{spawn_metrics_endpoint, MetricsHandle};
pub use resolver_server::{ResolverServerHandle, UdpResolverServer};
pub use server::{ServerFaults, ServerHandle, UdpAuthServer};
pub use tcp::{bind_same_port, tcp_exchange, TcpAuthServer, TcpServerHandle};
pub use upstream::SocketUpstream;
