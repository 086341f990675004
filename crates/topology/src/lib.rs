#![warn(missing_docs)]

//! Synthetic Internet topology for the ECS study.
//!
//! The paper's datasets come from real infrastructure: a major CDN's
//! authoritative servers, millions of open forwarders, public resolver
//! services, and hidden resolvers in between. This crate generates a
//! structurally faithful synthetic equivalent:
//!
//! * [`addr::AddrAllocator`] hands out non-overlapping IPv4 `/24` (and IPv6
//!   `/48`) blocks and individual addresses, so every simulated entity has a
//!   realistic, unique address;
//! * [`asn`] models autonomous systems with geographic homes (including the
//!   paper's "dominant AS" — a Chinese operator contributing most of the
//!   CDN dataset's ECS resolvers, `workload`'s `DOMINANT_AS_RESOLVERS`);
//! * [`entities`] describes clients, open forwarders, hidden resolvers,
//!   egress resolvers, public anycast resolution services, CDN footprints,
//!   and authoritative deployments;
//! * [`world`] assembles whole-world specifications from a seeded config so
//!   experiments are reproducible.
//!
//! Everything here is *description*, not behaviour: the `resolver` and
//! `authoritative` crates turn these specs into live simulation nodes.
//!
//! ```
//! use topology::{World, WorldConfig};
//!
//! let world = World::generate(&WorldConfig::default());
//! assert!(!world.forwarders.is_empty());
//! // Every forwarder's chain ends at a real egress resolver.
//! for f in &world.forwarders {
//!     let chain = &world.chains[f.chain];
//!     assert!(chain.egress < world.egress_resolvers.len());
//! }
//! ```

pub mod addr;
pub mod asn;
pub mod entities;
pub mod world;

pub use addr::AddrAllocator;
pub use asn::{AsId, AutonomousSystem};
pub use entities::{
    CdnFootprint, ChainSpec, ClientSpec, EdgeServerSpec, EgressResolverSpec, ForwarderSpec,
    HiddenResolverSpec, PublicServiceSpec,
};
pub use world::{World, WorldConfig};
