#![warn(missing_docs)]

//! Workload generation: query streams and trace records shaped like the
//! paper's four datasets (§4).
//!
//! | paper dataset | generator | key shape parameters |
//! |---|---|---|
//! | CDN dataset (1 day, 83 ASes) | [`datasets::CdnDatasetGen`] | resolver behaviour-class counts from §6.1 ([`PROBING_TABLE`]) |
//! | Scan dataset (2.743M open forwarders, 1534 ECS egresses) | [`datasets::ScanDatasetGen`] | prefix-policy mix from Table 1 ([`PREFIX_TABLE`]) |
//! | Public Resolver/CDN (3 h, 2370 egresses, 20 s TTL) | [`datasets::PublicCdnTraceGen`] | per-resolver client fan-in, Zipf names |
//! | All-Names (24 h, 1 resolver, 76.2K clients, 12.3K /24s) | [`datasets::AllNamesTraceGen`] | client subnets, SLD mix, TTL mix |
//!
//! Volumes are scaled down by a configurable factor (defaults target
//! laptop-second runtimes); the *distributions* — Zipf name popularity,
//! client subnet spread, TTL mix, scope mix — are what the analyses
//! depend on, and those are preserved.
//!
//! A materialised trace can be exported for outside tools with
//! [`write_trace`] (one TSV format, `ecs-study export-traces`); nothing in
//! the workspace reads it back.
//!
//! ```
//! use workload::{CdnDatasetGen, DOMINANT_AS_RESOLVERS, PROBING_TABLE};
//!
//! // The CDN dataset's resolver population at the paper's exact counts.
//! let population = CdnDatasetGen::full().generate();
//! assert_eq!(population.len(), PROBING_TABLE.iter().map(|&(_, n, _)| n).sum());
//! assert_eq!(population.iter().filter(|r| r.dominant_as).count(), DOMINANT_AS_RESOLVERS);
//! ```

pub mod datasets;
pub mod intern;
pub mod io;
pub mod names;
pub mod stream;
pub mod trace;
pub mod zipf;

pub use datasets::{
    AllNamesTraceGen, CdnDatasetGen, ComplianceClass, PrefixClass, ProbingClass, PublicCdnTraceGen,
    ResolverSpec, ScanDatasetGen, COMPLIANCE_TABLE, DOMINANT_AS_RESOLVERS, PREFIX_TABLE,
    PROBING_TABLE,
};
pub use intern::{Interner, TraceIndex};
pub use io::write_trace;
pub use names::NameUniverse;
pub use stream::{
    AllNamesStreamGen, CdnStreamGen, NameTable, StreamRecord, SubnetSpace, TraceStream,
    TraceStreamSource, WorkloadModel, DEFAULT_CHUNK,
};
pub use trace::{TraceRecord, TraceSet};
pub use zipf::Zipf;
