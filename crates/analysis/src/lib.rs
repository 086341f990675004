#![warn(missing_docs)]

//! The paper's analyses, re-implemented over simulated data.
//!
//! Each module corresponds to a section of the paper:
//!
//! * [`probing`] — §6.1: classify resolvers' ECS probing strategies from an
//!   authoritative query log;
//! * [`prefix_lengths`] — §6.2 / Table 1: tabulate ECS source prefix
//!   lengths and detect "jammed" last bytes;
//! * [`cache_compliance`] — §6.3: classify scope handling from paired-probe
//!   observations;
//! * [`cache_sim`] — §7: trace-driven cache simulation with and without
//!   ECS — cache blow-up factor (Figures 1–2) and hit rate (Figure 3);
//! * [`hidden`] — §8.2: forwarder–hidden vs forwarder–recursive distance
//!   analysis (Figures 4–5);
//! * [`mapping`] — §8.1/§8.3: user-to-edge mapping quality (Table 2,
//!   Figures 6–7);
//! * [`discovery`] — §5: passive-vs-active resolver discovery overlap;
//! * [`stats`] — shared CDF/percentile/binning utilities.
//!
//! ```
//! use analysis::{CacheSimConfig, CacheSimulator};
//! use workload::PublicCdnTraceGen;
//!
//! // Replay a small Public-Resolver/CDN trace with and without ECS.
//! let trace = PublicCdnTraceGen {
//!     resolvers: 4,
//!     subnets_per_resolver: 10,
//!     hostnames: 20,
//!     queries: 5_000,
//!     ..PublicCdnTraceGen::default()
//! }
//! .generate();
//! let result = CacheSimulator::new(CacheSimConfig::default()).run(&trace);
//! for r in &result.per_resolver {
//!     // ECS fragments this workload's cache (same names, many subnets).
//!     assert!(r.blowup_factor() >= 1.0);
//! }
//! ```

pub mod cache_compliance;
pub mod cache_sim;
pub mod discovery;
pub mod hidden;
pub mod mapping;
pub mod prefix_lengths;
pub mod probing;
pub mod stats;

pub use cache_compliance::{classify_compliance, ComplianceObservation};
pub use cache_sim::{
    default_parallelism, CacheSimConfig, CacheSimResult, CacheSimulator, ResolverCacheResult,
};
pub use discovery::DiscoveryOverlap;
pub use hidden::{DistanceCombo, HiddenAnalysis, HiddenResolverReport};
pub use mapping::{ConnectTimeSample, MappingQuality};
pub use prefix_lengths::{PrefixLengthTable, ResolverPrefixProfile};
pub use probing::classify_probing;
pub use stats::{Cdf, Percentiles};
pub use workload::{ComplianceClass, PrefixClass, ProbingClass, COMPLIANCE_TABLE, PROBING_TABLE};
