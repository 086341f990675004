//! Experiment drivers for the ECS study.
//!
//! Each module under [`experiments`] reproduces one table or figure of
//! *A Look at the ECS Behavior of DNS Resolvers* (IMC 2019) end to end:
//! it builds a world or workload, runs the protocol machinery from the
//! `resolver`/`authoritative` crates, applies the corresponding analysis,
//! and returns a typed report whose `Display` prints the paper's number
//! next to the measured one.
//!
//! Run them all with the `ecs-study` binary:
//!
//! ```text
//! ecs-study all            # every experiment, summary per experiment
//! ecs-study fig1           # one experiment in detail
//! ecs-study list           # experiment index
//! ```

pub mod behavior;
pub mod experiments;
pub mod report;
pub mod session;
pub mod telemetry;

pub use behavior::resolver_config_for;
pub use session::Session;
