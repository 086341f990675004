#![warn(missing_docs)]

//! RFC 7871 conformance & differential-testing harness.
//!
//! The workspace ships both sides of the paper's methodology: emulated
//! resolvers with configurable (mis)behaviours (`resolver`, `dnsd`) and the
//! §6 measurement classifiers (`analysis`). This crate closes the loop by
//! running one against the other:
//!
//! * [`scenario`] — scripted authoritative ECS behaviours (honors-scope,
//!   always-/0, jams-/32, caps-/22, FORMERR-on-ECS, flattening CNAME, …)
//!   behind the [`resolver::Upstream`] trait;
//! * [`harness`] — drives subject resolvers through the scenarios and uses
//!   the `analysis` classifiers as oracles: the default engine must land in
//!   the RFC-compliant cell of every table (§6.1 probing class, §6.2
//!   prefix length, §6.3 scope honoring), each deliberately misconfigured
//!   preset in its intended non-compliant cell;
//! * [`differential`] — plays a seeded ≥10k-query workload through the
//!   in-process engine and through `dnsd` loopback sockets, diffing
//!   answers, cache state, and `obs` metric snapshots (transport-timing
//!   series explicitly whitelisted);
//! * [`report`] — machine-readable JSON report for CI.
//!
//! Run as tests (`cargo test -p conformance`) or as the `conformance`
//! binary, which writes the JSON report and exits non-zero on any
//! oracle/differential disagreement.

pub mod differential;
pub mod harness;
pub mod report;
pub mod scenario;

pub use report::{CellResult, ConformanceReport, DifferentialReport, MetricDelta};
pub use scenario::{EcsStance, Scenario, ScenarioUpstream};

/// Runs the full §6 oracle matrix (no sockets involved) with every
/// subject pinned to `transport`: ECS policy is transport-independent, so
/// the resulting verdict table must be byte-identical whichever transport
/// carries the upstream queries.
pub fn run_matrix(transport: resolver::Transport) -> ConformanceReport {
    let mut cells = harness::run_probing_matrix(transport);
    cells.extend(harness::run_prefix_matrix(transport));
    cells.extend(harness::run_compliance_matrix(transport));
    ConformanceReport {
        cells,
        differential: None,
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_section() {
        let r = run_matrix(resolver::Transport::Udp);
        let count = |s: &str| r.cells.iter().filter(|c| c.section == s).count();
        assert!(count("6.1-probing") >= 6);
        assert!(count("6.2-prefix") >= 4);
        assert!(count("6.3-compliance") >= 5);
    }
}
