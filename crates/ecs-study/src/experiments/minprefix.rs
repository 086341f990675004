//! §8.3 pitfall promoted to a first-class experiment: the minimum usable
//! ECS source prefix length per CDN.
//!
//! A view of the sweeps `fig6`/`fig7` read (`fig67::sweep`): where those
//! eyeball one CDN's cliff each, this one derives the *minimum usable
//! length* for both CDNs from the same probe population — the smallest
//! length whose median connect time stays within 1.5× of the /24
//! baseline — and checks the paper's answers: CDN-1 needs the full /24,
//! CDN-2 works from /21 up. The sweep's prefix-length table (from the
//! authoritative's query log) must show exactly the lengths it sent.
//!
//! Scale knob: `ECS_MINPREFIX_PROBES=N` overrides the probe count of the
//! registry's default sweep.

use std::collections::BTreeMap;

use analysis::{MappingQuality, PrefixLengthTable};

use crate::experiments::fig67::{self, CdnModel, Sweep};
use crate::report::Report;
use crate::session::Session;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of probes (paper: 800).
    pub probes: usize,
    /// Source prefix lengths to sweep.
    pub lengths: Vec<u8>,
    /// Degradation tolerance: the minimum usable length is the smallest
    /// whose median connect time is ≤ `tolerance` × the /24 median.
    pub tolerance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            probes: 800,
            lengths: (16..=24).collect(),
            tolerance: 1.5,
            seed: 0,
        }
    }
}

impl Config {
    /// `cdn`'s [`fig67::sweep`] over this config's probes and lengths.
    pub(crate) fn sweep(&self, cdn: CdnModel) -> Sweep {
        fig67::sweep(&fig67::Config {
            cdn,
            probes: self.probes,
            lengths: self.lengths.clone(),
            seed: self.seed,
        })
    }
}

/// Per-CDN outcome.
#[derive(Debug, Clone)]
pub struct CdnOutcome {
    /// Which CDN.
    pub cdn: CdnModel,
    /// Length → quality summary.
    pub by_length: BTreeMap<u8, MappingQuality>,
    /// The smallest usable length under the tolerance.
    pub min_usable: u8,
    /// The prefix-length table built from the authoritative's query log.
    pub log_table: PrefixLengthTable,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// CDN-1 then CDN-2.
    pub cdns: Vec<CdnOutcome>,
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let sweeps = [CdnModel::Cdn1, CdnModel::Cdn2].map(|cdn| config.sweep(cdn));
    view(config.tolerance, sweeps.each_ref())
}

/// The minimum usable lengths read off the CDN-1 and CDN-2 [`Sweep`]s.
pub(crate) fn view(tolerance: f64, sweeps: [&Sweep; 2]) -> (Outcome, Report) {
    let cdns: Vec<CdnOutcome> = [CdnModel::Cdn1, CdnModel::Cdn2]
        .into_iter()
        .zip(sweeps)
        .map(|(cdn, (by_length, log_table))| {
            let baseline = by_length[&24].median_ms;
            let min_usable = by_length
                .iter()
                .filter(|(_, q)| q.median_ms <= baseline * tolerance)
                .map(|(len, _)| *len)
                .min()
                .unwrap_or(24);
            CdnOutcome {
                cdn,
                by_length: by_length.clone(),
                min_usable,
                log_table: log_table.clone(),
            }
        })
        .collect();

    let mut report = Report::new("minprefix", "minimum usable ECS prefix length per CDN");
    for (outcome, (label, paper_min)) in cdns.iter().zip([("CDN-1", 24u8), ("CDN-2", 21)]) {
        report.row(
            format!("{label} minimum usable prefix length"),
            format!("/{paper_min}"),
            format!("/{}", outcome.min_usable),
            outcome.min_usable == paper_min,
        );
        let expected_rows = outcome.by_length.len();
        let logged_lengths: usize = outcome
            .log_table
            .rows
            .keys()
            .map(|row| row.split(',').count())
            .max()
            .unwrap_or(0);
        report.row(
            format!("{label} log covers the sweep"),
            format!("{expected_rows} lengths"),
            format!("{logged_lengths} lengths"),
            logged_lengths == expected_rows,
        );
    }
    let mut detail = String::new();
    for (outcome, label) in cdns.iter().zip(["CDN-1", "CDN-2"]) {
        detail.push_str(&format!("{label}  (min usable /{}):\n", outcome.min_usable));
        detail.push_str("  len  median(ms)  unique-answers\n");
        for (len, q) in &outcome.by_length {
            detail.push_str(&format!(
                "  /{len:<3} {:>8.0}  {}\n",
                q.median_ms, q.unique_first_answers
            ));
        }
    }
    report.detail = detail;
    (Outcome { cdns }, report)
}

/// Registry entry point: both CDNs off the session's /16–/24 sweeps.
pub fn run_default(session: &mut Session) -> Report {
    let sweeps = [CdnModel::Cdn1, CdnModel::Cdn2].map(|cdn| session.mapping_sweep(cdn));
    view(session.minprefix.tolerance, sweeps.each_ref().map(|s| &**s)).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_minimums_are_recovered() {
        let (out, report) = run(&Config {
            probes: 300,
            ..Config::default()
        });
        assert_eq!(out.cdns[0].min_usable, 24, "CDN-1\n{report}");
        assert_eq!(out.cdns[1].min_usable, 21, "CDN-2\n{report}");
        assert!(report.all_hold(), "{report}");
    }

    #[test]
    fn log_table_reflects_the_sweep() {
        let (out, _) = run(&Config {
            probes: 60,
            lengths: vec![20, 24],
            ..Config::default()
        });
        for outcome in &out.cdns {
            // One behaviour row covering both lengths, every probe query.
            let max_lengths = outcome
                .log_table
                .rows
                .keys()
                .map(|row| row.split(',').count())
                .max()
                .unwrap();
            assert_eq!(max_lengths, 2);
        }
    }
}
