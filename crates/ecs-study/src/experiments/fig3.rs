//! Figure 3 (§7.2): cache hit rate with and without ECS, vs client
//! population fraction, over the All-Names trace.
//!
//! Paper: at the full population the hit rate drops from ~76% without ECS
//! to ~30% with it — less than half — and the with-ECS curve grows much
//! more slowly with population, the two population effects (sharing vs
//! subnet fragmentation) largely cancelling.
//!
//! A second reading of Figure 2's measurement: the same
//! `fig2::sweep` of the same [`Config`], so the same
//! `ECS_STREAM_QUERIES` / `ECS_STREAM_CLIENTS` scale knobs.

use analysis::CacheSimResult;

pub use super::fig2::Config;
use super::fig2::{mean_per_fraction, stream_footer, sweep};
use crate::report::Report;
use crate::session::Session;

/// Result: per fraction, mean hit rates (no-ECS, with-ECS).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// (fraction %, hit rate without ECS, hit rate with ECS).
    pub points: Vec<(u8, f64, f64)>,
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    view(config, &sweep(config))
}

/// Figure 3 read off a [`sweep`] of `config`.
pub(crate) fn view(config: &Config, runs: &[(u8, u64, CacheSimResult)]) -> (Outcome, Report) {
    let no_ecs = mean_per_fraction(runs, CacheSimResult::overall_hit_rate_no_ecs);
    let ecs = mean_per_fraction(runs, CacheSimResult::overall_hit_rate_ecs);
    let points: Vec<(u8, f64, f64)> = no_ecs
        .iter()
        .zip(&ecs)
        .map(|(&(pct, no_ecs), &(_, ecs))| (pct, no_ecs, ecs))
        .collect();

    let mut report = Report::new("fig3", "hit rate with/without ECS vs population");
    let (_, full_no, full_ecs) = *points.last().expect("non-empty sweep");
    report.row(
        "hit rate without ECS (full)",
        "~76%",
        format!("{:.1}%", full_no * 100.0),
        full_no > 0.5,
    );
    report.row(
        "hit rate with ECS (full)",
        "~30%",
        format!("{:.1}%", full_ecs * 100.0),
        full_ecs < full_no,
    );
    report.row(
        "ECS cuts hit rate by more than half",
        "76% → 30%",
        format!("{:.1}% → {:.1}%", full_no * 100.0, full_ecs * 100.0),
        full_ecs < full_no * 0.55,
    );
    if config.fractions.len() > 1 {
        let (_, first_no, first_ecs) = points[0];
        report.row(
            "no-ECS curve grows faster with population",
            "steeper",
            format!(
                "Δno-ECS {:.1}pp vs ΔECS {:.1}pp",
                (full_no - first_no) * 100.0,
                (full_ecs - first_ecs) * 100.0
            ),
            (full_no - first_no) > (full_ecs - first_ecs),
        );
    }
    let mut detail = String::from("pct  no-ECS  with-ECS\n");
    for (pct, n, e) in &points {
        detail.push_str(&format!(
            "{pct:>3}  {:.1}%   {:.1}%\n",
            n * 100.0,
            e * 100.0
        ));
    }
    detail.push_str(&stream_footer(config));
    report.detail = detail;
    (Outcome { points }, report)
}

/// Registry entry point: Figure 3 off the session's population sweep.
pub fn run_default(session: &mut Session) -> Report {
    let runs = session.population_sweep();
    view(&session.population, &runs).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::AllNamesStreamGen;

    #[test]
    fn ecs_depresses_hit_rate() {
        let config = Config {
            stream: AllNamesStreamGen {
                v4_subnets: 300,
                v6_subnets: 60,
                slds: 300,
                queries: 120_000,
                ..AllNamesStreamGen::default()
            },
            fractions: vec![20, 100],
            samples: 2,
            parallelism: 2,
        };
        let (out, _) = run(&config);
        let (_, no_ecs, with_ecs) = *out.points.last().unwrap();
        assert!(no_ecs > with_ecs, "{no_ecs} vs {with_ecs}");
        assert!(with_ecs < no_ecs * 0.8, "substantial drop expected");
        // Without ECS, more clients → higher hit rate.
        assert!(out.points[1].1 >= out.points[0].1);
    }
}
