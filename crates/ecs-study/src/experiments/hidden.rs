//! §8.2 pitfall promoted to a first-class experiment: hidden resolvers
//! behind forwarders, MP and non-MP populations side by side.
//!
//! A view of the world `fig4`/`fig5` measure: where each of those
//! pins one population, this one walks both — the way the paper's §8.2
//! narrative walks both plots — and additionally checks the split is
//! exhaustive: every hidden chain lands in exactly one population.
//!
//! Scale knob: `ECS_HIDDEN_FORWARDERS=N` overrides the forwarder count of
//! the registry's default world (CI smoke uses a few hundred; acceptance
//! runs tens of thousands).

use analysis::HiddenResolverReport;
use topology::{World, WorldConfig};

use super::fig45::{self, combos_from_world, measure};
use crate::report::Report;
use crate::session::Session;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// World generation parameters (Figure 4's world by default).
    pub world: WorldConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            world: fig45::Config::fig4().world,
        }
    }
}

/// Per-population outcome.
#[derive(Debug, Clone)]
pub struct PopulationOutcome {
    /// `"MP"` or `"non-MP"`.
    pub label: &'static str,
    /// The distance analysis for this population.
    pub report: analysis::HiddenResolverReport,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// MP then non-MP.
    pub populations: Vec<PopulationOutcome>,
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let (world, reports) = measure(&config.world);
    view(&world, &reports)
}

/// Both populations read off a [`measure`]d world.
pub(crate) fn view(world: &World, reports: &[HiddenResolverReport; 2]) -> (Outcome, Report) {
    let all = combos_from_world(world, None).len();
    let [mp, nonmp] = reports.each_ref().map(HiddenResolverReport::total);
    let populations: Vec<PopulationOutcome> = ["MP", "non-MP"]
        .into_iter()
        .zip(reports)
        .map(|(label, report)| PopulationOutcome {
            label,
            report: report.clone(),
        })
        .collect();

    let mut report = Report::new("hidden", "hidden resolvers: MP vs non-MP populations");
    report.row(
        "hidden chains split exhaustively",
        "MP + non-MP = all",
        format!("{mp} + {nonmp} = {all}"),
        mp + nonmp == all && mp > 0 && nonmp > 0,
    );
    for (pop, paper) in populations.iter().zip(["8.0%", "7.8%"]) {
        let harmful = pop.report.harmful_fraction();
        report.row(
            format!("{} hidden farther than recursive", pop.label),
            paper,
            format!("{:.1}%", harmful * 100.0),
            (0.02..0.25).contains(&harmful),
        );
        report.row(
            format!("{} ECS helps in the majority", pop.label),
            "72.7–90.7%",
            format!(
                "{:.1}%",
                pop.report.above_diagonal as f64 / pop.report.total().max(1) as f64 * 100.0
            ),
            pop.report.above_diagonal * 2 > pop.report.total(),
        );
    }
    let worst_gap = populations
        .iter()
        .flat_map(|p| p.report.points.iter())
        .map(|(fh, fr)| fh - fr)
        .fold(0.0f64, f64::max);
    report.row(
        "worst hidden-resolver detour (either population)",
        "~12,000 km (Santiago→Italy)",
        format!("{worst_gap:.0} km"),
        worst_gap > 3000.0,
    );
    let mut detail = String::new();
    for pop in &populations {
        detail.push_str(&format!(
            "{:>7}: combos {}  below {}  on {}  above {}  F-H p50 {:.0} km  F-R p50 {:.0} km\n",
            pop.label,
            pop.report.total(),
            pop.report.below_diagonal,
            pop.report.on_diagonal,
            pop.report.above_diagonal,
            pop.report.f_h_cdf.quantile(0.5),
            pop.report.f_r_cdf.quantile(0.5),
        ));
    }
    report.detail = detail;
    (Outcome { populations }, report)
}

/// Registry entry point: both populations off the session's world.
pub fn run_default(session: &mut Session) -> Report {
    let (world, reports) = &*session.hidden_world();
    view(world, reports).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_populations_show_the_pitfall() {
        let (out, report) = run(&Config::default());
        assert_eq!(out.populations.len(), 2);
        for pop in &out.populations {
            let harmful = pop.report.harmful_fraction();
            assert!(
                (0.02..0.30).contains(&harmful),
                "{} harmful {harmful}\n{report}",
                pop.label
            );
        }
        assert!(report.all_hold(), "{report}");
    }

    #[test]
    fn forwarder_knob_rescales_the_world() {
        let config = Config {
            world: WorldConfig {
                forwarders: 300,
                hidden_resolvers: 40,
                misplaced_hidden_fraction: 0.10,
                hidden_chain_fraction: 0.9,
                ..WorldConfig::default()
            },
        };
        let (out, _) = run(&config);
        let total: usize = out.populations.iter().map(|p| p.report.total()).sum();
        assert!(total > 0 && total <= 300, "{total}");
    }
}
