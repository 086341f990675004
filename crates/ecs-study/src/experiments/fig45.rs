//! §8.2 Figures 4–5: forwarder→hidden vs forwarder→recursive distances.
//!
//! We generate a world whose resolution chains include hidden resolvers
//! (some deliberately misplaced, as observed in the wild — the "Santiago
//! behind Italy" case), then, for every (forwarder, hidden, recursive)
//! combination, compare the two distances the way the paper's hexbin
//! scatter plots do. Figure 4 covers chains ending at the major public
//! (MP) service; Figure 5 covers the rest. Both are views of one
//! `measure`d world.
//!
//! Paper: 8% of MP combinations (7.8% non-MP) have the hidden resolver
//! *farther* from the forwarder than the recursive — ECS actively hurts
//! mapping there; distances can differ by thousands of km.

use analysis::{DistanceCombo, HiddenAnalysis, HiddenResolverReport};
use topology::{World, WorldConfig};

use crate::report::Report;
use crate::session::Session;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// World generation parameters.
    pub world: WorldConfig,
    /// Restrict to MP chains (Figure 4) or non-MP (Figure 5).
    pub public_service_only: bool,
}

impl Config {
    /// Figure 4 defaults.
    pub fn fig4() -> Self {
        Config {
            world: WorldConfig {
                forwarders: 3000,
                hidden_resolvers: 120,
                misplaced_hidden_fraction: 0.08,
                hidden_chain_fraction: 0.9,
                ..WorldConfig::default()
            },
            public_service_only: true,
        }
    }

    /// Figure 5 defaults.
    pub fn fig5() -> Self {
        Config {
            public_service_only: false,
            ..Config::fig4()
        }
    }
}

/// Outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The analysis report.
    pub report: analysis::HiddenResolverReport,
    /// Number of combinations analysed.
    pub combos: usize,
}

/// Extracts the (forwarder, hidden, recursive) combinations from a world.
pub fn combos_from_world(world: &World, public_only: Option<bool>) -> Vec<DistanceCombo> {
    let mut out = Vec::new();
    for fwd in &world.forwarders {
        let chain = &world.chains[fwd.chain];
        let Some(hidden_idx) = chain.hidden else {
            continue;
        };
        let egress = &world.egress_resolvers[chain.egress];
        if let Some(want_public) = public_only {
            if egress.public_service != want_public {
                continue;
            }
        }
        out.push(DistanceCombo {
            forwarder: fwd.pos,
            hidden: world.hidden_resolvers[hidden_idx].pos,
            recursive: egress.pos,
            via_public_service: egress.public_service,
        });
    }
    out
}

/// The §8.2 measurement: the generated world and the distance analysis
/// of its MP (`[0]`) and non-MP (`[1]`) hidden-resolver chains.
pub(crate) fn measure(config: &WorldConfig) -> (World, [HiddenResolverReport; 2]) {
    let world = World::generate(config);
    let analysis = HiddenAnalysis::default();
    let reports =
        [true, false].map(|public| analysis.analyze(&combos_from_world(&world, Some(public))));
    (world, reports)
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    let (_, reports) = measure(&config.world);
    view(
        &reports[usize::from(!config.public_service_only)],
        config.public_service_only,
    )
}

/// Figure 4 (`public_service_only`) or Figure 5 read off that
/// population's report of a [`measure`]d world.
pub(crate) fn view(
    analysis_report: &HiddenResolverReport,
    public_service_only: bool,
) -> (Outcome, Report) {
    let combos = analysis_report.total();

    let (id, title, paper_harmful) = if public_service_only {
        ("fig4", "hidden-resolver distances (MP resolvers)", 0.08)
    } else {
        (
            "fig5",
            "hidden-resolver distances (non-MP resolvers)",
            0.078,
        )
    };
    let mut report = Report::new(id, title);
    let harmful = analysis_report.harmful_fraction();
    report.row(
        "combinations analysed",
        if public_service_only { "725K" } else { "217K" },
        combos,
        combos > 100,
    );
    report.row(
        "hidden farther than recursive (ECS hurts)",
        format!("{:.1}%", paper_harmful * 100.0),
        format!("{:.1}%", harmful * 100.0),
        (0.02..0.25).contains(&harmful),
    );
    report.row(
        "ECS helps in the majority of combinations",
        "72.7–90.7%",
        format!(
            "{:.1}%",
            analysis_report.above_diagonal as f64 / analysis_report.total().max(1) as f64 * 100.0
        ),
        analysis_report.above_diagonal * 2 > analysis_report.total(),
    );
    // The worst cases are thousands of km apart.
    let worst_gap = analysis_report
        .points
        .iter()
        .map(|(fh, fr)| fh - fr)
        .fold(0.0f64, f64::max);
    report.row(
        "worst hidden-resolver detour",
        "~12,000 km (Santiago→Italy)",
        format!("{worst_gap:.0} km"),
        worst_gap > 3000.0,
    );
    let mut detail = format!(
        "below diagonal: {}  on: {}  above: {}\nF-H median {:.0} km, F-R median {:.0} km\n",
        analysis_report.below_diagonal,
        analysis_report.on_diagonal,
        analysis_report.above_diagonal,
        analysis_report.f_h_cdf.quantile(0.5),
        analysis_report.f_r_cdf.quantile(0.5),
    );
    // Coarse textual hexbin (6×6), densest cell = '#', mirroring the
    // paper's scatter plots: x = F-H distance, y = F-R distance.
    let bins = analysis::stats::Bins2d::new(&analysis_report.points, 6, 6);
    let max_count = bins.counts.iter().copied().max().unwrap_or(1).max(1);
    detail.push_str("F-R ↑ (each cell ~ combos; scale .:+*#)\n");
    for y in (0..bins.ny).rev() {
        let mut row = String::from("  ");
        for x in 0..bins.nx {
            let c = bins.counts[y * bins.nx + x];
            row.push(match (c * 4) / max_count {
                0 if c == 0 => ' ',
                0 => '.',
                1 => ':',
                2 => '+',
                3 => '*',
                _ => '#',
            });
        }
        detail.push_str(&row);
        detail.push('\n');
    }
    detail.push_str("  → F-H\n");
    report.detail = detail;
    (
        Outcome {
            combos,
            report: analysis_report.clone(),
        },
        report,
    )
}

/// Figure-4 registry entry point.
pub fn run_default_mp(session: &mut Session) -> Report {
    view(&session.hidden_world().1[0], true).1
}

/// Figure-5 registry entry point.
pub fn run_default_nonmp(session: &mut Session) -> Report {
    view(&session.hidden_world().1[1], false).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmful_fraction_tracks_misplacement() {
        let (out, report) = run(&Config::fig4());
        assert!(out.combos > 500, "{}", out.combos);
        let harmful = out.report.harmful_fraction();
        // Configured at 8% misplaced; measured should be in the vicinity
        // (nearby hidden resolvers can also happen to be farther).
        assert!(
            (0.02..0.30).contains(&harmful),
            "harmful {harmful}\n{report}"
        );
    }

    #[test]
    fn every_hidden_chain_is_mp_or_non_mp() {
        let mut world = Config::fig4().world;
        world.forwarders = 600;
        let (world, reports) = measure(&world);
        let [mp, nonmp] = reports.each_ref().map(HiddenResolverReport::total);
        assert!(mp > 0 && nonmp > 0, "{mp} MP, {nonmp} non-MP");
        assert_eq!(mp + nonmp, combos_from_world(&world, None).len());
    }
}
