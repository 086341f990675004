//! One module per reproduced table/figure. See DESIGN.md §4 for the index.

pub mod adaptive;
pub mod amplification;
pub mod cache_behavior;
pub mod discovery;
pub mod faults;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig45;
pub mod fig67;
pub mod fig8;
pub mod hidden;
pub mod minprefix;
pub mod overload;
pub mod probing;
pub mod scan;
pub mod table1;
pub mod table2;
pub mod transports;
pub mod whitelist;

use crate::report::Report;
use crate::session::Session;

/// One registry entry: (id, title, whether the runner records telemetry
/// into a capturing session, default-parameter runner).
pub type ExperimentEntry = (&'static str, &'static str, bool, fn(&mut Session) -> Report);

/// The registry of experiments. Runners use default (scaled) parameters —
/// the session's, for the experiments that read a shared measurement,
/// capture telemetry or honor an `ECS_*` knob; each module also exposes a
/// parameterized `run`.
pub fn registry() -> Vec<ExperimentEntry> {
    const CAPTURES: bool = true;
    const PLAIN: bool = false;
    vec![
        (
            "probing",
            "§6.1 probing-strategy classification",
            PLAIN,
            |_| probing::run(&Default::default()).1,
        ),
        (
            "table1",
            "§6.2 Table 1: source prefix lengths",
            PLAIN,
            |_| table1::run(&Default::default()).1,
        ),
        (
            "cache-behavior",
            "§6.3 cache-compliance classification",
            PLAIN,
            |_| cache_behavior::run(&Default::default()).1,
        ),
        (
            "fig1",
            "§7.1 Fig 1: cache blow-up CDF vs TTL",
            CAPTURES,
            |s| fig1::run(&s.fig1.clone(), s).1,
        ),
        (
            "fig2",
            "§7.1 Fig 2: blow-up vs client population",
            PLAIN,
            fig2::run_default,
        ),
        (
            "fig3",
            "§7.2 Fig 3: hit rate with/without ECS",
            PLAIN,
            fig3::run_default,
        ),
        (
            "table2",
            "§8.1 Table 2: unroutable ECS prefixes",
            PLAIN,
            |_| table2::run(&Default::default()).1,
        ),
        (
            "fig4",
            "§8.2 Fig 4: hidden-resolver distances (MP)",
            PLAIN,
            fig45::run_default_mp,
        ),
        (
            "fig5",
            "§8.2 Fig 5: hidden-resolver distances (non-MP)",
            PLAIN,
            fig45::run_default_nonmp,
        ),
        (
            "fig6",
            "§8.3 Fig 6: mapping quality vs prefix length (CDN-1)",
            PLAIN,
            fig67::run_default_cdn1,
        ),
        (
            "fig7",
            "§8.3 Fig 7: mapping quality vs prefix length (CDN-2)",
            PLAIN,
            fig67::run_default_cdn2,
        ),
        (
            "hidden",
            "§8.2 pitfall: hidden resolvers, MP vs non-MP populations",
            PLAIN,
            hidden::run_default,
        ),
        (
            "minprefix",
            "§8.3 pitfall: minimum usable ECS prefix length per CDN",
            PLAIN,
            minprefix::run_default,
        ),
        (
            "fig8",
            "§8.4 Fig 8: CNAME flattening penalty",
            PLAIN,
            |_| fig8::run(&Default::default()).1,
        ),
        (
            "discovery",
            "§5 passive vs active resolver discovery",
            PLAIN,
            |_| discovery::run(&Default::default()).1,
        ),
        (
            "adaptive",
            "§9 extension: per-zone adaptive prefix lengths",
            PLAIN,
            |_| adaptive::run(&Default::default()).1,
        ),
        (
            "amplification",
            "related-work check: upstream query amplification",
            PLAIN,
            |_| amplification::run(&Default::default()).1,
        ),
        (
            "whitelist",
            "§9 extension: whitelisted vs non-whitelisted resolvers",
            PLAIN,
            |_| whitelist::run(&Default::default()).1,
        ),
        (
            "faults",
            "extension: robustness under injected faults",
            CAPTURES,
            |s| faults::run(&Default::default(), s).1,
        ),
        (
            "overload",
            "extension: graceful degradation under overload",
            CAPTURES,
            |s| overload::run(&Default::default(), s).1,
        ),
        (
            "transports",
            "extension: transport fallback ladders on fragmenting paths",
            PLAIN,
            |_| transports::run(&Default::default()).1,
        ),
        (
            "scan",
            "dataset (ii): mass-scan robustness sweep",
            CAPTURES,
            scan::run_default,
        ),
    ]
}
