//! The run-scoped state every registry runner receives.
//!
//! A [`Session`] is built once per `ecs-study` invocation and does three
//! jobs, none of them through a global:
//!
//! * it reads the `ECS_*` scale knobs from the environment — once, in
//!   [`Session::from_env`] — and builds the registry's default configs
//!   from them, so every `run(&Config)` is a function of its argument;
//! * it lazily computes and keeps the measurements several figures read:
//!   the §7 population sweep (fig2, fig3), the §8.2 world (fig4, fig5,
//!   `hidden`) and the §8.3 per-CDN prefix-length sweeps (fig6, fig7,
//!   `minprefix`) — a figure is a view of a measurement, and asking for
//!   one figure computes only its own;
//! * it carries the telemetry capture: one [`obs::Tracer`] (disabled
//!   unless the run asked for telemetry) and the merged metrics of every
//!   registry the capturing experiments touched.

use std::rc::Rc;
use std::sync::Arc;

use analysis::{CacheSimResult, HiddenResolverReport};
use topology::World;

use crate::experiments::{fig1, fig2, fig45, fig67, hidden, minprefix, scan};
use crate::report::Report;
use crate::telemetry::Telemetry;

/// Run-scoped default configs, shared measurements and telemetry capture.
#[derive(Default)]
pub struct Session {
    /// The registry's default configs, rescaled by the `ECS_*` knobs.
    pub(crate) fig1: fig1::Config,
    pub(crate) population: fig2::Config,
    pub(crate) hidden: hidden::Config,
    pub(crate) minprefix: minprefix::Config,
    pub(crate) scan: scan::Config,
    /// `ECS_SCAN_JSON`: file receiving the scan's final-cell JSON.
    pub(crate) scan_json: Option<String>,
    /// The trace sink and the tracer writing to it, when capturing.
    capture: Option<(Arc<obs::MemorySink>, obs::Tracer)>,
    metrics: obs::MetricsSnapshot,
    population_sweep: Option<Rc<Vec<(u8, u64, CacheSimResult)>>>,
    hidden_world: Option<Rc<(World, [HiddenResolverReport; 2])>>,
    mapping_sweeps: [Option<Rc<fig67::Sweep>>; 2],
}

fn new_capture() -> (Arc<obs::MemorySink>, obs::Tracer) {
    let sink = Arc::new(obs::MemorySink::new());
    let tracer = obs::Tracer::new(sink.clone() as Arc<dyn obs::TraceSink>);
    (sink, tracer)
}

impl Session {
    /// A session at the registry's unscaled defaults, capturing telemetry
    /// when asked.
    pub fn new(telemetry: bool) -> Self {
        Session {
            capture: telemetry.then(new_capture),
            ..Session::default()
        }
    }

    /// As [`Session::new`], rescaled by the six `ECS_*` knobs — read here
    /// and nowhere else in this crate; unset or malformed values are
    /// ignored. CI smoke jobs and large acceptance runs use them to
    /// rescale without recompiling.
    pub fn from_env(telemetry: bool) -> Self {
        let knob = |name: &str| std::env::var(name).ok()?.parse::<u64>().ok();
        let (queries, clients) = (knob("ECS_STREAM_QUERIES"), knob("ECS_STREAM_CLIENTS"));
        let mut session = Session::new(telemetry);
        session.fig1 = session.fig1.scaled(queries, clients);
        session.population = session.population.scaled(queries, clients);
        if let Some(forwarders) = knob("ECS_HIDDEN_FORWARDERS") {
            session.hidden.world.forwarders = (forwarders as usize).max(1);
        }
        if let Some(probes) = knob("ECS_MINPREFIX_PROBES") {
            session.minprefix.probes = (probes as usize).max(1);
        }
        session.scan = session.scan.scaled(knob("ECS_SCAN_PROBES"));
        session.scan_json = std::env::var("ECS_SCAN_JSON")
            .ok()
            .filter(|path| !path.is_empty());
        session
    }

    /// The tracer experiments record into: disabled (one branch per
    /// event) unless this session captures telemetry.
    pub fn tracer(&self) -> obs::Tracer {
        self.capture
            .as_ref()
            .map_or_else(obs::Tracer::disabled, |(_, tracer)| tracer.clone())
    }

    /// Merges a registry's metrics into the capture (dropped when the
    /// session is not capturing).
    pub fn record(&mut self, snapshot: &obs::MetricsSnapshot) {
        if self.capture.is_some() {
            self.metrics.merge(snapshot);
        }
    }

    /// When capturing, adds the p50/p99 row of the `resolver_query_latency_us`
    /// recorded since the last [`Session::take_telemetry`], against the
    /// calling experiment's `expectation`.
    pub fn latency_row(&self, report: &mut Report, expectation: &str) {
        if self.capture.is_none() {
            return;
        }
        let lat = self
            .metrics
            .histogram("resolver_query_latency_us")
            .cloned()
            .unwrap_or_default();
        report.row(
            "query latency p50/p99",
            expectation,
            format!(
                "p50 {} us, p99 {} us, max {} us over {} queries",
                lat.quantile(0.5),
                lat.quantile(0.99),
                lat.max,
                lat.count
            ),
            lat.count > 0 && lat.quantile(0.5) <= lat.quantile(0.99),
        );
    }

    /// Hands over everything captured since the last call — `None` when
    /// the session is not capturing — and starts a fresh capture, so each
    /// experiment of a run gets its own artifacts and trace ids.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        let (sink, _) = self.capture.replace(new_capture())?;
        Some(Telemetry {
            snapshot: std::mem::take(&mut self.metrics),
            trace_jsonl: sink.lines().into_iter().map(|l| l + "\n").collect(),
        })
    }

    /// The §7 population sweep (fig2, fig3) of `self.population`.
    pub(crate) fn population_sweep(&mut self) -> Rc<Vec<(u8, u64, CacheSimResult)>> {
        let config = &self.population;
        Rc::clone(
            self.population_sweep
                .get_or_insert_with(|| Rc::new(fig2::sweep(config))),
        )
    }

    /// The §8.2 world (fig4, fig5, `hidden`) generated from `self.hidden`,
    /// with its MP and non-MP distance analyses.
    pub(crate) fn hidden_world(&mut self) -> Rc<(World, [HiddenResolverReport; 2])> {
        let config = &self.hidden.world;
        Rc::clone(
            self.hidden_world
                .get_or_insert_with(|| Rc::new(fig45::measure(config))),
        )
    }

    /// One CDN's §8.3 sweep (fig6, fig7, `minprefix`) of `self.minprefix`.
    pub(crate) fn mapping_sweep(&mut self, cdn: fig67::CdnModel) -> Rc<fig67::Sweep> {
        let config = &self.minprefix;
        Rc::clone(
            self.mapping_sweeps[cdn as usize].get_or_insert_with(|| Rc::new(config.sweep(cdn))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig3;

    #[test]
    fn figures_sharing_a_measurement_compute_it_once() {
        let mut session = Session::new(false);
        session.population = session.population.scaled(Some(60_000), Some(20_000));
        session.hidden.world.forwarders = 300;
        session.minprefix.probes = 60;

        fig2::run_default(&mut session);
        let population = session.population_sweep.clone().expect("fig2 computed it");
        fig3::run_default(&mut session);
        assert!(Rc::ptr_eq(&population, &session.population_sweep()));
        // Asking for fig2 and fig3 computed nothing else.
        assert!(session.hidden_world.is_none());
        assert!(session.mapping_sweeps.iter().all(Option::is_none));

        fig45::run_default_mp(&mut session);
        let world = session.hidden_world.clone().expect("fig4 computed it");
        fig45::run_default_nonmp(&mut session);
        hidden::run_default(&mut session);
        assert!(Rc::ptr_eq(&world, &session.hidden_world()));

        fig67::run_default_cdn1(&mut session);
        assert!(session.mapping_sweeps[1].is_none(), "fig6 reads CDN-1 only");
        fig67::run_default_cdn2(&mut session);
        let sweeps = session.mapping_sweeps.clone().map(|s| s.expect("computed"));
        assert!(minprefix::run_default(&mut session).all_hold());
        for (cdn, sweep) in [fig67::CdnModel::Cdn1, fig67::CdnModel::Cdn2]
            .into_iter()
            .zip(&sweeps)
        {
            assert!(Rc::ptr_eq(sweep, &session.mapping_sweep(cdn)));
        }
    }

    #[test]
    fn telemetry_is_handed_over_per_experiment_and_only_when_capturing() {
        let reg = obs::MetricsRegistry::new();
        reg.counter("x_total").add(2);

        let mut off = Session::new(false);
        assert!(!off.tracer().is_enabled());
        off.record(&reg.snapshot());
        assert!(off.take_telemetry().is_none());

        let mut on = Session::new(true);
        on.record(&reg.snapshot());
        on.tracer().start(0, &obs::EventKind::Shed);
        let first = on.take_telemetry().expect("capturing");
        assert_eq!(first.snapshot.counter("x_total"), Some(2));
        assert!(first.trace_jsonl.starts_with("{\"trace\":1,\"span\":1,"));
        // The next experiment starts from an empty capture and fresh ids.
        on.tracer().start(0, &obs::EventKind::Shed);
        let second = on.take_telemetry().expect("capturing");
        assert_eq!(second.snapshot.counter("x_total"), None);
        assert_eq!(second.trace_jsonl, first.trace_jsonl);
    }
}
