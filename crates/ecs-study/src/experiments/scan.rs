//! Dataset (ii) extension: the mass-scan sweep.
//!
//! The paper's second dataset probes millions of open forwarders with a
//! ZDNS-derived scanner. This sweep drives the `scanner` crate's bounded
//! probe pipeline over a forwarder-population × loss × rate-limit grid of
//! simulated worlds (healthy, lossy, dead, and refusing forwarders in
//! distinct ASes) and verifies the robustness controls under each cell:
//! every cell must *reconcile* — probes = answered + retry-exhausted +
//! shed-by-rate-limit + shed-by-breaker, with rate-limited, breaker-
//! tripped, and retry-exhausted probes separately accounted.
//!
//! Environment overrides of the registry's default run (for the CI smoke
//! job and large seeded runs): `ECS_SCAN_PROBES` replaces the probe count
//! *and* collapses the grid to its single largest cell (last population /
//! loss / rate) — a scaled-up run wants depth, not the 8-cell matrix.
//! `ECS_SCAN_JSON` names a file to receive the deterministic JSON report
//! of the last (largest) cell — two identical-seed runs write
//! byte-identical files.

use netsim::SimDuration;
use scanner::{
    run_scan, ForwarderChainSpec, ForwarderHealth, RoundRobinFeed, ScanCapture, ScanConfig,
    ScanReport,
};

use crate::report::Report;
use crate::session::Session;

/// Per-resolver sample cap in the classification capture.
const CAPTURE_CAP: usize = 512;
/// Base RNG seed; each cell offsets it deterministically.
const SEED: u64 = 21;

/// Sweep parameters: the ones a caller sets. The rest are the constants
/// above.
#[derive(Debug, Clone)]
pub struct Config {
    /// Probes per cell.
    pub probes: u64,
    /// Forwarder populations swept (total per cell, split across the four
    /// health groups).
    pub populations: Vec<usize>,
    /// Loss rates applied to the lossy group.
    pub loss_rates: Vec<f64>,
    /// Per-AS rate limits (tokens per second) swept.
    pub rate_limits: Vec<u64>,
    /// In-flight window (the pipeline's only per-probe state).
    pub window: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            probes: 2_000,
            populations: vec![24, 72],
            loss_rates: vec![0.0, 0.25],
            rate_limits: vec![50, 400],
            window: 64,
        }
    }
}

impl Config {
    /// Applies the `ECS_SCAN_PROBES` override. A scaled-up run (CI's 1M
    /// smoke) wants one deep cell, not the whole matrix: the grid
    /// collapses to its largest corner.
    pub(crate) fn scaled(mut self, probes: Option<u64>) -> Self {
        if let Some(probes) = probes {
            self.probes = probes;
            self.populations.drain(..self.populations.len() - 1);
            self.loss_rates.drain(..self.loss_rates.len() - 1);
            self.rate_limits.drain(..self.rate_limits.len() - 1);
        }
        self
    }
}

/// One grid cell's outcome.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Forwarder population.
    pub population: usize,
    /// Lossy-group loss rate.
    pub loss: f64,
    /// Per-AS rate limit.
    pub rate: u64,
    /// The scan report (exact counters, reconciliation flag).
    pub report: ScanReport,
    /// Authoritative entries captured.
    pub captured: u64,
}

/// Sweep outcome: every cell, grid order.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Cells in population-major, then loss, then rate order.
    pub cells: Vec<Cell>,
    /// Deterministic JSON of the final (largest) cell:
    /// `{"report":…,"classification":…}`.
    pub final_json: String,
}

/// Splits a population across the four health groups, one AS each:
/// 60% healthy, 20% lossy, 10% dead, 10% refusing (all groups non-empty
/// once the population reaches 10).
fn groups(population: usize, loss: f64) -> Vec<(usize, ForwarderHealth, u32)> {
    let dead = (population / 10).max(1);
    let refusing = (population / 10).max(1);
    let lossy = (population / 5).max(1);
    let healthy = population.saturating_sub(dead + refusing + lossy).max(1);
    vec![
        (healthy, ForwarderHealth::Healthy, 64500),
        (lossy, ForwarderHealth::Lossy(loss), 64501),
        (dead, ForwarderHealth::Dead, 64502),
        (refusing, ForwarderHealth::Refusing, 64503),
    ]
}

fn run_cell(
    config: &Config,
    population: usize,
    loss: f64,
    rate: u64,
    seed: u64,
    session: &mut Session,
) -> (Cell, String) {
    let mut spec = ForwarderChainSpec::new(seed);
    for (count, health, asn) in groups(population, loss) {
        spec = spec.group(count, health, asn);
    }
    let cfg = ScanConfig {
        window: config.window,
        rate_per_sec: rate,
        burst: 16,
        ..ScanConfig::default()
    };
    let mut world = spec.build(cfg, |targets| {
        RoundRobinFeed::new(targets.to_vec(), config.probes)
    });
    let tracer = session.tracer();
    if tracer.is_enabled() {
        world.scanner_mut().enable_metrics();
        world.sim.enable_metrics();
        world.scanner_mut().set_tracer(tracer.clone());
    }
    let mut capture = ScanCapture::new(CAPTURE_CAP);
    let report = run_scan(&mut world, SimDuration::from_secs(60), &mut capture);
    if tracer.is_enabled() {
        session.record(&world.scanner_mut().metrics_snapshot());
        if let Some(sim) = world.sim.metrics_snapshot() {
            session.record(&sim);
        }
    }
    let json = format!(
        "{{\"report\":{},\"classification\":{}}}",
        report.to_json(),
        capture.to_json(conformance::harness::SHORT_WINDOW_SECS)
    );
    let cell = Cell {
        population,
        loss,
        rate,
        report,
        captured: capture.total,
    };
    (cell, json)
}

/// Runs the sweep. When `session` captures telemetry, every cell's
/// `scanner_*` / `netsim_*` metrics and probe spans are recorded into it.
pub fn run(config: &Config, session: &mut Session) -> (Outcome, Report) {
    let mut cells = Vec::new();
    let mut final_json = String::new();
    let mut cell_seed = SEED;
    for &population in &config.populations {
        for &loss in &config.loss_rates {
            for &rate in &config.rate_limits {
                cell_seed += 1;
                let (cell, json) = run_cell(config, population, loss, rate, cell_seed, session);
                final_json = json;
                cells.push(cell);
            }
        }
    }
    let mut report = Report::new("scan", "dataset (ii): mass-scan robustness sweep");
    for c in &cells {
        let s = &c.report.stats;
        report.row(
            format!("pop={} loss={:.2} rate={}/s", c.population, c.loss, c.rate),
            "reconciles",
            format!(
                "probes={} ans={} exh={} shed_rl={} shed_br={} opens={} max_if={}",
                s.probes,
                s.answered,
                s.retry_exhausted,
                s.shed_rate_limit,
                s.shed_breaker,
                s.breaker_opens,
                s.max_in_flight
            ),
            c.report.reconciled,
        );
    }
    // Grid-wide invariants: breakers must trip somewhere (dead + refusing
    // groups exist in every cell), the window bound must hold, and
    // captured traffic must reach the authoritative.
    let any_opens = cells.iter().any(|c| c.report.stats.breaker_opens > 0);
    report.row(
        "breakers trip on dead/refusing",
        "yes",
        any_opens,
        any_opens,
    );
    let window_held = cells
        .iter()
        .all(|c| c.report.stats.max_in_flight <= config.window as u64);
    report.row(
        "in-flight never exceeds window",
        format!("<= {}", config.window),
        cells
            .iter()
            .map(|c| c.report.stats.max_in_flight)
            .max()
            .unwrap_or(0),
        window_held,
    );
    let any_captured = cells.iter().any(|c| c.captured > 0);
    report.row(
        "probes observed at authoritative",
        "yes",
        any_captured,
        any_captured,
    );

    (Outcome { cells, final_json }, report)
}

/// Registry entry point; writes the final cell's JSON where
/// `ECS_SCAN_JSON` asks.
pub fn run_default(session: &mut Session) -> Report {
    let (outcome, report) = run(&session.scan.clone(), session);
    if let Some(path) = &session.scan_json {
        if let Err(e) = std::fs::write(path, &outcome.final_json) {
            eprintln!("scan: failed to write {path}: {e}");
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(config: &Config) -> (Outcome, Report) {
        super::run(config, &mut Session::new(false))
    }

    fn small() -> Config {
        Config {
            probes: 300,
            populations: vec![12],
            loss_rates: vec![0.0, 0.5],
            rate_limits: vec![100],
            window: 16,
        }
    }

    #[test]
    fn sweep_reconciles_every_cell() {
        let (outcome, report) = run(&small());
        assert!(report.all_hold(), "{report}");
        assert_eq!(outcome.cells.len(), 2);
        for c in &outcome.cells {
            assert!(c.report.reconciled, "{:?}", c.report);
            assert!(!c.report.stuck);
        }
    }

    #[test]
    fn identical_seeds_are_byte_identical() {
        let (a, _) = run(&small());
        let (b, _) = run(&small());
        assert_eq!(a.final_json, b.final_json, "seeded rerun must not drift");
    }

    #[test]
    fn telemetry_run_exports_scanner_series_and_valid_trace() {
        let mut session = Session::new(true);
        let (_, report) = super::run(&small(), &mut session);
        let telem = session.take_telemetry().expect("capturing");
        assert!(report.all_hold(), "{report}");
        assert!(obs::validate::validate_trace(&telem.trace_jsonl).unwrap() > 0);
        let json = telem.snapshot.to_json();
        obs::validate::validate_metrics_json(&json, obs::validate::SCANNER_REQUIRED_SERIES)
            .expect("every scanner_* series present");
    }
}
