//! Figure 2 (§7.1): cache blow-up factor vs client-population fraction,
//! over the All-Names trace (single busy resolver, real TTLs and scopes).
//!
//! Paper: the blow-up grows from ~1.7 at 10% of clients to 4.3 at 100%,
//! without flattening — busier resolvers pay more.
//!
//! The trace streams from an [`AllNamesStreamGen`] model (never
//! materialized), so the client population scales to tens of millions
//! under a bounded memory footprint.
//!
//! Figures 2 and 3 are two readings of one measurement, as in the paper:
//! `sweep` replays every (fraction, sample) cell once through the
//! dual-mode simulator and each figure's `view` reads its own fields.
//! The registry's default sweep honors two scale knobs:
//!
//! * `ECS_STREAM_QUERIES=N` — override the record count and collapse the
//!   fraction sweep to its last entry (full population) with one sample.
//! * `ECS_STREAM_CLIENTS=N` — target total client population; the subnet
//!   counts are rescaled preserving the v4:v6 mix.

use analysis::{CacheSimConfig, CacheSimResult, CacheSimulator};
use workload::AllNamesStreamGen;

use crate::report::Report;
use crate::session::Session;

/// Parameters (shared with Figure 3).
#[derive(Debug, Clone)]
pub struct Config {
    /// Streaming trace model.
    pub stream: AllNamesStreamGen,
    /// Client fractions to sweep (percent).
    pub fractions: Vec<u8>,
    /// Random samples per fraction (paper: 3).
    pub samples: usize,
    /// Worker threads for the replay engine (results are identical for
    /// every value; a single-resolver trace replays on one).
    pub parallelism: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            stream: AllNamesStreamGen::default(),
            fractions: vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
            samples: 3,
            parallelism: analysis::default_parallelism(),
        }
    }
}

impl Config {
    /// Applies the `ECS_STREAM_QUERIES` / `ECS_STREAM_CLIENTS` scale knobs.
    pub(crate) fn scaled(mut self, queries: Option<u64>, clients: Option<u64>) -> Self {
        if let Some(queries) = queries {
            self.stream.queries = queries.max(1);
            if self.fractions.len() > 1 {
                self.fractions.drain(..self.fractions.len() - 1);
            }
            self.samples = 1;
        }
        if let Some(clients) = clients {
            let stream = &mut self.stream;
            let cps = stream.clients_per_subnet.max(1) as u64;
            let subnets = (clients / cps).max(1);
            let total = (stream.v4_subnets + stream.v6_subnets).max(1);
            let v6 = subnets * stream.v6_subnets / total;
            stream.v4_subnets = subnets.saturating_sub(v6).max(1);
            stream.v6_subnets = v6;
        }
        self
    }
}

/// Result: (fraction, mean blow-up).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Series points.
    pub points: Vec<(u8, f64)>,
}

/// The §7 population sweep: one dual-mode replay per (fraction %, sample
/// seed), fraction-major.
pub(crate) fn sweep(config: &Config) -> Vec<(u8, u64, CacheSimResult)> {
    let source = config.stream.source();
    let mut runs = Vec::with_capacity(config.fractions.len() * config.samples);
    for &pct in &config.fractions {
        for seed in 0..config.samples as u64 {
            let sim = CacheSimulator::new(CacheSimConfig {
                sample_pct: pct,
                sample_seed: seed,
                parallelism: config.parallelism,
                ..CacheSimConfig::default()
            });
            runs.push((pct, seed, sim.run_streaming(&source)));
        }
    }
    runs
}

/// Mean of `read` over each fraction's samples, in sweep order.
pub(crate) fn mean_per_fraction(
    runs: &[(u8, u64, CacheSimResult)],
    read: impl Fn(&CacheSimResult) -> f64,
) -> Vec<(u8, f64)> {
    runs.chunk_by(|a, b| a.0 == b.0)
        .map(|cell| {
            let sum: f64 = cell.iter().map(|(_, _, result)| read(result)).sum();
            (cell[0].0, sum / cell.len() as f64)
        })
        .collect()
}

/// The trailing detail line both figures print.
pub(crate) fn stream_footer(config: &Config) -> String {
    format!(
        "streamed {} records over {} v4 + {} v6 client subnets\n",
        config.stream.queries, config.stream.v4_subnets, config.stream.v6_subnets
    )
}

/// Runs the experiment.
pub fn run(config: &Config) -> (Outcome, Report) {
    view(config, &sweep(config))
}

/// Figure 2 read off a [`sweep`] of `config`.
pub(crate) fn view(config: &Config, runs: &[(u8, u64, CacheSimResult)]) -> (Outcome, Report) {
    // Single-resolver trace: one entry.
    let points = mean_per_fraction(runs, |result| {
        result
            .per_resolver
            .first()
            .map(|r| r.blowup_factor())
            .unwrap_or(1.0)
    });

    let mut report = Report::new("fig2", "cache blow-up vs client population");
    let first = points.first().map(|(_, b)| *b).unwrap_or(1.0);
    let last = points.last().map(|(_, b)| *b).unwrap_or(1.0);
    report.row(
        "blow-up at full population",
        "4.3",
        format!("{last:.2}"),
        last > 2.0,
    );
    report.row(
        "grows with population",
        "monotone ↑ (1.7 → 4.3)",
        format!("{first:.2} → {last:.2}"),
        points.windows(2).all(|w| w[1].1 > w[0].1),
    );
    // No flattening: the last step still increases.
    if points.len() >= 2 {
        let prev = points[points.len() - 2].1;
        report.row(
            "no flattening at 100%",
            "still rising",
            format!("{prev:.2} → {last:.2}"),
            last > prev,
        );
    }
    let mut detail = String::from("pct  blow-up\n");
    for (pct, b) in &points {
        detail.push_str(&format!("{pct:>3}  {b:.2}\n"));
    }
    detail.push_str(&stream_footer(config));
    report.detail = detail;
    (Outcome { points }, report)
}

/// Registry entry point: Figure 2 off the session's population sweep.
pub fn run_default(session: &mut Session) -> Report {
    let runs = session.population_sweep();
    view(&session.population, &runs).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blowup_grows_with_population() {
        let config = Config {
            stream: AllNamesStreamGen {
                v4_subnets: 300,
                v6_subnets: 60,
                slds: 300,
                queries: 120_000,
                ..AllNamesStreamGen::default()
            },
            fractions: vec![10, 50, 100],
            samples: 2,
            parallelism: 2,
        };
        let (out, _report) = run(&config);
        assert_eq!(out.points.len(), 3);
        let b10 = out.points[0].1;
        let b100 = out.points[2].1;
        assert!(b100 > b10, "{b10} vs {b100}");
        assert!(b100 > 1.5, "{b100}");
    }
}
