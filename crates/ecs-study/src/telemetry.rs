//! Telemetry artifacts of an experiment run.
//!
//! An experiment that captures records into its [`Session`](crate::Session);
//! [`Session::take_telemetry`](crate::Session::take_telemetry) hands the
//! result over as a [`Telemetry`]: the merged metrics snapshot of every
//! resolver/cache/simulator registry the experiment touched, plus the
//! JSON-lines trace of every resolution recorded by the session's
//! [`obs::Tracer`]. [`Telemetry::write`] lays the artifacts out as
//! `<id>_metrics.prom`, `<id>_metrics.json`, and `<id>_trace.jsonl` —
//! the files the CI telemetry-validation step feeds to `obs-validate`.

use std::path::{Path, PathBuf};

use obs::MetricsSnapshot;

/// Captured telemetry of one experiment run.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Merged metrics of every registry the run touched.
    pub snapshot: MetricsSnapshot,
    /// JSON-lines structured trace of the run's resolutions.
    pub trace_jsonl: String,
}

impl Telemetry {
    /// `(p50, p99, max)` of a latency histogram series, when recorded.
    pub fn latency_quantiles(&self, series: &str) -> Option<(u64, u64, u64)> {
        let h = self.snapshot.histogram(series)?;
        if h.count == 0 {
            return None;
        }
        Some((h.quantile(0.5), h.quantile(0.99), h.max))
    }

    /// Writes the three artifact files under `dir`, returning their paths
    /// (Prometheus text, JSON snapshot, JSON-lines trace, in that order).
    pub fn write(&self, dir: &Path, id: &str) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let prom = dir.join(format!("{id}_metrics.prom"));
        std::fs::write(&prom, self.snapshot.to_prometheus())?;
        let json = dir.join(format!("{id}_metrics.json"));
        std::fs::write(&json, self.snapshot.to_json())?;
        let trace = dir.join(format!("{id}_trace.jsonl"));
        std::fs::write(&trace, &self.trace_jsonl)?;
        Ok(vec![prom, json, trace])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_three_artifacts() {
        let reg = obs::MetricsRegistry::new();
        reg.counter("x_total").add(2);
        let t = Telemetry {
            snapshot: reg.snapshot(),
            trace_jsonl:
                "{\"trace\":1,\"span\":1,\"parent\":0,\"at_us\":0,\"event\":\"tcp_fallback\"}\n"
                    .to_string(),
        };
        let dir = std::env::temp_dir().join("ecs_study_telemetry_test");
        let paths = t.write(&dir, "demo").unwrap();
        assert_eq!(paths.len(), 3);
        let prom = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(prom.contains("x_total 2"));
        let json = std::fs::read_to_string(&paths[1]).unwrap();
        assert!(obs::validate::validate_metrics_json(&json, &["x_total"]).is_ok());
        let trace = std::fs::read_to_string(&paths[2]).unwrap();
        assert_eq!(obs::validate::validate_trace(&trace), Ok(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
