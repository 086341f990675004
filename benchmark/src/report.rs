//! Metric names, the per-run report, and the result line the benchmark
//! contract asks for. `BENCHMARK.json` at the repository root lists the
//! same names; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// The six workloads, in the order `all` runs them, each with why it
/// exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve_warm",
        "closed loop, 64 in flight, 4352 pre-resolved (name, /24) keys: 100% cache hits, so batch I/O, wire codec and shared-cache lookup do all the work",
    ),
    (
        "serve_cold",
        "closed loop, 64 in flight, every query a never-seen (name, /24) pair behind a 2 ms scripted upstream: the blocking miss path is the whole cost, the hit path does nothing",
    ),
    (
        "serve_mix",
        "open loop at 5000 qps of CdnStreamGen (name, /24) pairs, TTLs 4-8 s, 1 ms upstream: ~3% misses queue hits behind them, so head-of-line blocking, expiry and inserts push queries over the limit",
    ),
    (
        "replay_stream",
        "CdnStreamGen fig1 stream through CacheSimulator::run_streaming at parallelism 2, then the blow-up CDF: generation dominates, replay does lookups, nothing is evicted",
    ),
    (
        "replay_bounded",
        "a materialised 20k-record trace replayed with capacity 64 at parallelism 1: generation does nothing, the same replay layer evicts on 85% of its records",
    ),
    (
        "scan_sim",
        "seeded forwarder-chain scan (healthy/lossy/dead/refusing groups) over netsim, resolver actors and the authoritative: single-threaded, so its counts repeat exactly",
    ),
];

/// End-to-end metrics: (name, unit). Every untraced run reports all of
/// them (see [`EndToEnd`] for what each means on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("within_limit_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("records_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("probes_per_s", "1/s"),
];

/// Per-layer metrics: (name, unit). Every traced run reports all of them;
/// a layer that did no work on a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("shared_cache.lookup_ns", "ns"),
    ("shared_cache.insert_ns", "ns"),
    ("cache.purge_ns", "ns"),
    ("cache.evict_ns", "ns"),
    ("engine.begin_hit_ns", "ns"),
    ("engine.miss_ns", "ns"),
    ("flight.admit_complete_ns", "ns"),
    ("batch.recv_ns_per_dgram", "ns"),
    ("batch.send_ns_per_dgram", "ns"),
    ("batch.recv_width", "count"),
    ("batch.send_width", "count"),
    ("upstream.exchange_us", "us"),
    ("upstream.reply_lag_us", "us"),
    ("auth.handle_ns", "ns"),
    ("server.hit_ratio", "ratio"),
    ("server.upstream_per_query", "ratio"),
    ("server.coalesced", "count"),
    ("server.malformed_drops", "count"),
    ("server.handle_p50_us", "us"),
    ("server.handle_p99_us", "us"),
    ("server.busy_ratio", "ratio"),
    ("server.stage_recv_share", "ratio"),
    ("server.stage_decode_share", "ratio"),
    ("server.stage_resolve_share", "ratio"),
    ("server.stage_send_share", "ratio"),
    ("server.lock_shard_wait_us", "us"),
    ("client.latency_p50_us", "us"),
    ("client.latency_p90_us", "us"),
    ("client.latency_p99_us", "us"),
    ("loadgen.late_ratio", "ratio"),
    ("loadgen.max_late_us", "us"),
    ("loadgen.resends", "count"),
    ("stream.generate_ns_per_record_p1", "ns"),
    ("stream.work_amplification_p2", "ratio"),
    ("stream.model_build_s", "s"),
    ("replay.ns_per_record_unbounded", "ns"),
    ("replay.ns_per_record_cap64", "ns"),
    ("replay.evictions", "count"),
    ("replay.figure_s", "s"),
    ("scan.sim_events", "count"),
    ("scan.ns_per_event", "ns"),
    ("scan.answered", "count"),
    ("scan.exhausted", "count"),
    ("scan.shed", "count"),
    ("layers.sum_ns_per_query", "ns"),
    ("layers.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What an untraced run measured, before it is spread over the end-to-end
/// names.
///
/// The benchmark contract wants every end-to-end metric from every
/// workload, while each of `qps`, `records_per_s` and `probes_per_s` is
/// native to one path only. A trace record is one DNS query seen at a
/// resolver and a scan probe is one DNS query sent to a forwarder, so all
/// three names count the same thing — queries handled per second — and a
/// workload reports its own rate under all three; the name matching the
/// workload's path is the one to read. `within_limit_ratio` is the share of operations that were correct and
/// met the workload's latency limit; only `serve_mix`, the one workload
/// that serves requests as they arrive, has a limit, and everywhere else
/// every correct operation counts.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Set-up time, seconds (see [`setup_time`]).
    pub setup_s: f64,
    /// Queries / records / probes per second.
    pub ops_per_s: f64,
    /// Share of attempted operations that were correct and within the
    /// latency limit; `None` where the workload has no limit.
    pub within_limit_ratio: Option<f64>,
    /// Peak resident set of the process when measuring ended, MiB.
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    /// For a workload measured as repeated units of `ops_per_unit`
    /// operations (a stream replayed to its figure, a replay pass, a
    /// scan): the rate of the fastest unit (see [`crate::stats::fastest`]).
    pub fn from_units(
        set_ups_s: &[f64],
        ops_per_unit: u64,
        unit_s: &[f64],
        peak_rss_mib: f64,
    ) -> Self {
        EndToEnd {
            setup_s: setup_time(set_ups_s),
            ops_per_s: ops_per_unit as f64 / crate::stats::fastest(unit_s),
            within_limit_ratio: None,
            peak_rss_mib,
        }
    }
}

/// The set-up time a run reports from its repeated set-ups: their lower
/// quartile. A set-up is disturbed like any other unit of work (see
/// [`crate::stats::fastest`]) but takes too long to be repeated hundreds
/// of times, and of a dozen the fastest is one lucky draw; between runs of
/// one commit the lower quartile spread by 8-21% where the median spread
/// by 8-28%.
pub fn setup_time(set_ups_s: &[f64]) -> f64 {
    crate::stats::percentile(set_ups_s, 0.25)
}

/// A note for the human reader: how many units a run timed and how their
/// wall times were spread, so that a disturbed run can be told from a
/// quiet one.
pub fn units_note(what: &str, unit_s: &[f64]) -> String {
    let at = |q: f64| crate::stats::percentile(unit_s, q) * 1e3;
    format!(
        "{} {what} timed: fastest {:.3} ms (reported), lower quartile {:.3} ms, median {:.3} ms, upper quartile {:.3} ms, slowest {:.3} ms",
        unit_s.len(),
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    )
}

/// One run's result.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Operations attempted (queries, records, probes).
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
    /// Whether every whole-run output check passed.
    pub correct: bool,
    /// Validity guards the run breached (late generator, drifted upstream
    /// delay, mis-built workload). An invalid run is not a failed one: its
    /// outputs may be right, but its numbers do not mean what they say.
    pub invalid: Vec<String>,
    /// Lines for the human reader: sample counts, slice counts, exact
    /// counters.
    pub notes: Vec<String>,
    /// Metric values by name: every end-to-end metric for an untraced run,
    /// every per-layer metric for a traced one.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunReport {
    /// `failed / attempted`.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Fills [`RunReport::metrics`] with the end-to-end names.
    pub fn set_end_to_end(&mut self, m: EndToEnd) {
        let ok_ratio = 1.0 - self.fail_ratio();
        self.metrics = BTreeMap::from([
            ("setup_s", m.setup_s),
            ("qps", m.ops_per_s),
            ("records_per_s", m.ops_per_s),
            ("probes_per_s", m.ops_per_s),
            (
                "within_limit_ratio",
                m.within_limit_ratio.unwrap_or(ok_ratio),
            ),
            ("ok_ratio", ok_ratio),
            ("peak_rss_mib", m.peak_rss_mib),
        ]);
    }

    /// Starts the per-layer table: every name present, reading 0.
    pub fn zero_layers(&mut self) {
        self.metrics = PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
    }

    /// Sets one per-layer metric. Panics on a name not in [`PER_LAYER`] —
    /// a typo must not silently add a 47th metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name:?}"));
        self.metrics.insert(key, value);
    }

    /// The result line of the benchmark contract: one JSON object with
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, units: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = units
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (NaN and infinities, which
/// JSON cannot carry, become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Parses a result line back into (correct, attempted, failed, metrics).
pub fn parse_result_line(line: &str) -> Result<(bool, u64, u64, BTreeMap<String, f64>), String> {
    let value = obs::json::parse(line)?;
    let obj = value.as_object().ok_or("result is not an object")?;
    let correct = matches!(obj.get("correct"), Some(obs::json::Value::Bool(true)));
    let num = |key: &str| {
        obj.get(key)
            .and_then(|v| v.as_num())
            .ok_or(format!("result lacks {key}"))
    };
    let metrics = obj
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or("result lacks metrics")?
        .iter()
        .filter_map(|(name, m)| {
            let v = m.as_object()?.get("value")?.as_num()?;
            Some((name.clone(), v))
        })
        .collect();
    Ok((
        correct,
        num("attempted")? as u64,
        num("failed")? as u64,
        metrics,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_within_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=16).contains(&END_TO_END.len()));
        assert_eq!(WORKLOADS.len(), 6);
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = obs::json::parse(&text).expect("valid JSON");
        let root = root.as_object().expect("object");
        let names = |key: &str| -> Vec<(String, String)> {
            let obs::json::Value::Arr(items) = &root[key] else {
                panic!("{key} is not an array");
            };
            items
                .iter()
                .map(|m| {
                    let m = m.as_object().expect("object");
                    let field =
                        |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), pairs(END_TO_END));
        assert_eq!(names("per_layer"), pairs(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_round_trips_with_every_name_and_full_digits() {
        let mut report = RunReport {
            attempted: 1000,
            failed: 1,
            correct: true,
            ..RunReport::default()
        };
        report.set_end_to_end(EndToEnd {
            setup_s: 0.812_734_5,
            ops_per_s: 195_432.123_456,
            within_limit_ratio: Some(0.8125),
            peak_rss_mib: 12.371_093_75,
        });
        let line = report.result_line(END_TO_END);
        assert!(!line.contains('\n'));
        let (correct, attempted, failed, metrics) = parse_result_line(&line).expect("parses");
        assert!(correct);
        assert_eq!((attempted, failed), (1000, 1));
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"], 0.812_734_5);
        assert_eq!(metrics["qps"], 195_432.123_456);
        assert_eq!(metrics["probes_per_s"], metrics["qps"]);
        assert_eq!(metrics["ok_ratio"], 0.999);
        assert_eq!(metrics["within_limit_ratio"], 0.8125);
    }

    #[test]
    fn unit_workloads_report_the_fastest_unit_and_no_limit() {
        let mut report = RunReport {
            attempted: 400,
            correct: true,
            ..RunReport::default()
        };
        // Four units of 100 operations.
        let unit_s = [0.040, 0.010, 0.030, 0.020];
        report.set_end_to_end(EndToEnd::from_units(&[0.5, 0.1, 0.3], 100, &unit_s, 8.0));
        assert_eq!(
            report.metrics["setup_s"], 0.2,
            "lower quartile of 0.1, 0.3, 0.5"
        );
        assert_eq!(report.metrics["records_per_s"], 100.0 / 0.010);
        assert_eq!(report.metrics["within_limit_ratio"], 1.0);
        assert!(
            units_note("scans", &unit_s).starts_with("4 scans timed: fastest 10.000 ms (reported)")
        );
    }

    #[test]
    fn layer_table_starts_complete_and_rejects_unknown_names() {
        let mut report = RunReport::default();
        report.zero_layers();
        assert_eq!(report.metrics.len(), PER_LAYER.len());
        report.layer("wire.decode_ns", 412.0);
        assert_eq!(report.metrics["wire.decode_ns"], 412.0);
        let caught = std::panic::catch_unwind(move || report.layer("wire.decod_ns", 1.0));
        assert!(caught.is_err());
        assert_eq!(json_number(f64::NAN), "0");
    }
}
