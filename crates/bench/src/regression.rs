//! Bench-history regression gate.
//!
//! The harness binaries (`bench_dnsd`, `bench_cache_sim`) write structured
//! JSON reports and append one JSONL history line per measured row. This
//! module closes the loop: a pinned baseline file (`ci/bench_baseline.json`)
//! names the numbers that matter, and [`run_gate`] re-reads the fresh
//! reports and fails when a number drifts past its tolerance band.
//!
//! A baseline is a list of checks:
//!
//! ```json
//! {
//!   "pinned_from": "BENCH_dnsd.json @ 0c96bab",
//!   "checks": [
//!     {"id": "dnsd_qps_w1", "file": "BENCH_dnsd.json", "path": "rows[0].qps",
//!      "kind": "min", "baseline": 121916, "tolerance_pct": 30},
//!     {"id": "dnsd_no_loss_w1", "file": "BENCH_dnsd.json", "path": "rows[0].lost",
//!      "kind": "max_abs", "bound": 0},
//!     {"id": "cache_sim_monotone", "file": "BENCH_cache_sim.json",
//!      "path": "results_identical_across_engines_and_threads", "kind": "bool_true"}
//!   ]
//! }
//! ```
//!
//! Check kinds:
//!
//! - `min` — higher is better; fails when
//!   `actual < baseline * (1 - tolerance_pct/100)`.
//! - `max` — lower is better; fails when
//!   `actual > baseline * (1 + tolerance_pct/100)`.
//! - `min_abs` / `max_abs` — absolute `bound`, no baseline scaling.
//! - `bool_true` — the pointed-at value must be JSON `true`.
//!
//! Paths are dotted with `[N]` array indexing (`rows[2].qps`,
//! `telemetry.lookups_recorded`). A missing file, unparseable
//! report, or dangling path is a **failing** check, never a panic: a gate
//! that errors out green is no gate.

use obs::json::{self, Value};

/// How a check's bound is interpreted.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckKind {
    /// Higher is better: `actual >= baseline * (1 - tol/100)`.
    Min { baseline: f64, tolerance_pct: f64 },
    /// Lower is better: `actual <= baseline * (1 + tol/100)`.
    Max { baseline: f64, tolerance_pct: f64 },
    /// Absolute floor: `actual >= bound`.
    MinAbs { bound: f64 },
    /// Absolute ceiling: `actual <= bound`.
    MaxAbs { bound: f64 },
    /// The value must be the JSON literal `true`.
    BoolTrue,
}

/// One pinned expectation against one report field.
#[derive(Clone, Debug)]
pub struct Check {
    /// Stable identifier, shown in the gate output.
    pub id: String,
    /// Report file the value lives in (relative to the report dir).
    pub file: String,
    /// Dotted path into the report (`rows[0].qps`).
    pub path: String,
    /// Bound semantics.
    pub kind: CheckKind,
}

/// Outcome of evaluating one [`Check`].
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// The check's id.
    pub id: String,
    /// Whether the bound held.
    pub pass: bool,
    /// Human-readable `actual vs bound` line.
    pub detail: String,
}

/// All check outcomes from one gate run.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// One entry per baseline check, in baseline order.
    pub results: Vec<CheckResult>,
}

impl GateReport {
    /// True when every check held.
    pub fn pass(&self) -> bool {
        self.results.iter().all(|r| r.pass)
    }

    /// Count of failing checks.
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| !r.pass).count()
    }

    /// The report as a PASS/FAIL table, one line per check.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(if r.pass { "PASS " } else { "FAIL " });
            out.push_str(&r.id);
            out.push_str(": ");
            out.push_str(&r.detail);
            out.push('\n');
        }
        out.push_str(&format!(
            "{}/{} checks passed\n",
            self.results.len() - self.failures(),
            self.results.len()
        ));
        out
    }
}

/// Walks `path` into `v`: dot-separated object keys, each optionally
/// followed by `[N]` array indices (`rows[0].qps`, `a.b[2][0].c`).
pub fn lookup<'a>(v: &'a Value, path: &str) -> Option<&'a Value> {
    let mut cur = v;
    for seg in path.split('.') {
        let (key, rest) = match seg.find('[') {
            Some(i) => (&seg[..i], &seg[i..]),
            None => (seg, ""),
        };
        if !key.is_empty() {
            cur = cur.as_object()?.get(key)?;
        }
        let mut rest = rest;
        while let Some(stripped) = rest.strip_prefix('[') {
            let close = stripped.find(']')?;
            let idx: usize = stripped[..close].parse().ok()?;
            cur = match cur {
                Value::Arr(items) => items.get(idx)?,
                _ => return None,
            };
            rest = &stripped[close + 1..];
        }
        if !rest.is_empty() {
            return None;
        }
    }
    Some(cur)
}

fn num_field(obj: &std::collections::BTreeMap<String, Value>, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("check missing numeric {key:?}"))
}

fn str_field(obj: &std::collections::BTreeMap<String, Value>, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("check missing string {key:?}"))
}

/// Parses a baseline document into its checks. Errors name the offending
/// field; an empty check list is an error (a vacuous gate is a bug).
pub fn parse_baseline(text: &str) -> Result<Vec<Check>, String> {
    let doc = json::parse(text)?;
    let checks = doc
        .as_object()
        .and_then(|o| o.get("checks"))
        .ok_or("baseline has no \"checks\" array")?;
    let items = match checks {
        Value::Arr(items) => items,
        _ => return Err("\"checks\" is not an array".into()),
    };
    if items.is_empty() {
        return Err("baseline \"checks\" is empty".into());
    }
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let obj = item
            .as_object()
            .ok_or_else(|| format!("checks[{i}] is not an object"))?;
        let id = str_field(obj, "id").map_err(|e| format!("checks[{i}]: {e}"))?;
        let kind_name = str_field(obj, "kind").map_err(|e| format!("checks[{i}] ({id}): {e}"))?;
        let kind = match kind_name.as_str() {
            "min" => CheckKind::Min {
                baseline: num_field(obj, "baseline").map_err(|e| format!("{id}: {e}"))?,
                tolerance_pct: num_field(obj, "tolerance_pct").map_err(|e| format!("{id}: {e}"))?,
            },
            "max" => CheckKind::Max {
                baseline: num_field(obj, "baseline").map_err(|e| format!("{id}: {e}"))?,
                tolerance_pct: num_field(obj, "tolerance_pct").map_err(|e| format!("{id}: {e}"))?,
            },
            "min_abs" => CheckKind::MinAbs {
                bound: num_field(obj, "bound").map_err(|e| format!("{id}: {e}"))?,
            },
            "max_abs" => CheckKind::MaxAbs {
                bound: num_field(obj, "bound").map_err(|e| format!("{id}: {e}"))?,
            },
            "bool_true" => CheckKind::BoolTrue,
            other => return Err(format!("{id}: unknown check kind {other:?}")),
        };
        let file = str_field(obj, "file").map_err(|e| format!("{id}: {e}"))?;
        let path = str_field(obj, "path").map_err(|e| format!("{id}: {e}"))?;
        out.push(Check {
            id,
            file,
            path,
            kind,
        });
    }
    Ok(out)
}

/// Evaluates one check against the already-parsed report it points into.
pub fn evaluate(check: &Check, report: &Value) -> CheckResult {
    let at = format!("{}:{}", check.file, check.path);
    let Some(value) = lookup(report, &check.path) else {
        return CheckResult {
            id: check.id.clone(),
            pass: false,
            detail: format!("{at} not found in report"),
        };
    };
    let (pass, detail) = match &check.kind {
        CheckKind::BoolTrue => match value {
            Value::Bool(b) => (*b, format!("{at} = {b} (want true)")),
            other => (false, format!("{at} = {other:?} (want true)")),
        },
        kind => {
            let Some(actual) = value.as_num() else {
                return CheckResult {
                    id: check.id.clone(),
                    pass: false,
                    detail: format!("{at} is not a number"),
                };
            };
            match kind {
                CheckKind::Min {
                    baseline,
                    tolerance_pct,
                } => {
                    let floor = baseline * (1.0 - tolerance_pct / 100.0);
                    (
                        actual >= floor,
                        format!(
                            "{at} = {actual:.2} (floor {floor:.2} = {baseline:.2} - {tolerance_pct}%)"
                        ),
                    )
                }
                CheckKind::Max {
                    baseline,
                    tolerance_pct,
                } => {
                    let ceil = baseline * (1.0 + tolerance_pct / 100.0);
                    (
                        actual <= ceil,
                        format!(
                            "{at} = {actual:.2} (ceiling {ceil:.2} = {baseline:.2} + {tolerance_pct}%)"
                        ),
                    )
                }
                CheckKind::MinAbs { bound } => (
                    actual >= *bound,
                    format!("{at} = {actual:.2} (min {bound})"),
                ),
                CheckKind::MaxAbs { bound } => (
                    actual <= *bound,
                    format!("{at} = {actual:.2} (max {bound})"),
                ),
                CheckKind::BoolTrue => unreachable!("handled above"),
            }
        }
    };
    CheckResult {
        id: check.id.clone(),
        pass,
        detail,
    }
}

/// Runs every baseline check, loading each referenced report through
/// `load` (path → file contents). Reports are parsed once and cached;
/// load/parse errors fail every check pointing at that file.
pub fn run_gate(
    baseline_text: &str,
    mut load: impl FnMut(&str) -> Result<String, String>,
) -> Result<GateReport, String> {
    let checks = parse_baseline(baseline_text)?;
    let mut cache: std::collections::BTreeMap<String, Result<Value, String>> = Default::default();
    let mut report = GateReport::default();
    for check in &checks {
        let parsed = cache
            .entry(check.file.clone())
            .or_insert_with(|| load(&check.file).and_then(|text| json::parse(&text)));
        report.results.push(match parsed {
            Ok(doc) => evaluate(check, doc),
            Err(e) => CheckResult {
                id: check.id.clone(),
                pass: false,
                detail: format!("{}: {e}", check.file),
            },
        });
    }
    Ok(report)
}

/// One bench-history JSONL line: run metadata (unix seconds, host
/// parallelism) plus the caller's fields, in order. Values are emitted
/// verbatim, so pass pre-formatted JSON scalars (`"42"`, `"1.5"`,
/// `"\"sharded\""`, `"true"`).
pub fn history_line(benchmark: &str, fields: &[(&str, String)]) -> String {
    let unix_ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut line = format!(
        "{{\"benchmark\":\"{}\",\"unix_ts\":{unix_ts},\"nproc\":{nproc}",
        json::escape(benchmark)
    );
    for (key, value) in fields {
        line.push_str(&format!(",\"{}\":{value}", json::escape(key)));
    }
    line.push('}');
    line
}

/// Appends one JSONL line to `path`, creating the file if needed.
pub fn append_history(path: &str, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
        "rows": [
            {"workers": 1, "qps": 121916, "lost": 0},
            {"workers": 2, "qps": 134360, "lost": 0}
        ],
        "monotone_or_flat_1_to_4": true,
        "telemetry": {"overhead_at_parallelism_8": 0.0228}
    }"#;

    const BASELINE: &str = r#"{
        "pinned_from": "test",
        "checks": [
            {"id": "qps_w1", "file": "r.json", "path": "rows[0].qps",
             "kind": "min", "baseline": 121916, "tolerance_pct": 30},
            {"id": "no_loss", "file": "r.json", "path": "rows[1].lost",
             "kind": "max_abs", "bound": 0},
            {"id": "overhead", "file": "r.json", "path": "telemetry.overhead_at_parallelism_8",
             "kind": "max_abs", "bound": 0.05},
            {"id": "monotone", "file": "r.json", "path": "monotone_or_flat_1_to_4",
             "kind": "bool_true"}
        ]
    }"#;

    #[test]
    fn lookup_walks_objects_and_array_indices() {
        let doc = json::parse(REPORT).unwrap();
        assert_eq!(
            lookup(&doc, "rows[1].qps").and_then(Value::as_num),
            Some(134360.0)
        );
        assert_eq!(
            lookup(&doc, "telemetry.overhead_at_parallelism_8").and_then(Value::as_num),
            Some(0.0228)
        );
        assert_eq!(
            lookup(&doc, "rows[0].workers").and_then(Value::as_num),
            Some(1.0)
        );
        assert!(lookup(&doc, "rows[9].qps").is_none());
        assert!(lookup(&doc, "rows[0].nope").is_none());
        assert!(lookup(&doc, "rows[x].qps").is_none());
    }

    #[test]
    fn gate_passes_on_the_pinned_numbers() {
        let report = run_gate(BASELINE, |_| Ok(REPORT.to_string())).unwrap();
        assert!(report.pass(), "{}", report.to_text());
        assert_eq!(report.results.len(), 4);
        assert!(report.to_text().contains("4/4 checks passed"));
    }

    #[test]
    fn gate_fails_on_an_injected_slowdown() {
        // The acceptance demo: halve workers=1 qps (well past the 30%
        // band) and the gate must go red on exactly that check.
        let slowed = REPORT.replace("\"qps\": 121916", "\"qps\": 60958");
        let report = run_gate(BASELINE, |_| Ok(slowed.clone())).unwrap();
        assert!(!report.pass());
        assert_eq!(report.failures(), 1);
        let failing = report.results.iter().find(|r| !r.pass).unwrap();
        assert_eq!(failing.id, "qps_w1");
        assert!(failing.detail.contains("60958"), "{}", failing.detail);
    }

    #[test]
    fn gate_fails_on_regressed_bool_and_ceiling() {
        let worse = REPORT
            .replace("\"lost\": 0}", "\"lost\": 17}")
            .replace("true", "false");
        let report = run_gate(BASELINE, |_| Ok(worse.clone())).unwrap();
        assert!(!report.pass());
        let failed: Vec<&str> = report
            .results
            .iter()
            .filter(|r| !r.pass)
            .map(|r| r.id.as_str())
            .collect();
        assert_eq!(failed, ["no_loss", "monotone"]);
    }

    #[test]
    fn missing_file_or_path_fails_without_panicking() {
        let report = run_gate(BASELINE, |_| Err("no such file".into())).unwrap();
        assert!(!report.pass());
        assert_eq!(report.failures(), 4, "every check on the file fails");

        let baseline_bad_path = BASELINE.replace("rows[0].qps", "rows[0].zps");
        let report = run_gate(&baseline_bad_path, |_| Ok(REPORT.to_string())).unwrap();
        assert!(!report.pass());
        assert!(report.to_text().contains("not found in report"));
    }

    #[test]
    fn baseline_parse_errors_are_loud() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline(r#"{"checks": []}"#).is_err());
        assert!(parse_baseline(r#"{"checks": [{"id": "x"}]}"#)
            .unwrap_err()
            .contains("kind"));
        let unknown = r#"{"checks": [{"id": "x", "kind": "median", "file": "f", "path": "p"}]}"#;
        assert!(parse_baseline(unknown).unwrap_err().contains("median"));
    }

    #[test]
    fn history_line_is_valid_json_with_metadata() {
        let line = history_line(
            "bench_dnsd",
            &[("workers", "4".into()), ("qps", "112151.0".into())],
        );
        let doc = json::parse(&line).expect("history line parses");
        let obj = doc.as_object().unwrap();
        assert_eq!(
            obj.get("benchmark").and_then(Value::as_str),
            Some("bench_dnsd")
        );
        assert!(obj.get("unix_ts").and_then(Value::as_num).unwrap() > 0.0);
        assert!(obj.get("nproc").and_then(Value::as_num).unwrap() >= 1.0);
        assert_eq!(obj.get("qps").and_then(Value::as_num), Some(112151.0));
    }
}
