//! `all` and `aa`: every workload, each in a child process of its own.
//!
//! `all` runs the untraced pass (and, with `--trace`, the traced pass) of
//! every workload and prints one table per pass. `aa` runs that full set
//! several times on the same commit and seed — an A/A comparison — and
//! holds the run-to-run spread of every end-to-end metric against the
//! bound `BENCHMARK.json` fixes for it: a bound narrower than the noise
//! would flag changes that changed nothing.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::report::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{stats, Args};

/// Per-layer metrics that are exact counts: equal across runs of one seed.
const EXACT: &[&str] = &[
    "replay.evictions",
    "scan.sim_events",
    "scan.answered",
    "scan.exhausted",
    "scan.shed",
];

/// Smallest bound `--derive` writes for each end-to-end metric: the
/// worsening that counts as a regression even on a noiseless machine.
const BOUND_FLOORS: &[(&str, f64)] = &[
    ("setup_s", 0.20),
    ("qps", 0.06),
    ("within_limit_ratio", 0.02),
    ("ok_ratio", 0.001),
    ("records_per_s", 0.05),
    ("peak_rss_mib", 0.05),
    ("probes_per_s", 0.04),
];
/// Largest bound the benchmark contract accepts.
const BOUND_CAP: f64 = 0.25;

/// Whether `metric` is the one to read on `workload` (the contract has
/// every workload report every end-to-end name; see `report::EndToEnd`).
fn native(workload: &str, metric: &str) -> bool {
    match metric {
        "setup_s" | "ok_ratio" => true,
        "qps" => matches!(workload, "serve_warm" | "serve_cold"),
        "within_limit_ratio" => workload == "serve_mix",
        "records_per_s" => workload.starts_with("replay"),
        "peak_rss_mib" => workload == "replay_stream",
        "probes_per_s" => workload == "scan_sim",
        _ => false,
    }
}

/// What a child run reported.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    invalid: Vec<String>,
}

impl Child {
    /// No output check failed and no validity guard tripped.
    fn clean(&self) -> bool {
        self.correct && self.failed == 0 && self.invalid.is_empty()
    }
}

/// Runs one workload in a child process and parses its result line.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .arg("--workload")
        .arg(workload)
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .arg("--trace")
        .arg(if trace { "1" } else { "0" })
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, rest) = lines
        .split_last()
        .ok_or(format!("{workload} printed nothing"))?;
    for line in rest
        .iter()
        .filter(|l| l.starts_with("note:") || l.starts_with("invalid:"))
    {
        println!("  {workload}: {line}");
    }
    let (correct, attempted, failed, metrics) = report::parse_result_line(last)?;
    Ok(Child {
        correct,
        attempted,
        failed,
        metrics,
        invalid: rest
            .iter()
            .filter_map(|l| l.strip_prefix("invalid: ").map(str::to_string))
            .collect(),
    })
}

/// One pass over every workload; `Err` names the first that did not run.
fn run_set(args: &Args, trace: bool) -> Result<Vec<(&'static str, Child)>, String> {
    WORKLOADS
        .iter()
        .map(|(workload, _)| {
            eprintln!(
                "running {workload} ({} pass, {} s, seed {}) ...",
                if trace { "traced" } else { "untraced" },
                args.seconds,
                args.seed
            );
            run_child(args, workload, trace).map(|c| (*workload, c))
        })
        .collect()
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() < 0.001 {
        format!("{v:.2e}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Metrics down, workloads across; `*` marks the cells native to a
/// workload's own path.
fn print_table(title: &str, units: &[(&str, &str)], set: &[(&str, Child)], mark_native: bool) {
    println!("\n== {title} ==");
    print!("{:<34} {:<6}", "metric", "unit");
    for (workload, _) in set {
        print!(" {workload:>15}");
    }
    println!();
    for (name, unit) in units {
        print!("{name:<34} {unit:<6}");
        for (workload, child) in set {
            let v = child.metrics.get(*name).copied().unwrap_or(0.0);
            let mark = if mark_native && native(workload, name) {
                "*"
            } else {
                ""
            };
            print!(" {:>15}", format!("{}{mark}", format_value(v)));
        }
        println!();
    }
}

fn print_counts(set: &[(&str, Child)]) {
    for (label, pick) in [
        (
            "attempted",
            (|c: &Child| c.attempted as f64) as fn(&Child) -> f64,
        ),
        ("failed", |c| c.failed as f64),
        ("fail_ratio", |c| {
            c.failed as f64 / c.attempted.max(1) as f64
        }),
    ] {
        print!(
            "{label:<34} {:<6}",
            if label == "fail_ratio" {
                "ratio"
            } else {
                "count"
            }
        );
        for (_, child) in set {
            print!(" {:>15}", format_value(pick(child)));
        }
        println!();
    }
}

fn verdict(sets: &[Vec<(&str, Child)>]) -> bool {
    let mut clean = true;
    for (workload, child) in sets.iter().flatten() {
        if !child.clean() {
            clean = false;
            println!(
                "NOT CLEAN {workload}: correct={} failed={} invalid={:?}",
                child.correct, child.failed, child.invalid
            );
        }
    }
    clean
}

/// `all`: every workload once (twice with `--trace`), one table per pass.
pub fn run_all(args: &Args) -> ExitCode {
    println!("machine: {}", crate::machine::Machine::probe().describe());
    let mut sets = Vec::new();
    for trace in [false, true] {
        if trace && !args.trace {
            break;
        }
        let set = match run_set(args, trace) {
            Ok(set) => set,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if trace {
            let title = format!(
                "per-layer metrics: traced pass, seed {}, span files in {}",
                args.seed,
                args.out.display()
            );
            print_table(&title, PER_LAYER, &set, false);
        } else {
            let title = format!(
                "end-to-end metrics: untraced pass, seed {}, {} s per workload (* = native to the workload)",
                args.seed, args.seconds
            );
            print_table(&title, END_TO_END, &set, true);
            print_counts(&set);
        }
        sets.push(set);
    }
    if verdict(&sets) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Bounds by end-to-end metric name, from `BENCHMARK.json`.
fn read_bounds(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let root = obs::json::parse(text)?;
    let Some(obs::json::Value::Arr(items)) = root.as_object().and_then(|o| o.get("end_to_end"))
    else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    Ok(items
        .iter()
        .filter_map(|m| {
            let m = m.as_object()?;
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_num()?,
            ))
        })
        .collect())
}

/// Spread of `values` as the contract's acceptance check takes it —
/// quartile distance over median — or, below four values where quartiles
/// mean little, the full range over the median.
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return stats::quartile_spread(values).unwrap_or(0.0);
    }
    let med = stats::median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / med.abs()
}

/// Replaces the `"bound"` of each end-to-end metric's line in the text of
/// `BENCHMARK.json` (one metric per line, as the file is kept).
fn rewrite_bounds(text: &str, bounds: &BTreeMap<String, f64>) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let replaced = bounds.iter().find_map(|(name, bound)| {
            let at = line.find(&format!("\"name\": \"{name}\""))?;
            let key = line[at..].find("\"bound\": ")? + at + "\"bound\": ".len();
            let end = line[key..]
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .map_or(line.len(), |e| key + e);
            Some(format!("{}{bound}{}", &line[..key], &line[end..]))
        });
        out.push_str(replaced.as_deref().unwrap_or(line));
        out.push('\n');
    }
    out
}

/// `aa`: the full set `--runs` times, spreads against bounds.
pub fn run_aa(args: &Args) -> ExitCode {
    let json_path = args.root.join("BENCHMARK.json");
    let text = match std::fs::read_to_string(&json_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", json_path.display());
            return ExitCode::FAILURE;
        }
    };
    let bounds = match read_bounds(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("machine: {}", crate::machine::Machine::probe().describe());
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for run in 1..=args.runs {
        eprintln!("A/A set {run} of {} ...", args.runs);
        for (trace, sets) in [(false, &mut untraced), (true, &mut traced)] {
            match run_set(args, trace) {
                Ok(set) => sets.push(set),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let mut ok = verdict(&untraced) & verdict(&traced);
    let mut widest: BTreeMap<&str, f64> = BTreeMap::new();
    println!(
        "\n== A/A: {} sets, seed {}, {} s per workload; spread = {} ==",
        args.runs,
        args.seed,
        args.seconds,
        if args.runs >= 4 {
            "(q3-q1)/median"
        } else {
            "(max-min)/median"
        }
    );
    println!(
        "{:<15} {:<16} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        for (metric, _) in END_TO_END {
            let values: Vec<f64> = untraced
                .iter()
                .map(|set| set[w].1.metrics.get(*metric).copied().unwrap_or(0.0))
                .collect();
            let s = spread(&values);
            let bound = bounds.get(*metric).copied().unwrap_or(0.0);
            let w = widest.entry(metric).or_insert(0.0);
            *w = w.max(s);
            // Set-up time is reported but, as in the contract's own
            // check, its spread is not held to its bound.
            let held = s <= bound || *metric == "setup_s";
            ok &= held;
            println!(
                "{workload:<15} {metric:<16} {:>14} {:>8.2}% {:>7.1}%  {}{}",
                format_value(stats::median(&values)),
                s * 100.0,
                bound * 100.0,
                if !held {
                    "BREACH"
                } else if s * 3.0 <= bound {
                    "steady"
                } else {
                    "within"
                },
                if native(workload, metric) { " *" } else { "" }
            );
        }
    }
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        for metric in EXACT {
            let values: Vec<f64> = traced
                .iter()
                .map(|set| set[w].1.metrics.get(*metric).copied().unwrap_or(0.0))
                .collect();
            if values.iter().any(|v| *v != values[0]) {
                ok = false;
                println!("EXACT COUNT DIFFERS {workload} {metric}: {values:?}");
            }
        }
    }
    println!("exact-count metrics {EXACT:?} compared across the traced sets");

    if args.derive {
        let derived: BTreeMap<String, f64> = BOUND_FLOORS
            .iter()
            .map(|&(metric, floor)| {
                let noise = 2.0 * widest.get(metric).copied().unwrap_or(0.0);
                // Three decimals, rounded up: never below what was seen.
                let bound = (floor.max(noise).min(BOUND_CAP) * 1000.0).ceil() / 1000.0;
                (metric.to_string(), bound)
            })
            .collect();
        if let Err(e) = std::fs::write(&json_path, rewrite_bounds(&text, &derived)) {
            eprintln!("cannot write {}: {e}", json_path.display());
            return ExitCode::FAILURE;
        }
        println!("bounds derived as max(floor, 2 x widest spread) and written: {derived:?}");
    }
    if ok {
        println!("A/A: every spread within its bound, every run clean");
        ExitCode::SUCCESS
    } else {
        println!("A/A: FAILED (see BREACH / NOT CLEAN / EXACT COUNT lines)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_end_to_end_metric_is_native_somewhere_and_has_a_floor() {
        for (metric, _) in END_TO_END {
            assert!(
                WORKLOADS.iter().any(|(w, _)| native(w, metric)),
                "{metric} is native to no workload"
            );
            assert!(
                BOUND_FLOORS.iter().any(|(m, _)| m == metric),
                "{metric} has no floor"
            );
        }
        assert!(EXACT.iter().all(|e| PER_LAYER.iter().any(|(n, _)| n == e)));
    }

    #[test]
    fn spread_uses_range_below_four_values_and_quartiles_from_four() {
        assert_eq!(spread(&[100.0, 110.0]), 10.0 / 105.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn bounds_are_read_and_rewritten_line_by_line() {
        let text = "{\n  \"end_to_end\": [\n    {\"name\": \"qps\", \"unit\": \"1/s\", \"better\": \"higher\", \"bound\": 0.06},\n    {\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.2}\n  ]\n}\n";
        let bounds = read_bounds(text).expect("parses");
        assert_eq!(bounds["qps"], 0.06);
        assert_eq!(bounds["setup_s"], 0.2);
        let rewritten = rewrite_bounds(text, &BTreeMap::from([("qps".to_string(), 0.081)]));
        let again = read_bounds(&rewritten).expect("still parses");
        assert_eq!(again["qps"], 0.081);
        assert_eq!(again["setup_s"], 0.2);
        assert_eq!(rewritten.lines().count(), text.lines().count());
    }
}
