//! One benchmark for the repository's end-to-end paths.
//!
//! * client → `dnsd` → upstream → client: `serve_warm`, `serve_cold`,
//!   `serve_mix`;
//! * seed → generate → replay → figure: `replay_stream`, `replay_bounded`;
//! * the simulated scan over `netsim` and the resolver actors: `scan_sim`.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints, as the last line of standard output, the JSON
//! result the benchmark contract describes: every end-to-end metric for an
//! untraced run, every per-layer metric for a traced one. `all` runs every
//! workload in a child process of its own (so peak memory is per workload)
//! and prints one table; `aa` repeats that and holds the run-to-run spread
//! of every metric against its bound in `BENCHMARK.json`. See README.md.

mod aa;
mod gen;
mod loadgen;
mod machine;
mod replay;
mod report;
mod scan;
mod serve;
mod spans;
mod stats;
mod upstream;

use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{RunReport, END_TO_END, PER_LAYER, WORKLOADS};

/// What one workload run is given.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// Whether this is the traced pass.
    pub trace: bool,
    /// The span recorder (recording only in the traced pass).
    pub rec: spans::Recorder,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `all`, `aa`, or empty when `--workload` selects a single run.
    pub command: String,
    /// The single workload to run in this process.
    pub workload: Option<String>,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Traced pass (single run), or also run the traced pass (`all`).
    pub trace: bool,
    /// Where span files go.
    pub out: PathBuf,
    /// Repository root (where `BENCHMARK.json` lives).
    pub root: PathBuf,
    /// `aa`: how many full sets to run.
    pub runs: usize,
    /// `aa`: write derived bounds into `BENCHMARK.json`.
    pub derive: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: ecs-benchmark [all|aa] [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]\n\
         \x20                    [--out DIR] [--root DIR] [--runs N] [--derive]\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        root: PathBuf::from("."),
        runs: 2,
        derive: false,
    };
    let mut raw = raw.peekable();
    while let Some(arg) = raw.next() {
        let mut value = |what: &str| raw.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "all" | "aa" => args.command = arg,
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--derive" => args.derive = true,
            "--trace" => {
                // `--trace 0|1` from the driver; a bare `--trace` means on.
                args.trace = match raw.peek().map(String::as_str) {
                    Some("0") => {
                        raw.next();
                        false
                    }
                    Some("1") => {
                        raw.next();
                        true
                    }
                    _ => true,
                }
            }
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    if args.runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    Ok(args)
}

/// Threads a workload keeps busy: the load generator and the one server
/// worker; two replay shards; the single-threaded simulator.
fn busy_threads(workload: &str) -> usize {
    match workload {
        "replay_bounded" | "scan_sim" => 1,
        _ => 2,
    }
}

fn dispatch(workload: &str, ctx: &mut Ctx) -> Option<io::Result<RunReport>> {
    Some(match workload {
        "serve_warm" => serve::run(&serve::WARM, ctx),
        "serve_cold" => serve::run(&serve::COLD, ctx),
        "serve_mix" => serve::run(&serve::MIX, ctx),
        "replay_stream" => replay::run_stream(ctx),
        "replay_bounded" => replay::run_bounded(ctx),
        "scan_sim" => scan::run(ctx),
        _ => return None,
    })
}

/// Prints the per-layer table of a traced run from its spans: self time
/// per span name, widest first.
fn print_span_table(rec: &spans::Recorder) {
    let mut rows: Vec<_> = rec.layers().into_iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    println!(
        "{:<30} {:>8} {:>14} {:>14} {:>12}",
        "span", "calls", "self_ms", "items", "ns/item"
    );
    for (name, t) in rows {
        println!(
            "{name:<30} {:>8} {:>14.3} {:>14} {:>12.1}",
            t.calls,
            t.self_ns as f64 / 1e6,
            t.count,
            t.ns_per_item()
        );
    }
}

/// One workload in this process: the contract's single run.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let Some((_, why)) = WORKLOADS.iter().find(|(n, _)| *n == workload) else {
        eprintln!("unknown workload {workload:?}\n{}", usage());
        return ExitCode::from(2);
    };
    let machine = machine::Machine::probe();
    println!("workload {workload}: {why}");
    println!(
        "machine: {}; seed {}, {} s measured, {} pass{}",
        machine.describe(),
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        if workload.starts_with("serve") {
            "; all traffic crosses the host loopback interface"
        } else {
            ""
        }
    );
    if busy_threads(workload) > machine.nproc {
        eprintln!(
            "refusing {workload}: it keeps {} threads busy and this machine offers {}",
            busy_threads(workload),
            machine.nproc
        );
        return ExitCode::from(3);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        rec: spans::Recorder::new(workload, args.trace),
    };
    let report = match dispatch(workload, &mut ctx).expect("workload is in WORKLOADS") {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{workload} failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("note: {note}");
    }
    for reason in &report.invalid {
        println!("invalid: {reason}");
    }
    let units = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        let path = args.out.join(format!("trace-{workload}.jsonl"));
        match ctx.rec.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                ctx.rec.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        print_span_table(&ctx.rec);
    } else {
        println!(
            "fail_ratio {} ratio ({} of {})",
            report::json_number(report.fail_ratio()),
            report.failed,
            report.attempted
        );
    }
    for (name, unit) in units {
        let v = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name} {} {unit}", report::json_number(v));
    }
    println!("{}", report.result_line(units));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.command.as_str()) {
        (Some(workload), _) => run_one(workload, &args),
        (None, "aa") => aa::run_aa(&args),
        (None, _) => aa::run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload serve_mix --seed 42 --seconds 10 --trace 0").expect("parses");
        assert_eq!(a.workload.as_deref(), Some("serve_mix"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, false));
        let a = parse("--workload scan_sim --seed 7 --seconds 5 --trace 1").expect("parses");
        assert!(a.trace);
    }

    #[test]
    fn parses_the_human_command_lines() {
        let a = parse("all --seed 3 --trace").expect("parses");
        assert_eq!((a.command.as_str(), a.seed, a.trace), ("all", 3, true));
        let a = parse("aa --runs 5 --derive --root /x").expect("parses");
        assert_eq!((a.command.as_str(), a.runs, a.derive), ("aa", 5, true));
        assert_eq!(a.root, PathBuf::from("/x"));
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus").is_err());
        assert!(parse("aa --runs 1").is_err());
    }

    #[test]
    fn every_workload_dispatches_and_fits_this_machine_class() {
        for (name, _) in WORKLOADS {
            assert!(busy_threads(name) <= 2, "{name} sized for a 2-core runner");
        }
        let mut ctx = Ctx {
            seed: 1,
            seconds: 1.0,
            trace: false,
            rec: spans::Recorder::new("x", false),
        };
        assert!(dispatch("no_such_workload", &mut ctx).is_none());
    }
}
