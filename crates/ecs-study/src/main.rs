//! Experiment runner:
//! `ecs-study [--telemetry [dir]] <experiment-id>|all|list|export-traces <dir>`.
//!
//! One [`Session`] serves the whole invocation: it holds the `ECS_*`
//! scale knobs, the measurements several figures share, and — under
//! `--telemetry` — the metrics + structured-trace capture. After each
//! experiment the registry marks as capturing (`list` tags them
//! `[telemetry]`) the run writes `<id>_metrics.prom`, `<id>_metrics.json`,
//! and `<id>_trace.jsonl` under the given directory (default
//! `telemetry/`), and that experiment's report gains p50/p99 latency
//! rows. Other experiments run unchanged.

use ecs_study::experiments::{registry, ExperimentEntry};
use ecs_study::report::Report;
use ecs_study::Session;

fn export_traces(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let traces = [
        (
            "public_resolver_cdn.tsv",
            workload::PublicCdnTraceGen {
                resolvers: 40,
                subnets_per_resolver: 40,
                hostnames: 150,
                queries: 200_000,
                ..workload::PublicCdnTraceGen::default()
            }
            .generate(),
        ),
        (
            "all_names.tsv",
            workload::AllNamesTraceGen {
                queries: 200_000,
                ..workload::AllNamesTraceGen::default()
            }
            .generate(),
        ),
    ];
    for (file, trace) in traces {
        let path = dir.join(file);
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        workload::write_trace(&trace, &mut out)?;
        std::io::Write::flush(&mut out)?;
        println!("wrote {} records to {}", trace.len(), path.display());
    }
    Ok(())
}

/// Runs one experiment, writing its telemetry artifacts into `dir` when
/// requested and the experiment captures. Returns the report to print.
fn run_one(
    (id, _, captures, runner): &ExperimentEntry,
    session: &mut Session,
    telemetry_dir: Option<&std::path::Path>,
) -> Report {
    let report = runner(session);
    let (Some(dir), true) = (telemetry_dir, *captures) else {
        return report;
    };
    let telemetry = session.take_telemetry().expect("capturing session");
    match telemetry.write(dir, id) {
        Ok(paths) => {
            for p in &paths {
                eprintln!("  telemetry: wrote {}", p.display());
            }
            if let Some((p50, p99, max)) = telemetry.latency_quantiles("resolver_query_latency_us")
            {
                eprintln!("  telemetry: query latency p50 {p50} us, p99 {p99} us, max {max} us");
            }
        }
        Err(e) => {
            eprintln!("  telemetry: write failed: {e}");
            std::process::exit(1);
        }
    }
    report
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = registry();
    let mut telemetry_dir: Option<std::path::PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--telemetry") {
        args.remove(pos);
        // Optional directory operand (must not collide with a command or
        // experiment id); defaults to ./telemetry.
        let is_command = |a: &str| {
            a == "all"
                || a == "list"
                || a == "export-traces"
                || experiments.iter().any(|(id, ..)| *id == a)
        };
        if pos < args.len() && !args[pos].starts_with("--") && !is_command(&args[pos]) {
            telemetry_dir = Some(std::path::PathBuf::from(args.remove(pos)));
        } else {
            telemetry_dir = Some(std::path::PathBuf::from("telemetry"));
        }
    }
    let mut session = Session::from_env(telemetry_dir.is_some());
    let arg = args.first().cloned().unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "list" => {
            println!("available experiments:");
            for (id, title, captures, _) in &experiments {
                let tag = if *captures { "  [telemetry]" } else { "" };
                println!("  {id:<16} {title}{tag}");
            }
        }
        "export-traces" => {
            let dir = args.get(1).cloned().unwrap_or_else(|| "traces".to_string());
            if let Err(e) = export_traces(std::path::Path::new(&dir)) {
                eprintln!("export failed: {e}");
                std::process::exit(1);
            }
        }
        "all" => {
            let mut failed = 0;
            for entry in &experiments {
                eprintln!("running {} ...", entry.0);
                let report = run_one(entry, &mut session, telemetry_dir.as_deref());
                println!("{report}");
                if !report.all_hold() {
                    failed += 1;
                }
            }
            if failed > 0 {
                eprintln!("{failed} experiment(s) had rows that did not hold");
                std::process::exit(1);
            }
        }
        id => match experiments.iter().find(|(eid, ..)| *eid == id) {
            Some(entry) => {
                let report = run_one(entry, &mut session, telemetry_dir.as_deref());
                println!("{report}");
                if !report.all_hold() {
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!("unknown experiment '{id}'; try 'ecs-study list'");
                std::process::exit(2);
            }
        },
    }
}
