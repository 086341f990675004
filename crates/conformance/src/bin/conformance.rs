//! Conformance harness CLI: runs the §6 oracle matrix and the engine-vs-
//! dnsd differential, writes a JSON report, exits non-zero on failure.
//!
//! ```text
//! conformance [--out report.json] [--queries 10000] [--seed 1] [--skip-differential]
//! ```
//!
//! Without loopback sockets the differential section is skipped with a
//! note, unless `ECS_REQUIRE_LOOPBACK` is set in the environment (CI sets
//! it so a socket-less runner fails loudly instead of passing quietly).

use std::process::ExitCode;

use conformance::differential;
use resolver::Transport;

fn main() -> ExitCode {
    let mut out = String::from("conformance_report.json");
    let mut queries = differential::DIFF_QUERIES;
    let mut seed = 1u64;
    let mut skip_differential = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            "--queries" => {
                queries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--queries needs a number")
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number")
            }
            "--skip-differential" => skip_differential = true,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut report = conformance::run_matrix(Transport::Udp);
    eprintln!(
        "conformance: {} matrix cells ({} failing)",
        report.cells.len(),
        report.cells.iter().filter(|c| !c.pass()).count()
    );

    if skip_differential {
        report
            .notes
            .push("differential skipped by --skip-differential".to_string());
    } else if !dnsd::testutil::loopback_available() {
        if std::env::var_os("ECS_REQUIRE_LOOPBACK").is_some() {
            eprintln!("conformance: no loopback sockets but ECS_REQUIRE_LOOPBACK is set");
            return ExitCode::FAILURE;
        }
        report
            .notes
            .push("differential skipped: no loopback UDP socket available".to_string());
    } else {
        match differential::run_differential(queries, seed, 1, Transport::Udp) {
            Ok(d) => {
                eprintln!(
                    "differential: {} queries, {} mismatched answers, {} metric deltas ({} off-whitelist), {} socket timeouts",
                    d.queries,
                    d.mismatched_answers,
                    d.deltas.len(),
                    d.unexpected_deltas().count(),
                    d.socket_timeouts
                );
                report.differential = Some(d);
            }
            Err(e) => {
                eprintln!("conformance: differential run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let json = report.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("conformance: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("conformance: report written to {out}");

    if report.passed() {
        eprintln!("conformance: PASS");
        ExitCode::SUCCESS
    } else {
        for f in report.failures() {
            eprintln!("conformance: FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
