//! §6.2 Table 1: ECS source prefix lengths, from one scan of dataset (ii).
//!
//! We plant the Scan-dataset egress population with its ground-truth
//! prefix policies, put three healthy open forwarders in front of each
//! resolver (each in its own /24 or /48, so a jammed /32 shows as one
//! final octet across distinct prefixes), and scan every forwarder once
//! with the `scanner` pipeline over `netsim`. Probes carry no ECS — the
//! resolvers add it — and the experimental authoritative (scope
//! L = S − 4) logs what it saw; Table 1 is that log, tabulated, including
//! the jammed-last-byte detection.
//!
//! The registry's run honours two knobs: `ECS_SCAN_PROBES` sets the probe
//! count (round-robin over the planted forwarders) and `ECS_SCAN_JSON`
//! names a file receiving `{"report":…,"table1":…}` — the scan's exact
//! counters and the table's rows; two runs write byte-identical files.

use analysis::PrefixLengthTable;
use netsim::SimDuration;
use scanner::{run_scan_with, ForwarderChainSpec, RoundRobinFeed, ScanConfig, ScanReport};
use topology::AddrAllocator;
use workload::{PrefixClass, ScanDatasetGen, PREFIX_TABLE};

use crate::behavior::resolver_config_for;
use crate::report::Report;
use crate::session::Session;

/// Open forwarders per egress resolver.
const FORWARDERS_PER_RESOLVER: usize = 3;
/// RNG seed of the population and of the scan.
const SEED: u64 = 0;
/// The first of the 32-bit private-use AS numbers: resolver `i`'s
/// forwarders sit in AS `FIRST_ASN + i`, one rate-limit bucket each.
const FIRST_ASN: u32 = 4_200_000_000;

/// Parameters: the one a caller sets. The rest are the constants above.
#[derive(Debug, Clone)]
pub struct Config {
    /// Divisor on the paper's counts.
    pub scale: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { scale: 4 }
    }
}

/// Outcome.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The tabulated Table 1.
    pub table: PrefixLengthTable,
    /// The scan that observed it (exact counters).
    pub scan: ScanReport,
}

impl Outcome {
    /// Deterministic JSON: `{"report":<scan counters>,"table1":{<row
    /// label>:<resolvers>,…}}`, rows in label order.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .table
            .rows
            .iter()
            .map(|(label, count)| format!("\"{}\":{count}", obs::json::escape(label)))
            .collect();
        format!(
            "{{\"report\":{},\"table1\":{{{}}}}}",
            self.scan.to_json(),
            rows.join(",")
        )
    }
}

/// Runs the experiment: one probe per planted forwarder, no telemetry.
pub fn run(config: &Config) -> (Outcome, Report) {
    run_with(config, None, &mut Session::new(false))
}

/// Runs the experiment with `probes` probes (`None`: one per planted
/// forwarder). When `session` captures telemetry, the scan's `scanner_*` /
/// `netsim_*` metrics and probe spans are recorded into it.
fn run_with(config: &Config, probes: Option<u64>, session: &mut Session) -> (Outcome, Report) {
    let population = ScanDatasetGen::scaled(config.scale, SEED).generate();
    // Every resolver's forwarders come from one block sequence; host 1 of
    // each block is taken by the population's own resolvers.
    let mut alloc = AddrAllocator::new();
    let mut spec = ForwarderChainSpec::new(SEED);
    for (i, resolver) in population.iter().enumerate() {
        let v6 = matches!(
            resolver.prefix,
            PrefixClass::V6Slash56 | PrefixClass::V6Slash48 | PrefixClass::V6Slash128
        );
        let forwarders = (0..FORWARDERS_PER_RESOLVER).map(|_| {
            let block = if v6 {
                alloc.alloc_v6_block()
            } else {
                alloc.alloc_v4_block()
            };
            AddrAllocator::host_in(&block, 2)
        });
        spec = spec.egress_with_forwarders(
            resolver_config_for(resolver, &[]),
            forwarders,
            FIRST_ASN + i as u32,
        );
    }
    // The default authoritative synthesises an A for every probe name and
    // answers ECS queries with scope L = S − 4, as the paper's did.
    let mut world = spec.build(ScanConfig::default(), |targets| {
        RoundRobinFeed::new(targets.to_vec(), probes.unwrap_or(targets.len() as u64))
    });
    let tracer = session.tracer();
    let capturing = tracer.is_enabled();
    if capturing {
        world.scanner_mut().enable_metrics();
        world.sim.enable_metrics();
        world.scanner_mut().set_tracer(tracer);
    }
    let mut table = PrefixLengthTable::default();
    let scan = run_scan_with(&mut world, SimDuration::from_secs(60), |log| {
        table.absorb(&log)
    });
    if capturing {
        session.record(&world.scanner_mut().metrics_snapshot());
        if let Some(sim) = world.sim.metrics_snapshot() {
            session.record(&sim);
        }
    }

    let mut report = Report::new("table1", "§6.2 Table 1: source prefix lengths");
    // The IPv6 /48 row is planted and tested but not reported.
    for &(class, paper, label) in PREFIX_TABLE
        .iter()
        .filter(|r| r.0 != PrefixClass::V6Slash48)
    {
        let planted = population.iter().filter(|r| r.prefix == class).count();
        let found = table.count(class);
        report.row(
            label,
            format!("{paper} (scaled: {planted})"),
            found,
            found == planted,
        );
    }
    // The paper's headline: almost half of non-Google v4 resolvers do not
    // truncate at all (the jammed /32s); overall most follow /24.
    let compliant = table.profiles.iter().filter(|p| p.rfc_compliant()).count();
    report.row(
        "majority follows RFC /24",
        "vast majority (Google-dominated)",
        format!("{compliant}/{} compliant", table.resolver_count()),
        compliant * 2 > table.resolver_count(),
    );

    let mut detail = String::from("Table 1 rows (label → resolvers):\n");
    for (label, count) in &table.rows {
        detail.push_str(&format!("  {label:<28} {count}\n"));
    }
    report.detail = detail;
    (Outcome { table, scan }, report)
}

/// Registry entry point: the session's `ECS_SCAN_PROBES` probe count and
/// telemetry capture; writes the JSON where `ECS_SCAN_JSON` asks.
pub fn run_default(session: &mut Session) -> Report {
    let (outcome, report) = run_with(&Config::default(), session.scan_probes, session);
    if let Some(path) = &session.scan_json {
        if let Err(e) = std::fs::write(path, outcome.to_json()) {
            eprintln!("table1: failed to write {path}: {e}");
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Config = Config { scale: 20 };

    #[test]
    fn table_recovers_planted_prefix_classes() {
        let (out, report) = run(&SMALL);
        assert!(report.all_hold(), "{report}");
        assert!(out.table.resolver_count() > 0);
        // Every planted class is detected exactly, the unreported /48 too.
        let population = ScanDatasetGen::scaled(SMALL.scale, SEED).generate();
        for &(class, ..) in PREFIX_TABLE {
            let planted = population.iter().filter(|r| r.prefix == class).count();
            assert_eq!(out.table.count(class), planted, "{class:?}");
        }
        // Every planted forwarder was probed once and answered.
        let s = out.scan.stats;
        assert!(out.scan.reconciled && !out.scan.stuck, "{:?}", out.scan);
        assert_eq!(
            s.probes,
            (population.len() * FORWARDERS_PER_RESOLVER) as u64
        );
        assert_eq!(s.answered, s.probes);
        assert_eq!(s.shed_rate_limit + s.shed_breaker + s.retries, 0);
    }

    #[test]
    fn identical_seeds_are_byte_identical() {
        let scan = || run_with(&SMALL, Some(2_000), &mut Session::new(false)).0;
        let (a, b) = (scan(), scan());
        assert_eq!(a.scan.stats.probes, 2_000);
        assert_eq!(a.to_json(), b.to_json(), "seeded rerun must not drift");
    }

    #[test]
    fn telemetry_run_exports_scanner_series_and_valid_trace() {
        let mut session = Session::new(true);
        let (_, report) = run_with(&SMALL, None, &mut session);
        let telem = session.take_telemetry().expect("capturing");
        assert!(report.all_hold(), "{report}");
        assert!(obs::validate::validate_trace(&telem.trace_jsonl).unwrap() > 0);
        let json = telem.snapshot.to_json();
        obs::validate::validate_metrics_json(&json, obs::validate::SCANNER_REQUIRED_SERIES)
            .expect("every scanner_* series present");
    }
}
