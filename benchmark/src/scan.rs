//! `scan_sim`: the mass-scan pipeline over the simulator.
//!
//! A [`ForwarderChainSpec`] world — healthy, lossy, dead and refusing
//! forwarder groups, one AS each, in front of an RFC-compliant egress and
//! the synthesising authoritative — probed by [`run_scan`]. Everything runs
//! on `netsim`'s single-threaded event loop from one seed, so the
//! pipeline's counters repeat exactly; this is the guard for the actor path
//! (`resolver::actors`) when the resolution state machine is unified.
//!
//! The probe count per scan is pinned, not scaled to the time available:
//! every probe asks a fresh name, the egress cache's insert scans what it
//! holds, and so a scan's cost grows faster than its probe count (18 ms at
//! 1000 probes, 74 ms at 3000, 0.9 s at 12 000). A run repeats whole scans
//! of the pinned size until its time is up and reports the lower quartile
//! of their wall times. The scan is kept small on purpose: its working set
//! stays in the core's own caches, where a neighbour on the shared host
//! cannot reach it — at 12 000 probes the same run read anything from 0.9
//! to 2.3 s per scan within a quarter of an hour.

use std::io;
use std::time::Instant;

use netsim::SimDuration;
use scanner::{
    run_scan, ForwarderChainSpec, ForwarderHealth, RoundRobinFeed, ScanCapture, ScanConfig,
    ScanReport, ScanWorld,
};

use crate::report::{units_note, EndToEnd, RunReport};
use crate::spans::Recorder;
use crate::Ctx;

/// Probes per scan: small enough that a run holds hundreds of scans,
/// large enough that every exit — answered, retry-exhausted, shed by the
/// rate limiter, shed by the breaker — is taken dozens of times.
pub const PROBES: u64 = 1_000;
/// How many times an untraced run sets up (the first before the first
/// scan, the rest after the last, off the measured time).
const SET_UPS: usize = 25;
/// Fewest scans a run times, however short.
const MIN_SCANS: usize = 8;
/// Probes of the lead-in scan that ends set-up.
const LEAD_IN_PROBES: u64 = 1_500;
/// Forwarders in the world: 60% healthy, 20% lossy, 10% dead, 10%
/// refusing — the study's largest scan cell.
const POPULATION: usize = 72;
/// Loss rate of the lossy group, both directions.
const LOSS: f64 = 0.25;

fn build_world(seed: u64, probes: u64) -> ScanWorld {
    let dead = POPULATION / 10;
    let refusing = POPULATION / 10;
    let lossy = POPULATION / 5;
    let healthy = POPULATION - dead - refusing - lossy;
    let cfg = ScanConfig {
        window: 64,
        rate_per_sec: 400,
        burst: 16,
        ..ScanConfig::default()
    };
    ForwarderChainSpec::new(seed)
        .group(healthy, ForwarderHealth::Healthy, 64500)
        .group(lossy, ForwarderHealth::Lossy(LOSS), 64501)
        .group(dead, ForwarderHealth::Dead, 64502)
        .group(refusing, ForwarderHealth::Refusing, 64503)
        .build(cfg, |targets| RoundRobinFeed::new(targets.to_vec(), probes))
}

/// One scan: what it reported, how many packet events the simulator
/// processed for it, and the wall seconds of scanning.
struct Scan {
    report: ScanReport,
    sim_events: u64,
    scan_s: f64,
}

/// Set-up: a short lead-in scan of a world of its own (warming code and
/// allocator), then the world a timed scan runs in. Returns its seconds.
fn set_up(seed: u64, rec: &mut Recorder) -> f64 {
    rec.span("set_up", |_| {
        let mut lead_in = build_world(seed, LEAD_IN_PROBES);
        run_scan(
            &mut lead_in,
            SimDuration::from_secs(60),
            &mut ScanCapture::new(512),
        );
        (std::hint::black_box(build_world(seed, PROBES)), 1)
    })
    .1
    .as_secs_f64()
}

fn scan(seed: u64, rec: &mut Recorder) -> Scan {
    let mut world = build_world(seed, PROBES);
    let mut capture = ScanCapture::new(512);
    let (report, took) = rec.span("run_scan", |_| {
        (
            run_scan(&mut world, SimDuration::from_secs(60), &mut capture),
            PROBES,
        )
    });
    Scan {
        sim_events: world.sim.delivered() + world.sim.dropped(),
        report,
        scan_s: took.as_secs_f64(),
    }
}

/// Runs `scan_sim`.
pub fn run(ctx: &mut Ctx) -> io::Result<RunReport> {
    let mut report = RunReport::default();
    let seed = ctx.seed;
    let budget = if ctx.trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    };
    // The traced pass alternates scans with recording off and on: the
    // ratio of their fastest units is the tracing overhead.
    let mut set_ups = vec![set_up(seed, &mut ctx.rec)];
    let mut untraced_s = Vec::new();
    let mut scans: Vec<Scan> = Vec::new();
    let started = Instant::now();
    while scans.len() < MIN_SCANS || started.elapsed().as_secs_f64() < budget {
        if ctx.trace {
            untraced_s.push(scan(seed, &mut Recorder::new("", false)).scan_s);
        }
        let (done, _) = ctx.rec.span("measure", |rec| (scan(seed, rec), PROBES));
        scans.push(done);
    }
    let peak_rss_mib = crate::machine::peak_rss_mib();

    // Output checks: every probe left through exactly one door, nothing
    // stalled, and — same seed, same world — every scan counted the same.
    let first = &scans[0];
    let stats = first.report.stats;
    let accounted = |s: &Scan| {
        let t = &s.report.stats;
        s.report.reconciled
            && !s.report.stuck
            && t.probes == PROBES
            && t.probes == t.answered + t.retry_exhausted + t.shed_rate_limit + t.shed_breaker
    };
    let failed_scans = scans.iter().filter(|s| !accounted(s)).count() as u64;
    let repeatable = scans
        .iter()
        .all(|s| s.report == first.report && s.sim_events == first.sim_events);
    report.correct = failed_scans == 0 && repeatable;
    report.attempted = scans.len() as u64 * PROBES;
    report.failed = if repeatable {
        failed_scans * PROBES
    } else {
        report.attempted
    };
    let shed = stats.shed_rate_limit + stats.shed_breaker;
    report.notes.push(format!(
        "{} scans of {PROBES} probes over {POPULATION} forwarders: {} answered, {} retry-exhausted, {shed} shed, {} packet events, sim end {} us",
        scans.len(),
        stats.answered,
        stats.retry_exhausted,
        first.sim_events,
        first.report.sim_end_us
    ));
    let scan_s: Vec<f64> = scans.iter().map(|s| s.scan_s).collect();
    report.notes.push(units_note("scans", &scan_s));

    if !ctx.trace {
        set_ups.extend((1..SET_UPS).map(|_| set_up(seed, &mut ctx.rec)));
        report.set_end_to_end(EndToEnd::from_units(
            &set_ups,
            PROBES,
            &scan_s,
            peak_rss_mib,
        ));
        return Ok(report);
    }

    report.zero_layers();
    report.layer(
        "trace.overhead_ratio",
        crate::stats::fastest(&scan_s) / crate::stats::fastest(&untraced_s),
    );
    report.layer("scan.sim_events", first.sim_events as f64);
    report.layer(
        "scan.ns_per_event",
        crate::stats::fastest(&scan_s) * 1e9 / first.sim_events.max(1) as f64,
    );
    report.layer("scan.answered", stats.answered as f64);
    report.layer("scan.exhausted", stats.retry_exhausted as f64);
    report.layer("scan.shed", shed as f64);
    probe_auth(ctx);
    report.layer(
        "auth.handle_ns",
        ctx.rec.layer("probe.auth.handle").ns_per_item(),
    );
    Ok(report)
}

/// `AuthServer::handle` over scan-shaped queries: fresh names under a
/// synthesising zone, each with a /24 ECS option, as the egress sends them.
fn probe_auth(ctx: &mut Ctx) {
    use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
    use dns_wire::{EcsOption, Message, Name, Question};
    use std::net::{IpAddr, Ipv4Addr};

    const QUERIES: u64 = 50_000;
    let apex = Name::from_ascii("scan.example").expect("valid apex");
    let mut zone = Zone::new(apex.clone());
    zone.set_synth_a(60, Ipv4Addr::new(198, 18, 0, 1));
    let mut auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
    auth.set_logging(false);
    let queries: Vec<Message> = (0..QUERIES)
        .map(|i| {
            let name = apex.child(&format!("p{i}")).expect("valid label");
            let mut q = Message::query(i as u16, Question::a(name));
            let [a, b, c] = crate::gen::subnet_from_index(crate::gen::mix(ctx.seed, i));
            q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(a, b, c, 0), 24));
            q
        })
        .collect();
    let from = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));
    ctx.rec.span("probe.auth.handle", |_| {
        for q in &queries {
            std::hint::black_box(auth.handle(q, from, netsim::SimTime::ZERO));
        }
        ((), QUERIES)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scan_reconciles_and_repeats_exactly_per_seed() {
        let mut rec = Recorder::new("scan_sim", false);
        let a = scan(7, &mut rec);
        let b = scan(7, &mut rec);
        let c = scan(8, &mut rec);
        assert!(a.report.reconciled && !a.report.stuck);
        assert_eq!(a.report.stats.probes, PROBES);
        assert_eq!(a.report, b.report);
        assert_eq!(a.sim_events, b.sim_events);
        assert!(a.report != c.report || a.sim_events != c.sim_events);
        assert!(a.report.stats.shed_breaker > 0 && a.report.stats.retry_exhausted > 0);
    }
}
