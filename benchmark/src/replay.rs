//! The two §7 replay workloads: seed → generate → replay → figure.
//!
//! `replay_stream` is the streaming path end to end — a fig1-shaped
//! [`CdnStreamGen`] model generated and replayed chunk by chunk at
//! `parallelism: 2`, then summarised into the blow-up CDF and hit rates.
//! Generation dominates it and nothing is evicted. `replay_bounded`
//! replays one materialised trace with `capacity: Some(64)` at
//! `parallelism: 1`: generation does nothing and the same replay layer
//! spends its time evicting. An eviction structure that taxes the
//! unbounded path shows as a loss on the first and a gain on the second.
//!
//! Both are measured in units of a tenth to a quarter of a second — a
//! stream of [`STREAM_UNIT`] records replayed to its figure, one pass over
//! the bounded trace — so that a run holds dozens of them, and report the
//! lower quartile of the units' wall times.

use std::io;
use std::time::Instant;

use std::net::IpAddr;

use analysis::cache_sim::{CacheSimConfig, CacheSimResult, CacheSimulator};
use analysis::stats::Cdf;
use netsim::SimDuration;
use workload::stream::{CdnStreamModel, NameTable, StreamRecord};
use workload::{CdnStreamGen, PublicCdnTraceGen, TraceSet, TraceStreamSource, WorkloadModel};

use crate::gen::Fnv;
use crate::report::{units_note, EndToEnd, RunReport};
use crate::spans::Recorder;
use crate::Ctx;

/// Records one unit of `replay_stream` generates and replays.
const STREAM_UNIT: u64 = 20_000;
/// Records in the streaming ≡ materialised cross-check (and in the
/// generator probes of the traced pass).
const CROSS_RECORDS: u64 = 1_000_000;
/// Records in the warm-up replay that ends `replay_stream`'s set-up.
const WARM_RECORDS: u64 = 200_000;
/// Records in the `replay_bounded` trace: a quarter of a second per pass,
/// and a trace that is generated in half a second and held in 90 MiB.
const BOUNDED_RECORDS: usize = 20_000;
/// Records the `replay_bounded` generator makes; a seed picks which
/// [`BOUNDED_RECORDS`]-long run of them is replayed.
const BOUNDED_GENERATED: usize = 25_000;
/// Records per simulated second of the `replay_bounded` trace (the
/// study's public-CDN trace: a million records over fifteen minutes).
const BOUNDED_RECORDS_PER_SIM_SECOND: usize = 1_000_000 / 900;
/// Fewest units a run times, however short.
const MIN_UNITS: usize = 8;
/// Per-resolver entry cap of `replay_bounded`.
const CAPACITY: usize = 64;
/// How many times an untraced run sets up (see
/// [`crate::report::setup_time`]).
const SET_UPS: usize = 13;

/// Index space of the one fixed fig1-shaped model every seed reads from.
const MODEL_RECORDS: u64 = 1 << 34;
/// Records per simulated second in the study's default fig1 run (3M
/// records over 30 minutes); the fixed model keeps that density.
const RECORDS_PER_SIM_SECOND: u64 = 3_000_000 / 1800;

/// A seed-chosen run of `total` consecutive records of the fixed model.
///
/// A [`CdnStreamGen`] seed decides the model's *structure* — how many
/// names, how large each resolver's client pool — as well as its draws,
/// and a replay's cost per record follows the structure: seeding the
/// generator directly made `records_per_s` differ by a third between
/// seeds. Reading a window of one fixed model instead gives every seed
/// different records of the same workload.
pub struct Window {
    model: CdnStreamModel,
    offset: u64,
    total: u64,
}

impl Window {
    fn new(seed: u64, total: u64) -> Self {
        let model = CdnStreamGen {
            resolvers: 40,
            subnets_per_resolver: 80,
            hostnames: 150,
            queries: MODEL_RECORDS,
            duration: SimDuration::from_secs(MODEL_RECORDS / RECORDS_PER_SIM_SECOND),
            ttl: 20,
            seed: 0,
        }
        .build();
        Window {
            model,
            offset: crate::gen::mix(seed, 0xF161) % (MODEL_RECORDS / 2),
            total,
        }
    }
}

impl WorkloadModel for Window {
    fn label(&self) -> &str {
        self.model.label()
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn resolver_addrs(&self) -> &[IpAddr] {
        self.model.resolver_addrs()
    }

    fn names(&self) -> &NameTable {
        self.model.names()
    }

    fn resolver_of(&self, i: u64) -> u32 {
        self.model.resolver_of(self.offset + i)
    }

    fn record(&self, i: u64) -> StreamRecord {
        StreamRecord {
            index: i,
            ..self.model.record(self.offset + i)
        }
    }
}

fn stream_source(seed: u64, total: u64) -> TraceStreamSource<Window> {
    TraceStreamSource::new(Window::new(seed, total))
}

/// Digest of a replay result: every per-resolver counter, in order.
pub fn result_digest(result: &CacheSimResult) -> u64 {
    let mut h = Fnv::default();
    for r in &result.per_resolver {
        h.write(r.resolver.to_string().as_bytes());
        for v in [
            r.max_size_ecs as u64,
            r.max_size_no_ecs as u64,
            r.hits_ecs,
            r.hits_no_ecs,
            r.lookups,
            r.evictions_ecs,
            r.evictions_no_ecs,
        ] {
            h.write_u64(v);
        }
    }
    h.0
}

fn evictions(result: &CacheSimResult) -> u64 {
    result
        .per_resolver
        .iter()
        .map(|r| r.evictions_ecs + r.evictions_no_ecs)
        .sum()
}

fn lookups(result: &CacheSimResult) -> u64 {
    result.per_resolver.iter().map(|r| r.lookups).sum()
}

/// The figure a replay exists to draw: blow-up CDF quantiles and the two
/// overall hit rates, folded into one number so the work cannot be elided.
fn figure(result: &CacheSimResult, rec: &mut Recorder) -> f64 {
    rec.span("figure", |_| {
        let cdf = Cdf::new(result.blowup_factors());
        let points = cdf.points(50).len() as f64;
        let summary = cdf.quantile(0.5)
            + cdf.quantile(0.9)
            + cdf.max()
            + result.overall_hit_rate_ecs()
            + result.overall_hit_rate_no_ecs()
            + points;
        (summary, 1)
    })
    .0
}

// ---------------------------------------------------------------------------
// replay_stream
// ---------------------------------------------------------------------------

/// One unit: stream `source` through the simulator at parallelism 2 and
/// draw the figure. Returns the result digest, its evictions, its lookups
/// and the unit's wall seconds.
fn stream_unit(source: &TraceStreamSource<Window>, rec: &mut Recorder) -> (u64, u64, u64, f64) {
    let sim = CacheSimulator::new(CacheSimConfig {
        parallelism: 2,
        ..CacheSimConfig::default()
    });
    let started = Instant::now();
    let (result, _) = rec.span("run_streaming", |_| {
        (sim.run_streaming(source), source.total())
    });
    std::hint::black_box(figure(&result, rec));
    let wall = started.elapsed().as_secs_f64();
    (
        result_digest(&result),
        evictions(&result),
        lookups(&result),
        wall,
    )
}

/// Streaming and materialised replay of the same 1M-record model must
/// agree to the last counter.
fn cross_check(seed: u64, rec: &mut Recorder) -> (bool, TraceSet) {
    let source = stream_source(seed, CROSS_RECORDS);
    let streamed = CacheSimulator::new(CacheSimConfig {
        parallelism: 2,
        ..CacheSimConfig::default()
    })
    .run_streaming(&source);
    let (trace, _) = rec.span("materialize", |_| (source.materialize(), CROSS_RECORDS));
    let (replayed, _) = rec.span("replay.unbounded", |_| {
        (
            CacheSimulator::new(CacheSimConfig::default()).run(&trace),
            CROSS_RECORDS,
        )
    });
    let same =
        result_digest(&streamed) == result_digest(&replayed) && lookups(&streamed) == CROSS_RECORDS;
    (same, trace)
}

/// Runs `replay_stream`.
pub fn run_stream(ctx: &mut Ctx) -> io::Result<RunReport> {
    let mut report = RunReport::default();
    let seed = ctx.seed;
    let mut set_ups = Vec::new();
    let mut source = None;
    let mut model_builds = Vec::new();
    for _ in 0..SET_UPS {
        // Set-up: build the model, then replay a short stream of it so
        // that code, allocator and thread start-up are warm before timing.
        let (built, took) = ctx.rec.span("set_up", |rec| {
            let (source, build) =
                rec.span("model.build", |_| (stream_source(seed, STREAM_UNIT), 1));
            model_builds.push(build.as_secs_f64());
            rec.span("warm_up", |rec| {
                (
                    stream_unit(&stream_source(seed, WARM_RECORDS), rec),
                    WARM_RECORDS,
                )
            });
            (source, 1)
        });
        set_ups.push(took.as_secs_f64());
        source = Some(built);
    }
    let source = source.expect("SET_UPS >= 1");

    // The traced pass alternates units with recording off and on: the
    // ratio of their fastest units is the tracing overhead.
    let budget = if ctx.trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    };
    let mut untraced_s = Vec::new();
    let mut units: Vec<(u64, u64, u64, f64)> = Vec::new();
    let started = Instant::now();
    while units.len() < MIN_UNITS || started.elapsed().as_secs_f64() < budget {
        if ctx.trace {
            untraced_s.push(stream_unit(&source, &mut Recorder::new("", false)).3);
        }
        let (unit, _) = ctx
            .rec
            .span("measure", |rec| (stream_unit(&source, rec), STREAM_UNIT));
        units.push(unit);
    }
    let peak_rss_mib = crate::machine::peak_rss_mib();

    // Output checks: every unit replayed every record to the same result,
    // nothing was evicted, and streaming equals materialised replay.
    let (digest, evicted, _, _) = units[0];
    let repeatable = units
        .iter()
        .all(|&(d, e, l, _)| d == digest && e == evicted && l == STREAM_UNIT);
    let (cross_ok, cross_trace) = cross_check(seed, &mut ctx.rec);
    report.correct = repeatable && cross_ok && evicted == 0;
    report.attempted = units.len() as u64 * STREAM_UNIT + CROSS_RECORDS;
    report.failed = if report.correct { 0 } else { report.attempted };
    report.notes.push(format!(
        "{} units of {STREAM_UNIT} records at parallelism 2, result digest {digest:016x}, cross-check on {CROSS_RECORDS} records {}",
        units.len(),
        if cross_ok { "equal" } else { "DIFFERENT" }
    ));
    let unit_s: Vec<f64> = units.iter().map(|u| u.3).collect();
    report.notes.push(units_note("units", &unit_s));

    if !ctx.trace {
        report.set_end_to_end(EndToEnd::from_units(
            &set_ups,
            STREAM_UNIT,
            &unit_s,
            peak_rss_mib,
        ));
        return Ok(report);
    }

    report.zero_layers();
    report.layer("stream.model_build_s", crate::stats::median(&model_builds));
    report.layer(
        "trace.overhead_ratio",
        crate::stats::fastest(&unit_s) / crate::stats::fastest(&untraced_s),
    );
    report.layer("replay.evictions", evicted as f64);
    // Generator alone: the whole stream at one shard, then each of two
    // shards. Every shard filters every index, so two shards do the
    // filtering work twice over.
    let probe = stream_source(seed, 2 * CROSS_RECORDS);
    let drain = |name: &str, shard: usize, of: usize, rec: &mut Recorder| {
        rec.span(name, |_| {
            let mut stream = probe.open_shard(shard, of);
            let mut buf = Vec::with_capacity(probe.chunk_size());
            let mut n = 0u64;
            while stream.next_chunk_into(&mut buf) {
                n += std::hint::black_box(&buf).len() as u64;
            }
            ((), n)
        });
    };
    drain("stream.drain.p1", 0, 1, &mut ctx.rec);
    drain("stream.drain.p2", 0, 2, &mut ctx.rec);
    drain("stream.drain.p2", 1, 2, &mut ctx.rec);
    let (p1, p2) = (
        ctx.rec.layer("stream.drain.p1"),
        ctx.rec.layer("stream.drain.p2"),
    );
    report.layer("stream.generate_ns_per_record_p1", p1.ns_per_item());
    report.layer(
        "stream.work_amplification_p2",
        p2.self_ns as f64 / p1.self_ns.max(1) as f64,
    );
    let capped = CacheSimulator::new(CacheSimConfig {
        capacity: Some(CAPACITY),
        ..CacheSimConfig::default()
    });
    ctx.rec.span("replay.cap64", |_| {
        (capped.run(&cross_trace), CROSS_RECORDS)
    });
    replay_layers(&ctx.rec, &mut report);
    Ok(report)
}

/// The replay-layer rows both workloads fill from their spans.
fn replay_layers(rec: &Recorder, report: &mut RunReport) {
    report.layer(
        "replay.ns_per_record_unbounded",
        rec.layer("replay.unbounded").ns_per_item(),
    );
    report.layer(
        "replay.ns_per_record_cap64",
        rec.layer("replay.cap64").ns_per_item(),
    );
    let fig = rec.layer("figure");
    report.layer(
        "replay.figure_s",
        fig.self_ns as f64 / 1e9 / fig.calls.max(1) as f64,
    );
}

// ---------------------------------------------------------------------------
// replay_bounded
// ---------------------------------------------------------------------------

/// The trace `replay_bounded` replays: a seed-chosen run of
/// [`BOUNDED_RECORDS`] consecutive records out of one fixed generated
/// trace — for the reason [`Window`] gives, the generator's own seed stays
/// fixed and the benchmark seed picks the records.
fn bounded_trace(seed: u64) -> TraceSet {
    let mut trace = PublicCdnTraceGen {
        resolvers: 32,
        subnets_per_resolver: 40,
        hostnames: 150,
        queries: BOUNDED_GENERATED,
        duration: SimDuration::from_secs(
            (BOUNDED_GENERATED / BOUNDED_RECORDS_PER_SIM_SECOND) as u64,
        ),
        ttl: 20,
        seed: 0,
    }
    .generate();
    let spare = BOUNDED_GENERATED - BOUNDED_RECORDS;
    let offset = (crate::gen::mix(seed, 0xB0D) % spare as u64) as usize;
    trace.records.drain(..offset);
    trace.records.truncate(BOUNDED_RECORDS);
    trace.build_index();
    trace
}

/// Runs `replay_bounded`.
pub fn run_bounded(ctx: &mut Ctx) -> io::Result<RunReport> {
    let mut report = RunReport::default();
    let seed = ctx.seed;
    let mut set_ups = Vec::new();
    let mut trace = None;
    for _ in 0..if ctx.trace { 1 } else { SET_UPS } {
        drop(trace.take());
        let (built, took) = ctx
            .rec
            .span("set_up", |_| (bounded_trace(seed), BOUNDED_RECORDS as u64));
        set_ups.push(took.as_secs_f64());
        trace = Some(built);
    }
    let trace = trace.expect("at least one set-up");
    let records = trace.len() as u64;

    let sim = CacheSimulator::new(CacheSimConfig {
        capacity: Some(CAPACITY),
        parallelism: 1,
        ..CacheSimConfig::default()
    });
    let pass = |rec: &mut Recorder| {
        let started = Instant::now();
        let (result, _) = rec.span("replay.cap64", |_| (sim.run(&trace), records));
        std::hint::black_box(figure(&result, rec));
        (result, started.elapsed().as_secs_f64())
    };
    let budget = if ctx.trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    };
    let mut untraced_s = Vec::new();
    let mut passes: Vec<(CacheSimResult, f64)> = Vec::new();
    let started = Instant::now();
    while passes.len() < MIN_UNITS || started.elapsed().as_secs_f64() < budget {
        if ctx.trace {
            untraced_s.push(pass(&mut Recorder::new("", false)).1);
        }
        let (done, _) = ctx.rec.span("measure", |rec| (pass(rec), records));
        passes.push(done);
    }
    let peak_rss_mib = crate::machine::peak_rss_mib();

    // Output checks: the cap held for every resolver in both modes, every
    // record was looked up, and every pass evicted exactly as many.
    let first = &passes[0].0;
    let evicted = evictions(first);
    let cap_held = passes.iter().all(|(r, _)| {
        r.per_resolver
            .iter()
            .all(|r| r.max_size_ecs <= CAPACITY && r.max_size_no_ecs <= CAPACITY)
    });
    let repeatable = passes
        .iter()
        .all(|(r, _)| evictions(r) == evicted && lookups(r) == records);
    report.correct = cap_held && repeatable && evicted > 0;
    report.attempted = passes.len() as u64 * records;
    report.failed = if report.correct { 0 } else { report.attempted };
    report.notes.push(format!(
        "{} passes over {records} records at capacity {CAPACITY}, {evicted} evictions per pass, result digest {:016x}",
        passes.len(),
        result_digest(first)
    ));
    let pass_s: Vec<f64> = passes.iter().map(|p| p.1).collect();
    report.notes.push(units_note("passes", &pass_s));

    if !ctx.trace {
        report.set_end_to_end(EndToEnd::from_units(
            &set_ups,
            records,
            &pass_s,
            peak_rss_mib,
        ));
        return Ok(report);
    }

    report.zero_layers();
    report.layer(
        "trace.overhead_ratio",
        crate::stats::fastest(&pass_s) / crate::stats::fastest(&untraced_s),
    );
    report.layer("replay.evictions", evicted as f64);
    ctx.rec.span("replay.unbounded", |_| {
        (
            CacheSimulator::new(CacheSimConfig::default()).run(&trace),
            records,
        )
    });
    replay_layers(&ctx.rec, &mut report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_follows_the_result_and_the_seed() {
        let sim = CacheSimulator::new(CacheSimConfig::default());
        let run = |seed| sim.run_streaming(&stream_source(seed, 30_000));
        let a = run(1);
        assert_eq!(result_digest(&a), result_digest(&run(1)));
        assert_ne!(result_digest(&a), result_digest(&run(2)));
        assert_eq!(lookups(&a), 30_000);
        assert_eq!(evictions(&a), 0);
    }

    #[test]
    fn windows_share_one_model_and_keep_the_fig1_density() {
        let (a, b) = (Window::new(1, 50_000), Window::new(2, 50_000));
        assert_ne!(a.offset, b.offset);
        assert_eq!(a.names().len(), b.names().len());
        assert_eq!(a.resolver_addrs(), b.resolver_addrs());
        // 50k consecutive records span 50k / 1666 simulated seconds.
        let span_us = a.record(49_999).at_micros - a.record(0).at_micros;
        assert!((29_000_000..=31_000_000).contains(&span_us), "{span_us}");
        assert_eq!(a.record(7).index, 7);
        assert_eq!(a.resolver_of(7), a.record(7).resolver_id);
    }

    #[test]
    fn streaming_a_window_equals_replaying_it_materialised() {
        let source = stream_source(3, 40_000);
        let streamed = CacheSimulator::new(CacheSimConfig {
            parallelism: 2,
            ..CacheSimConfig::default()
        })
        .run_streaming(&source);
        let replayed = CacheSimulator::new(CacheSimConfig::default()).run(&source.materialize());
        assert_eq!(result_digest(&streamed), result_digest(&replayed));
    }
}
