//! Loopback load generator for the multi-worker `dnsd` serving path.
//!
//! Stands up the full real-socket stack — a [`dnsd::UdpAuthServer`]
//! authoritative behind a [`dnsd::UdpResolverServer`] worker pool — and
//! drives a seeded query mix at it through batched UDP with a bounded
//! in-flight window, once per worker count (1/2/4/8 by default). After a
//! warm-up pass populates the shared cache, the measured run is the
//! steady-state serving path: batched recv → engine cache hit → batched
//! send. Writes `BENCH_dnsd.json` to the current directory.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p bench --bin bench_dnsd
//! cargo run --release -p bench --bin bench_dnsd -- --queries 2000 --out /tmp/smoke.json
//! ```
//!
//! Flags: `--queries N` per worker-count row (default 200000), `--window
//! W` bounded in-flight datagrams (default 64), `--out PATH` for the JSON
//! report. The query mix is seeded (name choice and ECS attachment from a
//! fixed-seed RNG), so every row and every run drives the same sequence.
//!
//! Diagnosis flags: `--profile [stacks.folded]` turns on the per-worker
//! stage profiler and shard/flight lock contention monitors — rows gain
//! the `lock_*` contention columns and the folded flamegraph stacks of
//! every row merge into the given path. `--history PATH` appends one JSONL line per row with run metadata
//! (unix time, host parallelism) for the `bench_check` regression gate's
//! trend data.

use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{EcsOption, Message, Name, Question};
use dnsd::{RecvBatch, SendBatch, UdpAuthServer, UdpResolverServer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resolver::ResolverConfig;

/// Distinct names in the zone (and the mix).
const NAMES: usize = 256;
/// Client /24s attached as ECS on part of the mix.
const ECS_SUBNETS: [Ipv4Addr; 4] = [
    Ipv4Addr::new(192, 0, 2, 0),
    Ipv4Addr::new(198, 51, 100, 0),
    Ipv4Addr::new(203, 0, 113, 0),
    Ipv4Addr::new(192, 0, 2, 128), // same /24 as the first: shares its entry
];
/// Fraction of queries carrying ECS, in percent.
const ECS_PCT: u32 = 25;

struct Args {
    queries: usize,
    window: usize,
    out: String,
    /// `Some(path)` turns on profiling + contention monitors; the merged
    /// folded stacks of every row land at `path`.
    profile: Option<String>,
    /// JSONL history file to append one line per row to.
    history: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        queries: 200_000,
        window: 64,
        out: "BENCH_dnsd.json".to_string(),
        profile: None,
        history: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        if arg == "--profile" {
            // An optional path may follow; a flag or nothing means the
            // default output name.
            let path = match args.peek() {
                Some(a) if !a.starts_with("--") => args.next().expect("peeked"),
                _ => "stacks.folded".to_string(),
            };
            parsed.profile = Some(path);
            continue;
        }
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--queries" => parsed.queries = take("--queries").parse().expect("integer"),
            "--window" => parsed.window = take("--window").parse().expect("integer"),
            "--out" => parsed.out = take("--out"),
            "--history" => parsed.history = Some(take("--history")),
            other => panic!("unknown flag {other:?}"),
        }
    }
    parsed.queries = parsed.queries.max(1);
    parsed.window = parsed.window.clamp(1, 1024);
    parsed
}

fn bench_zone() -> AuthServer {
    let mut zone = Zone::new(Name::from_ascii("bench.example").expect("valid"));
    for i in 0..NAMES {
        zone.add_a(
            Name::from_ascii(&format!("www{i}.bench.example")).expect("valid"),
            3600, // long TTL: nothing expires mid-run
            Ipv4Addr::new(198, 51, 100, (i % 250) as u8 + 1),
        )
        .expect("unique names");
    }
    AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
}

/// Pre-serialized query templates: one per (name, ECS variant). The
/// loadgen patches the 2-byte wire ID per send instead of re-encoding.
fn templates() -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(NAMES * (1 + ECS_SUBNETS.len()));
    for i in 0..NAMES {
        let name = Name::from_ascii(&format!("www{i}.bench.example")).expect("valid");
        let plain = Message::query(0, Question::a(name.clone()));
        out.push(plain.to_bytes().expect("encodes"));
        for subnet in ECS_SUBNETS {
            let mut q = Message::query(0, Question::a(name.clone()));
            q.set_ecs(EcsOption::from_v4(subnet, 24));
            out.push(q.to_bytes().expect("encodes"));
        }
    }
    out
}

/// Resolves every template once so the measured run hits a warm shared
/// cache. Sequential, with per-query retry: warm-up correctness matters,
/// warm-up speed does not.
fn warm(client: &UdpSocket, server: SocketAddr, templates: &[Vec<u8>]) {
    let mut buf = [0u8; 4096];
    for (i, t) in templates.iter().enumerate() {
        let mut q = t.clone();
        let id = (i % usize::from(u16::MAX)) as u16;
        q[0..2].copy_from_slice(&id.to_be_bytes());
        for attempt in 0..10 {
            client.send_to(&q, server).expect("send");
            match client.recv_from(&mut buf) {
                Ok(_) => break,
                Err(_) if attempt < 9 => continue,
                Err(e) => panic!("warm-up query {i} never answered: {e}"),
            }
        }
    }
}

struct RunOutcome {
    seconds: f64,
    completed: usize,
    lost: usize,
    snapshot: obs::MetricsSnapshot,
    profile: obs::ProfileSnapshot,
}

/// Contention columns pulled from one row's metrics snapshot. All-zero
/// unless the row ran with `--profile` (the monitors are off otherwise —
/// measuring the lock-wait tax costs a try_lock on every acquisition).
struct Contention {
    shard_acq: u64,
    shard_contended: u64,
    shard_wait_us: u64,
    flight_acq: u64,
    flight_contended: u64,
    flight_wait_us: u64,
    flight_depth_max: u64,
    /// Mean datagrams per recvmmsg/sendmmsg crossing — the batching
    /// efficiency the worker count is buying (or destroying).
    recv_batch_avg: f64,
    send_batch_avg: f64,
}

impl Contention {
    fn from_snapshot(s: &obs::MetricsSnapshot) -> Self {
        let hist_sum = |name: &str| s.histogram(name).map(|h| h.sum).unwrap_or(0);
        let hist_avg = |name: &str| {
            s.histogram(name)
                .filter(|h| h.count > 0)
                .map(|h| h.sum as f64 / h.count as f64)
                .unwrap_or(0.0)
        };
        Contention {
            shard_acq: s
                .counter("lock_cache_shard_acquisitions_total")
                .unwrap_or(0),
            shard_contended: s.counter("lock_cache_shard_contended_total").unwrap_or(0),
            shard_wait_us: hist_sum("lock_cache_shard_wait_us"),
            flight_acq: s.counter("lock_flight_acquisitions_total").unwrap_or(0),
            flight_contended: s.counter("lock_flight_contended_total").unwrap_or(0),
            flight_wait_us: hist_sum("lock_flight_wait_us"),
            flight_depth_max: s.gauge("flight_in_flight_depth").unwrap_or(0),
            recv_batch_avg: hist_avg("dnsd_recv_batch_size"),
            send_batch_avg: hist_avg("dnsd_send_batch_size"),
        }
    }
}

/// One measured row: a fresh resolver pool at `workers`, warmed, then
/// `queries` seeded queries at a bounded in-flight `window`.
fn run_row(
    auth_addr: SocketAddr,
    workers: usize,
    queries: usize,
    window: usize,
    templates: &[Vec<u8>],
    profile: bool,
) -> RunOutcome {
    let config = ResolverConfig::rfc_compliant(std::net::IpAddr::V4(Ipv4Addr::LOCALHOST));
    let mut server = UdpResolverServer::bind("127.0.0.1:0", auth_addr, config)
        .expect("bind resolver")
        .with_workers(workers);
    if profile {
        server = server.with_profiling();
    }
    let handle = server.spawn().expect("spawn resolver pool");
    let server = handle.local_addr();

    let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    client
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("timeout");
    warm(&client, server, templates);
    client
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");

    // The seeded mix: uniform name choice, ECS_PCT% of queries carrying
    // one of the fixed /24s. Templates are picked, IDs patched in place.
    let mut rng = SmallRng::seed_from_u64(0x0EC5 ^ workers as u64);
    let mut rx = RecvBatch::new(window);
    let mut tx = SendBatch::new();
    let mut sent = 0usize;
    let mut completed = 0usize;
    let mut dry_timeouts = 0u32;
    let started = Instant::now();
    while completed < queries {
        let in_flight = sent - completed;
        if sent < queries && in_flight < window {
            let burst = (window - in_flight).min(queries - sent);
            for _ in 0..burst {
                let name = rng.gen_range(0..NAMES);
                let variant = if rng.gen_range(0..100) < ECS_PCT {
                    1 + rng.gen_range(0..ECS_SUBNETS.len())
                } else {
                    0
                };
                let mut q = templates[name * (1 + ECS_SUBNETS.len()) + variant].clone();
                q[0..2].copy_from_slice(&(sent as u16).to_be_bytes());
                tx.push(q, server);
                sent += 1;
            }
            tx.flush(&client).expect("client send");
        }
        match rx.recv(&client).expect("client recv") {
            0 => {
                // 100 ms with nothing back: either the tail was lost or
                // the server stalled. Give the window a few grace periods,
                // then write the outstanding tail off as lost.
                dry_timeouts += 1;
                if dry_timeouts >= 5 {
                    break;
                }
            }
            n => {
                dry_timeouts = 0;
                completed += n;
            }
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    let (snapshot, profile) = handle.shutdown_profiled();
    RunOutcome {
        seconds,
        completed,
        lost: sent - completed,
        snapshot,
        profile,
    }
}

fn main() {
    let args = parse_args();
    let worker_counts = [1usize, 2, 4, 8];
    let templates = templates();

    // One authoritative serves every row: only the warm-up touches it.
    let auth = UdpAuthServer::bind("127.0.0.1:0", bench_zone()).expect("bind auth");
    let auth_addr = auth.local_addr().expect("bound");
    let auth_handle = auth.spawn();

    let mut rows = Vec::new();
    let mut merged_profile = obs::ProfileSnapshot::default();
    for &workers in &worker_counts {
        eprintln!(
            "bench_dnsd: {} queries at {workers} worker(s), window {}{} ...",
            args.queries,
            args.window,
            if args.profile.is_some() {
                ", profiled"
            } else {
                ""
            }
        );
        let o = run_row(
            auth_addr,
            workers,
            args.queries,
            args.window,
            &templates,
            args.profile.is_some(),
        );
        let qps = o.completed as f64 / o.seconds;
        let c = Contention::from_snapshot(&o.snapshot);
        if args.profile.is_some() {
            eprintln!(
                "bench_dnsd:   {:>9.0} qps ({} completed, {} lost, {:.3}s; shard locks {}/{} contended, {} us waited)",
                qps, o.completed, o.lost, o.seconds, c.shard_contended, c.shard_acq, c.shard_wait_us
            );
        } else {
            eprintln!(
                "bench_dnsd:   {:>9.0} qps ({} completed, {} lost, {:.3}s)",
                qps, o.completed, o.lost, o.seconds
            );
        }
        merged_profile.merge(&o.profile);
        rows.push((workers, o, qps));
    }
    auth_handle.shutdown();

    let (best_workers, _, best_qps) = rows
        .iter()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .map(|(w, o, q)| (*w, o, *q))
        .expect("rows nonempty");
    // Scaling sanity on the 1→4 leg: adding workers must never drop a row
    // more than 15% below the single-worker baseline (monotone-or-flat;
    // genuine speedups only appear with more cores than this box may
    // have, but contention regressions show up anywhere).
    let base_qps = rows
        .iter()
        .find(|(w, _, _)| *w == 1)
        .map(|(_, _, q)| *q)
        .expect("workers=1 row");
    let monotone_or_flat = rows
        .iter()
        .filter(|(w, _, _)| *w <= 4)
        .all(|(_, _, q)| *q >= base_qps * 0.85);

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"dnsd_multiworker_loopback\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"queries_per_row\": {}, \"names\": {NAMES}, \"ecs_pct\": {ECS_PCT}, \"window\": {}, \"seeded\": true, \"profiled\": {}}},\n",
        args.queries,
        args.window,
        args.profile.is_some(),
    ));
    json.push_str("  \"rows\": [\n");
    let last = rows.len() - 1;
    for (i, (workers, o, qps)) in rows.iter().enumerate() {
        let hits = o.snapshot.counter("cache_hits_total").unwrap_or(0);
        let coalesced = o
            .snapshot
            .counter("resolver_coalesced_queries_total")
            .unwrap_or(0);
        let upstream = o
            .snapshot
            .counter("resolver_upstream_queries_total")
            .unwrap_or(0);
        let c = Contention::from_snapshot(&o.snapshot);
        json.push_str(&format!(
            "    {{\"workers\": {workers}, \"seconds\": {:.4}, \"qps\": {:.0}, \"completed\": {}, \"lost\": {}, \"cache_hits\": {hits}, \"coalesced\": {coalesced}, \"upstream_queries\": {upstream}, \"lock_shard_acq\": {}, \"lock_shard_contended\": {}, \"lock_shard_wait_us\": {}, \"lock_flight_acq\": {}, \"lock_flight_contended\": {}, \"lock_flight_wait_us\": {}, \"flight_depth_max\": {}, \"recv_batch_avg\": {:.2}, \"send_batch_avg\": {:.2}}}{}\n",
            o.seconds,
            qps,
            o.completed,
            o.lost,
            c.shard_acq,
            c.shard_contended,
            c.shard_wait_us,
            c.flight_acq,
            c.flight_contended,
            c.flight_wait_us,
            c.flight_depth_max,
            c.recv_batch_avg,
            c.send_batch_avg,
            if i < last { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"best_workers\": {best_workers},\n"));
    json.push_str(&format!("  \"best_qps\": {best_qps:.0},\n"));
    json.push_str(&format!(
        "  \"monotone_or_flat_1_to_4\": {monotone_or_flat}\n"
    ));
    json.push_str("}\n");

    std::fs::write(&args.out, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {}", args.out);

    if let Some(path) = &args.profile {
        // Merged across every row: the shape (which stages dominate) is
        // the diagnosis artifact; per-row splits live in the lock columns.
        std::fs::write(path, merged_profile.to_folded()).expect("write folded stacks");
        eprintln!(
            "wrote {path} ({} stacks, {} us self time, {} spans)",
            merged_profile.stacks.len(),
            merged_profile.total_self_us(),
            merged_profile.total_calls()
        );
        // And the merged metrics (prof_*/lock_* series included) so
        // `obs-validate metrics --require-prof` can gate the export.
        let mut merged_metrics = obs::MetricsSnapshot::default();
        for (_, o, _) in &rows {
            merged_metrics.merge(&o.snapshot);
        }
        let metrics_path = format!("{path}.metrics.json");
        std::fs::write(&metrics_path, merged_metrics.to_json()).expect("write metrics json");
        eprintln!("wrote {metrics_path}");
    }
    if let Some(path) = &args.history {
        for (workers, o, qps) in &rows {
            let c = Contention::from_snapshot(&o.snapshot);
            let line = bench::regression::history_line(
                "bench_dnsd",
                &[
                    ("workers", workers.to_string()),
                    ("queries", args.queries.to_string()),
                    ("window", args.window.to_string()),
                    ("profiled", args.profile.is_some().to_string()),
                    ("qps", format!("{qps:.0}")),
                    ("lost", o.lost.to_string()),
                    ("lock_shard_contended", c.shard_contended.to_string()),
                    ("lock_shard_wait_us", c.shard_wait_us.to_string()),
                    ("lock_flight_contended", c.flight_contended.to_string()),
                ],
            );
            bench::regression::append_history(path, &line).expect("append history");
        }
        eprintln!("appended {} rows to {path}", rows.len());
    }
}
