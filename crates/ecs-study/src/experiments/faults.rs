//! Extension experiment: resolution robustness under injected faults.
//!
//! The paper measures resolvers in the wild, where lossy paths, truncated
//! replies, and dead nameservers are facts of life; the §7.1.3 guidance in
//! RFC 7871 exists precisely because ECS queries can *cause* some of those
//! failures. This sweep drives the identical client workload through the
//! engine behind a [`FaultyUpstream`] at increasing loss rates (plus a
//! truncation condition), and reports how the retry/backoff/ECS-withdrawal
//! machinery degrades: answered fraction, retries, withdrawals, TCP
//! recoveries, SERVFAILs. Every cell is seeded and replayable.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question, Rcode};
use netsim::{LinkFaults, SimTime};
use resolver::{FaultyUpstream, Resolver, ResolverConfig, RetryPolicy};

use crate::report::Report;
use crate::session::Session;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Client queries per cell.
    pub queries: u64,
    /// Reply-loss rates swept (one cell each).
    pub loss_rates: Vec<f64>,
    /// UDP attempt budget per query.
    pub attempts: u8,
    /// Zone TTL.
    pub ttl: u32,
    /// RNG seed (faults only; the workload is fixed).
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            queries: 400,
            loss_rates: vec![0.0, 0.1, 0.3, 0.6, 0.9],
            attempts: 4,
            ttl: 60,
            seed: 7,
        }
    }
}

/// One sweep cell's counters (this sweep's and `transports`').
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Queries that ended in an answer.
    pub answered: u64,
    /// Queries that exhausted the budget (SERVFAIL to the client).
    pub servfailed: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Attempts that timed out (fragment drops surface as timeouts).
    pub timeouts: u64,
    /// ECS options withdrawn on retry (RFC 7871 §7.1.3).
    pub ecs_withdrawals: u64,
    /// Truncated exchanges recovered over TCP.
    pub tcp_fallbacks: u64,
    /// Ladder edges taken (a rung exhausted or truncated → the next).
    pub transport_fallbacks: u64,
    /// Datagrams the path model dropped in fragments.
    pub fragments_dropped: u64,
}

/// Outcome: one cell per loss rate, plus the all-truncated condition.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// (loss rate, counters) per sweep cell.
    pub by_loss: Vec<(f64, Cell)>,
    /// The truncate-every-reply condition (loss 0).
    pub truncated: Cell,
}

/// The loop every fault-sweep cell runs: a zone answering `www.<apex>`
/// with one A record per address in `addrs`, served without a query log
/// behind the decorator `wrap` builds around it, and `queries` client
/// queries from distinct /24s through `r`.
pub(crate) fn sweep(
    r: &mut Resolver,
    apex: &str,
    addrs: impl IntoIterator<Item = Ipv4Addr>,
    ttl: u32,
    queries: u64,
    wrap: impl FnOnce(AuthServer) -> FaultyUpstream<AuthServer>,
) -> Cell {
    let apex = Name::from_ascii(apex).expect("valid");
    let mut zone = Zone::new(apex.clone());
    let qname = apex.child("www").expect("valid");
    for addr in addrs {
        zone.add_a(qname.clone(), ttl, addr).expect("in zone");
    }
    let mut inner = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
    inner.set_logging(false);
    let mut up = wrap(inner);

    let mut answered = 0u64;
    for i in 0..queries {
        let q = Message::query(i as u16, Question::a(qname.clone()));
        let client = IpAddr::V4(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 7));
        // Spaced past the TTL and the worst-case backoff run, so every
        // query is a fresh cache miss and faces the path anew.
        let resp = r.resolve_msg(&q, client, SimTime::from_secs(i * 600), &mut up);
        if resp.rcode == Rcode::NoError && !resp.answers.is_empty() {
            answered += 1;
        }
    }
    let s = r.stats();
    Cell {
        answered,
        servfailed: s.servfail_responses,
        retries: s.retries,
        timeouts: s.upstream_timeouts,
        ecs_withdrawals: s.ecs_withdrawals,
        tcp_fallbacks: s.tcp_fallbacks,
        transport_fallbacks: s.transport_fallbacks,
        fragments_dropped: up.stats().transport.fragments_dropped,
    }
}

fn drive(faults: LinkFaults, config: &Config, session: &mut Session) -> Cell {
    let mut resolver_config = ResolverConfig::rfc_compliant("9.9.9.9".parse().expect("valid"));
    resolver_config.retry = RetryPolicy {
        attempts: config.attempts,
        ..RetryPolicy::default()
    };
    let mut r = Resolver::new(resolver_config);
    r.set_tracer(session.tracer());
    let cell = sweep(
        &mut r,
        "fault.example",
        [Ipv4Addr::new(198, 51, 100, 1)],
        config.ttl,
        config.queries,
        |inner| FaultyUpstream::new(inner, faults, config.seed),
    );
    session.record(&r.metrics_snapshot());
    cell
}

/// Runs the experiment. Every cell's resolver traces into the session's
/// tracer and the per-cell metric registries merge into one snapshot;
/// when the session captures telemetry the report gains a p50/p99 latency
/// row and the snapshot is recorded into it.
pub fn run(config: &Config, session: &mut Session) -> (Outcome, Report) {
    let by_loss: Vec<(f64, Cell)> = config
        .loss_rates
        .iter()
        .map(|&loss| {
            let faults = LinkFaults {
                loss,
                ..LinkFaults::NONE
            };
            (loss, drive(faults, config, session))
        })
        .collect();
    let truncated = drive(
        LinkFaults {
            truncate_replies: 1.0,
            ..LinkFaults::NONE
        },
        config,
        session,
    );
    let outcome = Outcome { by_loss, truncated };

    let mut report = Report::new(
        "faults",
        "resolution robustness under injected faults (extension)",
    );
    let clean = outcome.by_loss.first().map(|(_, c)| *c);
    for (loss, cell) in &outcome.by_loss {
        let frac = cell.answered as f64 / config.queries as f64;
        report.row(
            format!("answered fraction @ loss {loss:.1}"),
            "retries mask loss until the budget runs out",
            format!(
                "{:.1}% ({} retries, {} SERVFAIL)",
                frac * 100.0,
                cell.retries,
                cell.servfailed
            ),
            cell.answered + cell.servfailed == config.queries,
        );
    }
    if let Some(clean) = clean {
        report.row(
            "fault-free baseline",
            "no retries, no withdrawals, no SERVFAILs",
            format!(
                "{} retries, {} withdrawals, {} SERVFAIL",
                clean.retries, clean.ecs_withdrawals, clean.servfailed
            ),
            clean.retries == 0 && clean.ecs_withdrawals == 0 && clean.servfailed == 0,
        );
    }
    let worst = outcome.by_loss.last().map(|(_, c)| *c).unwrap_or(truncated);
    report.row(
        "ECS withdrawal under loss",
        "withdrawn once, then the server is marked non-ECS (§7.1.3)",
        format!(
            "{} withdrawals at the highest loss rate",
            worst.ecs_withdrawals
        ),
        worst.retries == 0 || worst.ecs_withdrawals >= 1,
    );
    report.row(
        "TCP recovery of truncated replies",
        "every exchange recovers; zero SERVFAILs",
        format!(
            "{}/{} answered over TCP",
            outcome.truncated.tcp_fallbacks, config.queries
        ),
        outcome.truncated.answered == config.queries && outcome.truncated.servfailed == 0,
    );
    session.latency_row(
        &mut report,
        "p99 grows with loss (backoff runs), p50 stays near the RTT",
    );
    report.detail = format!(
        "{} queries per cell, attempt budget {}, seed {}. Loss applies to the\nfull UDP exchange; truncation leaves TCP untouched, so the TC condition\nmeasures pure RFC 7766 fallback.\n",
        config.queries, config.attempts, config.seed
    );
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(config: &Config) -> (Outcome, Report) {
        super::run(config, &mut Session::new(false))
    }

    fn small() -> Config {
        Config {
            queries: 80,
            loss_rates: vec![0.0, 0.5, 0.9],
            ..Config::default()
        }
    }

    #[test]
    fn sweep_degrades_monotonically_in_expectation() {
        let (out, report) = run(&small());
        assert!(report.all_hold(), "{report}");
        let fracs: Vec<u64> = out.by_loss.iter().map(|(_, c)| c.answered).collect();
        assert_eq!(fracs[0], 80, "fault-free answers everything");
        assert!(
            fracs[2] <= fracs[1],
            "0.9 loss answers no more than 0.5 loss: {fracs:?}"
        );
        assert_eq!(out.truncated.tcp_fallbacks, 80);
    }

    #[test]
    fn sweep_is_seed_deterministic() {
        let (a, _) = run(&small());
        let (b, _) = run(&small());
        assert_eq!(a.by_loss, b.by_loss);
        assert_eq!(a.truncated, b.truncated);
    }

    #[test]
    fn telemetry_run_matches_and_validates() {
        let (plain, _) = run(&small());
        let mut session = Session::new(true);
        let (traced, report) = super::run(&small(), &mut session);
        let telem = session.take_telemetry().expect("capturing");
        // Telemetry is pure observation: identical outcome.
        assert_eq!(plain.by_loss, traced.by_loss);
        assert_eq!(plain.truncated, traced.truncated);
        assert!(report.all_hold(), "{report}");
        // The trace parses and is non-trivial; the snapshot carries the
        // series the CI validation step requires.
        assert!(obs::validate::validate_trace(&telem.trace_jsonl).unwrap() > 0);
        assert!(obs::validate::validate_metrics_json(
            &telem.snapshot.to_json(),
            &[
                "resolver_client_queries_total",
                "resolver_retries_total",
                "resolver_query_latency_us",
            ],
        )
        .is_ok());
        let (p50, p99, _) = telem
            .latency_quantiles("resolver_query_latency_us")
            .expect("latency recorded");
        assert!(p50 <= p99);
    }
}
