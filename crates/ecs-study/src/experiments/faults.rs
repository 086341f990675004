//! Extension experiment: resolution robustness under injected faults and
//! on fragmenting paths.
//!
//! The paper measures resolvers in the wild, where lossy paths, truncated
//! replies, and dead nameservers are facts of life; the §7.1.3 guidance in
//! RFC 7871 exists precisely because ECS queries can *cause* some of those
//! failures. Two sweeps share one loop (`sweep`) and one [`Cell`]:
//!
//! * **loss** — the identical client workload through the engine behind a
//!   [`FaultyUpstream`] at increasing loss rates (plus a truncation
//!   condition): answered fraction, retries, withdrawals, TCP recoveries,
//!   SERVFAILs;
//! * **transport ladders** — a big-answer workload (an answer that
//!   overflows a 512-byte path MTU but fits the 4096-byte EDNS buffer)
//!   through three transport policies — UDP-only, UDP→TCP, and the full
//!   UDP→TCP→DoT ladder (RFC 7766, RFC 7858) — at increasing fragment-loss
//!   rates. UDP-only fails strictly worse than any ladder-enabled policy
//!   once fragments are lost, because every stream rung is immune to
//!   datagram fate.
//!
//! Every cell is seeded and replayable. Only the loss cells trace and
//! record into the session.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question, Rcode};
use netsim::{LinkFaults, PathProfile, SimTime};
use resolver::{FaultyUpstream, Resolver, ResolverConfig, RetryPolicy, Transport, TransportPolicy};

use crate::report::Report;
use crate::session::Session;

/// UDP attempt budget per query in the loss cells.
const ATTEMPTS: u8 = 4;
/// Zone TTL.
const TTL: u32 = 60;
/// RNG seed of the loss cells (faults only; the workload is fixed).
const SEED: u64 = 7;
/// Path MTU of the ladder cells; answers above this fragment (and risk
/// the loss rate).
const MTU: usize = 512;
/// A records on the ladder cells' name — sized to overflow [`MTU`].
const ANSWER_RECORDS: usize = 60;
/// RNG seed of the ladder cells (datagram fate only).
const LADDER_SEED: u64 = 11;
/// Fragment-loss rates of the ladder cells (one row each).
const FRAG_LOSS_RATES: [f64; 3] = [0.0, 0.5, 1.0];

/// Parameters: the ones a caller sets. The rest are the constants above.
#[derive(Debug, Clone)]
pub struct Config {
    /// Client queries per loss cell.
    pub queries: u64,
    /// Reply-loss rates swept (one cell each).
    pub loss_rates: Vec<f64>,
    /// Client queries per transport-ladder cell.
    pub ladder_queries: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            queries: 400,
            loss_rates: vec![0.0, 0.1, 0.3, 0.6, 0.9],
            ladder_queries: 300,
        }
    }
}

/// One sweep cell's counters.
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

/// Outcome: one cell per loss rate, the all-truncated condition, and one
/// row of ladder cells per fragment-loss rate.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// (loss rate, counters) per sweep cell.
    pub by_loss: Vec<(f64, Cell)>,
    /// The truncate-every-reply condition (loss 0).
    pub truncated: Cell,
    /// (fragment-loss rate, cells in `policies()` order).
    pub by_frag_loss: Vec<(f64, Vec<Cell>)>,
}

/// The swept transport policies, in strictly-more-capable order.
fn policies() -> Vec<(&'static str, TransportPolicy)> {
    vec![
        ("udp-only", TransportPolicy::udp_only()),
        (
            "udp+tcp",
            TransportPolicy::with_ladder([Transport::Udp, Transport::Tcp]),
        ),
        ("full-ladder", TransportPolicy::full_ladder()),
    ]
}

/// The loop every sweep cell runs: a zone answering `www.<apex>` with one
/// A record per address in `addrs`, served without a query log behind the
/// decorator `wrap` builds around it, and `queries` client queries from
/// distinct /24s through `r`.
fn sweep(
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

fn drive_loss(faults: LinkFaults, config: &Config, session: &mut Session) -> Cell {
    let mut resolver_config = ResolverConfig::rfc_compliant("9.9.9.9".parse().expect("valid"));
    resolver_config.retry = RetryPolicy {
        attempts: ATTEMPTS,
        ..RetryPolicy::default()
    };
    let mut r = Resolver::new(resolver_config);
    r.set_tracer(session.tracer());
    let cell = sweep(
        &mut r,
        "fault.example",
        [Ipv4Addr::new(198, 51, 100, 1)],
        TTL,
        config.queries,
        |inner| FaultyUpstream::new(inner, faults, SEED),
    );
    session.record(&r.metrics_snapshot());
    cell
}

fn drive_ladder(frag_loss: f64, policy: &TransportPolicy, config: &Config) -> Cell {
    let mut resolver_config = ResolverConfig::rfc_compliant("9.9.9.9".parse().expect("valid"));
    resolver_config.transport = policy.clone();
    let path = PathProfile {
        mtu: MTU,
        frag_loss,
    };
    sweep(
        &mut Resolver::new(resolver_config),
        "big.test",
        (0..ANSWER_RECORDS).map(|i| Ipv4Addr::new(198, 51, (i / 256) as u8, (i % 256) as u8)),
        TTL,
        config.ladder_queries,
        |inner| FaultyUpstream::new(inner, LinkFaults::NONE, LADDER_SEED).with_profile(path),
    )
}

/// Runs the experiment. Every loss cell's resolver traces into the
/// session's tracer and the per-cell metric registries merge into one
/// snapshot; when the session captures telemetry the report gains a
/// p50/p99 latency row of the loss cells and the snapshot is recorded
/// into it. The ladder cells run untraced, after the loss cells.
pub fn run(config: &Config, session: &mut Session) -> (Outcome, Report) {
    let by_loss: Vec<(f64, Cell)> = config
        .loss_rates
        .iter()
        .map(|&loss| {
            let faults = LinkFaults {
                loss,
                ..LinkFaults::NONE
            };
            (loss, drive_loss(faults, config, session))
        })
        .collect();
    let truncated = drive_loss(
        LinkFaults {
            truncate_replies: 1.0,
            ..LinkFaults::NONE
        },
        config,
        session,
    );
    let policy_set = policies();
    let by_frag_loss: Vec<(f64, Vec<Cell>)> = FRAG_LOSS_RATES
        .into_iter()
        .map(|loss| {
            let cells = policy_set
                .iter()
                .map(|(_, policy)| drive_ladder(loss, policy, config))
                .collect();
            (loss, cells)
        })
        .collect();
    let outcome = Outcome {
        by_loss,
        truncated,
        by_frag_loss,
    };

    let mut report = Report::new(
        "faults",
        "resolution robustness under injected faults and fragmenting paths (extension)",
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

    let ladder_queries = config.ladder_queries;
    for (loss, cells) in &outcome.by_frag_loss {
        let answered: Vec<u64> = cells.iter().map(|c| c.answered).collect();
        // The ordering claim: each extra rung can only help.
        let ordered = answered.windows(2).all(|w| w[0] <= w[1]);
        report.row(
            format!("answered @ frag loss {loss:.1}"),
            "udp-only ≤ udp+tcp ≤ full-ladder (stream rungs are immune)",
            policy_set
                .iter()
                .zip(cells)
                .map(|((name, _), c)| format!("{name} {}/{ladder_queries}", c.answered))
                .collect::<Vec<_>>()
                .join(", "),
            ordered,
        );
    }
    // `FRAG_LOSS_RATES` runs from lossless to total fragment loss.
    let clean = &outcome.by_frag_loss[0].1;
    let dead = &outcome.by_frag_loss[FRAG_LOSS_RATES.len() - 1].1;
    report.row(
        "lossless fragmentation baseline",
        "every policy answers everything without a single ladder edge",
        format!(
            "answered {:?}, ladder edges {:?}",
            clean.iter().map(|c| c.answered).collect::<Vec<_>>(),
            clean
                .iter()
                .map(|c| c.transport_fallbacks)
                .collect::<Vec<_>>()
        ),
        clean
            .iter()
            .all(|c| c.answered == ladder_queries && c.transport_fallbacks == 0),
    );
    let udp_only = dead[0];
    let laddered = &dead[1..];
    report.row(
        "total fragment loss",
        "udp-only loses every big answer; any stream rung recovers all",
        format!(
            "udp-only {}/{ladder_queries} ({} SERVFAIL), laddered {:?}",
            udp_only.answered,
            udp_only.servfailed,
            laddered.iter().map(|c| c.answered).collect::<Vec<_>>()
        ),
        udp_only.answered == 0
            && udp_only.servfailed == ladder_queries
            && laddered
                .iter()
                .all(|c| c.answered == ladder_queries && c.servfailed == 0),
    );
    report.row(
        "ECS withdrawal survives the fall",
        "fragment-drop timeouts withdraw ECS before the ladder edge (§7.1.3)",
        format!(
            "{} withdrawals, {} ladder edges on the udp+tcp policy",
            laddered[0].ecs_withdrawals, laddered[0].transport_fallbacks
        ),
        laddered[0].ecs_withdrawals >= 1 && laddered[0].transport_fallbacks >= 1,
    );
    report.detail = format!(
        "{} queries per loss cell, attempt budget {}, seed {}. Loss applies to the\nfull UDP exchange; truncation leaves TCP untouched, so the TC condition\nmeasures pure RFC 7766 fallback.\n{} queries per ladder cell over a {}-record answer (~1 kB: past the {}-byte\npath MTU, inside the 4096-byte EDNS buffer), seed {}. Fragment loss\nkills whole datagrams, so the UDP rung sees pure timeouts; stream rungs\nreassemble and never fragment.\n",
        config.queries,
        ATTEMPTS,
        SEED,
        ladder_queries,
        ANSWER_RECORDS,
        MTU,
        LADDER_SEED
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
            ladder_queries: 60,
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
    fn ladder_policies_beat_udp_only_under_fragment_loss() {
        let (out, report) = run(&small());
        assert!(report.all_hold(), "{report}");
        let (_, dead) = out
            .by_frag_loss
            .iter()
            .find(|(l, _)| *l >= 1.0)
            .expect("total-loss row swept");
        assert_eq!(dead[0].answered, 0, "udp-only loses everything");
        assert_eq!(dead[1].answered, 60, "udp+tcp recovers everything");
        assert_eq!(dead[2].answered, 60, "full ladder recovers everything");
        assert!(dead[1].timeouts > 0, "the UDP rung burned its budget first");
    }

    #[test]
    fn sweep_is_seed_deterministic() {
        let (a, _) = run(&small());
        let (b, _) = run(&small());
        assert_eq!(a.by_loss, b.by_loss);
        assert_eq!(a.truncated, b.truncated);
    }

    #[test]
    fn ladder_sweep_is_seed_deterministic() {
        let (a, _) = run(&small());
        let (b, _) = run(&small());
        assert_eq!(a.by_frag_loss, b.by_frag_loss);
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
        assert_eq!(plain.by_frag_loss, traced.by_frag_loss);
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
        // Only the loss cells (and the truncated one) were recorded.
        let queries = small().queries * (small().loss_rates.len() as u64 + 1);
        assert_eq!(
            telem.snapshot.counter("resolver_client_queries_total"),
            Some(queries)
        );
    }
}
