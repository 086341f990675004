//! Seeded digests of everything the fault-injecting decorators and the
//! simulator's per-packet fault decision produce.
//!
//! Each cell runs a resolver against an [`AuthServer`] behind a decorator
//! and folds into one FNV-1a digest: every client answer's bytes, eight of
//! the engine's counters, the decorator's counters and the authoritative's query
//! log. Counters fold by name, as little-endian words, so a counter added
//! to or deleted from a stats struct moves no digest. The `FaultPlan` pin folds the fate counts, every mangled payload and
//! the next word of the RNG over 10,000 seeded packets with every knob set.
//!
//! The pins hold the behaviour still while the decorators change shape.
//! Only the helpers in the first block may be respelled; a digest that
//! moves is a behaviour change.
//!
//! The cells of the first test that truncate fold the query log without
//! arrival times: their stream legs now pay the handshake (40–80 ms) that
//! the path-modelling cells always paid, and nothing reads those times.
//! Every other cell folds them.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{Message, Name, Question};
use netsim::{FaultPlan, FaultStats, LinkFaults, NodeId, PathProfile, SimTime, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resolver::{
    FaultyUpstream, InjectedFault, Resolver, ResolverConfig, RetryPolicy, TransportPolicy, Upstream,
};

// --- How a cell builds its decorator and reads its counters. -------------

fn faulty(faults: LinkFaults, seed: u64) -> FaultyUpstream<AuthServer> {
    FaultyUpstream::new(small_auth(), faults, seed)
}

fn scripted(script: Vec<InjectedFault>) -> FaultyUpstream<AuthServer> {
    FaultyUpstream::scripted(small_auth(), script)
}

fn faulty_counters(up: &FaultyUpstream<AuthServer>) -> [u64; 6] {
    let s = up.stats();
    [
        s.timeouts,
        s.truncated,
        s.servfail,
        s.formerr,
        s.passed,
        s.streams(),
    ]
}

fn on_path(profile: PathProfile, seed: u64) -> FaultyUpstream<AuthServer> {
    FaultyUpstream::new(big_auth(), LinkFaults::NONE, seed).with_profile(profile)
}

fn with_standing(standing: &[(Transport, bool)]) -> FaultyUpstream<AuthServer> {
    let mut up = FaultyUpstream::new(big_auth(), LinkFaults::NONE, 7);
    for &(transport, refused) in standing {
        let fault = if refused {
            InjectedFault::Refused
        } else {
            InjectedFault::Timeout
        };
        up = up.pin(transport, fault);
    }
    up
}

fn transport_counters(up: &FaultyUpstream<AuthServer>) -> [u64; 8] {
    let t = up.stats().transport;
    [
        t.exchanges[0],
        t.exchanges[1],
        t.exchanges[2],
        t.handshakes,
        t.resumed_handshakes,
        t.reused_connections,
        t.handshake_rtts,
        t.fragments_dropped,
    ]
}

// --- Cells. ---------------------------------------------------------------

const RES: IpAddr = IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9));

fn name(s: &str) -> Name {
    Name::from_ascii(s).unwrap()
}

/// The `faults` experiment's zone: one A record.
fn small_auth() -> AuthServer {
    let mut zone = Zone::new(name("fault.example"));
    zone.add_a(
        name("www.fault.example"),
        60,
        Ipv4Addr::new(198, 51, 100, 1),
    )
    .unwrap();
    AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
}

/// The `transports` experiment's zone: 60 A records, about 1 kB, past a
/// 512-byte path MTU and inside the 4096-byte EDNS buffer.
fn big_auth() -> AuthServer {
    let mut zone = Zone::new(name("big.test"));
    for i in 0..60usize {
        zone.add_a(
            name("www.big.test"),
            60,
            Ipv4Addr::new(198, 51, (i / 256) as u8, (i % 256) as u8),
        )
        .unwrap();
    }
    AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource))
}

/// FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `queries` client queries for `qname` from distinct /24s, 600 s apart,
/// folded into `h` answer by answer, then the eight engine counters the
/// cells exist to pin, as little-endian bytes (a counter added to
/// `ResolverStats` moves no digest).
fn drive<U: Upstream>(config: ResolverConfig, up: &mut U, qname: &str, queries: u64, h: &mut Fnv) {
    let mut r = Resolver::new(config);
    for i in 0..queries {
        let q = Message::query(i as u16, Question::a(name(qname)));
        let client = IpAddr::V4(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 7));
        let resp = r.resolve_msg(&q, client, SimTime::from_secs(i * 600), up);
        h.eat(&resp.to_bytes().unwrap());
    }
    let s = r.stats();
    for c in [
        s.upstream_queries,
        s.upstream_ecs_queries,
        s.retries,
        s.upstream_timeouts,
        s.ecs_withdrawals,
        s.tcp_fallbacks,
        s.transport_fallbacks,
        s.servfail_responses,
    ] {
        h.eat(&c.to_le_bytes());
    }
}

fn fold_log(h: &mut Fnv, auth: &AuthServer, with_times: bool) {
    for e in auth.log() {
        if with_times {
            h.eat(&e.at.as_micros().to_le_bytes());
        }
        h.eat(
            format!(
                "{} {} {:?} {:?} {:?} {:?}",
                e.resolver, e.qname, e.qtype, e.ecs, e.response_scope, e.answers
            )
            .as_bytes(),
        );
    }
}

fn retry(attempts: u8) -> ResolverConfig {
    let mut config = ResolverConfig::rfc_compliant(RES);
    config.retry = RetryPolicy {
        attempts,
        ..RetryPolicy::default()
    };
    config
}

fn faulty_cell(mut up: FaultyUpstream<AuthServer>, with_times: bool) -> u64 {
    let mut h = Fnv::new();
    drive(retry(4), &mut up, "www.fault.example", 120, &mut h);
    for c in faulty_counters(&up) {
        h.eat(&c.to_le_bytes());
    }
    fold_log(&mut h, up.inner(), with_times);
    h.0
}

fn transport_cell(
    policy: TransportPolicy,
    attempts: u8,
    mut up: FaultyUpstream<AuthServer>,
) -> u64 {
    let mut h = Fnv::new();
    let mut config = retry(attempts);
    config.transport = policy;
    drive(config, &mut up, "www.big.test", 60, &mut h);
    for c in transport_counters(&up) {
        h.eat(&c.to_le_bytes());
    }
    fold_log(&mut h, up.inner(), true);
    h.0
}

fn ladders() -> [TransportPolicy; 3] {
    [
        TransportPolicy::udp_only(),
        TransportPolicy::with_ladder([Transport::Udp, Transport::Tcp]),
        TransportPolicy::full_ladder(),
    ]
}

#[test]
fn faulty_upstream_cells_are_pinned() {
    let lossy = |loss| LinkFaults {
        loss,
        ..LinkFaults::NONE
    };
    let cells: Vec<(&str, u64)> = vec![
        ("clean", faulty_cell(faulty(LinkFaults::NONE, 7), true)),
        ("loss 0.1", faulty_cell(faulty(lossy(0.1), 7), true)),
        ("loss 0.3", faulty_cell(faulty(lossy(0.3), 7), true)),
        ("loss 0.6", faulty_cell(faulty(lossy(0.6), 7), true)),
        ("loss 0.9", faulty_cell(faulty(lossy(0.9), 7), true)),
        (
            "truncate 1.0",
            faulty_cell(
                faulty(
                    LinkFaults {
                        truncate_replies: 1.0,
                        ..LinkFaults::NONE
                    },
                    7,
                ),
                false,
            ),
        ),
        (
            "loss 0.3 + truncate 0.4",
            faulty_cell(
                faulty(
                    LinkFaults {
                        loss: 0.3,
                        truncate_replies: 0.4,
                        ..LinkFaults::NONE
                    },
                    11,
                ),
                false,
            ),
        ),
        (
            "blackhole",
            faulty_cell(
                faulty(
                    LinkFaults {
                        blackhole: true,
                        ..LinkFaults::NONE
                    },
                    7,
                ),
                true,
            ),
        ),
        (
            "script",
            faulty_cell(
                scripted(vec![
                    InjectedFault::Timeout,
                    InjectedFault::Truncate,
                    InjectedFault::ServFail,
                    InjectedFault::Timeout,
                    InjectedFault::Timeout,
                    InjectedFault::FormErr,
                    InjectedFault::Pass,
                    InjectedFault::Truncate,
                    InjectedFault::Timeout,
                    InjectedFault::Timeout,
                    InjectedFault::Timeout,
                    InjectedFault::Timeout,
                    InjectedFault::Pass,
                ]),
                false,
            ),
        ),
    ];
    let expected: Vec<(&str, u64)> = vec![
        ("clean", 1487064779325255043),
        ("loss 0.1", 14670237236276115131),
        ("loss 0.3", 6099853403795579715),
        ("loss 0.6", 540926177083673764),
        ("loss 0.9", 17804802664174066253),
        ("truncate 1.0", 528899758406691631),
        ("loss 0.3 + truncate 0.4", 6500990193105697000),
        ("blackhole", 10174730046620592677),
        ("script", 1427595138326740445),
    ];
    assert_eq!(cells, expected);
}

#[test]
fn transport_upstream_cells_are_pinned() {
    let mut cells: Vec<(String, u64)> = Vec::new();
    // The `transports` experiment's sweep: fragment loss by ladder.
    for frag_loss in [0.0, 0.5, 1.0] {
        for (i, policy) in ladders().into_iter().enumerate() {
            let up = on_path(
                PathProfile {
                    mtu: 512,
                    frag_loss,
                },
                11,
            );
            cells.push((
                format!("frag {frag_loss} ladder {i}"),
                transport_cell(policy, 4, up),
            ));
        }
    }
    // Every edge of the transport-fallback matrix.
    let small_buf = TransportPolicy {
        edns_buf: 512,
        ..TransportPolicy::with_ladder([Transport::Udp, Transport::Tcp])
    };
    cells.push((
        "truncation jumps".into(),
        transport_cell(small_buf, 3, on_path(PathProfile::default(), 7)),
    ));
    cells.push((
        "refused tcp falls to dot".into(),
        transport_cell(
            TransportPolicy::with_ladder([Transport::Tcp, Transport::Dot]),
            1,
            with_standing(&[(Transport::Tcp, true)]),
        ),
    ));
    cells.push((
        "dot timeout falls to tcp".into(),
        transport_cell(
            TransportPolicy::with_ladder([Transport::Dot, Transport::Tcp]),
            2,
            with_standing(&[(Transport::Dot, false)]),
        ),
    ));
    cells.push((
        "all rungs faulted".into(),
        transport_cell(
            TransportPolicy::with_ladder([Transport::Udp, Transport::Tcp]),
            1,
            with_standing(&[(Transport::Udp, false), (Transport::Tcp, true)]),
        ),
    ));
    cells.push((
        "refused udp".into(),
        transport_cell(
            TransportPolicy::udp_only(),
            4,
            with_standing(&[(Transport::Udp, true)]),
        ),
    ));
    let expected = [
        ("frag 0 ladder 0", 16369010489239552406),
        ("frag 0 ladder 1", 16369010489239552406),
        ("frag 0 ladder 2", 16369010489239552406),
        ("frag 0.5 ladder 0", 7157527723568408524),
        ("frag 0.5 ladder 1", 4202010525850547630),
        ("frag 0.5 ladder 2", 4202010525850547630),
        ("frag 1 ladder 0", 18127855271398593043),
        ("frag 1 ladder 1", 17808748781222015990),
        ("frag 1 ladder 2", 17808748781222015990),
        ("truncation jumps", 13495370394433001143),
        ("refused tcp falls to dot", 6916233773592051009),
        ("dot timeout falls to tcp", 18113285516352180785),
        ("all rungs faulted", 7037026303772436149),
        ("refused udp", 6026492184151322021),
    ]
    .map(|(cell, digest)| (cell.to_string(), digest));
    assert_eq!(cells, expected);
}

/// A DNS reply (QR set) of 60 fake answer bytes after one question, or the
/// query it answers.
fn packet(i: u32) -> Vec<u8> {
    let mut b = vec![(i >> 8) as u8, i as u8, 0x80, 0x00, 0, 1, 0, 3, 0, 0, 0, 1];
    if i.is_multiple_of(3) {
        b[2] = 0x01; // a query: QR clear, RD set
    }
    b.extend_from_slice(&[3, b'w', b'w', b'w', 1, b'x', 0, 0, 1, 0, 1]);
    b.extend((0..60).map(|k| (k ^ i) as u8));
    b
}

#[test]
fn fault_plan_fates_are_pinned() {
    let mut plan = FaultPlan::uniform(LinkFaults {
        loss: 0.1,
        blackhole: false,
        truncate_replies: 0.2,
        refused_replies: 0.3,
    });
    plan.set_link(
        NodeId(2),
        NodeId(0),
        LinkFaults {
            blackhole: true,
            ..LinkFaults::NONE
        },
    );
    plan.set_link(NodeId(1), NodeId(2), LinkFaults::NONE);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut stats = FaultStats::default();
    let mut h = Fnv::new();
    let mut delivered = 0u64;
    for i in 0..10_000u32 {
        let (src, dst) = [(0, 1), (1, 0), (2, 0), (1, 2), (0, 2)][(i % 5) as usize];
        let mut p = packet(i);
        if plan.apply(NodeId(src), NodeId(dst), &mut p, &mut rng, &mut stats) {
            delivered += 1;
            h.eat(&p);
        }
    }
    assert_eq!(
        (stats, delivered, h.0, rng.gen::<u64>()),
        (
            FaultStats {
                dropped_loss: 575,
                dropped_blackhole: 2000,
                truncated: 726,
                rcode_injected: 873,
            },
            7425,
            9343705268399507656,
            8268210641585911105,
        )
    );
}
