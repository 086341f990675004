//! Seeded inputs for the serving workloads: the zone, the wire templates
//! and the query sequence of each mix. Query `i` of a mix is a pure
//! function of `(seed, i)`, so the same seed always drives the same bytes
//! at the server and the program under test only ever sees generated
//! input.

use std::net::{IpAddr, Ipv4Addr};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{EcsOption, Message, Name, Question, Rcode};
use workload::{CdnStreamGen, WorkloadModel};

/// Names in the `serve_warm` and `serve_cold` zones.
pub const NAMES: usize = 256;
/// Client /24s per name in `serve_warm` (besides the no-ECS variant).
pub const WARM_SUBNETS: usize = 16;
/// How many leading queries the determinism digest and the in-process
/// layer probes cover.
pub const PROBE_QUERIES: u64 = 100_000;

/// splitmix64: one well-mixed u64 per `(seed, i)`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over a byte stream: the digest generator determinism and result
/// comparisons are pinned with.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one integer into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// One generated client query: a zone name by index, and the client /24
/// (its three network octets) carried as ECS, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    /// Index into the [`Catalog`]'s names.
    pub name: u32,
    /// Client subnet `a.b.c.0/24`, or `None` for a query without ECS.
    pub subnet: Option<[u8; 3]>,
}

/// A routable /24 from a 23-bit index: first octet 20..=99 (clear of
/// loopback, RFC 1918 and CGNAT space, which the prefix policy treats
/// specially), then two free octets. Distinct indices below
/// [`SUBNET_SPACE`] give distinct subnets.
pub fn subnet_from_index(n: u64) -> [u8; 3] {
    let n = n % SUBNET_SPACE;
    [20 + (n >> 16) as u8, (n >> 8) as u8, n as u8]
}

/// Number of distinct subnets [`subnet_from_index`] produces.
pub const SUBNET_SPACE: u64 = 80 << 16;

/// The zone a serving workload runs against and the wire templates of its
/// queries. Name `i` resolves to [`Catalog::addr`]`(i)`, unique per name,
/// so an answer for the wrong name is caught by its address.
pub struct Catalog {
    apex: Name,
    names: Vec<Name>,
    plain: Vec<Vec<u8>>,
    with_ecs: Vec<Vec<u8>>,
}

impl Catalog {
    /// `count` names `n<i>.<label>.bench.example`.
    pub fn new(label: &str, count: usize) -> Self {
        let apex = Name::from_ascii(&format!("{label}.bench.example")).expect("valid apex");
        let names: Vec<Name> = (0..count)
            .map(|i| apex.child(&format!("n{i}")).expect("valid label"))
            .collect();
        let plain = names
            .iter()
            .map(|n| {
                Message::query(0, Question::a(n.clone()))
                    .to_bytes()
                    .expect("query encodes")
            })
            .collect();
        let with_ecs = names
            .iter()
            .map(|n| {
                let mut q = Message::query(0, Question::a(n.clone()));
                q.set_ecs(EcsOption::from_v4(Ipv4Addr::new(0, 0, 0, 0), 24));
                q.to_bytes().expect("query encodes")
            })
            .collect();
        Catalog {
            apex,
            names,
            plain,
            with_ecs,
        }
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Name `i`.
    pub fn name(&self, i: u32) -> &Name {
        &self.names[i as usize]
    }

    /// The address name `i` resolves to.
    pub fn addr(i: u32) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, (i / 250) as u8, (i % 250) as u8 + 1)
    }

    /// An authoritative server for the zone, ECS open, answering scope =
    /// source (so a /24 query is cached at /24), query logging off.
    pub fn auth(&self, ttl: impl Fn(u32) -> u32) -> AuthServer {
        let mut zone = Zone::new(self.apex.clone());
        for (i, name) in self.names.iter().enumerate() {
            zone.add_a(name.clone(), ttl(i as u32), Self::addr(i as u32))
                .expect("unique in-zone names");
        }
        let mut auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::MatchSource));
        auth.set_logging(false);
        auth
    }

    /// The wire form of `q` with transaction id `id`: the name's template
    /// with the id and — the ECS option being the last thing in the
    /// message — the three trailing subnet octets patched in.
    pub fn encode(&self, q: &Query, id: u16) -> Vec<u8> {
        let mut buf = match q.subnet {
            None => self.plain[q.name as usize].clone(),
            Some(octets) => {
                let mut buf = self.with_ecs[q.name as usize].clone();
                let at = buf.len() - 3;
                buf[at..].copy_from_slice(&octets);
                buf
            }
        };
        buf[0..2].copy_from_slice(&id.to_be_bytes());
        buf
    }

    /// Full check of one reply to `q`: a NOERROR response with the right
    /// id, exactly the zone's address for the name, and — when the query
    /// carried a client subnet — that subnet echoed with scope /24.
    pub fn verify(&self, reply: &[u8], id: u16, q: &Query) -> bool {
        let Ok(resp) = Message::from_bytes(reply) else {
            return false;
        };
        if !resp.is_response() || resp.id != id || resp.rcode != Rcode::NoError {
            return false;
        }
        if resp.answer_addrs() != [IpAddr::V4(Self::addr(q.name))] {
            return false;
        }
        match q.subnet {
            None => true,
            Some([a, b, c]) => resp.ecs().is_some_and(|e| {
                e.scope_prefix_len() == 24
                    && e.source_prefix_len() == 24
                    && e.addr() == IpAddr::V4(Ipv4Addr::new(a, b, c, 0))
            }),
        }
    }
}

/// Where a serving workload's queries come from.
pub enum Mix {
    /// `serve_warm`: uniform over [`NAMES`] names × (no ECS + 16 seeded
    /// /24s) — 4352 distinct cache keys, all resolved before timing.
    Warm {
        /// Workload seed.
        seed: u64,
        /// The sixteen client subnets of this seed.
        subnets: [[u8; 3]; WARM_SUBNETS],
    },
    /// `serve_cold`: every query a (name, /24) pair never sent before.
    Cold {
        /// Workload seed.
        seed: u64,
    },
    /// `serve_mix`: (name, client /24) pairs of a one-resolver
    /// [`CdnStreamGen`] model, read from a seed-chosen offset. The model
    /// itself is fixed, so every seed sees the same popularity law and
    /// key-space size and only the draw differs.
    Cdn {
        /// The fixed model.
        model: Box<workload::stream::CdnStreamModel>,
        /// First record index of this seed's window.
        offset: u64,
    },
}

/// Records in the `serve_mix` model's index space; a seed picks a window
/// start below half of it.
const CDN_INDEX_SPACE: u64 = 1 << 40;

impl Mix {
    /// The `serve_warm` mix for `seed`.
    pub fn warm(seed: u64) -> Self {
        // Sixteen distinct subnets: consecutive indices from a seeded base.
        let base = mix(seed, 0xA11) % (SUBNET_SPACE - WARM_SUBNETS as u64);
        let mut subnets = [[0u8; 3]; WARM_SUBNETS];
        for (k, s) in subnets.iter_mut().enumerate() {
            *s = subnet_from_index(base + k as u64);
        }
        Mix::Warm { seed, subnets }
    }

    /// The `serve_cold` mix for `seed`.
    pub fn cold(seed: u64) -> Self {
        Mix::Cold { seed }
    }

    /// The `serve_mix` mix for `seed`. With these settings and this model
    /// seed the generator builds 59 hostnames and a 16-subnet client pool:
    /// 944 cache keys, the ≈1000 live keys the workload is sized for.
    pub fn cdn(seed: u64) -> Self {
        let model = CdnStreamGen {
            resolvers: 1,
            subnets_per_resolver: 16,
            hostnames: 64,
            queries: CDN_INDEX_SPACE,
            // One fixed model for every benchmark seed; see `Mix::Cdn`.
            seed: 4,
            ..CdnStreamGen::default()
        }
        .build();
        Mix::Cdn {
            model: Box::new(model),
            offset: mix(seed, 0xCD7) % (CDN_INDEX_SPACE / 2),
        }
    }

    /// How many zone names the mix draws from.
    pub fn names(&self) -> usize {
        match self {
            Mix::Warm { .. } | Mix::Cold { .. } => NAMES,
            Mix::Cdn { model, .. } => model.names().len(),
        }
    }

    /// Query `i` of the mix.
    pub fn query(&self, i: u64) -> Query {
        match self {
            Mix::Warm { seed, subnets } => {
                let r = mix(*seed, i);
                let variant = (r >> 32) as usize % (WARM_SUBNETS + 1);
                Query {
                    name: (r % NAMES as u64) as u32,
                    subnet: variant.checked_sub(1).map(|k| subnets[k]),
                }
            }
            Mix::Cold { seed } => Query {
                name: (mix(*seed, i) % NAMES as u64) as u32,
                // A counter through the subnet space from a seeded start:
                // no subnet, hence no (name, subnet) pair, ever repeats.
                subnet: Some(subnet_from_index(
                    (mix(*seed, 0xC01D) % SUBNET_SPACE).wrapping_add(i),
                )),
            },
            Mix::Cdn { model, offset } => {
                let rec = model.record(offset + i);
                let subnet = match rec.ecs_source.map(|p| p.addr()) {
                    Some(IpAddr::V4(a)) => {
                        let o = a.octets();
                        Some([o[0], o[1], o[2]])
                    }
                    _ => None,
                };
                Query {
                    name: rec.name_id,
                    subnet,
                }
            }
        }
    }

    /// Every distinct query of the first `span` queries, in first-seen
    /// order — the warm-up pass.
    pub fn distinct(&self, span: u64) -> Vec<Query> {
        let mut seen = std::collections::HashSet::new();
        (0..span)
            .map(|i| self.query(i))
            .filter(|q| seen.insert(*q))
            .collect()
    }
}

/// Digest of the wire bytes of the first [`PROBE_QUERIES`] queries.
pub fn query_digest(catalog: &Catalog, mix: &Mix) -> u64 {
    let mut h = Fnv::default();
    for i in 0..PROBE_QUERIES {
        h.write(&catalog.encode(&mix.query(i), i as u16));
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_for(mix: &Mix, label: &str) -> Catalog {
        Catalog::new(label, mix.names())
    }

    #[test]
    fn patched_templates_decode_to_the_intended_query() {
        let catalog = Catalog::new("t", 4);
        let q = Query {
            name: 3,
            subnet: Some([77, 1, 2]),
        };
        let msg = Message::from_bytes(&catalog.encode(&q, 0xBEEF)).expect("decodes");
        assert_eq!(msg.id, 0xBEEF);
        assert_eq!(&msg.question().expect("question").name, catalog.name(3));
        let ecs = msg.ecs().expect("ecs");
        assert_eq!(ecs.addr(), IpAddr::V4(Ipv4Addr::new(77, 1, 2, 0)));
        assert_eq!(ecs.source_prefix_len(), 24);
        let plain = Message::from_bytes(&catalog.encode(
            &Query {
                name: 0,
                subnet: None,
            },
            7,
        ))
        .expect("decodes");
        assert!(plain.ecs().is_none());
        assert_eq!(plain.id, 7);
    }

    #[test]
    fn verify_accepts_the_zone_answer_and_rejects_everything_else() {
        let catalog = Catalog::new("t", 4);
        let mut auth = catalog.auth(|_| 60);
        let q = Query {
            name: 2,
            subnet: Some([50, 6, 7]),
        };
        let query = Message::from_bytes(&catalog.encode(&q, 9)).expect("decodes");
        let resp = auth.handle(
            &query,
            IpAddr::V4(Ipv4Addr::LOCALHOST),
            netsim::SimTime::ZERO,
        );
        let bytes = resp.to_bytes().expect("encodes");
        assert!(catalog.verify(&bytes, 9, &q));
        assert!(!catalog.verify(&bytes, 10, &q), "wrong id");
        assert!(
            !catalog.verify(&bytes, 9, &Query { name: 1, ..q }),
            "wrong name"
        );
        let other = Query {
            subnet: Some([50, 6, 8]),
            ..q
        };
        assert!(!catalog.verify(&bytes, 9, &other), "wrong subnet echoed");
        let mut bad = resp.clone();
        bad.rcode = Rcode::ServFail;
        assert!(!catalog.verify(&bad.to_bytes().expect("encodes"), 9, &q));
        assert!(!catalog.verify(&bytes[..10], 9, &q), "truncated");
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        type MakeMix = fn(u64) -> Mix;
        let mixes: [(&str, MakeMix); 3] =
            [("warm", Mix::warm), ("cold", Mix::cold), ("mix", Mix::cdn)];
        for (label, make) in mixes {
            let a = make(1);
            let catalog = catalog_for(&a, label);
            let first = query_digest(&catalog, &a);
            assert_eq!(
                first,
                query_digest(&catalog, &make(1)),
                "{label}: same seed"
            );
            assert_ne!(
                first,
                query_digest(&catalog, &make(2)),
                "{label}: other seed"
            );
        }
    }

    #[test]
    fn cold_pairs_never_repeat_and_warm_keys_stay_bounded() {
        let cold = Mix::cold(5);
        let n = 50_000;
        assert_eq!(cold.distinct(n).len() as u64, n);
        let warm = Mix::warm(5);
        let keys = warm.distinct(200_000);
        assert_eq!(keys.len(), NAMES * (WARM_SUBNETS + 1));
        assert!(keys.iter().any(|q| q.subnet.is_none()));
    }

    #[test]
    fn cdn_mix_has_the_same_key_space_for_every_seed() {
        let a = Mix::cdn(1);
        let b = Mix::cdn(99);
        assert_eq!(a.names(), b.names());
        let (ka, kb) = (a.distinct(60_000), b.distinct(60_000));
        // Same model, different windows: the popular keys all show up in
        // both, and the key space is the ≈1000 the workload is sized for.
        assert_eq!(a.names(), 59);
        assert_eq!((ka.len(), kb.len()), (944, 944));
        assert!(ka.iter().all(|q| q.subnet.is_some()));
    }

    #[test]
    fn subnets_are_routable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for n in (0..SUBNET_SPACE).step_by(4099) {
            let [a, b, c] = subnet_from_index(n);
            assert!((20..100).contains(&a));
            let p = dns_wire::IpPrefix::v4(Ipv4Addr::new(a, b, c, 0), 24).expect("prefix");
            assert!(!p.is_non_routable());
            assert!(seen.insert([a, b, c]));
        }
    }
}
