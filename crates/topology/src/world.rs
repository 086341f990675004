//! Whole-world generation from a seeded configuration.

use dns_wire::IpPrefix;
use netsim::geo::{city, CITIES};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::addr::AddrAllocator;
use crate::asn::{generate_ases, jitter_position, AsId, AutonomousSystem};
use crate::entities::{
    CdnFootprint, ChainSpec, ClientSpec, EdgeServerSpec, EgressResolverSpec, ForwarderSpec,
    HiddenResolverSpec, PublicServiceSpec,
};

/// Configuration for world generation. Defaults give a laptop-scale world
/// whose *shape* mirrors the paper's populations.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Seed for all generation randomness.
    pub seed: u64,
    /// Chinese ASes (the paper: 19 among scan egress ASes; includes the
    /// dominant AS as the first).
    pub chinese_ases: usize,
    /// Other ASes.
    pub other_ases: usize,
    /// Number of client /24 subnets, each with one or more clients.
    pub client_subnets: usize,
    /// Clients per subnet (mean; actual count is 1..=2*mean-1).
    pub clients_per_subnet: usize,
    /// Open forwarders.
    pub forwarders: usize,
    /// Hidden resolvers.
    pub hidden_resolvers: usize,
    /// Egress resolvers that are NOT part of the public service.
    pub independent_egress: usize,
    /// Egress resolvers of the major public service.
    pub public_egress: usize,
    /// Fraction of chains that include a hidden hop.
    pub hidden_chain_fraction: f64,
    /// Fraction of chains whose egress belongs to the public service.
    pub public_chain_fraction: f64,
    /// Fraction of hidden hops deliberately placed far from the forwarder
    /// (the §8.2 "Santiago behind Italy" pathology; paper observes ~8% of
    /// combinations with hidden farther than egress).
    pub misplaced_hidden_fraction: f64,
    /// Cities with CDN edges (empty = all cities in the table).
    pub cdn_cities: Vec<&'static str>,
    /// Edge servers per CDN city.
    pub edges_per_city: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0,
            chinese_ases: 19,
            other_ases: 64,
            client_subnets: 200,
            clients_per_subnet: 3,
            forwarders: 300,
            hidden_resolvers: 60,
            independent_egress: 40,
            public_egress: 24,
            hidden_chain_fraction: 0.5,
            public_chain_fraction: 0.6,
            misplaced_hidden_fraction: 0.10,
            cdn_cities: Vec::new(),
            edges_per_city: 4,
        }
    }
}

/// A fully generated world: every entity the experiments instantiate.
#[derive(Debug, Clone)]
pub struct World {
    /// The AS population (index 0 is the dominant Chinese AS).
    pub ases: Vec<AutonomousSystem>,
    /// Client subnets (one /24 per entry).
    pub client_subnets: Vec<IpPrefix>,
    /// All clients.
    pub clients: Vec<ClientSpec>,
    /// Open forwarders.
    pub forwarders: Vec<ForwarderSpec>,
    /// Hidden resolvers.
    pub hidden_resolvers: Vec<HiddenResolverSpec>,
    /// All egress resolvers (public-service ones flagged).
    pub egress_resolvers: Vec<EgressResolverSpec>,
    /// Resolution chains referenced by forwarders.
    pub chains: Vec<ChainSpec>,
    /// The major public resolution service.
    pub public_service: PublicServiceSpec,
    /// The CDN footprint.
    pub cdn: CdnFootprint,
}

impl World {
    /// Generates a world from the config. Same config (incl. seed) ⇒ same
    /// world.
    pub fn generate(cfg: &WorldConfig) -> World {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut alloc = AddrAllocator::new();
        let ases = generate_ases(cfg.chinese_ases, cfg.other_ases, &mut rng);

        // Clients: each subnet homes in a random AS's territory.
        let mut client_subnets = Vec::with_capacity(cfg.client_subnets);
        let mut clients = Vec::new();
        for _ in 0..cfg.client_subnets {
            let asn = &ases[rng.gen_range(0..ases.len())];
            let block = alloc.alloc_v4_block();
            let base_pos = asn.pick_position(&mut rng);
            client_subnets.push(block);
            let n = if cfg.clients_per_subnet <= 1 {
                1
            } else {
                rng.gen_range(1..cfg.clients_per_subnet * 2)
            };
            for i in 0..n {
                clients.push(ClientSpec {
                    addr: AddrAllocator::host_in(&block, 1 + i as u32),
                    subnet: block,
                    pos: jitter_position(base_pos, 10.0, &mut rng),
                    asn: asn.id,
                });
            }
        }

        // Egress resolvers: public service first, then independents.
        let mut egress_resolvers = Vec::new();
        let mut public_indices = Vec::new();
        // The public service concentrates egresses in a handful of regions —
        // this is what makes public resolvers poor location proxies.
        let service_regions: Vec<&'static str> = {
            let mut names: Vec<&'static str> = vec![
                "Mountain View",
                "Dallas",
                "Frankfurt",
                "Singapore",
                "Sao Paulo",
                "Tokyo",
            ];
            names.shuffle(&mut rng);
            names
        };
        for i in 0..cfg.public_egress {
            let region = city(service_regions[i % service_regions.len()]).expect("known city");
            let block = alloc.alloc_v4_block();
            public_indices.push(egress_resolvers.len());
            egress_resolvers.push(EgressResolverSpec {
                addr: AddrAllocator::host_in(&block, 1),
                pos: jitter_position(region.pos, 30.0, &mut rng),
                asn: AsId(15169), // the service's own AS
                public_service: true,
            });
        }
        for _ in 0..cfg.independent_egress {
            let asn = &ases[rng.gen_range(0..ases.len())];
            let block = alloc.alloc_v4_block();
            egress_resolvers.push(EgressResolverSpec {
                addr: AddrAllocator::host_in(&block, 1),
                pos: asn.pick_position(&mut rng),
                asn: asn.id,
                public_service: false,
            });
        }

        // Public service front-ends: one per region.
        let frontends = service_regions
            .iter()
            .map(|name| {
                let c = city(name).expect("known city");
                let block = alloc.alloc_v4_block();
                (
                    AddrAllocator::host_in(&block, 1),
                    jitter_position(c.pos, 20.0, &mut rng),
                )
            })
            .collect();

        // Hidden resolvers, scattered like independent infrastructure.
        let mut hidden_resolvers = Vec::with_capacity(cfg.hidden_resolvers);
        for _ in 0..cfg.hidden_resolvers {
            let asn = &ases[rng.gen_range(0..ases.len())];
            let block = alloc.alloc_v4_block();
            hidden_resolvers.push(HiddenResolverSpec {
                addr: AddrAllocator::host_in(&block, 1),
                pos: asn.pick_position(&mut rng),
                asn: asn.id,
            });
        }

        // Forwarders and their chains.
        let mut chains = Vec::with_capacity(cfg.forwarders);
        let mut forwarders = Vec::with_capacity(cfg.forwarders);
        for _ in 0..cfg.forwarders {
            let asn = &ases[rng.gen_range(0..ases.len())];
            let block = alloc.alloc_v4_block();
            let pos = asn.pick_position(&mut rng);

            let use_public = rng.gen_bool(cfg.public_chain_fraction.clamp(0.0, 1.0));
            let egress = if use_public && !public_indices.is_empty() {
                public_indices[rng.gen_range(0..public_indices.len())]
            } else if egress_resolvers.len() > public_indices.len() {
                rng.gen_range(public_indices.len()..egress_resolvers.len())
            } else {
                0
            };

            let hidden = if !hidden_resolvers.is_empty()
                && rng.gen_bool(cfg.hidden_chain_fraction.clamp(0.0, 1.0))
            {
                if rng.gen_bool(cfg.misplaced_hidden_fraction.clamp(0.0, 1.0)) {
                    // Pick the hidden resolver farthest from the forwarder:
                    // the pathological configuration.
                    hidden_resolvers
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            a.pos
                                .distance_km(&pos)
                                .partial_cmp(&b.pos.distance_km(&pos))
                                .expect("finite")
                        })
                        .map(|(i, _)| i)
                } else {
                    // Pick the nearest hidden resolver: in the wild these
                    // are typically ISP-internal machines close to the
                    // forwarder population they serve.
                    hidden_resolvers
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| {
                            a.pos
                                .distance_km(&pos)
                                .partial_cmp(&b.pos.distance_km(&pos))
                                .expect("finite")
                        })
                        .map(|(i, _)| i)
                }
            } else {
                None
            };

            let chain_idx = chains.len();
            chains.push(ChainSpec { hidden, egress });
            forwarders.push(ForwarderSpec {
                addr: AddrAllocator::host_in(&block, 1),
                pos,
                asn: asn.id,
                chain: chain_idx,
            });
        }

        // CDN footprint.
        let cdn_cities: Vec<&'static str> = if cfg.cdn_cities.is_empty() {
            CITIES.iter().map(|c| c.name).collect()
        } else {
            cfg.cdn_cities.clone()
        };
        let mut edges = Vec::new();
        for name in &cdn_cities {
            let c = city(name).expect("city in table");
            for _ in 0..cfg.edges_per_city {
                let block = alloc.alloc_v4_block();
                edges.push(EdgeServerSpec {
                    addr: AddrAllocator::host_in(&block, 1),
                    pos: jitter_position(c.pos, 15.0, &mut rng),
                    city: c.name.to_string(),
                });
            }
        }

        World {
            ases,
            client_subnets,
            clients,
            forwarders,
            hidden_resolvers,
            egress_resolvers,
            chains,
            public_service: PublicServiceSpec {
                frontends,
                egress_indices: public_indices,
            },
            cdn: CdnFootprint { edges },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn default_world_generates_consistently() {
        let w1 = World::generate(&WorldConfig::default());
        let w2 = World::generate(&WorldConfig::default());
        assert_eq!(w1.clients.len(), w2.clients.len());
        assert_eq!(w1.forwarders.len(), w2.forwarders.len());
        assert_eq!(
            w1.clients.first().map(|c| c.addr),
            w2.clients.first().map(|c| c.addr)
        );
    }

    #[test]
    fn counts_match_config() {
        let cfg = WorldConfig {
            client_subnets: 50,
            forwarders: 70,
            hidden_resolvers: 10,
            independent_egress: 12,
            public_egress: 6,
            ..WorldConfig::default()
        };
        let w = World::generate(&cfg);
        assert_eq!(w.client_subnets.len(), 50);
        assert_eq!(w.forwarders.len(), 70);
        assert_eq!(w.chains.len(), 70);
        assert_eq!(w.hidden_resolvers.len(), 10);
        assert_eq!(w.egress_resolvers.len(), 18);
        assert_eq!(w.public_service.egress_indices.len(), 6);
        assert!(w.clients.len() >= 50);
    }

    #[test]
    fn all_addresses_unique() {
        let w = World::generate(&WorldConfig::default());
        let mut addrs = HashSet::new();
        for a in w
            .clients
            .iter()
            .map(|c| c.addr)
            .chain(w.forwarders.iter().map(|f| f.addr))
            .chain(w.hidden_resolvers.iter().map(|h| h.addr))
            .chain(w.egress_resolvers.iter().map(|e| e.addr))
            .chain(w.cdn.edges.iter().map(|e| e.addr))
        {
            assert!(addrs.insert(a), "duplicate address {a}");
        }
    }

    #[test]
    fn chains_reference_valid_entities() {
        let w = World::generate(&WorldConfig::default());
        for f in &w.forwarders {
            let chain = &w.chains[f.chain];
            assert!(chain.egress < w.egress_resolvers.len());
            if let Some(h) = chain.hidden {
                assert!(h < w.hidden_resolvers.len());
            }
        }
    }

    #[test]
    fn public_fraction_roughly_respected() {
        let cfg = WorldConfig {
            forwarders: 1000,
            public_chain_fraction: 0.6,
            ..WorldConfig::default()
        };
        let w = World::generate(&cfg);
        let public = w
            .chains
            .iter()
            .filter(|c| w.egress_resolvers[c.egress].public_service)
            .count();
        assert!((450..750).contains(&public), "{public}");
    }

    #[test]
    fn hidden_fraction_roughly_respected() {
        let cfg = WorldConfig {
            forwarders: 1000,
            hidden_chain_fraction: 0.5,
            ..WorldConfig::default()
        };
        let w = World::generate(&cfg);
        let hidden = w.chains.iter().filter(|c| c.hidden.is_some()).count();
        assert!((380..620).contains(&hidden), "{hidden}");
    }

    #[test]
    fn client_positions_near_subnet_peers() {
        // Clients of the same /24 should be geographically close (they share
        // a base position with ≤10 km jitter each).
        let w = World::generate(&WorldConfig::default());
        use std::collections::HashMap;
        let mut by_subnet: HashMap<_, Vec<&ClientSpec>> = HashMap::new();
        for c in &w.clients {
            by_subnet.entry(c.subnet).or_default().push(c);
        }
        for (_, group) in by_subnet {
            for pair in group.windows(2) {
                assert!(pair[0].pos.distance_km(&pair[1].pos) < 50.0);
            }
        }
    }

    #[test]
    fn cdn_edges_cover_requested_cities() {
        let cfg = WorldConfig {
            cdn_cities: vec!["Chicago", "Tokyo"],
            edges_per_city: 2,
            ..WorldConfig::default()
        };
        let w = World::generate(&cfg);
        assert_eq!(w.cdn.edges.len(), 4);
        let cities: HashSet<_> = w.cdn.edges.iter().map(|e| e.city.as_str()).collect();
        assert_eq!(cities, HashSet::from(["Chicago", "Tokyo"]));
    }
}
