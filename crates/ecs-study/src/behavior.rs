//! Mapping from the workload crate's behaviour classes (the paper's
//! observed populations) to live [`ResolverConfig`]s.

use std::collections::HashSet;

use dns_wire::Name;
use netsim::SimDuration;
use resolver::{CacheCompliance, PrefixPolicy, ProbingStrategy, ResolverConfig};
use workload::{ComplianceClass, PrefixClass, ProbingClass, ResolverSpec};

/// Builds the resolver configuration that exhibits a spec's behaviour.
///
/// `probe_names` are the hostnames that hostname-probing and on-miss
/// resolvers single out (the paper observed each such resolver picking its
/// own small set; passing the workload's hottest names makes the behaviour
/// observable within a short trace).
pub fn resolver_config_for(spec: &ResolverSpec, probe_names: &[Name]) -> ResolverConfig {
    let prefix_policy = match spec.prefix {
        PrefixClass::Slash24 => PrefixPolicy::Truncate { v4: 24, v6: 56 },
        PrefixClass::Slash32Jammed => PrefixPolicy::JammedFull { jam: 0x01 },
        PrefixClass::Slash32Full => PrefixPolicy::Full,
        PrefixClass::Slash25 => PrefixPolicy::Truncate { v4: 25, v6: 56 },
        PrefixClass::Slash16 => PrefixPolicy::Truncate { v4: 16, v6: 48 },
        PrefixClass::Slash22 => PrefixPolicy::PassThrough { max_v4: 22 },
        PrefixClass::V6Slash56 => PrefixPolicy::Truncate { v4: 24, v6: 56 },
        PrefixClass::V6Slash48 => PrefixPolicy::Truncate { v4: 24, v6: 48 },
        PrefixClass::V6Slash128 => PrefixPolicy::Full,
    };

    // Correct and IgnoresScope send the spec's prefix; the other three
    // classes are resolver presets, prefix policy included.
    let mut config = match spec.compliance {
        ComplianceClass::Correct => ResolverConfig {
            prefix_policy,
            ..ResolverConfig::rfc_compliant(spec.addr)
        },
        ComplianceClass::IgnoresScope => ResolverConfig {
            prefix_policy,
            compliance: CacheCompliance::IgnoreScope,
            ..ResolverConfig::rfc_compliant(spec.addr)
        },
        ComplianceClass::AcceptsLong => ResolverConfig::long_prefix_acceptor(spec.addr),
        ComplianceClass::Cap22 => ResolverConfig::cap22(spec.addr),
        ComplianceClass::PrivateMisconfig => ResolverConfig::private_leaker(spec.addr),
    };

    config.probing = match spec.probing {
        ProbingClass::Always => ProbingStrategy::Always,
        ProbingClass::HostnameProbe => ProbingStrategy::HostnameProbe {
            hostnames: to_set(probe_names),
        },
        ProbingClass::IntervalLoopback => ProbingStrategy::IntervalProbe {
            period: SimDuration::from_secs(1800),
            use_own_address: false,
        },
        ProbingClass::OnMiss => ProbingStrategy::OnMiss {
            hostnames: to_set(probe_names),
        },
        ProbingClass::Mixed => ProbingStrategy::EveryKth { k: 3 },
    };
    config
}

fn to_set(names: &[Name]) -> HashSet<Name> {
    names.iter().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn spec(
        probing: ProbingClass,
        prefix: PrefixClass,
        compliance: ComplianceClass,
    ) -> ResolverSpec {
        ResolverSpec {
            addr: IpAddr::V4(Ipv4Addr::new(9, 9, 9, 9)),
            probing,
            prefix,
            compliance,
            dominant_as: false,
            whitelisted: false,
        }
    }

    #[test]
    fn always_slash24_correct() {
        let c = resolver_config_for(
            &spec(
                ProbingClass::Always,
                PrefixClass::Slash24,
                ComplianceClass::Correct,
            ),
            &[],
        );
        assert!(matches!(c.probing, ProbingStrategy::Always));
        assert!(matches!(
            c.prefix_policy,
            PrefixPolicy::Truncate { v4: 24, .. }
        ));
        assert_eq!(c.compliance, CacheCompliance::Honor);
    }

    #[test]
    fn compliance_overrides_prefix_policy() {
        let c = resolver_config_for(
            &spec(
                ProbingClass::Always,
                PrefixClass::Slash24,
                ComplianceClass::Cap22,
            ),
            &[],
        );
        assert!(matches!(
            c.prefix_policy,
            PrefixPolicy::PassThrough { max_v4: 22 }
        ));
        assert!(c.accept_client_ecs);
        let c = resolver_config_for(
            &spec(
                ProbingClass::Always,
                PrefixClass::Slash24,
                ComplianceClass::PrivateMisconfig,
            ),
            &[],
        );
        assert!(matches!(c.prefix_policy, PrefixPolicy::PrivateLeak));
        assert!(!c.cache_zero_scope);
    }

    #[test]
    fn probe_names_threaded_through() {
        let names = vec![Name::from_ascii("hot.example.com").unwrap()];
        let c = resolver_config_for(
            &spec(
                ProbingClass::HostnameProbe,
                PrefixClass::Slash24,
                ComplianceClass::Correct,
            ),
            &names,
        );
        match c.probing {
            ProbingStrategy::HostnameProbe { hostnames } => {
                assert!(hostnames.contains(&names[0]));
            }
            other => panic!("wrong strategy {other:?}"),
        }
    }
}
