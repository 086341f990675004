//! Probing-strategy classification (§6.1).
//!
//! The paper observed the major CDN's logs — where the CDN appears
//! non-ECS-supporting to non-whitelisted resolvers — and grouped resolvers
//! by *when* their queries carry ECS. [`classify_probing`] reproduces that
//! grouping from an authoritative query log, as the [`ProbingClass`] the
//! `workload` populations plant.

use std::collections::{HashMap, HashSet};

use authoritative::QueryLogEntry;
use dns_wire::Name;
use workload::ProbingClass;

/// Classifies one resolver's query log (all entries must belong to the
/// same resolver): `None` when no address query carried ECS (not
/// ECS-enabled). `short_window_secs` is the paper's one-minute threshold
/// separating cache-bypassing probes (re-queried within TTL) from on-miss
/// probes (never within the window of a previous query for the name).
pub fn classify_probing(entries: &[QueryLogEntry], short_window_secs: u64) -> Option<ProbingClass> {
    let address_queries: Vec<&QueryLogEntry> =
        entries.iter().filter(|e| e.qtype.is_address()).collect();
    if address_queries.is_empty() {
        return None;
    }
    let ecs_queries: Vec<&QueryLogEntry> = address_queries
        .iter()
        .copied()
        .filter(|e| e.ecs.is_some())
        .collect();
    if ecs_queries.is_empty() {
        return None;
    }

    // All ECS prefixes non-routable → interval probing with loopback (the
    // paper's third class; these resolvers probe a single query string).
    // Checked before the 100%-ECS shortcut: a capture window so narrow it
    // holds only the loopback probe itself would otherwise read as a
    // resolver that sends (loopback!) ECS on every query.
    let all_non_routable = ecs_queries
        .iter()
        .all(|e| e.ecs.as_ref().map(|o| o.is_non_routable()).unwrap_or(false));
    if all_non_routable {
        return Some(ProbingClass::IntervalLoopback);
    }

    if ecs_queries.len() == address_queries.len() {
        return Some(ProbingClass::Always);
    }

    // Names queried with ECS vs without.
    let ecs_names: HashSet<&Name> = ecs_queries.iter().map(|e| &e.qname).collect();
    let plain_names: HashSet<&Name> = address_queries
        .iter()
        .filter(|e| e.ecs.is_none())
        .map(|e| &e.qname)
        .collect();
    let consistent_per_name = ecs_names.is_disjoint(&plain_names);

    if consistent_per_name {
        // Gap analysis per probe name.
        let mut times: HashMap<&Name, Vec<u64>> = HashMap::new();
        for e in &ecs_queries {
            times.entry(&e.qname).or_default().push(e.at.as_secs());
        }
        let mut any_short_gap = false;
        for list in times.values_mut() {
            list.sort_unstable();
            for w in list.windows(2) {
                if w[1] - w[0] < short_window_secs {
                    any_short_gap = true;
                }
            }
        }
        if any_short_gap {
            return Some(ProbingClass::HostnameProbe);
        }
        // Repeats exist but never within the short window → on miss. If a
        // name was only queried once we cannot distinguish; the paper
        // groups consistent-per-name resolvers without short gaps here.
        return Some(ProbingClass::OnMiss);
    }

    Some(ProbingClass::Mixed)
}

/// A §6.1 verdict as reports print it: the class's name, or `NoEcs` for a
/// resolver that sent no ECS at all.
pub fn verdict_name(verdict: Option<ProbingClass>) -> String {
    verdict.map_or_else(|| "NoEcs".to_string(), |class| format!("{class:?}"))
}

/// Groups a mixed authoritative log by resolver and classifies each.
pub fn classify_all(
    log: &[QueryLogEntry],
    short_window_secs: u64,
) -> HashMap<std::net::IpAddr, Option<ProbingClass>> {
    let mut by_resolver: HashMap<std::net::IpAddr, Vec<QueryLogEntry>> = HashMap::new();
    for e in log {
        by_resolver.entry(e.resolver).or_default().push(e.clone());
    }
    by_resolver
        .into_iter()
        .map(|(addr, entries)| (addr, classify_probing(&entries, short_window_secs)))
        .collect()
}

/// Counts resolvers that sent ECS queries to a root nameserver's log — the
/// outright RFC violation the paper found 15 instances of in DITL data.
pub fn root_ecs_offenders(root_log: &[QueryLogEntry]) -> Vec<std::net::IpAddr> {
    let mut offenders: Vec<std::net::IpAddr> = root_log
        .iter()
        .filter(|e| e.ecs.is_some())
        .map(|e| e.resolver)
        .collect();
    offenders.sort();
    offenders.dedup();
    offenders
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{EcsOption, RecordType};
    use netsim::SimTime;
    use std::net::{IpAddr, Ipv4Addr};

    const R: IpAddr = IpAddr::V4(Ipv4Addr::new(5, 5, 5, 5));

    fn entry(at_secs: u64, qname: &str, ecs: Option<EcsOption>) -> QueryLogEntry {
        QueryLogEntry {
            at: SimTime::from_secs(at_secs),
            resolver: R,
            qname: Name::from_ascii(qname).unwrap(),
            qtype: RecordType::A,
            ecs,
            response_scope: None,
            answers: Vec::new(),
        }
    }

    fn client_ecs() -> Option<EcsOption> {
        Some(EcsOption::from_v4(Ipv4Addr::new(100, 1, 2, 0), 24))
    }

    fn loopback_ecs() -> Option<EcsOption> {
        Some(EcsOption::from_v4(Ipv4Addr::new(127, 0, 0, 1), 32))
    }

    #[test]
    fn always_class() {
        let log: Vec<_> = (0..10)
            .map(|i| entry(i, &format!("h{i}.example.com"), client_ecs()))
            .collect();
        assert_eq!(classify_probing(&log, 60), Some(ProbingClass::Always));
    }

    #[test]
    fn no_ecs_class() {
        let log: Vec<_> = (0..10).map(|i| entry(i, "a.example.com", None)).collect();
        assert_eq!(classify_probing(&log, 60), None);
        assert_eq!(classify_probing(&[], 60), None);
    }

    #[test]
    fn hostname_probe_class() {
        // probe.example queried with ECS every 10 s (TTL was 20 s → within
        // TTL), other names without ECS.
        let mut log = Vec::new();
        for i in 0..6 {
            log.push(entry(i * 10, "probe.example.com", client_ecs()));
            log.push(entry(i * 10 + 1, "other.example.com", None));
        }
        assert_eq!(
            classify_probing(&log, 60),
            Some(ProbingClass::HostnameProbe)
        );
    }

    #[test]
    fn interval_loopback_class() {
        let mut log = Vec::new();
        for i in 0..4 {
            log.push(entry(i * 1800, "probe.example.com", loopback_ecs()));
        }
        for i in 0..20 {
            log.push(entry(i * 100 + 7, "site.example.com", None));
        }
        assert_eq!(
            classify_probing(&log, 60),
            Some(ProbingClass::IntervalLoopback)
        );
    }

    #[test]
    fn narrow_window_of_loopback_probes_is_not_always() {
        // Regression: a capture window containing only loopback probes
        // (e.g. one probe, or a window shorter than the probe period) used
        // to satisfy the "ECS on 100% of address queries" shortcut and be
        // misread as `Always`. Non-routable prefixes must win.
        let log = vec![entry(0, "probe.example.com", loopback_ecs())];
        assert_eq!(
            classify_probing(&log, 60),
            Some(ProbingClass::IntervalLoopback)
        );
        let log = vec![
            entry(0, "probe.example.com", loopback_ecs()),
            entry(1800, "probe.example.com", loopback_ecs()),
        ];
        assert_eq!(
            classify_probing(&log, 60),
            Some(ProbingClass::IntervalLoopback)
        );
    }

    #[test]
    fn on_miss_class() {
        // ECS for one name, repeats spaced 300 s apart (after TTL expiry).
        let mut log = Vec::new();
        for i in 0..5 {
            log.push(entry(i * 300, "x.example.com", client_ecs()));
            log.push(entry(i * 300 + 2, "y.example.com", None));
        }
        assert_eq!(classify_probing(&log, 60), Some(ProbingClass::OnMiss));
    }

    #[test]
    fn mixed_class() {
        // The same name sometimes with, sometimes without ECS.
        let log = vec![
            entry(0, "a.example.com", client_ecs()),
            entry(10, "a.example.com", None),
            entry(20, "b.example.com", None),
        ];
        assert_eq!(classify_probing(&log, 60), Some(ProbingClass::Mixed));
    }

    #[test]
    fn classify_all_groups_by_resolver() {
        let mut log: Vec<_> = (0..5)
            .map(|i| entry(i, &format!("h{i}.example.com"), client_ecs()))
            .collect();
        let other: IpAddr = "6.6.6.6".parse().unwrap();
        for i in 0..5 {
            let mut e = entry(i, "h.example.com", None);
            e.resolver = other;
            log.push(e);
        }
        let verdicts = classify_all(&log, 60);
        assert_eq!(verdicts[&R], Some(ProbingClass::Always));
        assert_eq!(verdicts[&other], None);
    }

    #[test]
    fn root_offenders_detected() {
        let mut log = vec![entry(0, ".", client_ecs()), entry(1, ".", None)];
        let other: IpAddr = "6.6.6.6".parse().unwrap();
        let mut e = entry(2, ".", client_ecs());
        e.resolver = other;
        log.push(e.clone());
        log.push(e); // duplicate should dedup
        let offenders = root_ecs_offenders(&log);
        assert_eq!(offenders.len(), 2);
    }
}
