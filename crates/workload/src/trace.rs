//! Trace records: the common currency between workload generation and the
//! §7 cache analyses.
//!
//! One [`TraceRecord`] is one logged DNS interaction as the paper's traces
//! record it: time, egress resolver, question, the ECS source prefix of the
//! query, the scope of the response, the TTL — and, uniquely in the
//! All-Names dataset, the real client address.

use dns_wire::{IpPrefix, Name, RecordType};
use std::net::IpAddr;

use crate::intern::TraceIndex;

/// One logged query/response pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Microseconds since trace start.
    pub at_micros: u64,
    /// Egress resolver that sent the query.
    pub resolver: IpAddr,
    /// Question name.
    pub qname: Name,
    /// Question type (A or AAAA in these traces).
    pub qtype: RecordType,
    /// ECS source prefix in the query, if any.
    pub ecs_source: Option<IpPrefix>,
    /// Scope prefix length in the response, if the response carried ECS.
    pub response_scope: Option<u8>,
    /// Response TTL in seconds.
    pub ttl: u32,
    /// The real client address (All-Names dataset only).
    pub client: Option<IpAddr>,
}

/// A whole trace plus its metadata.
///
/// A trace may carry a cached [`TraceIndex`] (built by the generators, or
/// on demand via [`TraceSet::build_index`]) mapping every record to dense
/// `(resolver id, name id)` pairs so replay never hashes or clones a
/// [`Name`]. The cache is positional: it is dropped by
/// [`TraceSet::sort_by_time`] and ignored when the record count no longer
/// matches; rewriting `records` in place at the same length requires
/// calling [`TraceSet::build_index`] again.
#[derive(Debug, Clone, Default)]
pub struct TraceSet {
    /// Trace records in non-decreasing time order.
    pub records: Vec<TraceRecord>,
    /// Label for reports.
    pub label: String,
    /// Cached interned view of `records`.
    index: Option<TraceIndex>,
}

impl TraceSet {
    /// Creates an empty trace.
    pub fn new(label: impl Into<String>) -> Self {
        TraceSet {
            records: Vec::new(),
            label: label.into(),
            index: None,
        }
    }

    /// The cached interned view, if present and still covering every
    /// record. Returns `None` (rather than building one) so read-only
    /// consumers can fall back to a local build without `&mut self`.
    pub fn index(&self) -> Option<&TraceIndex> {
        let idx = self.index.as_ref()?;
        if idx.len() != self.records.len() {
            return None;
        }
        // Spot-check alignment: catches most in-place rewrites that kept
        // the record count unchanged.
        if let Some(last) = self.records.last() {
            let i = self.records.len() - 1;
            debug_assert_eq!(
                idx.resolvers()[idx.resolver_id(i) as usize],
                last.resolver,
                "stale TraceIndex: records were rewritten in place"
            );
        }
        Some(idx)
    }

    /// Builds (or rebuilds) and caches the interned view.
    pub fn build_index(&mut self) -> &TraceIndex {
        if self.index().is_none() {
            self.index = Some(TraceIndex::build(&self.records));
        }
        self.index.as_ref().expect("just built")
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Distinct egress resolver addresses.
    pub fn resolvers(&self) -> Vec<IpAddr> {
        let mut v: Vec<IpAddr> = self.records.iter().map(|r| r.resolver).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Distinct client addresses (records that carry one).
    pub fn clients(&self) -> Vec<IpAddr> {
        let mut v: Vec<IpAddr> = self.records.iter().filter_map(|r| r.client).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Asserts (in debug builds) and repairs time ordering. Drops any
    /// cached index: it is positional and sorting reorders records.
    ///
    /// The order is a stable sort's, but a stable sort of the records would
    /// copy the trace into scratch space. This sorts `(time, index)` keys
    /// instead, 16 bytes a record, then moves each record into place by
    /// following the permutation's cycles.
    pub fn sort_by_time(&mut self) {
        let mut keys: Vec<(u64, usize)> = self
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.at_micros, i))
            .collect();
        keys.sort_unstable();
        // `keys[pos].1` is where the record for `pos` sits now; a position
        // whose key points at itself is in place.
        for start in 0..keys.len() {
            let mut pos = start;
            while keys[pos].1 != pos {
                let from = std::mem::replace(&mut keys[pos].1, pos);
                if from == start {
                    break;
                }
                self.records.swap(pos, from);
                pos = from;
            }
        }
        self.index = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn rec(at: u64, resolver: u8, name: &str) -> TraceRecord {
        TraceRecord {
            at_micros: at,
            resolver: IpAddr::V4(Ipv4Addr::new(10, 0, 0, resolver)),
            qname: Name::from_ascii(name).unwrap(),
            qtype: RecordType::A,
            ecs_source: Some(IpPrefix::v4(Ipv4Addr::new(192, 0, 2, 0), 24).unwrap()),
            response_scope: Some(24),
            ttl: 20,
            client: Some(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 7))),
        }
    }

    #[test]
    fn aggregates() {
        let mut t = TraceSet::new("test");
        t.records.push(rec(5, 1, "a.example.com"));
        t.records.push(rec(1, 2, "b.example.com"));
        t.records.push(rec(3, 1, "a.example.com"));
        assert_eq!(t.len(), 3);
        assert_eq!(t.resolvers().len(), 2);
        assert_eq!(t.clients().len(), 1);
        t.sort_by_time();
        assert_eq!(t.records[0].at_micros, 1);
        assert_eq!(t.records[2].at_micros, 5);
    }

    #[test]
    fn sort_by_time_is_a_stable_sort() {
        // Many equal timestamps, so only stability decides their order;
        // the resolver byte records where each record started.
        let mut t = TraceSet::new("test");
        for i in 0..200u32 {
            let at = u64::from(i.wrapping_mul(2_654_435_761) % 17);
            t.records.push(rec(at, i as u8, "a.example.com"));
        }
        let mut want = t.records.clone();
        want.sort_by_key(|r| r.at_micros);
        t.sort_by_time();
        assert_eq!(t.records, want);
    }

    #[test]
    fn index_caches_and_invalidates() {
        let mut t = TraceSet::new("test");
        t.records.push(rec(5, 1, "a.example.com"));
        t.records.push(rec(1, 2, "b.example.com"));
        assert!(t.index().is_none(), "no index until built");
        t.build_index();
        let idx = t.index().expect("built");
        assert_eq!(idx.num_resolvers(), 2);
        assert_eq!(idx.names().len(), 2);
        // Sorting reorders records, so the positional cache is dropped.
        t.sort_by_time();
        assert!(t.index().is_none());
        t.build_index();
        let idx = t.index().expect("rebuilt");
        assert_eq!(
            idx.resolvers()[idx.resolver_id(0) as usize],
            t.records[0].resolver
        );
        // Growing the trace makes the cache stale by length.
        t.records.push(rec(9, 3, "c.example.com"));
        assert!(t.index().is_none());
        assert_eq!(t.build_index().num_resolvers(), 3);
        // A clone shares the Arc-backed index.
        let c = t.clone();
        assert!(c.index().is_some());
    }

    #[test]
    fn empty_trace() {
        let t = TraceSet::new("empty");
        assert!(t.is_empty());
        assert!(t.resolvers().is_empty() && t.clients().is_empty());
    }
}
