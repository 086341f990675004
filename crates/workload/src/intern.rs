//! Interned views of traces: dense `u32` ids for names and resolvers.
//!
//! The §7 cache simulation replays millions of records and keys its cache
//! on `(resolver, qname, qtype)`. Hashing a [`Name`] (a label vector) per
//! record — let alone cloning one, as the first simulator version did —
//! dominates replay time. A [`TraceIndex`] is built once per trace, clones
//! each distinct name exactly once, and gives every record a pre-resolved
//! `(resolver id, name id)` pair, so downstream consumers work entirely in
//! dense integer ids.
//!
//! The index is `Arc`-backed: cloning a [`TraceIndex`] (or a
//! [`crate::TraceSet`] carrying one) is O(1).

use std::hash::Hash;
use std::net::IpAddr;
use std::sync::Arc;

use dns_wire::Name;
use rustc_hash::FxHashMap;

use crate::trace::TraceRecord;

/// Order-preserving deduplicating map: first occurrence of a value gets the
/// next dense `u32` id.
#[derive(Debug, Clone, Default)]
pub struct Interner<T> {
    ids: FxHashMap<T, u32>,
    values: Vec<T>,
}

impl<T: Clone + Eq + Hash> Interner<T> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner {
            ids: FxHashMap::default(),
            values: Vec::new(),
        }
    }

    /// Returns the id for `value`, assigning the next dense id — and
    /// cloning `value`, the only time it ever is — on first sight.
    pub fn intern(&mut self, value: &T) -> u32 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = self.values.len() as u32;
        self.ids.insert(value.clone(), id);
        self.values.push(value.clone());
        id
    }

    /// Returns the id of an already-interned value.
    pub fn get(&self, value: &T) -> Option<u32> {
        self.ids.get(value).copied()
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Interned values, indexable by id.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Consumes the interner, keeping only the id-ordered values.
    pub fn into_values(self) -> Vec<T> {
        self.values
    }
}

#[derive(Debug)]
struct IndexInner {
    /// Resolver id → address, in first-appearance order.
    resolvers: Vec<IpAddr>,
    /// Name id → name, in first-appearance order.
    names: Vec<Name>,
    /// Record position → resolver id.
    record_resolver: Vec<u32>,
    /// Record position → name id.
    record_name: Vec<u32>,
}

/// Per-record `(resolver id, name id)` assignments for one trace, plus the
/// id → value tables. Ids are dense (`0..num_resolvers()`,
/// `0..num_names()`) in first-appearance order.
///
/// The index is positional: entry `i` describes `records[i]` of the trace
/// it was built from. Reordering or rewriting those records invalidates
/// it — [`crate::TraceSet`] drops its cached index on
/// [`crate::TraceSet::sort_by_time`] and re-checks length on access.
#[derive(Debug, Clone)]
pub struct TraceIndex {
    inner: Arc<IndexInner>,
}

impl TraceIndex {
    /// Builds the index over `records`.
    pub fn build(records: &[TraceRecord]) -> Self {
        let mut resolvers: Interner<IpAddr> = Interner::new();
        let mut names: Interner<Name> = Interner::new();
        let mut record_resolver = Vec::with_capacity(records.len());
        let mut record_name = Vec::with_capacity(records.len());
        for rec in records {
            record_resolver.push(resolvers.intern(&rec.resolver));
            record_name.push(names.intern(&rec.qname));
        }
        TraceIndex {
            inner: Arc::new(IndexInner {
                resolvers: resolvers.into_values(),
                names: names.into_values(),
                record_resolver,
                record_name,
            }),
        }
    }

    /// Number of records covered.
    pub fn len(&self) -> usize {
        self.inner.record_resolver.len()
    }

    /// True when built over an empty trace.
    pub fn is_empty(&self) -> bool {
        self.inner.record_resolver.is_empty()
    }

    /// Number of distinct resolvers.
    pub fn num_resolvers(&self) -> usize {
        self.inner.resolvers.len()
    }

    /// Resolver addresses, indexable by resolver id.
    pub fn resolvers(&self) -> &[IpAddr] {
        &self.inner.resolvers
    }

    /// Names, indexable by name id.
    pub fn names(&self) -> &[Name] {
        &self.inner.names
    }

    /// Resolver id of record `i`.
    pub fn resolver_id(&self, i: usize) -> u32 {
        self.inner.record_resolver[i]
    }

    /// Name id of record `i`.
    pub fn name_id(&self, i: usize) -> u32 {
        self.inner.record_name[i]
    }

    /// Per-record resolver ids.
    pub fn resolver_ids(&self) -> &[u32] {
        &self.inner.record_resolver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{IpPrefix, RecordType};
    use std::net::Ipv4Addr;

    fn rec(resolver: u8, name: &str) -> TraceRecord {
        TraceRecord {
            at_micros: 0,
            resolver: IpAddr::V4(Ipv4Addr::new(10, 0, 0, resolver)),
            qname: Name::from_ascii(name).unwrap(),
            qtype: RecordType::A,
            ecs_source: Some(IpPrefix::v4(Ipv4Addr::new(192, 0, 2, 0), 24).unwrap()),
            response_scope: Some(24),
            ttl: 20,
            client: None,
        }
    }

    #[test]
    fn interner_assigns_dense_first_appearance_ids() {
        let mut i: Interner<String> = Interner::new();
        assert_eq!(i.intern(&"b".to_string()), 0);
        assert_eq!(i.intern(&"a".to_string()), 1);
        assert_eq!(i.intern(&"b".to_string()), 0);
        assert_eq!(i.len(), 2);
        assert_eq!(i.values(), &["b".to_string(), "a".to_string()]);
        assert_eq!(i.get(&"a".to_string()), Some(1));
        assert_eq!(i.get(&"zzz".to_string()), None);
    }

    #[test]
    fn index_aligns_with_records() {
        let records = vec![
            rec(1, "a.example.com"),
            rec(2, "b.example.com"),
            rec(1, "a.example.com"),
            rec(3, "a.example.com"),
        ];
        let idx = TraceIndex::build(&records);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.num_resolvers(), 3);
        assert_eq!(idx.names().len(), 2);
        assert_eq!(idx.resolver_ids(), &[0, 1, 0, 2]);
        assert_eq!(
            (0..4).map(|i| idx.name_id(i)).collect::<Vec<_>>(),
            [0, 1, 0, 0]
        );
        for (i, r) in records.iter().enumerate() {
            assert_eq!(idx.resolvers()[idx.resolver_id(i) as usize], r.resolver);
            assert_eq!(&idx.names()[idx.name_id(i) as usize], &r.qname);
        }
    }

    #[test]
    fn empty_index() {
        let idx = TraceIndex::build(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.num_resolvers(), 0);
        assert!(idx.names().is_empty());
    }
}
