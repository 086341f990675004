//! The hot-path stage profiler: scoped stage spans accumulated into a
//! fixed-size per-thread table, folded after the join, exported as
//! standard collapsed ("folded") flamegraph stacks.
//!
//! Design constraints (the same ones the metrics registry lives under):
//!
//! * **No allocation or locking on the hot path.** A [`StageProfiler`] is
//!   owned by one thread (`&mut self` API) and records into fixed arrays
//!   sized at construction. Entering/exiting a span is a handful of
//!   integer ops plus — on the wall-clock path — one `Instant::now()`.
//! * **Off is a profiler, not an `Option`.** [`StageProfiler::off`] holds
//!   no table and every recording call returns on one branch before it
//!   reads the clock, so instrumented code calls `enter`/`exit`
//!   unconditionally and an unprofiled worker pays that branch and nothing
//!   else; its snapshot is empty.
//! * **Fold after join.** Each worker snapshots its profiler when it
//!   exits; [`ProfileSnapshot::merge`] is commutative and associative, so
//!   folding per-worker snapshots in any order yields the same profile —
//!   exactly how the worker metrics snapshots already merge.
//! * **Deterministic on the sim-time axis.** Every operation has an
//!   `_at` variant taking an explicit microsecond clock, so sim-driven
//!   code (the scanner pipeline, `netsim` tests) produces bit-identical
//!   profiles for a fixed seed.
//!
//! Output is the standard collapsed-stack format consumed by
//! `flamegraph.pl`, `inferno`, speedscope, and friends — one line per
//! distinct stack, `root;child;leaf <self-microseconds>`:
//!
//! ```text
//! worker;recv 182000
//! worker;resolve;cache_hit 95000
//! worker;resolve;own_upstream 4100
//! worker;send 20100
//! ```
//!
//! The value is *self* time (time in that exact stack, excluding
//! children), so stage totals are additive: the time under `worker` is
//! the sum of every line prefixed `worker`. [`ProfileSnapshot::to_metrics`]
//! exports the same numbers into a [`MetricsRegistry`] as
//! `prof_stage_<leaf>_self_us_total` / `prof_stage_<leaf>_calls_total`
//! counters plus the `prof_spans_total` / `prof_self_us_total` /
//! `prof_dropped_paths_total` roll-ups, which is what makes the folded
//! file and the registry reconcile exactly (same accumulators, two
//! serializations).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::{Counter, Histogram, MetricsRegistry};

/// Maximum distinct stage names one profiler can intern.
const MAX_STAGES: usize = 255;
/// Maximum span nesting depth (deeper spans are dropped, counted).
const MAX_DEPTH: usize = 8;
/// Distinct stack paths one profiler can hold (open-addressed table
/// capacity; collisions past this are dropped, counted).
const TABLE_CAP: usize = 1024;

/// One accumulated stack path.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Packed path (8 bits per level, depth ≤ [`MAX_DEPTH`]); 0 = empty.
    key: u64,
    calls: u64,
    self_us: u64,
}

/// A per-thread stage profiler. Not `Sync` by design: one worker owns
/// one profiler and folds its [`ProfileSnapshot`] after the join.
pub struct StageProfiler {
    /// Interned stage names; a stage id is its index + 1 (0 is reserved
    /// so packed path keys are never 0).
    stages: Vec<&'static str>,
    /// Open-addressed path table (linear probing, power-of-two size).
    table: Vec<Slot>,
    /// Span stack: (stage id, entry time µs, accumulated child µs).
    stack: [(u16, u64, u64); MAX_DEPTH],
    depth: usize,
    /// Packed key of the current path (8 bits per level).
    path_key: u64,
    /// Spans dropped because the stack, stage set, or table was full.
    dropped: u64,
    /// Nesting depth of dropped spans still "open" (so their exits are
    /// swallowed instead of unbalancing the stack).
    dropped_open: u32,
    /// Wall-clock epoch for the convenience non-`_at` API.
    epoch: Instant,
}

impl Default for StageProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl StageProfiler {
    /// A fresh profiler. All storage is allocated here, once.
    pub fn new() -> Self {
        Self::with_storage(Vec::with_capacity(16), vec![Slot::default(); TABLE_CAP])
    }

    /// A profiler that records nothing and allocates nothing: every
    /// recording call returns at its first branch, [`Self::snapshot`] is
    /// empty. What an instrumented loop holds when profiling is not asked
    /// for.
    pub fn off() -> Self {
        Self::with_storage(Vec::new(), Vec::new())
    }

    fn with_storage(stages: Vec<&'static str>, table: Vec<Slot>) -> Self {
        StageProfiler {
            stages,
            table,
            stack: [(0, 0, 0); MAX_DEPTH],
            depth: 0,
            path_key: 0,
            dropped: 0,
            dropped_open: 0,
            epoch: Instant::now(),
        }
    }

    /// False for [`StageProfiler::off`] (an on profiler always owns its
    /// path table).
    #[inline]
    pub fn is_on(&self) -> bool {
        !self.table.is_empty()
    }

    /// Microseconds since this profiler was created (the wall clock the
    /// non-`_at` API uses).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn stage_id(&mut self, name: &'static str) -> Option<u16> {
        if let Some(i) = self.stages.iter().position(|s| *s == name) {
            return Some(i as u16 + 1);
        }
        if self.stages.len() >= MAX_STAGES {
            return None;
        }
        self.stages.push(name);
        Some(self.stages.len() as u16)
    }

    /// Opens a span for `name` at wall-clock now.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if self.is_on() {
            let now = self.now_us();
            self.enter_at(name, now);
        }
    }

    /// Closes the innermost span at wall-clock now.
    #[inline]
    pub fn exit(&mut self) {
        if self.is_on() {
            let now = self.now_us();
            self.exit_at(now);
        }
    }

    /// Opens a span for `name` at explicit time `at_us` (sim-time axis:
    /// deterministic attribution under `netsim`).
    fn enter_at(&mut self, name: &'static str, at_us: u64) {
        if !self.is_on() {
            return;
        }
        if self.dropped_open > 0 {
            // Inside a dropped span: swallow nested entries too.
            self.dropped_open += 1;
            self.dropped += 1;
            return;
        }
        let Some(id) = self.stage_id(name) else {
            self.dropped += 1;
            self.dropped_open = 1;
            return;
        };
        if self.depth >= MAX_DEPTH {
            self.dropped += 1;
            self.dropped_open = 1;
            return;
        }
        self.stack[self.depth] = (id, at_us, 0);
        self.depth += 1;
        self.path_key = (self.path_key << 8) | id as u64;
    }

    /// Closes the innermost span at explicit time `at_us`. The span's
    /// elapsed time minus its children's elapsed is accumulated as self
    /// time under the full current path; the elapsed total is credited to
    /// the parent's child accumulator.
    fn exit_at(&mut self, at_us: u64) {
        if !self.is_on() {
            return;
        }
        if self.dropped_open > 0 {
            self.dropped_open -= 1;
            return;
        }
        if self.depth == 0 {
            return; // unbalanced exit: ignore
        }
        self.depth -= 1;
        let (_, start, child_us) = self.stack[self.depth];
        let elapsed = at_us.saturating_sub(start);
        let self_us = elapsed.saturating_sub(child_us);
        let key = self.path_key;
        self.path_key >>= 8;
        if self.depth > 0 {
            self.stack[self.depth - 1].2 += elapsed;
        }
        self.accumulate(key, 1, self_us);
    }

    /// Directly accumulates a leaf measurement under `path` without the
    /// enter/exit discipline — for event-driven code (the scanner's
    /// sim-time state machine) where a "span" is two callbacks apart.
    pub fn record(&mut self, path: &[&'static str], dur_us: u64) {
        if !self.is_on() {
            return;
        }
        debug_assert!(!path.is_empty() && path.len() <= MAX_DEPTH);
        let mut key = 0u64;
        for name in path.iter().take(MAX_DEPTH) {
            match self.stage_id(name) {
                Some(id) => key = (key << 8) | id as u64,
                None => {
                    self.dropped += 1;
                    return;
                }
            }
        }
        self.accumulate(key, 1, dur_us);
    }

    fn accumulate(&mut self, key: u64, calls: u64, self_us: u64) {
        let mask = TABLE_CAP - 1;
        // FxHash-style mix so packed keys spread over the table.
        let mut idx = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        for _ in 0..TABLE_CAP {
            let slot = &mut self.table[idx];
            if slot.key == key {
                slot.calls += calls;
                slot.self_us += self_us;
                return;
            }
            if slot.key == 0 {
                *slot = Slot {
                    key,
                    calls,
                    self_us,
                };
                return;
            }
            idx = (idx + 1) & mask;
        }
        self.dropped += calls;
    }

    /// Spans dropped so far (stack overflow, stage-set overflow, table
    /// full).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Freezes the accumulated profile. Open spans are not included
    /// (snapshot between requests, or after the worker loop exits).
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut stacks = BTreeMap::new();
        for slot in &self.table {
            if slot.key == 0 {
                continue;
            }
            // Unpack the path key back into stage names, root first.
            let mut ids = Vec::new();
            let mut k = slot.key;
            while k != 0 {
                ids.push((k & 0xFF) as u16);
                k >>= 8;
            }
            ids.reverse();
            let path = ids
                .iter()
                .map(|id| self.stages[*id as usize - 1])
                .collect::<Vec<_>>()
                .join(";");
            let entry = stacks.entry(path).or_insert(StackStats::default());
            entry.calls += slot.calls;
            entry.self_us += slot.self_us;
        }
        ProfileSnapshot {
            stacks,
            dropped: self.dropped,
        }
    }
}

/// Accumulated stats for one distinct stack path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Times this exact stack was exited (or [`StageProfiler::record`]ed).
    pub calls: u64,
    /// Self time: microseconds in this stack excluding child spans.
    pub self_us: u64,
}

/// A frozen, mergeable stage profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Stats by `;`-joined stack path (BTreeMap: folded output is
    /// deterministic).
    pub stacks: BTreeMap<String, StackStats>,
    /// Spans dropped by the fixed-size accumulators.
    pub dropped: u64,
}

impl ProfileSnapshot {
    /// Folds `other` into `self` (adds calls and self time path-wise).
    /// Commutative and associative, so any fold order over any sharding
    /// of the same spans yields the same profile.
    pub fn merge(&mut self, other: &ProfileSnapshot) {
        for (path, stats) in &other.stacks {
            let entry = self.stacks.entry(path.clone()).or_default();
            entry.calls += stats.calls;
            entry.self_us += stats.self_us;
        }
        self.dropped += other.dropped;
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// Total self time across every stack (the whole profiled wall).
    pub fn total_self_us(&self) -> u64 {
        self.stacks.values().map(|s| s.self_us).sum()
    }

    /// Total spans recorded.
    pub fn total_calls(&self) -> u64 {
        self.stacks.values().map(|s| s.calls).sum()
    }

    /// Time under `prefix`: the sum of self time over every stack equal
    /// to it or nested below it. Because values are self time, this is
    /// exactly the inclusive time of that subtree.
    pub fn subtree_us(&self, prefix: &str) -> u64 {
        self.stacks
            .iter()
            .filter(|(path, _)| {
                path.as_str() == prefix
                    || (path.starts_with(prefix)
                        && path.as_bytes().get(prefix.len()) == Some(&b';'))
            })
            .map(|(_, s)| s.self_us)
            .sum()
    }

    /// Standard collapsed-stack output: one `path value` line per stack,
    /// sorted by path, self time as the sample value. Feed to any
    /// flamegraph renderer.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (path, stats) in &self.stacks {
            out.push_str(path);
            out.push(' ');
            out.push_str(&stats.self_us.to_string());
            out.push('\n');
        }
        out
    }

    /// Exports the profile into `reg` as counters: per-leaf
    /// `prof_stage_<leaf>_self_us_total` / `prof_stage_<leaf>_calls_total`
    /// (leaf = last path component; distinct stacks sharing a leaf add),
    /// plus `prof_spans_total`, `prof_self_us_total`, and
    /// `prof_dropped_paths_total`. The registry numbers and
    /// [`ProfileSnapshot::to_folded`] are two serializations of the same
    /// accumulators, so they always reconcile exactly.
    pub fn to_metrics(&self, reg: &MetricsRegistry) {
        for (path, stats) in &self.stacks {
            let leaf = path.rsplit(';').next().unwrap_or(path);
            reg.counter(&format!("prof_stage_{leaf}_self_us_total"))
                .add(stats.self_us);
            reg.counter(&format!("prof_stage_{leaf}_calls_total"))
                .add(stats.calls);
        }
        reg.counter("prof_spans_total").add(self.total_calls());
        reg.counter("prof_self_us_total").add(self.total_self_us());
        reg.counter("prof_dropped_paths_total").add(self.dropped);
    }
}

/// Lock-wait telemetry for one class of locks (e.g. the shared cache's
/// shard mutexes): acquisition and contended-acquisition counters plus a
/// wait-time histogram, registry-backed so snapshots merge like
/// everything else.
///
/// The caller decides contention (typically `try_lock` failing) and
/// measures the wait; the monitor only owns the series. Cloning shares
/// them.
#[derive(Clone, Debug)]
pub struct LockMonitor {
    acquisitions: Counter,
    contended: Counter,
    wait_us: Histogram,
}

impl LockMonitor {
    /// Creates (or re-attaches to) the `<prefix>_acquisitions_total`,
    /// `<prefix>_contended_total`, and `<prefix>_wait_us` series in `reg`.
    pub fn new(reg: &MetricsRegistry, prefix: &str) -> Self {
        LockMonitor {
            acquisitions: reg.counter(&format!("{prefix}_acquisitions_total")),
            contended: reg.counter(&format!("{prefix}_contended_total")),
            wait_us: reg.histogram(&format!("{prefix}_wait_us")),
        }
    }

    /// Records an acquisition that got the lock without waiting.
    pub fn record_uncontended(&self) {
        self.acquisitions.inc();
    }

    /// Records an acquisition that waited `wait_us` microseconds.
    pub fn record_contended(&self, wait_us: u64) {
        self.acquisitions.inc();
        self.contended.inc();
        self.wait_us.record(wait_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut p = StageProfiler::new();
        p.enter_at("worker", 0);
        p.enter_at("recv", 10);
        p.exit_at(40); // recv: 30 self
        p.enter_at("resolve", 40);
        p.enter_at("cache", 45);
        p.exit_at(65); // cache: 20 self
        p.exit_at(90); // resolve: 50 elapsed - 20 child = 30 self
        p.exit_at(100); // worker: 100 elapsed - 30 - 50 = 20 self
        let snap = p.snapshot();
        let get = |path: &str| snap.stacks.get(path).copied().unwrap();
        assert_eq!(get("worker;recv").self_us, 30);
        assert_eq!(get("worker;resolve;cache").self_us, 20);
        assert_eq!(get("worker;resolve").self_us, 30);
        assert_eq!(get("worker").self_us, 20);
        assert_eq!(snap.total_self_us(), 100, "self times sum to the wall");
        assert_eq!(snap.subtree_us("worker;resolve"), 50);
        assert_eq!(snap.subtree_us("worker"), 100);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn folded_output_is_sorted_and_parseable() {
        let mut p = StageProfiler::new();
        p.enter_at("b", 0);
        p.exit_at(5);
        p.enter_at("a", 5);
        p.enter_at("x", 6);
        p.exit_at(8);
        p.exit_at(9);
        let folded = p.snapshot().to_folded();
        assert_eq!(folded, "a 2\na;x 2\nb 5\n");
    }

    #[test]
    fn record_accumulates_leaf_paths_directly() {
        let mut p = StageProfiler::new();
        p.record(&["scan", "upstream_wait"], 100);
        p.record(&["scan", "upstream_wait"], 50);
        p.record(&["scan", "backoff"], 10);
        let snap = p.snapshot();
        assert_eq!(
            snap.stacks.get("scan;upstream_wait").unwrap(),
            &StackStats {
                calls: 2,
                self_us: 150
            }
        );
        assert_eq!(snap.subtree_us("scan"), 160);
    }

    #[test]
    fn merge_is_commutative_and_additive() {
        let mut a = StageProfiler::new();
        a.enter_at("s", 0);
        a.exit_at(10);
        let mut b = StageProfiler::new();
        b.enter_at("s", 0);
        b.exit_at(20);
        b.enter_at("t", 20);
        b.exit_at(25);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.stacks.get("s").unwrap().self_us, 30);
        assert_eq!(ab.stacks.get("s").unwrap().calls, 2);
        assert_eq!(ab.stacks.get("t").unwrap().self_us, 5);
    }

    #[test]
    fn overflow_is_counted_never_unbalanced() {
        let mut p = StageProfiler::new();
        // Overflow the stack: MAX_DEPTH real levels, then two dropped.
        // Distinct static names without leaking: a fixed pool.
        const POOL: [&str; MAX_DEPTH] = ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"];
        for (i, name) in POOL.into_iter().enumerate() {
            p.enter_at(name, i as u64);
        }
        p.enter_at("over1", 100);
        p.enter_at("over2", 101);
        assert_eq!(p.dropped(), 2);
        // Exits unwind the dropped spans first, then the real ones.
        for t in 0..(MAX_DEPTH + 2) {
            p.exit_at(200 + t as u64);
        }
        let snap = p.snapshot();
        assert_eq!(snap.dropped, 2);
        // All real levels recorded; the deepest real stack exists.
        assert_eq!(snap.total_calls(), MAX_DEPTH as u64);
        assert!(snap
            .stacks
            .keys()
            .any(|k| k.ends_with("s7") && k.starts_with("s0;")));
    }

    #[test]
    fn wall_clock_convenience_api_records() {
        let mut p = StageProfiler::new();
        p.enter("outer");
        p.enter("inner");
        p.exit();
        p.exit();
        let snap = p.snapshot();
        assert_eq!(snap.total_calls(), 2);
        assert!(snap.stacks.contains_key("outer;inner"));
    }

    #[test]
    fn off_profiler_records_nothing_and_owns_no_heap() {
        let mut p = StageProfiler::off();
        assert!(!p.is_on());
        assert!(StageProfiler::new().is_on());
        assert_eq!((p.table.capacity(), p.stages.capacity()), (0, 0));
        p.enter("outer");
        p.enter_at("inner", 5);
        p.exit_at(9);
        p.exit();
        p.exit(); // unbalanced: still nothing
        p.record(&["scan", "wait"], 100);
        assert_eq!((p.table.capacity(), p.stages.capacity()), (0, 0));
        assert_eq!(p.dropped(), 0);
        assert!(p.snapshot().is_empty());
    }

    #[test]
    fn to_metrics_reconciles_with_folded_totals() {
        let mut p = StageProfiler::new();
        p.enter_at("worker", 0);
        p.enter_at("recv", 0);
        p.exit_at(30);
        p.enter_at("send", 30);
        p.exit_at(45);
        p.exit_at(50);
        let snap = p.snapshot();
        let reg = MetricsRegistry::new();
        snap.to_metrics(&reg);
        let m = reg.snapshot();
        assert_eq!(m.counter("prof_spans_total"), Some(snap.total_calls()));
        assert_eq!(m.counter("prof_self_us_total"), Some(snap.total_self_us()));
        assert_eq!(m.counter("prof_stage_recv_self_us_total"), Some(30));
        assert_eq!(m.counter("prof_stage_send_self_us_total"), Some(15));
        assert_eq!(m.counter("prof_stage_worker_self_us_total"), Some(5));
        assert_eq!(m.counter("prof_dropped_paths_total"), Some(0));
        // The folded file and the registry agree on the grand total.
        let folded_total: u64 = snap
            .to_folded()
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(Some(folded_total), m.counter("prof_self_us_total"));
    }

    #[test]
    fn lock_monitor_series_shape() {
        let reg = MetricsRegistry::new();
        let m = LockMonitor::new(&reg, "lock_cache_shard");
        m.record_uncontended();
        m.record_uncontended();
        m.record_contended(120);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lock_cache_shard_acquisitions_total"), Some(3));
        assert_eq!(snap.counter("lock_cache_shard_contended_total"), Some(1));
        let h = snap.histogram("lock_cache_shard_wait_us").unwrap();
        assert_eq!((h.count, h.sum), (1, 120));
    }
}
