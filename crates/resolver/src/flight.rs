//! Cross-worker in-flight coalescing and global admission control.
//!
//! The event-driven [`crate::actors::EgressActor`] coalesces identical
//! lookups with a plain `HashMap<FlightKey, _>` — correct there because
//! one actor owns the whole egress. The multi-worker serving path has N
//! independent worker threads, so flight identity and `max_in_flight`
//! accounting must live in one shared table or the invariants silently
//! become per-worker: two workers would launch duplicate upstream flights
//! for the same `(qname, qtype, ECS-prefix)`, and a cap of 64 would admit
//! 64 *per worker*.
//!
//! [`FlightTable::admit`] is the single admission point and mirrors the
//! actor's decision order exactly:
//!
//! 1. coalescing on and an identical flight is outstanding → **join** it
//!    (the caller records [`crate::Resolver::join`] and waits on the
//!    returned [`Flight`]);
//! 2. `max_in_flight` owners already outstanding → **shed** (the caller
//!    answers with [`crate::Resolver::shed`]);
//! 3. otherwise → **own** the flight: the caller performs the upstream
//!    exchange and publishes the outcome through its [`OwnerToken`].
//!
//! The token completes on drop, so a worker that panics between admission
//! and completion still releases its slot and wakes its joiners. Joiners
//! receive the owner's *raw upstream response* (`None` when there is none)
//! and pass it to [`crate::Resolver::answer_joiner`], same as the actor's
//! joiner path; only the owner's completion touches the cache.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use dns_wire::Message;
use obs::LockMonitor;
use parking_lot::{Mutex, MutexGuard};

use crate::engine::FlightKey;

/// Outcome slot one upstream flight's joiners wait on.
///
/// Uses `std::sync` primitives (not the vendored `parking_lot`, which has
/// no condvar): joiners block on [`Flight::wait`] until the owner
/// publishes, the owner dies (publishes `None`), or the timeout lapses.
#[derive(Debug, Default)]
pub struct Flight {
    outcome: StdMutex<Outcome>,
    cv: Condvar,
}

#[derive(Debug, Default)]
enum Outcome {
    #[default]
    Pending,
    /// `Some` carries the owner's upstream response; `None` means the
    /// owner finished without one (exhausted retries, panicked, shut down).
    Done(Option<Message>),
}

impl Flight {
    /// Blocks until the owner publishes, returning its upstream response.
    /// `None` on owner failure or timeout.
    pub fn wait(&self, timeout: Duration) -> Option<Message> {
        let deadline = Instant::now() + timeout;
        let mut guard = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Outcome::Done(resp) = &*guard {
                return resp.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            guard = self
                .cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// True once the owner has published (for tests and metrics).
    pub fn is_done(&self) -> bool {
        matches!(
            &*self.outcome.lock().unwrap_or_else(|e| e.into_inner()),
            Outcome::Done(_)
        )
    }

    fn publish(&self, response: Option<Message>) {
        *self.outcome.lock().unwrap_or_else(|e| e.into_inner()) = Outcome::Done(response);
        self.cv.notify_all();
    }
}

struct TableState {
    /// Outstanding owner flights by coalescing key (populated only when
    /// coalescing is on; a disabled table tracks owners by count alone).
    flights: HashMap<FlightKey, Arc<Flight>>,
    /// Outstanding owners across *all* workers — the number `max_in_flight`
    /// bounds. Joiners ride an existing owner and never count.
    owners: usize,
}

/// The shared flight table: one per server, cloned into every worker via
/// `Arc`.
pub struct FlightTable {
    coalesce: bool,
    max_in_flight: Option<usize>,
    state: Mutex<TableState>,
    /// Lock-contention monitor for the single global table lock plus the
    /// in-flight depth high-water gauge. `None` (the default) costs
    /// nothing on the admission path.
    contention: Option<(LockMonitor, obs::Gauge)>,
}

/// What [`FlightTable::admit`] decided for one upstream-bound query.
pub enum Admission<'t> {
    /// The caller owns the flight: perform the upstream exchange, then
    /// publish through the token (or drop it to publish failure).
    Owner(OwnerToken<'t>),
    /// An identical flight is outstanding; wait on it instead of going
    /// upstream.
    Joiner(Arc<Flight>),
    /// The global in-flight cap is reached; refuse with SERVFAIL.
    Shed,
}

/// Proof of flight ownership. Completing (or dropping) the token removes
/// the flight from the table, releases its admission slot, and wakes every
/// joiner exactly once.
pub struct OwnerToken<'t> {
    table: &'t FlightTable,
    key: Option<FlightKey>,
    flight: Option<Arc<Flight>>,
    done: bool,
}

impl OwnerToken<'_> {
    /// Publishes the owner's upstream response (`None` when the exchange
    /// produced no usable response) and releases the flight.
    pub fn complete(mut self, response: Option<Message>) {
        self.finish(response);
    }

    fn finish(&mut self, response: Option<Message>) {
        if self.done {
            return;
        }
        self.done = true;
        self.table
            .release(self.key.take(), self.flight.take(), response);
    }
}

impl Drop for OwnerToken<'_> {
    fn drop(&mut self) {
        self.finish(None);
    }
}

impl FlightTable {
    /// Creates a table with explicit knobs.
    pub fn new(coalesce: bool, max_in_flight: Option<usize>) -> Self {
        FlightTable {
            coalesce,
            max_in_flight,
            state: Mutex::new(TableState {
                flights: HashMap::new(),
                owners: 0,
            }),
            contention: None,
        }
    }

    /// Turns on lock-contention telemetry: every admission/release
    /// acquisition records into `lock_flight_*` series of `reg`, and the
    /// `flight_in_flight_depth` gauge tracks the owner high-water mark.
    /// Call before the table goes behind an `Arc`.
    pub fn enable_contention(&mut self, reg: &obs::MetricsRegistry) {
        self.contention = Some((
            LockMonitor::new(reg, "lock_flight"),
            reg.gauge("flight_in_flight_depth"),
        ));
    }

    /// Acquires the table lock, measuring the wait when contention
    /// telemetry is on: `try_lock` first, timed blocking fall-back.
    fn lock_state(&self) -> MutexGuard<'_, TableState> {
        let Some((mon, _)) = &self.contention else {
            return self.state.lock();
        };
        match self.state.try_lock() {
            Some(guard) => {
                mon.record_uncontended();
                guard
            }
            None => {
                let start = Instant::now();
                let guard = self.state.lock();
                mon.record_contended(start.elapsed().as_micros() as u64);
                guard
            }
        }
    }

    /// Creates a table from the overload knobs of a resolver config —
    /// the same fields the single-engine actor path reads.
    pub fn for_config(config: &crate::config::OverloadConfig) -> Self {
        Self::new(config.coalesce, config.max_in_flight)
    }

    /// Admits one upstream-bound query. See the module docs for the
    /// decision order.
    pub fn admit(&self, key: &FlightKey) -> Admission<'_> {
        let mut s = self.lock_state();
        if self.coalesce {
            if let Some(f) = s.flights.get(key) {
                return Admission::Joiner(Arc::clone(f));
            }
        }
        if self.max_in_flight.is_some_and(|cap| s.owners >= cap) {
            return Admission::Shed;
        }
        s.owners += 1;
        if let Some((_, depth)) = &self.contention {
            depth.set_max(s.owners as u64);
        }
        let flight = self.coalesce.then(|| {
            let f = Arc::new(Flight::default());
            s.flights.insert(key.clone(), Arc::clone(&f));
            f
        });
        Admission::Owner(OwnerToken {
            table: self,
            key: self.coalesce.then(|| key.clone()),
            flight,
            done: false,
        })
    }

    /// Outstanding owner flights (what `max_in_flight` bounds).
    pub fn in_flight(&self) -> usize {
        self.state.lock().owners
    }

    fn release(
        &self,
        key: Option<FlightKey>,
        flight: Option<Arc<Flight>>,
        response: Option<Message>,
    ) {
        {
            let mut s = self.lock_state();
            s.owners -= 1;
            if let Some(key) = &key {
                s.flights.remove(key);
            }
        }
        // Publish outside the table lock: joiners waking up must not
        // contend with the next admission.
        if let Some(flight) = flight {
            flight.publish(response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Name, Question, RecordType};

    fn key(n: &str) -> FlightKey {
        (Name::from_ascii(n).unwrap(), RecordType::A, None)
    }

    fn response(n: &str) -> Message {
        let q = Message::query(7, Question::a(Name::from_ascii(n).unwrap()));
        Message::response_to(&q)
    }

    #[test]
    fn second_identical_flight_joins_the_first() {
        let table = FlightTable::new(true, None);
        let owner = match table.admit(&key("a.test")) {
            Admission::Owner(t) => t,
            _ => panic!("first admission must own"),
        };
        let joiner = match table.admit(&key("a.test")) {
            Admission::Joiner(f) => f,
            _ => panic!("identical key must join"),
        };
        assert_eq!(table.in_flight(), 1, "joiner adds no owner");
        owner.complete(Some(response("a.test")));
        assert!(joiner.is_done());
        assert!(joiner.wait(Duration::from_millis(10)).is_some());
        assert_eq!(table.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let table = FlightTable::new(true, None);
        let _a = match table.admit(&key("a.test")) {
            Admission::Owner(t) => t,
            _ => panic!(),
        };
        let _b = match table.admit(&key("b.test")) {
            Admission::Owner(t) => t,
            _ => panic!("different qname must own its own flight"),
        };
        assert_eq!(table.in_flight(), 2);
    }

    #[test]
    fn cap_sheds_owners_but_not_joiners() {
        let table = FlightTable::new(true, Some(1));
        let owner = match table.admit(&key("a.test")) {
            Admission::Owner(t) => t,
            _ => panic!(),
        };
        // A different name would need a second owner: over cap, shed.
        assert!(matches!(table.admit(&key("b.test")), Admission::Shed));
        // The identical name joins the existing flight despite the cap.
        assert!(matches!(table.admit(&key("a.test")), Admission::Joiner(_)));
        owner.complete(None);
        // Slot released: the next owner is admitted again.
        assert!(matches!(table.admit(&key("b.test")), Admission::Owner(_)));
    }

    #[test]
    fn coalescing_off_never_joins() {
        let table = FlightTable::new(false, None);
        let _a = match table.admit(&key("a.test")) {
            Admission::Owner(t) => t,
            _ => panic!(),
        };
        let _b = match table.admit(&key("a.test")) {
            Admission::Owner(t) => t,
            _ => panic!("coalescing off: identical keys each own"),
        };
        assert_eq!(table.in_flight(), 2);
    }

    #[test]
    fn dropped_owner_token_wakes_joiners_with_failure() {
        let table = FlightTable::new(true, Some(4));
        let owner = match table.admit(&key("a.test")) {
            Admission::Owner(t) => t,
            _ => panic!(),
        };
        let joiner = match table.admit(&key("a.test")) {
            Admission::Joiner(f) => f,
            _ => panic!(),
        };
        drop(owner); // worker died before completing
        assert!(joiner.is_done());
        assert!(joiner.wait(Duration::from_millis(10)).is_none());
        assert_eq!(table.in_flight(), 0, "slot released on drop");
    }

    #[test]
    fn joiner_timeout_returns_none_without_blocking_forever() {
        let table = FlightTable::new(true, None);
        let _owner = match table.admit(&key("a.test")) {
            Admission::Owner(t) => t,
            _ => panic!(),
        };
        let joiner = match table.admit(&key("a.test")) {
            Admission::Joiner(f) => f,
            _ => panic!(),
        };
        let t0 = Instant::now();
        assert!(joiner.wait(Duration::from_millis(20)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn contention_monitor_counts_admissions_and_tracks_depth() {
        let reg = obs::MetricsRegistry::new();
        let mut table = FlightTable::new(true, None);
        table.enable_contention(&reg);
        let a = match table.admit(&key("a.test")) {
            Admission::Owner(t) => t,
            _ => panic!(),
        };
        let b = match table.admit(&key("b.test")) {
            Admission::Owner(t) => t,
            _ => panic!(),
        };
        a.complete(None);
        b.complete(None);
        let snap = reg.snapshot();
        // 2 admissions + 2 releases, all uncontended single-threaded.
        assert_eq!(snap.counter("lock_flight_acquisitions_total"), Some(4));
        assert_eq!(snap.counter("lock_flight_contended_total"), Some(0));
        assert_eq!(
            snap.gauge("flight_in_flight_depth"),
            Some(2),
            "high-water mark of concurrently outstanding owners"
        );
    }

    #[test]
    fn concurrent_admissions_share_one_flight() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let table = std::sync::Arc::new(FlightTable::new(true, None));
        let owners = AtomicUsize::new(0);
        let joins = AtomicUsize::new(0);
        let admitted = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let table = std::sync::Arc::clone(&table);
                let (owners, joins, admitted) = (&owners, &joins, &admitted);
                scope.spawn(move || {
                    let adm = table.admit(&key("hot.test"));
                    admitted.fetch_add(1, Ordering::SeqCst);
                    match adm {
                        Admission::Owner(tok) => {
                            owners.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight until every peer has been
                            // admitted, so all of them actually join it.
                            while admitted.load(Ordering::SeqCst) < 8 {
                                std::thread::yield_now();
                            }
                            tok.complete(Some(response("hot.test")));
                        }
                        Admission::Joiner(f) => {
                            joins.fetch_add(1, Ordering::SeqCst);
                            assert!(f.wait(Duration::from_secs(5)).is_some());
                        }
                        Admission::Shed => panic!("no cap configured"),
                    }
                });
            }
        });
        assert_eq!(owners.load(Ordering::SeqCst), 1, "exactly one owner");
        assert_eq!(joins.load(Ordering::SeqCst), 7, "everyone else joined");
        assert_eq!(table.in_flight(), 0);
    }
}
