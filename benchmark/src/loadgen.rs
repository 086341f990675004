//! The load generator: one thread, one UDP socket, every reply checked.
//!
//! Two disciplines. The **closed loop** keeps a fixed number of queries in
//! flight and sends the next only when one completes — callers that each
//! wait for their reply — so a slower server is offered less load and the
//! figure of merit is throughput. The **open loop** sends on a fixed
//! schedule whatever the server does — independent clients — and times
//! each query from the instant it was *due*, so a stall charges its delay
//! to every query queued behind it; how late the generator itself ran is
//! reported alongside. All traffic crosses the host's loopback interface.
//!
//! Like a stub resolver, the generator asks again when no reply has come
//! after [`RESEND_AFTER`], and gives a query up as failed only after
//! [`MAX_SENDS`] sends. Its latency still runs from the first (scheduled)
//! send, so a datagram dropped by a full socket buffer shows as a quarter
//! of a second of latency, not as a failed operation.
//!
//! A run is cut into windows, each with its completion rate and the
//! latency percentiles of its queries: an open loop's are stretches of
//! [`OPEN_WINDOW`] on its schedule; a closed loop's are self-contained
//! bursts of a fixed number of queries, each sent only when every reply of
//! the burst before has come.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use dnsd::{RecvBatch, SendBatch};

use crate::gen::{Catalog, Mix, Query};

/// How long the generator waits for a reply before it sends a query again.
pub const RESEND_AFTER: Duration = Duration::from_millis(250);
/// Sends per query, the first included: unanswered [`RESEND_AFTER`] after
/// the last of them, a query has failed — two seconds after it was first
/// sent.
pub const MAX_SENDS: u8 = 8;
/// Length of an open loop's windows: at the rate the workload offers, a
/// thousand queries and thirty cache misses each.
pub const OPEN_WINDOW: Duration = Duration::from_millis(200);
/// Most queries an open loop keeps outstanding: what the receive buffer of
/// a UDP socket holds by default (208 KiB, at up to 1.25 KiB of kernel
/// memory per small datagram), and 26 ms' worth at the rate the workload
/// offers.
const MAX_OUTSTANDING: usize = 128;
/// How long after a window's end every query due in it has been answered
/// or given up: the window's latencies are summarised and dropped then, so
/// the generator's memory does not grow with the run or with the rate.
const SETTLED_AFTER: Duration = Duration::from_millis(2250);
/// Latency recorded for a failed query: beyond any limit.
const FAILED_NS: u32 = u32::MAX;

/// One window of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Correct replies per second: those that arrived in an open loop's
    /// window; a closed loop's burst over the time from its first send to
    /// its last reply.
    pub rate: f64,
    /// Latency percentiles, µs, over the queries that were due in the
    /// window; a failed query's latency is beyond any limit, and so is
    /// that of a window in which nothing was due.
    pub p50_us: f64,
    /// See [`Window::p50_us`].
    pub p90_us: f64,
    /// See [`Window::p50_us`].
    pub p99_us: f64,
    /// Share of the queries due in the window that got a correct reply
    /// within the latency limit (0 when nothing was due).
    pub within_limit: f64,
}

/// What one measured phase saw from the client side.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// Queries sent (each counted once, however often it was re-sent).
    pub attempted: u64,
    /// Queries with no reply after [`MAX_SENDS`] sends.
    pub timeouts: u64,
    /// Replies that failed the output check.
    pub wrong: u64,
    /// Sends beyond each query's first.
    pub resends: u64,
    /// Correct replies that arrived within the latency limit.
    pub within_limit: u64,
    /// The complete windows of the measured time, in run order.
    pub windows: Vec<Window>,
    /// Open loop: queries sent more than one send interval behind schedule.
    pub late: u64,
    /// Open loop: the furthest behind schedule any query was sent, µs.
    pub max_late_us: f64,
}

impl LoadOutcome {
    /// Queries that did not get a correct reply in time.
    pub fn failed(&self) -> u64 {
        self.timeouts + self.wrong
    }

    /// One figure of every window, in run order.
    pub fn column(&self, pick: fn(&Window) -> f64) -> Vec<f64> {
        self.windows.iter().map(pick).collect()
    }

    /// Correct replies per second of a closed loop: the rate of its
    /// fastest burst (see [`crate::stats::fastest`]; a burst is a
    /// self-contained unit of work).
    pub fn burst_rate(&self) -> f64 {
        self.column(|w| w.rate)
            .into_iter()
            .reduce(f64::max)
            .unwrap_or(0.0)
    }

    /// Correct replies per second, median over the windows: what an open
    /// loop, whose rate is set by its schedule and not by the server,
    /// achieved.
    pub fn median_rate(&self) -> f64 {
        crate::stats::median(&self.column(|w| w.rate))
    }

    /// Median over the windows of one latency percentile, µs.
    pub fn latency_us(&self, pick: fn(&Window) -> f64) -> f64 {
        crate::stats::median(&self.column(pick))
    }

    /// Share of the queries sent that got a correct reply within the
    /// latency limit, over the whole run; a failed query is within no
    /// limit.
    pub fn within_limit_overall(&self) -> f64 {
        self.within_limit as f64 / self.attempted.max(1) as f64
    }

    /// Share of queries within the latency limit that the run sustained
    /// (see [`crate::stats::sustained`]).
    pub fn within_limit_ratio(&self) -> f64 {
        crate::stats::sustained(&self.column(|w| w.within_limit))
    }

    /// Share of queries the open-loop generator sent late.
    pub fn late_ratio(&self) -> f64 {
        self.late as f64 / self.attempted.max(1) as f64
    }
}

/// A reply known in advance, byte for byte, except for its id and TTL.
pub struct Expected {
    bytes: Vec<u8>,
    ttl_at: usize,
}

impl Expected {
    /// Learns the template from one fully verified `reply`. `None` when
    /// the reply does not re-encode to itself (then every reply to this
    /// query takes the full check instead).
    pub fn learn(reply: &[u8]) -> Option<Self> {
        let msg = dns_wire::Message::from_bytes(reply).ok()?;
        if msg.answers.len() != 1 || msg.to_bytes().ok()? != reply {
            return None;
        }
        let mut flipped = msg.clone();
        flipped.answers[0].ttl ^= u32::MAX;
        let other = flipped.to_bytes().ok()?;
        let ttl_at = reply.iter().zip(&other).position(|(a, b)| a != b)?;
        (other.len() == reply.len() && ttl_at + 4 <= reply.len()).then(|| Expected {
            bytes: reply.to_vec(),
            ttl_at,
        })
    }

    /// True when `reply` equals the template outside the id and TTL bytes.
    pub fn matches(&self, reply: &[u8]) -> bool {
        reply.len() == self.bytes.len()
            && reply[2..self.ttl_at] == self.bytes[2..self.ttl_at]
            && reply[self.ttl_at + 4..] == self.bytes[self.ttl_at + 4..]
    }
}

/// Encodes queries from, and checks replies against, one catalog: through
/// byte templates where one was learned during warm-up, by full decode
/// otherwise.
pub struct Checker {
    catalog: Catalog,
    expected: std::collections::HashMap<Query, Expected>,
}

impl Checker {
    /// A checker that fully decodes every reply.
    pub fn new(catalog: Catalog) -> Self {
        Checker {
            catalog,
            expected: std::collections::HashMap::new(),
        }
    }

    /// The catalog queries are encoded from.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Adds a byte template for replies to `q`.
    pub fn learn(&mut self, q: Query, reply: &[u8]) {
        if let Some(e) = Expected::learn(reply) {
            self.expected.insert(q, e);
        }
    }

    /// Whether `reply` is the correct answer to `q` sent with `id`.
    pub fn check(&self, reply: &[u8], id: u16, q: &Query) -> bool {
        if reply.len() < 2 || reply[0..2] != id.to_be_bytes() {
            return false;
        }
        match self.expected.get(q) {
            Some(e) if e.matches(reply) => true,
            _ => self.catalog.verify(reply, id, q),
        }
    }
}

/// One query awaiting its reply.
#[derive(Clone, Copy)]
struct Flight {
    /// When its latency started: the scheduled (open loop) or actual
    /// (closed loop) first send.
    since: Instant,
    q: Query,
    /// How often it has been sent.
    sends: u8,
}

/// The in-flight table: one slot per 16-bit transaction id, and the order
/// in which sends fall due for a re-send.
struct Flights {
    slots: Vec<Option<Flight>>,
    in_flight: usize,
    /// (sent at, id, `since` and `sends` of the flight as sent): the
    /// re-send interval is constant, so send order is due order. An entry
    /// whose flight has been answered — or whose id has since been given
    /// to a new query — no longer matches its slot and is skipped.
    resend_queue: VecDeque<(Instant, u16, Instant, u8)>,
}

impl Flights {
    fn new() -> Self {
        Flights {
            slots: vec![None; 1 << 16],
            in_flight: 0,
            resend_queue: VecDeque::new(),
        }
    }

    fn put(&mut self, id: u16, since: Instant, sent: Instant, q: Query) -> bool {
        let slot = &mut self.slots[id as usize];
        if slot.is_some() {
            return false;
        }
        *slot = Some(Flight { since, q, sends: 1 });
        self.in_flight += 1;
        self.resend_queue.push_back((sent, id, since, 1));
        true
    }

    fn take(&mut self, id: u16) -> Option<Flight> {
        let taken = self.slots[id as usize].take();
        if taken.is_some() {
            self.in_flight -= 1;
        }
        taken
    }

    /// Every flight whose last send is [`RESEND_AFTER`] old: re-sent
    /// through `resend(id, query)` if it has sends left, else dropped and
    /// returned as failed.
    fn overdue(&mut self, now: Instant, mut resend: impl FnMut(u16, &Query)) -> Vec<Flight> {
        let mut failed = Vec::new();
        while let Some(&(sent, id, since, sends)) = self.resend_queue.front() {
            if now.duration_since(sent) < RESEND_AFTER {
                break;
            }
            self.resend_queue.pop_front();
            let slot = &mut self.slots[id as usize];
            let Some(flight) = slot.filter(|f| f.since == since && f.sends == sends) else {
                continue;
            };
            if sends < MAX_SENDS {
                resend(id, &flight.q);
                *slot = Some(Flight {
                    sends: sends + 1,
                    ..flight
                });
                self.resend_queue.push_back((now, id, since, sends + 1));
            } else {
                *slot = None;
                self.in_flight -= 1;
                failed.push(flight);
            }
        }
        failed
    }
}

/// Where a loop books what happens to its queries.
trait Ledger {
    /// A reply to the query first sent (or due) at `since` arrived at `at`
    /// and passed (`ok`) or failed its check.
    fn reply(&mut self, at: Instant, since: Instant, ok: bool);
    /// A query was given up after its last send.
    fn timed_out(&mut self, flight: &Flight);
    /// `n` queries were sent again.
    fn resent(&mut self, n: u64);
    /// Called once per turn of the loop.
    fn tick(&mut self, _now: Instant) {}
}

/// Latency percentiles (p50, p90, p99, µs) of `latencies`, which it sorts,
/// and how many of them are within `limit_ns`. Beyond any limit when there
/// are none.
fn summarise(latencies: &mut [u32], limit_ns: u32) -> ([f64; 3], usize) {
    latencies.sort_unstable();
    let at = |q: f64| match latencies.is_empty() {
        true => f64::from(FAILED_NS) / 1e3,
        false => crate::stats::percentile_sorted(latencies, q) / 1e3,
    };
    (
        [at(0.5), at(0.9), at(0.99)],
        latencies.partition_point(|&ns| ns <= limit_ns),
    )
}

fn latency_ns(at: Instant, since: Instant) -> u32 {
    at.duration_since(since)
        .as_nanos()
        .min(u128::from(FAILED_NS - 1)) as u32
}

/// The open loop's ledger: time windows on the schedule.
struct Tally {
    started: Instant,
    window: Duration,
    /// Complete windows in the measured time.
    complete: usize,
    /// A correct reply no slower than this is within the latency limit.
    limit_ns: u32,
    /// Correct replies that arrived in each window; the last entry (one
    /// more than there are complete windows, like the two below) takes
    /// what arrives after the final complete window.
    completions: Vec<u64>,
    /// When the first correct reply of each window arrived.
    first_completion: Vec<Option<Instant>>,
    /// One latency, ns, per query that was due in each window, until the
    /// window is settled.
    latencies: Vec<Vec<u32>>,
    /// p50, p90 and p99, µs, and the share within the latency limit, of
    /// each settled window.
    settled: Vec<[f64; 4]>,
    out: LoadOutcome,
}

impl Tally {
    fn new(started: Instant, seconds: f64, window: Duration, limit: Duration) -> Self {
        let complete = (seconds / window.as_secs_f64()).floor() as usize;
        Tally {
            started,
            window,
            complete,
            limit_ns: limit.as_nanos().min(u128::from(FAILED_NS - 1)) as u32,
            completions: vec![0; complete + 1],
            first_completion: vec![None; complete + 1],
            latencies: vec![Vec::new(); complete + 1],
            settled: Vec::with_capacity(complete),
            out: LoadOutcome::default(),
        }
    }

    fn window_of(&self, at: Instant) -> usize {
        let w = at.duration_since(self.started).as_secs_f64() / self.window.as_secs_f64();
        (w as usize).min(self.complete)
    }

    /// Records the latency of a query that was due in window `due_in`
    /// (dropped if that window has been settled already, which takes a
    /// generator stalled for longer than [`SETTLED_AFTER`] allows for).
    fn record(&mut self, due_in: usize, ns: u32) {
        if due_in >= self.settled.len() {
            self.latencies[due_in].push(ns);
        }
    }

    /// Summarises and drops the latencies of every window that ended
    /// [`SETTLED_AFTER`] before `now` (of every complete window when
    /// `now` is `None`).
    fn settle(&mut self, now: Option<Instant>) {
        while self.settled.len() < self.complete {
            let k = self.settled.len();
            let end = self.started + self.window.mul_f64((k + 1) as f64);
            if now.is_some_and(|now| now < end + SETTLED_AFTER) {
                return;
            }
            let mut latencies = std::mem::take(&mut self.latencies[k]);
            let ([p50, p90, p99], within) = summarise(&mut latencies, self.limit_ns);
            self.settled
                .push([p50, p90, p99, within as f64 / latencies.len().max(1) as f64]);
        }
    }

    fn finish(mut self) -> LoadOutcome {
        self.settle(None);
        let first_s: Vec<Option<f64>> = self
            .first_completion
            .iter()
            .map(|f| f.map(|at| at.duration_since(self.started).as_secs_f64()))
            .collect();
        let rates = crate::stats::slice_rates(
            &self.completions[..self.complete],
            &first_s,
            self.window.as_secs_f64(),
        );
        self.out.windows = rates
            .into_iter()
            .zip(&self.settled)
            .map(|(rate, &[p50_us, p90_us, p99_us, within_limit])| Window {
                rate,
                p50_us,
                p90_us,
                p99_us,
                within_limit,
            })
            .collect();
        self.out
    }
}

impl Ledger for Tally {
    fn reply(&mut self, at: Instant, since: Instant, ok: bool) {
        let due_in = self.window_of(since);
        if !ok {
            self.out.wrong += 1;
            self.record(due_in, FAILED_NS);
            return;
        }
        let ns = latency_ns(at, since);
        self.record(due_in, ns);
        if ns <= self.limit_ns {
            self.out.within_limit += 1;
        }

        let arrived_in = self.window_of(at);
        self.completions[arrived_in] += 1;
        self.first_completion[arrived_in].get_or_insert(at);
    }

    fn timed_out(&mut self, flight: &Flight) {
        self.out.timeouts += 1;
        self.record(self.window_of(flight.since), FAILED_NS);
    }

    fn resent(&mut self, n: u64) {
        self.out.resends += n;
    }

    fn tick(&mut self, now: Instant) {
        self.settle(Some(now));
    }
}

/// The closed loop's ledger: one window per burst.
struct Bursts {
    /// Queries per burst.
    size: usize,
    /// When the current burst's first query was sent.
    burst_started: Instant,
    /// When the latest reply of the current burst arrived.
    last_reply: Instant,
    /// Correct replies of the current burst.
    ok: usize,
    /// One latency, ns, per query of the current burst that is done.
    latencies: Vec<u32>,
    out: LoadOutcome,
}

impl Bursts {
    fn new(size: usize, now: Instant) -> Self {
        Bursts {
            size,
            burst_started: now,
            last_reply: now,
            ok: 0,
            latencies: Vec::with_capacity(size),
            out: LoadOutcome::default(),
        }
    }

    /// Whether every query of the current burst is answered or given up.
    fn burst_done(&self) -> bool {
        self.latencies.len() == self.size
    }

    /// Closes the current burst and starts the next at `now`.
    fn next_burst(&mut self, now: Instant) {
        let took = self.last_reply.duration_since(self.burst_started);
        let ([p50_us, p90_us, p99_us], _) = summarise(&mut self.latencies, FAILED_NS - 1);
        self.out.windows.push(Window {
            rate: self.ok as f64 / took.as_secs_f64().max(1e-9),
            p50_us,
            p90_us,
            p99_us,
            within_limit: self.ok as f64 / self.size as f64,
        });
        self.latencies.clear();
        self.ok = 0;
        self.burst_started = now;
        self.last_reply = now;
    }
}

impl Ledger for Bursts {
    fn reply(&mut self, at: Instant, since: Instant, ok: bool) {
        self.last_reply = at;
        if ok {
            self.ok += 1;
            self.out.within_limit += 1;
            self.latencies.push(latency_ns(at, since));
        } else {
            self.out.wrong += 1;
            self.latencies.push(FAILED_NS);
        }
    }

    fn timed_out(&mut self, _flight: &Flight) {
        self.out.timeouts += 1;
        self.latencies.push(FAILED_NS);
    }

    fn resent(&mut self, n: u64) {
        self.out.resends += n;
    }
}

/// Handles every datagram of one receive batch.
fn absorb(
    rx: &RecvBatch,
    n: usize,
    at: Instant,
    flights: &mut Flights,
    checker: &Checker,
    ledger: &mut impl Ledger,
) {
    for i in 0..n {
        let (reply, _) = rx.datagram(i);
        if reply.len() < 2 {
            continue;
        }
        let id = u16::from_be_bytes([reply[0], reply[1]]);
        // A reply to nothing outstanding (the answer to a send that was
        // since repeated, or one later than the last timeout): ignore.
        if let Some(flight) = flights.take(id) {
            ledger.reply(at, flight.since, checker.check(reply, id, &flight.q));
        }
    }
}

/// Re-sends what is overdue and writes off what has had its last chance.
fn chase(
    now: Instant,
    server: SocketAddr,
    flights: &mut Flights,
    checker: &Checker,
    tx: &mut SendBatch,
    ledger: &mut impl Ledger,
) {
    let mut resends = 0;
    let failed = flights.overdue(now, |id, q| {
        tx.push(checker.catalog.encode(q, id), server);
        resends += 1;
    });
    ledger.resent(resends);
    for flight in &failed {
        ledger.timed_out(flight);
    }
    ledger.tick(now);
}

/// After the last send: collect what is still in flight, re-sending as
/// before, until every query is answered or has failed.
fn drain(
    client: &UdpSocket,
    server: SocketAddr,
    rx: &mut RecvBatch,
    tx: &mut SendBatch,
    flights: &mut Flights,
    checker: &Checker,
    ledger: &mut impl Ledger,
) -> io::Result<()> {
    client.set_nonblocking(false)?;
    client.set_read_timeout(Some(Duration::from_millis(20)))?;
    while flights.in_flight > 0 {
        let n = rx.recv(client)?;
        let now = Instant::now();
        absorb(rx, n, now, flights, checker, ledger);
        chase(now, server, flights, checker, tx, ledger);
        if !tx.is_empty() {
            tx.flush(client)?;
        }
    }
    Ok(())
}

/// Closed loop: bursts of `burst` queries, `window` of them in flight at
/// a time, one burst after the other until `seconds` are up (the burst
/// under way then is finished), taking queries `first..first + attempted`
/// of `mix`. Each burst is a window of the outcome. A closed loop's
/// latency is set by its own window, so it has no latency limit: every
/// correct reply is within it.
pub fn closed_loop(
    server: SocketAddr,
    checker: &Checker,
    mix: &Mix,
    first: u64,
    window: usize,
    burst: usize,
    seconds: f64,
) -> io::Result<LoadOutcome> {
    let client = UdpSocket::bind("127.0.0.1:0")?;
    // Busy-polled, like the open loop: a generator asleep in `recv` leaves
    // its CPU halted, and how long a halted virtual CPU takes to wake
    // would set the server's throughput.
    client.set_nonblocking(true)?;
    let mut rx = RecvBatch::new(window);
    let mut tx = SendBatch::new();
    let mut flights = Flights::new();
    let mut next = first;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut bursts = Bursts::new(burst, started);
    let mut sent_of_burst = 0;
    loop {
        let now = Instant::now();
        if bursts.burst_done() {
            bursts.next_burst(now);
            sent_of_burst = 0;
            if now >= deadline {
                break;
            }
        }
        while flights.in_flight < window && sent_of_burst < burst {
            let q = mix.query(next);
            let id = next as u16;
            if !flights.put(id, now, now, q) {
                break; // id still outstanding from 65536 queries ago
            }
            tx.push(checker.catalog.encode(&q, id), server);
            next += 1;
            sent_of_burst += 1;
            bursts.out.attempted += 1;
        }
        chase(now, server, &mut flights, checker, &mut tx, &mut bursts);
        if !tx.is_empty() {
            tx.flush(&client)?;
        }
        let n = rx.recv(&client)?;
        absorb(&rx, n, Instant::now(), &mut flights, checker, &mut bursts);
        std::hint::spin_loop();
    }
    Ok(bursts.out)
}

/// Open loop: queries `first..` of `mix` sent at a fixed `rate` per second
/// for `seconds`, each timed from its scheduled instant; a correct reply
/// no later than `limit` after that instant is within the latency limit.
pub fn open_loop(
    server: SocketAddr,
    checker: &Checker,
    mix: &Mix,
    first: u64,
    rate: f64,
    limit: Duration,
    seconds: f64,
) -> io::Result<LoadOutcome> {
    let client = UdpSocket::bind("127.0.0.1:0")?;
    // Busy-polled: a blocking read cannot wake on a 200 µs schedule.
    client.set_nonblocking(true)?;
    let mut rx = RecvBatch::new(64);
    let mut tx = SendBatch::new();
    let mut flights = Flights::new();
    let total = (rate * seconds).round() as u64;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let started = Instant::now();
    let mut tally = Tally::new(started, seconds, OPEN_WINDOW, limit);
    let mut sent = 0u64;
    // After a stall the backlog goes out at four times the nominal rate,
    // not in one burst: a burst of everything due would overflow the
    // server's socket buffer and turn one stall of the generator's CPU
    // into hundreds of lost queries. Each late query is still timed from
    // its scheduled instant, so the stall is charged to it in full.
    let catch_up_gap = interval / 4;
    let mut not_before = started;
    while sent < total {
        let now = Instant::now();
        // A server that has stopped answering is not sent more than its
        // socket buffer holds: what is held back here goes out when
        // replies flow again, late and timed from its scheduled instant
        // all the same, instead of being dropped by the kernel.
        while sent < total && now >= not_before && flights.in_flight < MAX_OUTSTANDING {
            let due = started + interval.mul_f64(sent as f64);
            if due > now {
                break;
            }
            not_before = now + catch_up_gap;
            let q = mix.query(first + sent);
            let id = sent as u16;
            if flights.put(id, due, now, q) {
                tx.push(checker.catalog.encode(&q, id), server);
            } else {
                // Id space exhausted: 65536 queries unanswered.
                tally.timed_out(&Flight {
                    since: due,
                    q,
                    sends: 0,
                });
            }
            let behind = now.duration_since(due);
            if behind > interval {
                tally.out.late += 1;
            }
            tally.out.max_late_us = tally.out.max_late_us.max(behind.as_secs_f64() * 1e6);
            sent += 1;
            tally.out.attempted += 1;
        }
        chase(now, server, &mut flights, checker, &mut tx, &mut tally);
        if !tx.is_empty() {
            tx.flush(&client)?;
        }
        let n = rx.recv(&client)?;
        absorb(&rx, n, Instant::now(), &mut flights, checker, &mut tally);
        std::hint::spin_loop();
    }
    drain(
        &client,
        server,
        &mut rx,
        &mut tx,
        &mut flights,
        checker,
        &mut tally,
    )?;
    Ok(tally.finish())
}

/// Resolves every query of `queries` once, unpaced, retrying lost ones,
/// and returns the replies in order. Used to fill the cache before timing;
/// every reply is fully checked and a query that never gets a correct
/// reply is an error.
pub fn warm_up(
    server: SocketAddr,
    catalog: &Catalog,
    queries: &[Query],
    window: usize,
) -> io::Result<Vec<Vec<u8>>> {
    assert!(queries.len() <= 1 << 16, "warm-up ids are query indices");
    let client = UdpSocket::bind("127.0.0.1:0")?;
    client.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut rx = RecvBatch::new(window);
    let mut tx = SendBatch::new();
    let mut replies: Vec<Option<Vec<u8>>> = vec![None; queries.len()];
    for _attempt in 0..5 {
        let todo: Vec<usize> = (0..queries.len())
            .filter(|&i| replies[i].is_none())
            .collect();
        if todo.is_empty() {
            break;
        }
        let (mut sent, mut done) = (0usize, 0usize);
        while done < todo.len() {
            while sent < todo.len() && sent - done < window {
                let i = todo[sent];
                tx.push(catalog.encode(&queries[i], i as u16), server);
                sent += 1;
            }
            tx.flush(&client)?;
            let n = rx.recv(&client)?;
            if n == 0 {
                break; // lost replies: the next attempt re-asks
            }
            for k in 0..n {
                let (reply, _) = rx.datagram(k);
                if reply.len() < 2 {
                    continue;
                }
                let i = u16::from_be_bytes([reply[0], reply[1]]) as usize;
                if i < queries.len() && replies[i].is_none() {
                    if !catalog.verify(reply, i as u16, &queries[i]) {
                        return Err(io::Error::other(format!(
                            "warm-up: wrong reply to query {i} ({:?})",
                            queries[i]
                        )));
                    }
                    replies[i] = Some(reply.to_vec());
                    done += 1;
                }
            }
        }
    }
    replies
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.ok_or_else(|| io::Error::other(format!("warm-up: query {i} never answered")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upstream::ScriptedUpstream;

    /// An "echo resolver" is not needed: the scripted upstream answers
    /// client queries directly, which is all the generator has to see.
    fn fixture(delay: Duration) -> (Catalog, ScriptedUpstream) {
        let catalog = Catalog::new("lg", crate::gen::NAMES);
        let upstream = ScriptedUpstream::spawn(catalog.auth(|_| 60), delay).expect("spawn");
        (catalog, upstream)
    }

    #[test]
    fn closed_loop_counts_every_query_and_checks_every_reply() {
        let (catalog, upstream) = fixture(Duration::ZERO);
        let checker = Checker::new(catalog);
        let mix = Mix::warm(3);
        let out = closed_loop(upstream.addr(), &checker, &mix, 10, 8, 40, 0.5).expect("runs");
        upstream.shutdown();
        assert!(out.attempted > 100, "{}", out.attempted);
        assert_eq!(out.failed(), 0);
        assert_eq!(out.resends, 0);
        assert_eq!(
            out.within_limit, out.attempted,
            "a closed loop has no limit"
        );
        assert_eq!(
            out.windows.len() as u64 * 40,
            out.attempted,
            "whole bursts only"
        );
        assert!(out.windows.iter().all(|w| w.within_limit == 1.0));
        assert!(out.burst_rate() >= out.median_rate() && out.median_rate() > 0.0);
        let p50 = out.latency_us(|w| w.p50_us);
        assert!(p50 > 0.0 && p50 < 1e6, "{p50}");
    }

    #[test]
    fn open_loop_holds_its_rate_and_times_from_the_schedule() {
        let delay = Duration::from_millis(2);
        let (catalog, upstream) = fixture(delay);
        let checker = Checker::new(catalog);
        let run = |limit| {
            open_loop(
                upstream.addr(),
                &checker,
                &Mix::warm(3),
                0,
                500.0,
                limit,
                1.0,
            )
            .expect("runs")
        };
        let out = run(Duration::from_millis(500));
        assert_eq!(out.attempted, 500);
        assert_eq!(out.failed(), 0);
        assert!(out.latency_us(|w| w.p50_us) >= 2000.0);
        assert!(
            (out.median_rate() - 500.0).abs() < 25.0,
            "{}",
            out.median_rate()
        );
        assert!(out.late_ratio() < 0.5);
        assert!(out.within_limit_overall() > 0.9);
        assert!(out.within_limit_ratio() >= out.within_limit_overall());
        // No reply can beat the upstream's delay.
        assert_eq!(run(Duration::from_millis(1)).within_limit, 0);
        upstream.shutdown();
    }

    #[test]
    fn silence_is_counted_as_failure_beyond_every_percentile() {
        // A bound socket nobody reads: every query is sent MAX_SENDS times
        // and then times out.
        let sink = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let checker = Checker::new(Catalog::new("lg", crate::gen::NAMES));
        let out = open_loop(
            sink.local_addr().expect("addr"),
            &checker,
            &Mix::warm(1),
            0,
            20.0,
            Duration::from_secs(10),
            1.0,
        )
        .expect("runs");
        assert_eq!(out.attempted, 20);
        assert_eq!(out.timeouts, 20);
        assert_eq!(out.failed(), 20);
        assert_eq!(out.within_limit, 0);
        assert_eq!(out.resends, 20 * u64::from(MAX_SENDS - 1));
        assert_eq!(out.windows.len(), 5);
        assert!(out.windows[0].p50_us > 1e6);
        assert_eq!(out.windows[0].rate, 0.0);
        assert_eq!(out.within_limit_ratio(), 0.0);
    }

    #[test]
    fn a_lost_datagram_is_asked_again_and_timed_from_its_first_send() {
        // An upstream that answers the first datagram it sees of every
        // query id with garbage the generator ignores, and the repeat
        // properly.
        let catalog = Catalog::new("lg", crate::gen::NAMES);
        let mut auth = catalog.auth(|_| 60);
        let mut seen = std::collections::HashSet::new();
        let upstream = ScriptedUpstream::spawn_with(
            move |q, from, now| {
                let mut resp = auth.handle(q, from, now);
                if seen.insert(q.id) {
                    resp.id = !q.id;
                }
                resp
            },
            Duration::ZERO,
        )
        .expect("spawn");
        let checker = Checker::new(catalog);
        let limit = Duration::from_millis(100);
        let out = open_loop(
            upstream.addr(),
            &checker,
            &Mix::warm(3),
            0,
            20.0,
            limit,
            1.0,
        )
        .expect("runs");
        upstream.shutdown();
        assert_eq!((out.attempted, out.failed()), (20, 0));
        assert_eq!(out.resends, 20);
        assert_eq!(out.within_limit, 0, "answered, but a re-send too late");
        let resend_us = RESEND_AFTER.as_secs_f64() * 1e6;
        assert!(
            out.windows[0].p50_us >= resend_us,
            "{}",
            out.windows[0].p50_us
        );
    }

    #[test]
    fn a_server_that_stops_for_a_second_finds_its_queries_late_not_lost() {
        // The answering thread sleeps 1.2 s on its 500th query: nothing
        // reads the socket meanwhile. The generator must hold its schedule
        // back instead of overflowing that socket, and every query must be
        // answered in the end.
        let catalog = Catalog::new("lg", crate::gen::NAMES);
        let mut auth = catalog.auth(|_| 60);
        let mut seen = 0;
        let upstream = ScriptedUpstream::spawn_with(
            move |q, from, now| {
                seen += 1;
                if seen == 500 {
                    std::thread::sleep(Duration::from_millis(1200));
                }
                auth.handle(q, from, now)
            },
            Duration::ZERO,
        )
        .expect("spawn");
        let checker = Checker::new(catalog);
        let limit = Duration::from_millis(5);
        let out = open_loop(
            upstream.addr(),
            &checker,
            &Mix::warm(3),
            0,
            2000.0,
            limit,
            2.0,
        )
        .expect("runs");
        upstream.shutdown();
        assert_eq!((out.attempted, out.failed()), (4000, 0));
        assert!(out.late > 1000, "the schedule was held back: {}", out.late);
        assert!(out.max_late_us > 1e6, "{}", out.max_late_us);
        // Sends are resumed as replies flow, so the stall costs its own
        // length in queries over the limit, not more.
        let over = out.attempted - out.within_limit;
        assert!((2000..3600).contains(&over), "{over} over the limit");
    }

    #[test]
    fn windows_are_settled_once_and_late_samples_do_not_reopen_them() {
        let started = Instant::now();
        let ms = Duration::from_millis;
        let mut tally = Tally::new(started, 1.0, ms(250), ms(1));
        // Window 0: three queries, one of them failed.
        tally.reply(started + ms(10), started + ms(9), true);
        tally.reply(started + ms(20), started + ms(15), true);
        tally.reply(started + ms(30), started + ms(29), false);
        tally.settle(Some(started + ms(250) + SETTLED_AFTER - ms(1)));
        assert!(tally.settled.is_empty(), "not old enough yet");
        tally.settle(Some(started + ms(250) + SETTLED_AFTER));
        assert_eq!(tally.settled.len(), 1);
        assert_eq!(tally.settled[0][0], 5000.0, "median of 1 ms, 5 ms, failed");
        assert_eq!(tally.settled[0][3], 1.0 / 3.0, "one of three within 1 ms");
        assert!(tally.latencies[0].is_empty(), "samples dropped");
        // A straggler due in the settled window still counts as a reply.
        tally.reply(started + ms(1600), started + ms(100), true);
        assert!(tally.latencies[0].is_empty());
        let out = tally.finish();
        assert_eq!(out.windows.len(), 4);
        assert_eq!((out.wrong, out.within_limit), (1, 1));
        assert_eq!(out.windows[0].rate, 2.0 / 0.25);
        assert!(out.windows[3].p50_us > 1e6, "nothing was due there");
    }

    #[test]
    fn byte_templates_accept_only_id_and_ttl_changes() {
        let catalog = Catalog::new("lg", 4);
        let mut auth = catalog.auth(|_| 60);
        let q = Query {
            name: 1,
            subnet: Some([30, 1, 1]),
        };
        let query = dns_wire::Message::from_bytes(&catalog.encode(&q, 5)).expect("decodes");
        let from = std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST);
        let mut resp = auth.handle(&query, from, netsim::SimTime::ZERO);
        let reply = resp.to_bytes().expect("encodes");
        let expected = Expected::learn(&reply).expect("template");
        resp.id = 77;
        resp.answers[0].ttl = 3;
        assert!(expected.matches(&resp.to_bytes().expect("encodes")));
        resp.rcode = dns_wire::Rcode::ServFail;
        assert!(!expected.matches(&resp.to_bytes().expect("encodes")));

        let mut checker = Checker::new(catalog);
        checker.learn(q, &reply);
        assert!(checker.check(&reply, 5, &q));
        assert!(!checker.check(&reply, 6, &q), "id must match");
    }

    #[test]
    fn warm_up_returns_one_checked_reply_per_query() {
        let (catalog, upstream) = fixture(Duration::ZERO);
        let queries = Mix::warm(9).distinct(2000);
        let replies = warm_up(upstream.addr(), &catalog, &queries, 16).expect("warm");
        upstream.shutdown();
        assert_eq!(replies.len(), queries.len());
        for (i, (q, r)) in queries.iter().zip(&replies).enumerate() {
            assert!(catalog.verify(r, i as u16, q));
        }
    }
}
