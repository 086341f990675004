//! The upstream-exchange state machine (sans-IO).
//!
//! One [`Exchange`] is one cache miss on its way to an answer. The machine
//! performs no I/O and never sleeps: a driver sends what
//! [`Action::Send`] asks for, reports what came back (an [`UpstreamReply`]
//! — what the machine reads of a response — or an [`UpstreamError`]) to
//! [`Resolver::step_exchange`], and repeats until [`Action::Done`], whose
//! client answer is left as its parts ([`ClientAnswer`]) for the driver
//! to write. Everything RFC 7871 §7.1.3 and RFC 7766 make a
//! *decision* lives here and only here: counting sends and retries,
//! withdrawing ECS, climbing the [`crate::TransportPolicy`] ladder, the
//! attempt / fault / backoff trace events, and giving up once the budget is
//! spent. An exchange has two endings: the last reply, whatever its rcode,
//! or SERVFAIL once the budget is gone. How the flight's parties are then
//! answered — the owner here, its coalesced joiners through
//! [`Resolver::answer_joiner`], each from the reply or with SERVFAIL — is
//! the engine's one exit.
//!
//! Two drivers exist: the blocking loop
//! [`Resolver::drive_upstream`] (virtual time: a timed-out send
//! advances its clock by the timeout the machine asked for) and the netsim
//! [`crate::actors::EgressActor`] (real simulator time: packets and
//! timers). Both send the datagram the exchange wrote.

use dns_wire::Rcode;
use netsim::{SimDuration, SimTime, Transport};
use obs::{EventKind, TraceCtx};

use crate::engine::{PendingQuery, Resolver, UpstreamError};
use crate::parts::{ClientAnswer, UpstreamReply};

/// One upstream exchange in progress: the [`PendingQuery`] plus where the
/// retry policy and the transport ladder stand.
pub struct Exchange {
    pending: PendingQuery,
    /// The query's bytes, written by a send that finds them empty.
    datagram: Vec<u8>,
    /// Index of the ladder rung in use.
    rung: usize,
    /// Sends so far across all rungs (trace labels).
    attempt: u8,
    /// Budget spent on the current rung, and the index into the backoff
    /// schedule, which restarts per rung.
    rung_attempt: u8,
    /// The send in flight is the inline RFC 7766 TCP re-query of a
    /// truncated reply on a ladder with no stream rung.
    inline_tcp: bool,
    /// Span of the send in flight; faults nest under it.
    span: TraceCtx,
    /// When the send in flight left — where a timeout's fault events are
    /// stamped, since that is the attempt that failed.
    sent_at: SimTime,
    /// Whether [`Action::Done`] carries the upstream response as `raw`.
    keep_reply: bool,
}

impl Exchange {
    /// The query this exchange resolves.
    pub fn pending(&self) -> &PendingQuery {
        &self.pending
    }

    /// The datagram to put on the wire for the current [`Action::Send`]
    /// (its ECS option may have been withdrawn since the last send).
    pub fn upstream_query(&self) -> &[u8] {
        &self.datagram
    }

    /// [`Exchange::upstream_query`], handed over to a driver whose packets
    /// leave it (the simulator's): the next send writes it again.
    pub fn take_upstream_query(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.datagram)
    }

    /// Asks the driver to send the datagram, written first unless held.
    fn send(&mut self, transport: Transport, timeout: SimDuration) -> Action {
        if self.datagram.is_empty() {
            let query = &self.pending.upstream_query;
            self.datagram = query.to_bytes().expect("one question encodes");
        }
        Action::Send { transport, timeout }
    }

    /// Whether the [`Action::Done`] of a reply carries the reply as
    /// `raw`, for the flight's joiners (the default: yes). A driver whose
    /// flight nobody joined turns it off, and the reply's answers then
    /// move into the owner's answer instead of being copied for it.
    pub fn keep_reply(&mut self, keep: bool) {
        self.keep_reply = keep;
    }
}

/// What the driver must do next.
// `Done` is destructured and consumed at once by both drivers.
#[allow(clippy::large_enum_variant)]
pub enum Action {
    /// Send [`Exchange::upstream_query`] over `transport`; report
    /// [`UpstreamError::Timeout`] when nothing usable arrives within
    /// `timeout`.
    Send {
        /// The ladder rung to use.
        transport: Transport,
        /// How long to wait before reporting a timeout.
        timeout: SimDuration,
    },
    /// The exchange is over.
    Done {
        /// The client-facing answer: the last reply's, or SERVFAIL.
        answer: ClientAnswer,
        /// The upstream reply the exchange completed with; `None` when it
        /// failed, or when the driver turned [`Exchange::keep_reply`] off.
        /// What every coalesced joiner of the flight is answered from, via
        /// [`Resolver::answer_joiner`].
        raw: Option<UpstreamReply>,
    },
}

const UDP_ONLY: &[Transport] = &[Transport::Udp];

/// The first stream rung strictly after `rung`, if the ladder has one —
/// where a truncation sends the exchange (re-asking over another datagram
/// transport could only truncate again).
fn next_stream_rung(ladder: &[Transport], rung: usize) -> Option<usize> {
    (rung + 1..ladder.len()).find(|&i| ladder[i].is_stream())
}

impl Resolver {
    /// Starts the upstream exchange for `pending` on the configured
    /// transport ladder and returns it with its first [`Action::Send`].
    pub fn start_exchange(&mut self, pending: PendingQuery, now: SimTime) -> (Exchange, Action) {
        let mut ex = Exchange {
            datagram: Vec::new(),
            pending,
            rung: 0,
            attempt: 0,
            rung_attempt: 0,
            inline_tcp: false,
            span: TraceCtx::DISABLED,
            sent_at: now,
            keep_reply: true,
        };
        let action = self.send(&mut ex, now);
        (ex, action)
    }

    /// Advances `ex` with the outcome of the send the last
    /// [`Action::Send`] asked for, observed at `now`.
    pub fn step_exchange(
        &mut self,
        ex: &mut Exchange,
        outcome: Result<UpstreamReply, UpstreamError>,
        now: SimTime,
    ) -> Action {
        if std::mem::take(&mut ex.inline_tcp) {
            // The inline TCP leg is not an attempt of its own: any message
            // completes the exchange, any error spends the truncated
            // attempt with no time charged.
            return match outcome {
                Ok(full) => self.finish(ex, full, now),
                Err(_) => self.spend_attempt(ex, SimDuration::ZERO, now),
            };
        }
        let transport = self.ladder()[ex.rung];
        match outcome {
            Ok(resp) if resp.tc && !transport.is_stream() => self.on_truncated(ex, now),
            Ok(resp)
                if resp.rcode == Rcode::FormErr
                    && self.config.retry.withdraw_ecs_on_formerr
                    && ex.pending.upstream_query.ecs().is_some() =>
            {
                // An ECS-intolerant server: drop the option and re-ask at
                // once (no timeout elapsed, no attempt consumed — this
                // fires at most once since the option is now gone).
                self.withdraw_ecs(ex, "formerr", now);
                self.resend(ex, now)
            }
            Ok(resp) => self.finish(ex, resp, now),
            Err(UpstreamError::Timeout) => {
                self.trace_fault(ex.span, ex.sent_at, format_args!("timeout"));
                self.stats.upstream_timeouts.inc();
                if self.config.retry.withdraw_ecs_on_timeout
                    && ex.pending.upstream_query.ecs().is_some()
                {
                    self.withdraw_ecs(ex, "timeout", ex.sent_at);
                }
                let waited = self.config.retry.timeout_for(ex.rung_attempt);
                self.spend_attempt(ex, waited, now)
            }
            Err(UpstreamError::Rcode(rc)) => {
                self.trace_fault(ex.span, now, format_args!("rcode:{rc:?}"));
                self.spend_attempt(ex, SimDuration::ZERO, now)
            }
        }
    }

    fn ladder(&self) -> &[Transport] {
        if self.config.transport.ladder.is_empty() {
            UDP_ONLY
        } else {
            &self.config.transport.ladder
        }
    }

    /// Counts the send, opens its attempt span and asks the driver to make
    /// it on the current rung. Every upstream query — an exchange's first
    /// and each re-send — is counted here and nowhere else, so a query
    /// that never reaches an exchange (joined, unroutable) is never
    /// counted as sent.
    fn send(&mut self, ex: &mut Exchange, now: SimTime) -> Action {
        self.stats.upstream_queries.inc();
        if ex.pending.upstream_query.ecs().is_some() {
            self.stats.upstream_ecs_queries.inc();
        }
        ex.sent_at = now;
        ex.span = self.tracer.child(
            ex.pending.trace,
            now.as_micros(),
            &EventKind::UpstreamAttempt {
                attempt: u32::from(ex.attempt),
                ecs: ex.pending.upstream_query.ecs().is_some(),
            },
        );
        let timeout = self.config.retry.timeout_for(ex.rung_attempt);
        ex.send(self.ladder()[ex.rung], timeout)
    }

    /// Counts one retransmission and sends it.
    fn resend(&mut self, ex: &mut Exchange, now: SimTime) -> Action {
        self.stats.retries.inc();
        self.send(ex, now)
    }

    /// The one truncation transition, a TC datagram on a datagram rung,
    /// whoever truncated it (the server against its size limit, or the
    /// link): traced as an `upstream_fault` under the attempt's span, then
    /// RFC 7766 re-asks over a stream — the ladder's next stream rung when
    /// one is configured, the inline TCP re-query otherwise.
    fn on_truncated(&mut self, ex: &mut Exchange, now: SimTime) -> Action {
        self.stats.tcp_fallbacks.inc();
        self.trace_fault(ex.span, now, format_args!("truncated"));
        self.trace_event(ex.span, now, &EventKind::TcpFallback);
        if let Some(next) = next_stream_rung(self.ladder(), ex.rung) {
            self.climb(ex, next, "truncated", now);
            ex.attempt = ex.attempt.saturating_add(1);
            return self.resend(ex, now);
        }
        // No stream rung: the inline TCP re-query rides the truncated
        // attempt (same span, not a retry, no time of its own).
        ex.inline_tcp = true;
        ex.send(Transport::Tcp, SimDuration::ZERO)
    }

    /// Spends one attempt of the current rung's budget after a failed send
    /// that waited `backoff`: falls to the next rung when the budget is
    /// gone, fails the exchange when the ladder is too, retries otherwise.
    fn spend_attempt(&mut self, ex: &mut Exchange, backoff: SimDuration, now: SimTime) -> Action {
        ex.attempt = ex.attempt.saturating_add(1);
        ex.rung_attempt += 1;
        let per_rung = self.config.retry.attempts.max(1);
        if ex.rung_attempt >= per_rung {
            if ex.rung + 1 >= self.ladder().len() {
                return self.fail(ex, now);
            }
            self.climb(ex, ex.rung + 1, "exhausted", now);
        }
        self.trace_event(
            ex.pending.trace,
            now,
            &EventKind::RetryBackoff {
                attempt: u32::from(ex.attempt),
                delay_us: backoff.as_micros(),
            },
        );
        self.resend(ex, now)
    }

    /// Takes one transport-ladder edge (to rung `to`, for `reason`),
    /// counted and traced; the new rung starts with a fresh budget.
    fn climb(&mut self, ex: &mut Exchange, to: usize, reason: &'static str, now: SimTime) {
        let (from, to_transport) = {
            let ladder = self.ladder();
            (ladder[ex.rung], ladder[to])
        };
        self.stats.transport_fallbacks.inc();
        if to_transport == Transport::Tcp {
            self.stats.fallbacks_to_tcp.inc();
        }
        self.trace_event(
            ex.pending.trace,
            now,
            &EventKind::TransportFallback {
                from: from.label(),
                to: to_transport.label(),
                reason,
            },
        );
        ex.rung = to;
        ex.rung_attempt = 0;
    }

    /// Withdraws the ECS option from the upstream query (RFC 7871 §7.1.3,
    /// or the FORMERR downgrade) and remembers the server as non-ECS.
    fn withdraw_ecs(&mut self, ex: &mut Exchange, reason: &'static str, at: SimTime) {
        ex.pending.upstream_query.clear_ecs();
        ex.datagram.clear();
        self.probing_state.mark_non_ecs();
        self.stats.ecs_withdrawals.inc();
        self.trace_event(ex.span, at, &EventKind::EcsWithdrawn { reason });
    }

    fn trace_fault(&self, span: TraceCtx, at: SimTime, kind: std::fmt::Arguments<'_>) {
        if span.is_enabled() {
            let kind = kind.to_string();
            self.trace_event(span, at, &EventKind::UpstreamFault { kind });
        }
    }

    fn finish(&mut self, ex: &Exchange, resp: UpstreamReply, now: SimTime) -> Action {
        let (answer, raw) = self.complete(&ex.pending, resp, ex.keep_reply, now);
        Action::Done { answer, raw }
    }

    fn fail(&mut self, ex: &Exchange, now: SimTime) -> Action {
        Action::Done {
            answer: self.exit(&ex.pending, None, now),
            raw: None,
        }
    }
}
