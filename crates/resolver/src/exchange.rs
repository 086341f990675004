//! The upstream-exchange state machine (sans-IO).
//!
//! One [`Exchange`] is one cache miss on its way to an answer. The machine
//! performs no I/O and never sleeps: a driver sends what
//! [`Action::Send`] asks for, reports what came back (a message, or an
//! [`UpstreamError`]) to [`Resolver::step_exchange`], and repeats until
//! [`Action::Done`]. Everything RFC 7871 §7.1.3 and RFC 7766 make a
//! *decision* lives here and only here: counting sends and retries,
//! withdrawing ECS, climbing the [`crate::TransportPolicy`] ladder, the
//! attempt / fault / backoff trace events, and giving up once the budget is
//! spent. How the flight's parties are then answered — the owner here, its
//! coalesced joiners through [`Resolver::answer_joiner`], each fresh, stale
//! or SERVFAIL for itself — is the engine's one exit.
//!
//! Two drivers exist: the blocking loop
//! [`Resolver::drive_upstream_capturing`] (virtual time: a timed-out send
//! advances its clock by the timeout the machine asked for) and the netsim
//! [`crate::actors::EgressActor`] (real simulator time: packets and
//! timers).

use dns_wire::{Message, Rcode};
use netsim::{SimDuration, SimTime, Transport};
use obs::{EventKind, TraceCtx};

use crate::engine::{PendingQuery, Resolver, UpstreamError};

/// One upstream exchange in progress: the [`PendingQuery`] plus where the
/// retry policy and the transport ladder stand.
pub struct Exchange {
    pending: PendingQuery,
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
}

impl Exchange {
    /// The query this exchange resolves.
    pub fn pending(&self) -> &PendingQuery {
        &self.pending
    }

    /// The message to put on the wire for the current [`Action::Send`]
    /// (its ECS option may have been withdrawn since the last send).
    pub fn upstream_query(&self) -> &Message {
        &self.pending.upstream_query
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
        /// The client-facing answer (fresh, stale, or SERVFAIL).
        answer: Message,
        /// The upstream response the exchange completed with; `None` when
        /// it failed. What every coalesced joiner of the flight is
        /// answered from, via [`Resolver::answer_joiner`].
        raw: Option<Message>,
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
            pending,
            rung: 0,
            attempt: 0,
            rung_attempt: 0,
            inline_tcp: false,
            span: TraceCtx::DISABLED,
            sent_at: now,
        };
        let action = self.send(&mut ex, now);
        (ex, action)
    }

    /// Advances `ex` with the outcome of the send the last
    /// [`Action::Send`] asked for, observed at `now`.
    pub fn step_exchange(
        &mut self,
        ex: &mut Exchange,
        outcome: Result<Message, UpstreamError>,
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
            Ok(resp) if resp.flags.tc && !transport.is_stream() => {
                self.on_truncated(ex, false, now)
            }
            Err(UpstreamError::Truncated(_)) => self.on_truncated(ex, true, now),
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
            Ok(resp)
                if resp.rcode == Rcode::ServFail && self.config.overload.serve_stale_enabled() =>
            {
                // RFC 8767: an upstream SERVFAIL is a failure we may paper
                // over with a stale answer.
                self.trace_fault(ex.span, now, format_args!("rcode:ServFail"));
                self.fail(ex, now)
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
    /// that never reaches an exchange (joined, shed, unroutable) is never
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
        Action::Send {
            transport: self.ladder()[ex.rung],
            timeout: self.config.retry.timeout_for(ex.rung_attempt),
        }
    }

    /// Counts one retransmission and sends it.
    fn resend(&mut self, ex: &mut Exchange, now: SimTime) -> Action {
        self.stats.retries.inc();
        self.send(ex, now)
    }

    /// The one truncation transition (TC bit in a datagram reply, or the
    /// transport surfacing [`UpstreamError::Truncated`], which is also
    /// traced as a fault): RFC 7766 re-asks over a stream — the ladder's
    /// next stream rung when one is configured, the inline TCP re-query
    /// otherwise.
    fn on_truncated(&mut self, ex: &mut Exchange, as_fault: bool, now: SimTime) -> Action {
        self.stats.tcp_fallbacks.inc();
        if as_fault {
            self.trace_fault(ex.span, now, format_args!("truncated"));
        }
        self.trace_event(ex.span, now, &EventKind::TcpFallback);
        if let Some(next) = next_stream_rung(self.ladder(), ex.rung) {
            self.climb(ex, next, "truncated", now);
            ex.attempt = ex.attempt.saturating_add(1);
            return self.resend(ex, now);
        }
        // No stream rung: the inline TCP re-query rides the truncated
        // attempt (same span, not a retry, no time of its own).
        ex.inline_tcp = true;
        Action::Send {
            transport: Transport::Tcp,
            timeout: SimDuration::ZERO,
        }
    }

    /// Spends one attempt of the current rung's budget after a failed send
    /// that waited `backoff`: falls to the next rung when the budget is
    /// gone, fails the exchange when the ladder is too, retries otherwise.
    fn spend_attempt(&mut self, ex: &mut Exchange, backoff: SimDuration, now: SimTime) -> Action {
        ex.attempt = ex.attempt.saturating_add(1);
        ex.rung_attempt += 1;
        let per_rung = self
            .config
            .transport
            .attempts_per_transport
            .unwrap_or(self.config.retry.attempts)
            .max(1);
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
        match to_transport {
            Transport::Tcp => self.stats.fallbacks_to_tcp.inc(),
            Transport::Dot => self.stats.fallbacks_to_dot.inc(),
            Transport::Doh => self.stats.fallbacks_to_doh.inc(),
            Transport::Udp => {}
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

    fn finish(&mut self, ex: &Exchange, resp: Message, now: SimTime) -> Action {
        Action::Done {
            answer: self.complete(&ex.pending, &resp, now),
            raw: Some(resp),
        }
    }

    fn fail(&mut self, ex: &Exchange, now: SimTime) -> Action {
        Action::Done {
            answer: self.exit(&ex.pending, None, now),
            raw: None,
        }
    }
}
