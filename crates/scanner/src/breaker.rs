//! Per-target circuit breakers: closed → open → half-open.
//!
//! A target that times out or answers REFUSED `failure_threshold` times
//! in a row stops receiving probes for `cooldown` — dead forwarders must
//! not burn the retry budget of every probe aimed at them. After the
//! cooldown one half-open probe is let through as a canary; its outcome
//! either closes the breaker or re-opens it for another cooldown.

use netsim::{SimDuration, SimTime};

/// The breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Probes flow; consecutive failures are counted.
    Closed,
    /// Probes are shed until the cooldown deadline.
    Open,
    /// One canary probe is in flight; everything else is shed.
    HalfOpen,
}

impl BreakerState {
    /// Wire name for traces (`"closed"`, `"open"`, `"half_open"`).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// One target's breaker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    cooldown: SimDuration,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: SimTime,
    /// Times the breaker transitioned into `Open`.
    pub opens: u64,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `failure_threshold` consecutive
    /// failures (≥ 1), shedding for `cooldown` per trip.
    pub fn new(failure_threshold: u32, cooldown: SimDuration) -> Self {
        CircuitBreaker {
            failure_threshold: failure_threshold.max(1),
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: SimTime::ZERO,
            opens: 0,
        }
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a probe may launch at `now`. An open breaker past its
    /// cooldown flips to half-open and admits exactly this one probe; a
    /// half-open breaker admits nothing further until the canary reports.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => false,
        }
    }

    /// An admitted probe was answered (anything but timeout/REFUSED):
    /// close and reset the failure count.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// An admitted probe timed out (budget exhausted) or was REFUSED.
    /// Closed breakers trip at the threshold; a half-open canary failure
    /// re-opens immediately.
    pub fn record_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.failure_threshold {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen => self.trip(now),
            // A late failure while already open (e.g. a probe admitted
            // before the trip timing out after it) keeps the breaker open
            // without extending the cooldown.
            BreakerState::Open => {}
        }
    }

    /// The half-open canary was abandoned before it could report (a
    /// mid-window abort): back to open with the cooldown already served,
    /// so the next probe is admitted as a fresh canary.
    pub fn release_canary(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Open;
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.open_until = now + self.cooldown;
        self.opens += 1;
        self.consecutive_failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn opens_after_n_consecutive_failures() {
        let mut b = CircuitBreaker::new(3, SimDuration::from_secs(60));
        for _ in 0..2 {
            assert!(b.allow(t(0)));
            b.record_failure(t(0));
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert!(b.allow(t(0)));
        b.record_failure(t(0));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens, 1);
        assert!(!b.allow(t(30)), "cooling down");
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = CircuitBreaker::new(2, SimDuration::from_secs(60));
        b.record_failure(t(0));
        b.record_success();
        b.record_failure(t(1));
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
    }

    #[test]
    fn half_open_admits_one_canary() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_secs(60));
        b.record_failure(t(0));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(t(60)), "cooldown over: canary admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(t(60)), "only one canary");
        assert!(!b.allow(t(61)));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(t(62)));
    }

    #[test]
    fn released_canary_is_replaced_without_a_second_cooldown() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_secs(60));
        b.record_failure(t(0));
        assert!(b.allow(t(60)), "canary admitted");
        b.release_canary();
        assert_eq!((b.state(), b.opens), (BreakerState::Open, 1));
        assert!(b.allow(t(60)), "the next probe is the new canary");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Nothing to release on a closed breaker.
        b.record_success();
        b.release_canary();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_canary_reopens_for_another_cooldown() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_secs(60));
        b.record_failure(t(0));
        assert!(b.allow(t(60)));
        b.record_failure(t(60));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens, 2);
        assert!(!b.allow(t(100)), "new cooldown runs from the re-open");
        assert!(b.allow(t(120)));
    }
}
