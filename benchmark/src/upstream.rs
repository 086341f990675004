//! The scripted upstream: an authoritative server on a loopback UDP socket
//! that answers every query a fixed delay after receiving it.
//!
//! Two threads share the socket. The receiver decodes each query, lets
//! the answer function (normally `AuthServer::handle`) build the reply at
//! once (so the handler's own cost sits inside the delay, not on top of
//! it) and hands it over with its due instant; the sender sleeps until
//! that instant and sends: `thread::sleep` to just short of it, then a
//! short spin, because a sleep alone wakes 100-200 µs late here, which is
//! a tenth of the delays used. A read timeout is deliberately *not* used
//! to pace replies: on this kernel it rounds up to scheduler ticks and a
//! "2 ms" delay measures as 8 ms. The sender measures how late every reply
//! actually left; a run whose median lag misses the configured delay by
//! more than [`LAG_TOLERANCE`] did not run the workload it claims.

use std::io;
use std::net::{IpAddr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dns_wire::Message;
use netsim::SimTime;

/// Largest accepted miss between configured delay and measured reply lag,
/// as a share of the delay.
pub const LAG_TOLERANCE: f64 = 0.10;

/// How far ahead of a reply's due instant the sender stops sleeping and
/// starts spinning: above the lateness of a sleep's wake-up, and small
/// enough that the spin costs a few percent of one core at the miss rates
/// the workloads reach.
const SPIN_AHEAD: Duration = Duration::from_micros(300);

/// What the upstream saw, returned by [`ScriptedUpstream::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct UpstreamReport {
    /// Replies sent.
    pub replies: u64,
    /// Median time from receiving a query to sending its reply, µs.
    pub reply_lag_us: f64,
}

impl UpstreamReport {
    /// Whether the measured lag is within [`LAG_TOLERANCE`] of `delay`
    /// (always true for a zero delay or when nothing was asked).
    pub fn lag_ok(&self, delay: Duration) -> bool {
        if delay.is_zero() || self.replies == 0 {
            return true;
        }
        let want = delay.as_secs_f64() * 1e6;
        (self.reply_lag_us - want).abs() <= want * LAG_TOLERANCE
    }
}

/// A running scripted upstream.
pub struct ScriptedUpstream {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    replies: Arc<AtomicU64>,
    receiver: JoinHandle<()>,
    sender: JoinHandle<Vec<u32>>,
}

impl ScriptedUpstream {
    /// [`ScriptedUpstream::spawn_with`] answering straight from `auth`.
    #[cfg(test)]
    pub fn spawn(mut auth: authoritative::AuthServer, delay: Duration) -> io::Result<Self> {
        Self::spawn_with(move |q, from, now| auth.handle(q, from, now), delay)
    }

    /// Binds a loopback socket and starts answering: each reply is built
    /// by `answer` (query, sender, time since start) when the query
    /// arrives and sent `delay` later.
    pub fn spawn_with(
        mut answer: impl FnMut(&Message, IpAddr, SimTime) -> Message + Send + 'static,
        delay: Duration,
    ) -> io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        // Bounds how long the receiver takes to notice `stop`; it never
        // paces a reply.
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        let addr = socket.local_addr()?;
        let send_socket = socket.try_clone()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<(Instant, Vec<u8>, SocketAddr)>();

        let stop_rx = Arc::clone(&stop);
        let receiver = std::thread::Builder::new()
            .name("bench-up-recv".to_string())
            .spawn(move || {
                let mut buf = [0u8; 4096];
                let started = Instant::now();
                while !stop_rx.load(Ordering::SeqCst) {
                    let Ok((n, peer)) = socket.recv_from(&mut buf) else {
                        continue; // read timeout
                    };
                    let received = Instant::now();
                    let Ok(query) = Message::from_bytes(&buf[..n]) else {
                        continue;
                    };
                    let now = SimTime::from_micros(started.elapsed().as_micros() as u64);
                    let Ok(reply) = answer(&query, peer.ip(), now).to_bytes() else {
                        continue;
                    };
                    if tx.send((received, reply, peer)).is_err() {
                        break;
                    }
                }
                // Dropping `tx` here ends the sender's loop.
            })?;

        let replies = Arc::new(AtomicU64::new(0));
        let sent = Arc::clone(&replies);
        let sender = std::thread::Builder::new()
            .name("bench-up-send".to_string())
            .spawn(move || {
                let mut lags_ns: Vec<u32> = Vec::new();
                // The delay is constant, so due instants arrive in order.
                for (received, reply, peer) in rx {
                    let due = received + delay;
                    if let Some(nap) = due
                        .checked_duration_since(Instant::now())
                        .and_then(|left| left.checked_sub(SPIN_AHEAD))
                    {
                        std::thread::sleep(nap);
                    }
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    let _ = send_socket.send_to(&reply, peer);
                    // A statistic read by the benchmark thread; it orders
                    // nothing else.
                    sent.fetch_add(1, Ordering::Relaxed);
                    lags_ns.push(received.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                }
                lags_ns
            })?;

        Ok(ScriptedUpstream {
            addr,
            stop,
            replies,
            receiver,
            sender,
        })
    }

    /// Where to send upstream queries.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replies sent so far.
    pub fn replies(&self) -> u64 {
        self.replies.load(Ordering::Relaxed)
    }

    /// Stops both threads, waits for them, and reports the measured lag.
    pub fn shutdown(self) -> UpstreamReport {
        self.stop.store(true, Ordering::SeqCst);
        self.receiver.join().expect("upstream receiver panicked");
        let mut lags = self.sender.join().expect("upstream sender panicked");
        lags.sort_unstable();
        UpstreamReport {
            replies: lags.len() as u64,
            reply_lag_us: crate::stats::percentile_sorted(&lags, 0.5) / 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Catalog, Query};

    fn ask(client: &UdpSocket, to: SocketAddr, bytes: &[u8]) -> (Vec<u8>, Duration) {
        let started = Instant::now();
        client.send_to(bytes, to).expect("send");
        let mut buf = [0u8; 4096];
        let (n, from) = client.recv_from(&mut buf).expect("reply");
        assert_eq!(from, to, "reply comes from the queried address");
        (buf[..n].to_vec(), started.elapsed())
    }

    #[test]
    fn replies_are_correct_and_no_earlier_than_the_delay() {
        let catalog = Catalog::new("up", 4);
        let delay = Duration::from_millis(3);
        let upstream = ScriptedUpstream::spawn(catalog.auth(|_| 60), delay).expect("spawn");
        let client = UdpSocket::bind("127.0.0.1:0").expect("bind");
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        for id in 0..20u16 {
            let q = Query {
                name: u32::from(id % 4),
                subnet: Some([40, 0, id as u8]),
            };
            let (reply, took) = ask(&client, upstream.addr(), &catalog.encode(&q, id));
            assert!(catalog.verify(&reply, id, &q));
            assert!(took >= delay, "reply after {took:?}");
        }
        let report = upstream.shutdown();
        assert_eq!(report.replies, 20);
        assert!(report.reply_lag_us >= 3000.0, "{report:?}");
    }

    #[test]
    fn lag_check_flags_a_drifted_delay() {
        let on_time = UpstreamReport {
            replies: 10,
            reply_lag_us: 2080.0,
        };
        assert!(on_time.lag_ok(Duration::from_millis(2)));
        let drifted = UpstreamReport {
            replies: 10,
            reply_lag_us: 8000.0,
        };
        assert!(!drifted.lag_ok(Duration::from_millis(2)));
        assert!(drifted.lag_ok(Duration::ZERO));
        assert!(UpstreamReport::default().lag_ok(Duration::from_millis(2)));
    }
}
