//! A stopped-and-continued `ecs-dnsd` keeps serving.
//!
//! On Linux a receive blocked under `SO_RCVTIMEO` returns `EINTR` when the
//! process is resumed by `SIGCONT`, even with no signal handler installed
//! (signal(7)). A serve loop that treats that as a dead socket leaves the
//! process alive and bound with nobody reading: every later query times
//! out. This drives the real binary through `kill -STOP` / `kill -CONT`.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dns_wire::Name;
use dnsd::DigClient;

/// Kills and reaps the server however the test ends.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The process state letter of `/proc/<pid>/stat` (`T` = stopped).
fn state(pid: u32) -> char {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("child is alive");
    // "<pid> (<comm>) <state> ...": comm may hold spaces, never a ')' here.
    let after_comm = stat.rsplit(')').next().expect("stat has a comm field");
    after_comm.trim_start().chars().next().expect("state field")
}

fn signal(pid: u32, sig: &str, until: impl Fn(char) -> bool) {
    let ok = Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(ok.success(), "kill {sig} {pid}");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !until(state(pid)) {
        assert!(Instant::now() < deadline, "kill {sig} never took effect");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn server_answers_after_sigstop_sigcont() {
    if !dnsd::testutil::require_loopback("server_answers_after_sigstop_sigcont") {
        return;
    }
    let mut child = Command::new(env!("CARGO_BIN_EXE_ecs-dnsd"))
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .spawn()
        .expect("start ecs-dnsd");
    let stdout = child.stdout.take().expect("piped stdout");
    let server = Server(child);
    let pid = server.0.id();

    // "ecs-dnsd: serving cdn.example on 127.0.0.1:PORT (1 worker(s))". The
    // reader outlives the queries: the server prints more, and must not
    // find its stdout closed.
    let mut stdout = BufReader::new(stdout);
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read the banner");
    let addr: SocketAddr = banner
        .split_whitespace()
        .find_map(|word| word.parse().ok())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"));

    let name = Name::from_ascii("www.cdn.example").unwrap();
    let mut dig = DigClient::new().unwrap();
    dig.timeout = Duration::from_millis(500);
    let before = dig.query_a(addr, &name, None).expect("answer before STOP");
    assert!(!before.answer_addrs().is_empty());

    // A few rounds: the worker sits in its blocking receive all but a few
    // microseconds of the time, so each round interrupts one.
    for round in 0..3 {
        signal(pid, "-STOP", |s| s == 'T');
        signal(pid, "-CONT", |s| s != 'T');
        let after = dig
            .query_a(addr, &name, None)
            .unwrap_or_else(|e| panic!("round {round}: no answer after CONT: {e}"));
        assert_eq!(after.answer_addrs(), before.answer_addrs());
    }
}
