//! Pins the wire bytes of the differential's engine side.
//!
//! `differential.rs` proves the engine and the socket path answer with the
//! *same* bytes; this pins *which* bytes. A codec change that keeps every
//! message parseable but moves one compression pointer (or one case fold)
//! changes the digest, so it cannot ride in as "still round-trips".
//! Needs no sockets: the engine side runs against the in-process
//! authoritative.

use conformance::differential::{run_engine_side, seeded_workload, DIFF_QUERIES};
use resolver::Transport;

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn engine_side_responses_encode_to_pinned_bytes() {
    let side = run_engine_side(&seeded_workload(DIFF_QUERIES, 1), Transport::Udp);
    assert_eq!(side.responses.len(), DIFF_QUERIES);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for bytes in &side.responses {
        h = fnv1a(h, &(bytes.len() as u16).to_be_bytes());
        h = fnv1a(h, bytes);
    }
    assert_eq!(h, 0x4527_aef3_3e2c_b674, "digest {h:#018x}");
}
