//! Property-based tests for stream framing (RFC 1035 §4.2.2 length
//! prefixes) and the truncation/retry equivalence the
//! transport ladder relies on: a UDP answer that comes back TC and is
//! re-fetched over TCP must deliver byte-for-byte what a direct TCP
//! exchange would have.

use dns_wire::framing::{frame_tcp, read_tcp_frame, MAX_FRAME_LEN};
use dns_wire::{EcsOption, Message, Name, Question, Rdata, Record, WireError};
use proptest::prelude::*;
use std::io::ErrorKind;
use std::net::Ipv4Addr;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,14}[a-z0-9])?").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..4)
        .prop_map(|labels| Name::from_ascii(&labels.join(".")).unwrap())
}

/// An answer-bearing response message whose wire size scales with the
/// record count — the shape UDP truncation decisions are made over.
fn arb_response() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        proptest::collection::vec(any::<u32>(), 0..60),
        proptest::option::of((any::<u32>().prop_map(Ipv4Addr::from), 0u8..=32)),
    )
        .prop_map(|(id, qname, addrs, ecs)| {
            let mut m = Message::query(id, Question::a(qname.clone()));
            m.flags.qr = true;
            for a in addrs {
                m.answers
                    .push(Record::new(qname.clone(), 300, Rdata::A(Ipv4Addr::from(a))));
            }
            if let Some((addr, len)) = ecs {
                m.set_ecs(EcsOption::from_v4(addr, len).with_scope(len));
            }
            m
        })
}

/// One framed TCP exchange: what a direct stream transport delivers.
fn deliver_tcp(msg: &Message) -> Message {
    let wire = msg.to_bytes().unwrap();
    let framed = frame_tcp(&wire).unwrap();
    let mut stream = &framed[..];
    let payload = read_tcp_frame(&mut stream).unwrap();
    assert!(stream.is_empty());
    Message::from_bytes(&payload).unwrap()
}

/// The UDP-first path against an advertised EDNS buffer: answers that fit
/// are delivered as datagrams; oversize answers come back TC (headers
/// only) and are re-fetched over framed TCP (RFC 7766). Returns the
/// finally delivered message and whether the TCP retry fired.
fn deliver_udp_with_tcp_retry(msg: &Message, advertised: usize) -> (Message, bool) {
    let wire = msg.to_bytes().unwrap();
    if wire.len() <= advertised {
        return (Message::from_bytes(&wire).unwrap(), false);
    }
    // The truncated datagram: TC set, answers stripped — parseable, but
    // useless, which is exactly why the retry must happen.
    let mut tc = msg.clone();
    tc.flags.tc = true;
    tc.answers.clear();
    let tc_wire = tc.to_bytes().unwrap();
    assert!(Message::from_bytes(&tc_wire).unwrap().flags.tc);
    (deliver_tcp(msg), true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tcp_frame_roundtrips_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..3000)) {
        let framed = frame_tcp(&payload).unwrap();
        prop_assert_eq!(framed.len(), payload.len() + 2);
        let mut stream = &framed[..];
        prop_assert_eq!(read_tcp_frame(&mut stream).unwrap(), payload);
        prop_assert!(stream.is_empty());
    }

    #[test]
    fn tcp_frames_concatenate_and_drain_in_order(
        a in proptest::collection::vec(any::<u8>(), 0..500),
        b in proptest::collection::vec(any::<u8>(), 0..500),
    ) {
        let mut both = frame_tcp(&a).unwrap();
        both.extend_from_slice(&frame_tcp(&b).unwrap());
        let mut stream = &both[..];
        prop_assert_eq!(read_tcp_frame(&mut stream).unwrap(), a);
        prop_assert_eq!(read_tcp_frame(&mut stream).unwrap(), b);
        prop_assert!(stream.is_empty());
    }

    #[test]
    fn every_strict_prefix_of_a_tcp_frame_wants_more_bytes(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        cut in any::<usize>(),
    ) {
        let framed = frame_tcp(&payload).unwrap();
        let cut = cut % framed.len();
        // Any strict prefix is a stream that ended early, never another
        // error and never a spurious success.
        prop_assert_eq!(
            read_tcp_frame(&mut &framed[..cut]).unwrap_err().kind(),
            ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversize_payloads_are_rejected_not_wrapped(extra in 1usize..100) {
        let huge = vec![0u8; MAX_FRAME_LEN + extra];
        prop_assert_eq!(
            frame_tcp(&huge),
            Err(WireError::MessageTooLong(MAX_FRAME_LEN + extra))
        );
    }

    #[test]
    fn tc_plus_tcp_retry_equals_direct_tcp(
        msg in arb_response(),
        advertised in 512usize..4096,
    ) {
        let (via_ladder, retried) = deliver_udp_with_tcp_retry(&msg, advertised);
        let direct = deliver_tcp(&msg);
        prop_assert_eq!(&via_ladder, &direct);
        prop_assert_eq!(&via_ladder, &msg);
        // The retry fires exactly when the answer exceeds the buffer.
        prop_assert_eq!(retried, msg.to_bytes().unwrap().len() > advertised);
    }

    #[test]
    fn edns_buffer_boundary_is_exact(msg in arb_response()) {
        let len = msg.to_bytes().unwrap().len();
        // Advertising exactly the wire size delivers over UDP; one byte
        // less forces the stream retry. Either way the same message
        // arrives.
        let (fit, retried_fit) = deliver_udp_with_tcp_retry(&msg, len);
        prop_assert!(!retried_fit);
        let (tight, retried_tight) = deliver_udp_with_tcp_retry(&msg, len - 1);
        prop_assert!(retried_tight);
        prop_assert_eq!(&fit, &tight);
        prop_assert_eq!(&fit, &msg);
    }
}
