//! Fuzz-style properties for the hardened wire decoder: arbitrary bytes
//! never panic, parsed structure never exceeds what the input bytes could
//! encode (the observable face of the bounded-preallocation guard), and
//! decode ∘ encode is a fixpoint for everything that parses.
//!
//! CI runs this file with `PROPTEST_CASES=1024` for a deeper sweep; the
//! in-tree default keeps `cargo test` fast.

use dns_wire::{EcsOption, Message, Name, Question, Rdata, Record, SoaData};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(
        proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,12}[a-z0-9])?").unwrap(),
        0..5,
    )
    .prop_map(|labels| Name::from_ascii(&labels.join(".")).unwrap())
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), 0u32..100_000, any::<u32>())
        .prop_map(|(n, ttl, a)| Record::new(n, ttl, Rdata::A(Ipv4Addr::from(a))))
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_name(),
        proptest::collection::vec(arb_record(), 0..5),
        proptest::option::of(
            (any::<u32>(), 0u8..=32)
                .prop_map(|(a, len)| EcsOption::from_v4(Ipv4Addr::from(a), len)),
        ),
    )
        .prop_map(|(id, qname, answers, ecs)| {
            let mut m = Message::query(id, Question::a(qname));
            m.flags.qr = !answers.is_empty();
            m.answers = answers;
            if let Some(e) = ecs {
                m.set_ecs(e);
            }
            m
        })
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The encoder's output is pinned as bytes, not as "parses back equal": a
/// codec change that moves one compression pointer changes this digest.
#[test]
fn generated_messages_encode_to_pinned_bytes() {
    let mut rng = proptest::TestRng::from_seed_u64(0x0EC5_0EC5);
    let strategy = arb_message();
    let mut h = FNV_OFFSET;
    for _ in 0..4096 {
        let bytes = strategy.generate(&mut rng).to_bytes().unwrap();
        h = fnv1a(h, &(bytes.len() as u16).to_be_bytes());
        h = fnv1a(h, &bytes);
    }
    assert_eq!(h, 0xdf90_f268_e3a1_77a7, "digest {h:#018x}");
}

/// One message exercising everything the encoder decides: all four
/// sections, a CNAME chain, names that differ from earlier ones only in
/// case, names inside SOA/NS RDATA, and an OPT carrying ECS.
#[test]
fn four_section_message_encodes_to_pinned_bytes() {
    let n = |s: &str| Name::from_ascii(s).unwrap();
    let mut m = Message::query(0xBEEF, Question::a(n("WWW.Example.COM")));
    m.flags.qr = true;
    m.flags.ra = true;
    m.answers = vec![
        Record::new(
            n("www.example.com"),
            300,
            Rdata::Cname(n("Edge.CDN.example.net")),
        ),
        Record::new(
            n("edge.cdn.EXAMPLE.net"),
            60,
            Rdata::Cname(n("pop-7.edge.cdn.example.net")),
        ),
        Record::new(
            n("POP-7.edge.cdn.example.net"),
            20,
            Rdata::A(Ipv4Addr::new(203, 0, 113, 7)),
        ),
        Record::new(
            n("pop-7.edge.cdn.example.net"),
            20,
            Rdata::Aaaa(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 7)),
        ),
    ];
    m.authorities = vec![
        Record::new(
            n("cdn.example.NET"),
            3600,
            Rdata::Ns(n("ns1.cdn.example.net")),
        ),
        Record::new(
            n("example.net"),
            900,
            Rdata::Soa(SoaData {
                mname: n("ns1.CDN.example.net"),
                rname: n("hostmaster.example.net"),
                serial: 2024010101,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            }),
        ),
    ];
    m.additionals = vec![
        Record::new(
            n("NS1.cdn.example.net"),
            3600,
            Rdata::A(Ipv4Addr::new(198, 51, 100, 53)),
        ),
        Record::new(
            n("unrelated.example.org"),
            5,
            Rdata::Txt(vec![b"v=1".to_vec()]),
        ),
    ];
    m.set_edns(1232);
    m.set_ecs(EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(20));

    let bytes = m.to_bytes().unwrap();
    assert_eq!(Message::from_bytes(&bytes).unwrap(), m);
    let h = fnv1a(FNV_OFFSET, &bytes);
    assert_eq!(
        h,
        0xa5ea_6255_6402_16a5,
        "digest {h:#018x} over {} bytes",
        bytes.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        // Parse-or-clean-error on any input; no panic, no hang.
        let _ = Message::from_bytes(&data);
    }

    #[test]
    fn parsed_structure_is_bounded_by_input_size(
        data in proptest::collection::vec(any::<u8>(), 12..1200)
    ) {
        // A question takes at least 5 wire bytes, a record at least 11
        // (even with a 2-byte compressed owner name), so whatever parses
        // can never hold more entries than the body bytes could encode —
        // a hostile header cannot inflate the in-memory message.
        if let Ok(m) = Message::from_bytes(&data) {
            let body = data.len() - 12;
            prop_assert!(m.questions.len() <= body / 5);
            let records = m.answers.len()
                + m.authorities.len()
                + m.additionals.len()
                + usize::from(m.edns.is_some());
            prop_assert!(records <= body / 11);
        }
    }

    #[test]
    fn bit_flips_in_valid_messages_never_panic(
        msg in arb_message(),
        idx in any::<u16>(),
        val in any::<u8>(),
    ) {
        let mut bytes = msg.to_bytes().unwrap();
        let n = bytes.len();
        bytes[idx as usize % n] = val;
        // Corrupted headers, counts, lengths, pointers: all must fail
        // cleanly or parse to something bounded — never panic.
        let _ = Message::from_bytes(&bytes);
    }

    #[test]
    fn encode_decode_roundtrips_valid_messages(msg in arb_message()) {
        let bytes = msg.to_bytes().unwrap();
        prop_assert_eq!(Message::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn decode_encode_decode_is_a_fixpoint(
        data in proptest::collection::vec(any::<u8>(), 0..600)
    ) {
        // Anything the decoder accepts must reserialize to bytes it
        // accepts again, identically: the parsed form is self-consistent
        // even when the original bytes were adversarial.
        if let Ok(m) = Message::from_bytes(&data) {
            if let Ok(bytes) = m.to_bytes() {
                prop_assert_eq!(Message::from_bytes(&bytes).unwrap(), m);
            }
        }
    }
}
