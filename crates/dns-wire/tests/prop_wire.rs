//! Fuzz-style properties for the hardened wire decoder: arbitrary bytes
//! never panic, parsed structure never exceeds what the input bytes could
//! encode (the observable face of the bounded-preallocation guard), and
//! decode ∘ encode is a fixpoint for everything that parses.
//!
//! The validating view ([`dns_wire::MessageView`]) is held to the
//! decoder here too: over generated messages of every shape and their bit
//! flips, truncations and trailing bytes, it accepts exactly what
//! `Message::from_bytes` accepts and reads the same header, first
//! question and ECS option ([`agree::decode_both`]).
//!
//! Names are held to their wire form at every length a name can have
//! ([`names_of_every_length_round_trip_and_compare_alike`]): a name's
//! storage may depend on its length, its behaviour may not.
//!
//! CI runs this file with `PROPTEST_CASES=1024` for a deeper sweep; the
//! in-tree default keeps `cargo test` fast.

mod agree;

use agree::decode_both;
use dns_wire::wire::{WireReader, WireWriter};
use dns_wire::{EcsOption, EdnsOption, Message, Name, Question, Rdata, Record, SoaData};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
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

/// One of eighteen names under two shared suffixes, in either case, so
/// that most names in a message compress against an earlier one.
fn pool_name() -> impl Strategy<Value = Name> {
    (0u8..6, 0u8..3, any::<bool>()).prop_map(|(host, zone, upper)| {
        let s = format!("host{host}.zone{zone}.example.net");
        Name::from_ascii(&if upper { s.to_uppercase() } else { s }).unwrap()
    })
}

fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), len)
}

/// Every RDATA kind, TXT strings past the 255-byte limit included.
fn arb_rdata() -> impl Strategy<Value = Rdata> {
    prop_oneof![
        any::<u32>().prop_map(|a| Rdata::A(Ipv4Addr::from(a))),
        any::<u128>().prop_map(|a| Rdata::Aaaa(Ipv6Addr::from(a))),
        pool_name().prop_map(Rdata::Cname),
        pool_name().prop_map(Rdata::Ns),
        proptest::collection::vec(bytes(0..300), 0..4).prop_map(Rdata::Txt),
        (pool_name(), pool_name(), any::<u32>()).prop_map(|(mname, rname, serial)| {
            Rdata::Soa(SoaData {
                mname,
                rname,
                serial,
                refresh: 7200,
                retry: 900,
                expire: 1209600,
                minimum: 300,
            })
        }),
        (1000u16..2000, bytes(0..200)).prop_map(|(rtype, data)| Rdata::Unknown { rtype, data }),
    ]
}

/// An OPT option: ECS of either family, or an opaque `Other`.
fn arb_edns_option() -> impl Strategy<Value = EdnsOption> {
    prop_oneof![
        (any::<u32>(), 0u8..=32).prop_map(|(a, len)| {
            EdnsOption::ClientSubnet(EcsOption::from_v4(Ipv4Addr::from(a), len))
        }),
        (any::<u128>(), 0u8..=128).prop_map(|(a, len)| {
            EdnsOption::ClientSubnet(EcsOption::from_v6(Ipv6Addr::from(a), len))
        }),
        (any::<u16>(), bytes(0..40)).prop_map(|(code, data)| EdnsOption::Other { code, data }),
    ]
}

/// A message in all four sections with compressible names, every RDATA
/// kind, and an optional OPT carrying any options.
fn arb_full_message() -> impl Strategy<Value = Message> {
    let section = || {
        proptest::collection::vec(
            (pool_name(), arb_rdata()).prop_map(|(n, rdata)| Record::new(n, 60, rdata)),
            0..6,
        )
    };
    (
        pool_name(),
        (section(), section(), section()),
        proptest::option::of(proptest::collection::vec(arb_edns_option(), 0..4)),
    )
        .prop_map(|(qname, (answers, authorities, additionals), options)| {
            let mut m = Message::query(7, Question::a(qname));
            m.flags.qr = true;
            m.answers = answers;
            m.authorities = authorities;
            m.additionals = additionals;
            if let Some(options) = options {
                m.set_edns(1232).options = options.into();
            }
            m
        })
}

/// The answer `Message::fits_in` must give: encode, then measure.
fn encodes_within(m: &Message, limit: usize) -> bool {
    m.to_bytes().is_ok_and(|b| b.len() <= limit)
}

#[test]
fn a_message_that_fits_only_compressed_fits() {
    let owner = Name::from_ascii("www.a-rather-long-owner-name.example.com").unwrap();
    let mut m = Message::query(1, Question::a(owner.clone()));
    m.flags.qr = true;
    m.answers = (0..30u8)
        .map(|i| Record::new(owner.clone(), 60, Rdata::A(Ipv4Addr::new(192, 0, 2, i))))
        .collect();
    let compressed = m.to_bytes().unwrap().len();
    let mut plain = dns_wire::wire::WireWriter::without_compression();
    m.write(&mut plain).unwrap();
    let uncompressed = plain.finish().unwrap().len();
    let limit = 600;
    assert!(
        compressed <= limit && uncompressed > limit,
        "{compressed} / {uncompressed}"
    );
    assert!(m.fits_in(limit));
    assert!(m.fits_in(compressed) && !m.fits_in(compressed - 1));
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

/// Messages that record from one compression target to far past the
/// table's [`dns_wire::wire::MAX_COMPRESSION_TARGETS`], pinned as bytes:
/// where the encoder keeps its targets may change, which suffix a name
/// compresses against may not. Owners are distinct, so each one records
/// a target or two; each CNAME target points back at an earlier owner
/// in another case, or at a name no owner has.
#[test]
fn messages_past_every_table_boundary_encode_to_pinned_bytes() {
    let n = |s: String| Name::from_ascii(&s).unwrap();
    let mut h = FNV_OFFSET;
    for records in (0..=80).chain([100, 130, 200]) {
        let mut m = Message::query(records as u16, Question::a(n("Q.Example".into())));
        m.flags.qr = true;
        m.answers = (0..records)
            .map(|i| {
                let owner = n(format!("h{i}.z{}.example", i % 5));
                let target = if i % 3 == 0 {
                    n(format!("H{}.Z{}.EXAMPLE", i / 2, (i / 2) % 5))
                } else {
                    n(format!("edge{}.cdn{}.example.net", i % 7, i % 2))
                };
                Record::new(owner, 60, Rdata::Cname(target))
            })
            .collect();
        let bytes = m.to_bytes().unwrap();
        assert_eq!(Message::from_bytes(&bytes).unwrap(), m);
        h = fnv1a(h, &(bytes.len() as u16).to_be_bytes());
        h = fnv1a(h, &bytes);
    }
    assert_eq!(h, 0xdb53_f750_3f3d_6108, "digest {h:#018x}");
}

/// A presentation-form name whose wire form is `wire_len` bytes, root
/// octet included (1 is the root, 3 the shortest other name, 255 the
/// longest legal one). Label
/// lengths come from `cuts` (1–63 each, the last one takes what is
/// left) and the case of each letter from the bits of `case`.
fn name_of_wire_len(wire_len: usize, cuts: &[u8], case: u64) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    let mut labels = Vec::new();
    let mut left = wire_len - 1;
    let mut at = 0usize;
    while left > 0 {
        let mut len = if left <= 1 + 63 {
            left - 1
        } else {
            1 + cuts[labels.len() % cuts.len()] as usize % 63
        };
        // A lone byte cannot be a label: leave two or nothing.
        if left - (1 + len) == 1 {
            len -= 1;
        }
        let label: String = (0..len)
            .map(|i| {
                let b = ALPHABET[(at + i * 7) % ALPHABET.len()];
                let upper = case.rotate_left(((at + i) % 64) as u32) & 1 == 1;
                (if upper { b.to_ascii_uppercase() } else { b }) as char
            })
            .collect();
        at += len;
        left -= 1 + len;
        labels.push(label);
    }
    labels.join(".")
}

fn hash_of(n: &Name) -> u64 {
    let mut h = DefaultHasher::new();
    n.hash(&mut h);
    h.finish()
}

/// Every suffix of `s` that starts on a label boundary, longest first,
/// the root (`""`) last.
fn suffixes(s: &str) -> Vec<&str> {
    let mut out = vec![s];
    let mut rest = s;
    while let Some((_, tail)) = rest.split_once('.') {
        out.push(tail);
        rest = tail;
    }
    if !s.is_empty() {
        out.push("");
    }
    out
}

/// Inverts the case of every letter.
fn swap_case(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_uppercase() {
                c.to_ascii_lowercase()
            } else {
                c.to_ascii_uppercase()
            }
        })
        .collect()
}

/// What a datagram may suffer on its way: nothing, one byte replaced,
/// a cut, or bytes appended.
#[derive(Debug, Clone)]
enum Damage {
    None,
    Flip(u16, u8),
    Cut(u16),
    Trail(Vec<u8>),
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        (any::<u16>(), any::<u8>()).prop_map(|(at, val)| Damage::Flip(at, val)),
        any::<u16>().prop_map(Damage::Cut),
        bytes(1..24).prop_map(Damage::Trail),
    ]
}

impl Damage {
    fn apply(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        let n = bytes.len().max(1);
        match self {
            Damage::None => {}
            Damage::Flip(at, val) => {
                if let Some(b) = bytes.get_mut(*at as usize % n) {
                    *b = *val;
                }
            }
            Damage::Cut(at) => bytes.truncate(*at as usize % n),
            Damage::Trail(tail) => bytes.extend_from_slice(tail),
        }
        bytes
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// At every wire length a name can have, in mixed case: a
    /// name parses, writes and reads back as itself (alone, and after a
    /// name it compresses against), prints in lowercase, and every
    /// ancestor reached through `parent()` and `second_level_domain()`
    /// is `==`, hashes alike and orders alike with the same name built
    /// directly in the opposite case.
    #[test]
    fn names_of_every_length_round_trip_and_compare_alike(
        cuts in proptest::collection::vec(any::<u8>(), 1..8),
        case in any::<u64>(),
    ) {
        for wire_len in std::iter::once(1).chain(3..=255usize) {
            let s = name_of_wire_len(wire_len, &cuts, case);
            let name = Name::from_ascii(&s).unwrap();
            prop_assert_eq!(name.wire_len(), wire_len);
            prop_assert_eq!(name.to_string(), format!("{}.", s.to_ascii_lowercase()));

            let mut plain = WireWriter::without_compression();
            name.write(&mut plain).unwrap();
            let bytes = plain.finish().unwrap();
            prop_assert_eq!(bytes.len(), wire_len);
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(&Name::read(&mut r).unwrap(), &name);
            prop_assert!(r.is_empty());

            // Behind its own parent, written first, the name compresses
            // to its first label and a pointer — and reads back whole.
            let parent = name.parent();
            let mut w = WireWriter::new();
            parent.write(&mut w).unwrap();
            name.write(&mut w).unwrap();
            let bytes = w.finish().unwrap();
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(&Name::read(&mut r).unwrap(), &parent);
            let read = Name::read(&mut r).unwrap();
            prop_assert!(r.is_empty());
            prop_assert_eq!(read.to_string(), name.to_string());
            prop_assert_eq!(format!("{read:?}"), format!("{name:?}"));

            let mut reached = name.clone();
            for suffix in suffixes(&s) {
                let direct = Name::from_ascii(&swap_case(suffix)).unwrap();
                prop_assert_eq!(&reached, &direct);
                prop_assert_eq!(hash_of(&reached), hash_of(&direct));
                prop_assert_eq!(reached.cmp(&direct), Ordering::Equal);
                prop_assert_eq!(reached.wire_len(), direct.wire_len());
                for other in [&name, &parent, &Name::root()] {
                    prop_assert_eq!(reached.cmp(other), direct.cmp(other));
                    prop_assert_eq!(reached == *other, direct == *other);
                }
                reached = reached.parent();
            }
            prop_assert!(reached.is_root());

            let sld = suffixes(&s).into_iter().rev().nth(2);
            match (name.second_level_domain(), sld) {
                (Some(reached), Some(suffix)) => {
                    let direct = Name::from_ascii(&swap_case(suffix)).unwrap();
                    prop_assert_eq!(&reached, &direct);
                    prop_assert_eq!(hash_of(&reached), hash_of(&direct));
                    prop_assert_eq!(reached.cmp(&direct), Ordering::Equal);
                    prop_assert_eq!(reached.cmp(&name), direct.cmp(&name));
                }
                (None, None) => {}
                (reached, suffix) => {
                    prop_assert!(false, "{:?} for {:?}", reached, suffix);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_view_accepts_what_the_decoder_accepts(
        msg in prop_oneof![arb_full_message(), arb_message()],
        damage in arb_damage(),
    ) {
        // Unencodable messages (a TXT string past 255 bytes) have no
        // bytes to read.
        if let Ok(bytes) = msg.to_bytes() {
            decode_both(&damage.apply(bytes)).ok();
        }
    }

    #[test]
    fn the_view_agrees_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        decode_both(&data).ok();
    }

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
    fn fits_in_is_encode_and_measure(msg in arb_full_message(), limit in 0usize..4096) {
        prop_assert_eq!(msg.fits_in(limit), encodes_within(&msg, limit));
        // And at the encoded length itself, where one byte decides.
        if let Ok(bytes) = msg.to_bytes() {
            let len = bytes.len();
            prop_assert!(msg.fits_in(len) && msg.fits_in(len + 1));
            prop_assert!(len == 0 || !msg.fits_in(len - 1));
        } else {
            prop_assert!(!msg.fits_in(usize::MAX));
        }
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
