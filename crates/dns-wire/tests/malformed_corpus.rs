//! A corpus of handcrafted malformed packets: each must fail with a clean,
//! specific error — never a panic, never a bogus success. Every packet is
//! read both ways ([`agree::decode_both`]): the view must fail on it with
//! the decoder's error, or read what the decoder reads.

mod agree;

use agree::decode_both;
use dns_wire::{Message, WireError};

/// A minimal valid query for splicing: id 1, one A question for `a.b.`.
fn valid_query() -> Vec<u8> {
    let mut q = Message::query(
        1,
        dns_wire::Question::a(dns_wire::Name::from_ascii("a.b").unwrap()),
    );
    q.set_edns(4096);
    q.to_bytes().unwrap()
}

#[test]
fn corpus_of_truncations() {
    let bytes = valid_query();
    // Every strict prefix must fail cleanly (header alone is 12 bytes; an
    // empty message body with qdcount=1 is a count mismatch).
    for cut in 0..bytes.len() {
        let r = decode_both(&bytes[..cut]);
        assert!(r.is_err(), "prefix of {cut} bytes must not parse");
    }
    // The full message parses.
    assert!(decode_both(&bytes).is_ok());
}

#[test]
fn pointer_into_own_label() {
    // A name whose pointer targets the middle of a previous label: the
    // decoder will read whatever bytes are there as a length — it must
    // terminate with an error or a (bounded) name, never hang.
    let mut bytes = vec![
        0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, // header: qd=1
        7, b'e', b'x', b'a', b'm', b'p', b'l', b'e', 0, // "example."
    ];
    bytes.extend_from_slice(&[0, 1, 0, 1]); // qtype/qclass for q1
                                            // Splice a second "record-ish" name pointing into "example"'s bytes.
    bytes[5] = 2; // claim qdcount = 2
    bytes.extend_from_slice(&[0xC0, 14]); // pointer to offset 14 = 'x'
    bytes.extend_from_slice(&[0, 1, 0, 1]);
    // Either parses (if the garbage happens to form labels) or errors;
    // must not panic or loop.
    let _ = decode_both(&bytes);
}

#[test]
fn pointer_to_self_rejected() {
    let mut bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
    let at = bytes.len();
    bytes.extend_from_slice(&[0xC0, at as u8]); // points at itself
    bytes.extend_from_slice(&[0, 1, 0, 1]);
    let err = decode_both(&bytes).unwrap_err();
    assert!(
        matches!(err, WireError::BadCompressionPointer { .. }),
        "{err:?}"
    );
}

#[test]
fn oversized_label_length() {
    // Label length 0x3F (63) with only 3 bytes following.
    let mut bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
    bytes.extend_from_slice(&[0x3F, b'a', b'b', b'c']);
    let err = decode_both(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            WireError::Truncated { .. } | WireError::CountMismatch { .. }
        ),
        "{err:?}"
    );
}

#[test]
fn reserved_label_bits() {
    for reserved in [0x40u8, 0x80] {
        let mut bytes = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        bytes.extend_from_slice(&[reserved | 5, 1, 2, 3, 4, 5]);
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        let err = decode_both(&bytes).unwrap_err();
        assert!(
            matches!(err, WireError::ReservedLabelType(_)),
            "{reserved:#x}: {err:?}"
        );
    }
}

#[test]
fn rdlength_lies() {
    // An answer whose RDLENGTH says 2 but whose A rdata needs 4.
    let mut bytes = vec![0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0]; // qr=1, an=1
    bytes.extend_from_slice(&[1, b'x', 0]); // owner "x."
    bytes.extend_from_slice(&[0, 1, 0, 1]); // TYPE A, IN
    bytes.extend_from_slice(&[0, 0, 0, 60]); // TTL
    bytes.extend_from_slice(&[0, 2, 9, 9]); // RDLENGTH 2, two bytes
    let err = decode_both(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            WireError::Truncated { .. } | WireError::CountMismatch { .. }
        ),
        "{err:?}"
    );
}

#[test]
fn rdlength_overruns_message() {
    let mut bytes = vec![0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0];
    bytes.extend_from_slice(&[1, b'x', 0]);
    bytes.extend_from_slice(&[0, 1, 0, 1]);
    bytes.extend_from_slice(&[0, 0, 0, 60]);
    bytes.extend_from_slice(&[0xFF, 0xFF]); // RDLENGTH 65535, no body
    let err = decode_both(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            WireError::Truncated { .. } | WireError::CountMismatch { .. }
        ),
        "{err:?}"
    );
}

#[test]
fn ecs_option_with_family_zero() {
    // OPT with an ECS option body of family 0.
    let mut bytes = vec![0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]; // ar=1
    bytes.push(0); // root owner
    bytes.extend_from_slice(&[0, 41]); // OPT
    bytes.extend_from_slice(&[16, 0]); // payload 4096
    bytes.extend_from_slice(&[0, 0, 0, 0]); // ext-rcode/version/flags
    bytes.extend_from_slice(&[0, 8]); // RDLENGTH 8
    bytes.extend_from_slice(&[0, 8, 0, 4, 0, 0, 0, 0]); // opt 8 len 4, family 0
    let err = decode_both(&bytes).unwrap_err();
    assert!(matches!(err, WireError::BadEcs(_)), "{err:?}");
}

#[test]
fn ecs_option_with_trailing_bits() {
    // family 1, source 17, address octets 192.0.64: bit 18 is set, which
    // RFC 7871 §6 forbids (bits beyond the source prefix MUST be zero).
    let mut bytes = vec![0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]; // ar=1
    bytes.push(0); // root owner
    bytes.extend_from_slice(&[0, 41, 16, 0, 0, 0, 0, 0]); // OPT fixed fields
                                                          // RDATA: option code 8, option length 7, family 1, source 17, scope 0,
                                                          // three address octets (ceil(17/8) = 3).
    bytes.extend_from_slice(&[0, 11]); // RDLENGTH = 4 + 7
    bytes.extend_from_slice(&[0, 8, 0, 7]);
    bytes.extend_from_slice(&[0, 1, 17, 0, 192, 0, 64]);
    let err = decode_both(&bytes).unwrap_err();
    assert!(matches!(err, WireError::BadEcs(_)), "{err:?}");
}

#[test]
fn opt_in_answer_section_is_not_edns() {
    // An OPT-typed record in the ANSWER section parses as an unknown
    // record (only additional-section OPTs are EDNS).
    let mut bytes = vec![0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0];
    bytes.push(0); // root owner
    bytes.extend_from_slice(&[0, 41]); // TYPE OPT
    bytes.extend_from_slice(&[0, 1]); // class
    bytes.extend_from_slice(&[0, 0, 0, 0]); // ttl
    bytes.extend_from_slice(&[0, 0]); // rdlength 0
    let msg = decode_both(&bytes).unwrap();
    assert!(msg.edns.is_none());
    assert_eq!(msg.answers.len(), 1);
}

#[test]
fn deeply_nested_pointers_bounded() {
    // 200 chained pointers: must hit the chase limit, not recurse forever.
    let mut bytes = vec![0u8; 12];
    bytes[1] = 1; // id
    bytes[5] = 1; // qdcount
    let base = bytes.len();
    bytes.push(0); // root name at `base`
    for i in 0..200usize {
        let target = if i == 0 { base } else { base + 1 + 2 * (i - 1) };
        bytes.push(0xC0 | ((target >> 8) as u8));
        bytes.push((target & 0xFF) as u8);
    }
    // Question name = the last pointer in the chain.
    let qname_at = bytes.len() - 2;
    let mut msg = bytes[..12].to_vec();
    msg.extend_from_slice(&bytes[12..qname_at]);
    msg.extend_from_slice(&[0xC0 | ((qname_at >> 8) as u8), (qname_at & 0xFF) as u8]);
    msg.extend_from_slice(&[0, 1, 0, 1]);
    // Parses-or-errors; the chase bound guarantees termination.
    let _ = decode_both(&msg);
}

#[test]
fn empty_input_and_single_bytes() {
    assert!(decode_both(&[]).is_err());
    for b in [0u8, 0x20, 0xC0, 0xFF] {
        assert!(decode_both(&[b]).is_err());
    }
}

/// A message whose additional section is one bare OPT record (payload
/// 4096, no options) behind each of the given owner names.
fn with_opts(owners: &[&[u8]]) -> Vec<u8> {
    let mut bytes = vec![0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, owners.len() as u8];
    for owner in owners {
        bytes.extend_from_slice(owner);
        bytes.extend_from_slice(&[0, 41, 16, 0, 0, 0, 0, 0, 0, 0]); // OPT, no options
    }
    bytes
}

#[test]
fn second_opt_rejected() {
    assert!(decode_both(&with_opts(&[&[0]])).is_ok());
    let err = decode_both(&with_opts(&[&[0], &[0]])).unwrap_err();
    assert_eq!(err, WireError::DuplicateOpt);
}

#[test]
fn opt_owned_by_a_name_rejected() {
    let err = decode_both(&with_opts(&[&[1, b'x', 0]])).unwrap_err();
    assert_eq!(err, WireError::OptOwnerNotRoot);
}
