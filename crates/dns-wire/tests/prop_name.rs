//! Properties of `Name`'s comparison traits over its flat wire form:
//! `Eq`, `Ord` and `Hash` agree with one another on every name the decoder
//! can produce (labels are arbitrary bytes on the wire, dots included),
//! and `Ord` is still the order of the canonical strings.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use dns_wire::wire::WireReader;
use dns_wire::Name;
use proptest::prelude::*;

/// A name as the decoder builds it from wire bytes. The label alphabet is
/// tiny — both cases of two letters, the dot, a dash, a control byte and a
/// high byte — and labels are short, so equal and nearly-equal pairs are
/// common instead of vanishingly rare.
fn arb_wire_name() -> impl Strategy<Value = Name> {
    let byte = prop_oneof![
        Just(b'a'),
        Just(b'A'),
        Just(b'b'),
        Just(b'B'),
        Just(b'.'),
        Just(b'-'),
        Just(0x01),
        Just(0xE9),
    ];
    let label = proptest::collection::vec(byte, 1..4);
    proptest::collection::vec(label, 0..4).prop_map(|labels| {
        let mut wire = Vec::new();
        for l in &labels {
            wire.push(l.len() as u8);
            wire.extend_from_slice(l);
        }
        wire.push(0);
        Name::read(&mut WireReader::new(&wire)).expect("well-formed by construction")
    })
}

fn arb_ascii_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(
        proptest::string::string_regex("[a-cA-C0-1_-]{1,3}").unwrap(),
        0..4,
    )
    .prop_map(|labels| Name::from_ascii(&labels.join(".")).unwrap())
}

fn hash_of(n: &Name) -> u64 {
    let mut h = DefaultHasher::new();
    n.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn equal_means_tied_and_hashed_alike(a in arb_wire_name(), b in arb_wire_name()) {
        prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
        // Equality is label-structured: same labels, ASCII case aside.
        let same_labels = a.label_count() == b.label_count()
            && a.labels().zip(b.labels()).all(|(x, y)| x.eq_ignore_ascii_case(y));
        prop_assert_eq!(a == b, same_labels);
    }

    #[test]
    fn order_is_the_order_of_the_canonical_strings(
        a in arb_ascii_name(),
        b in arb_ascii_name(),
    ) {
        prop_assert_eq!(a.cmp(&b), a.canonical().cmp(&b.canonical()));
    }

    #[test]
    fn order_of_wire_names_refines_the_canonical_order(
        a in arb_wire_name(),
        b in arb_wire_name(),
    ) {
        // Where the canonical strings differ they decide; where they tie
        // (a dot inside a label), the names still get a total order.
        match a.canonical().cmp(&b.canonical()) {
            Ordering::Equal => {}
            decided => prop_assert_eq!(a.cmp(&b), decided),
        }
    }
}

#[test]
fn a_dash_still_sorts_before_a_dot() {
    let n = |s: &str| Name::from_ascii(s).unwrap();
    let mut names = [n("a.com"), n("a-b.com"), n("A.b.com"), n("a.b.com.")];
    names.sort();
    assert_eq!(
        names,
        [n("a-b.com"), n("a.b.com"), n("a.b.com"), n("a.com")]
    );
}
