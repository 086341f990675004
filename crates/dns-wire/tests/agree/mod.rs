//! The agreement between the two readings of a datagram, shared by the
//! suites that feed it packets.

use dns_wire::{Message, MessageView, WireResult};

/// Decodes `bytes` with [`Message::from_bytes`] and reads them with
/// [`MessageView::parse`], and panics unless the two agree: the view
/// accepts exactly what the decoder accepts and fails with the same
/// error, and on success reads the same header, questions, answer
/// section and ECS option. Returns the decoder's result.
pub fn decode_both(bytes: &[u8]) -> WireResult<Message> {
    let decoded = Message::from_bytes(bytes);
    let viewed = MessageView::parse(bytes);
    match (&decoded, &viewed) {
        (Ok(m), Ok(v)) => {
            assert_eq!(v.id(), m.id, "id of {bytes:02x?}");
            assert_eq!(v.flags(), m.flags, "flags of {bytes:02x?}");
            assert_eq!(v.opcode(), m.opcode, "opcode of {bytes:02x?}");
            assert_eq!(v.rcode(), m.rcode, "rcode of {bytes:02x?}");
            let first = m.question();
            assert_eq!(v.qtype(), first.map(|q| q.qtype), "qtype of {bytes:02x?}");
            if let Some(q) = first {
                assert!(v.question_is(&q.name), "qname of {bytes:02x?}");
                assert!(v.asks(q), "question of {bytes:02x?}");
            }
            assert_eq!(v.questions().collect::<Vec<_>>(), m.questions);
            assert_eq!(v.answers(), m.answers, "answers of {bytes:02x?}");
            assert_eq!(
                v.udp_payload_size(),
                m.edns.as_ref().map(|o| o.udp_payload_size),
                "OPT of {bytes:02x?}"
            );
            assert_eq!(v.ecs(), m.ecs(), "ECS of {bytes:02x?}");
        }
        (Err(d), Err(v)) => assert_eq!(v, d, "errors on {bytes:02x?}"),
        _ => panic!(
            "decoder {:?} but view {:?} on {bytes:02x?}",
            decoded.as_ref().err(),
            viewed.as_ref().err()
        ),
    }
    decoded
}
