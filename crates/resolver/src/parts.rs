//! What the engine reads of the datagrams it is given, and the answer it
//! writes from its parts.
//!
//! A client query is read for what its answer repeats ([`QueryHead`]),
//! whether it arrives decoded or through a [`MessageView`]. An upstream
//! reply is read in place, by both drivers and a flight's joiners alike,
//! for what the exchange machine and the cache use
//! ([`UpstreamReply::read`]). Every answer is written from those parts
//! ([`ClientAnswer`]): a miss's to the wire by either driver, a hit's
//! into a [`Message`], through the one encoder either way, so both give
//! the same bytes.

use dns_wire::wire::WireWriter;
use dns_wire::{
    EcsOption, Flags, Message, MessageParts, MessageView, OptRecord, QueryHead, Rcode, Record,
    WireResult,
};

/// What the exchange machine and the cache read of an upstream reply: the
/// rcode, the TC bit, the answer section and the ECS option. The one
/// input of [`crate::Resolver::step_exchange`], whichever driver reads
/// the reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpstreamReply {
    /// Response code.
    pub rcode: Rcode,
    /// Whether the reply was truncated.
    pub tc: bool,
    /// The answer section.
    pub answers: Vec<Record>,
    /// The first client-subnet option.
    pub ecs: Option<EcsOption>,
}

impl UpstreamReply {
    /// Reads a reply in place: of its sections only the answers are
    /// decoded.
    pub fn read(view: &MessageView<'_>) -> Self {
        UpstreamReply {
            rcode: view.rcode(),
            tc: view.flags().tc,
            answers: view.answers(),
            ecs: view.ecs().copied(),
        }
    }

    /// The smallest answer TTL, when there are answers.
    pub fn min_answer_ttl(&self) -> Option<u32> {
        self.answers.iter().map(|r| r.ttl).min()
    }
}

/// The answer a client gets, as its parts: the query's [`QueryHead`], an
/// rcode, the answer records and the ECS option echoed back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientAnswer {
    head: QueryHead,
    /// Response code.
    pub rcode: Rcode,
    /// The answer section.
    pub answers: Vec<Record>,
    /// The client's own option carrying the answer's scope, when both the
    /// query and the answer had one.
    echo: Option<EcsOption>,
}

impl ClientAnswer {
    /// The answer to `head` with `rcode` and `answers`, whose ECS option
    /// (if any) gives the scope the client's option is echoed with.
    pub(crate) fn new(
        head: QueryHead,
        rcode: Rcode,
        answers: Vec<Record>,
        answer_ecs: Option<EcsOption>,
    ) -> Self {
        let echo = match (head.ecs, answer_ecs) {
            (Some(client), Some(ecs)) => Some(client.with_scope(ecs.scope_prefix_len())),
            _ => None,
        };
        ClientAnswer {
            head,
            rcode,
            answers,
            echo,
        }
    }

    /// The OPT record the answer carries: the echo, in the record
    /// [`Message::set_ecs`] gives a message without one.
    fn edns(&self) -> Option<OptRecord> {
        self.echo.map(OptRecord::with_ecs)
    }

    fn flags(&self) -> Flags {
        Flags {
            qr: true,
            rd: self.head.rd,
            ..Flags::default()
        }
    }

    /// Writes the answer into `w`: the bytes `self.into_message()`
    /// writes, without building the message.
    pub fn write(&self, w: &mut WireWriter) -> WireResult<()> {
        let edns = self.edns();
        MessageParts {
            id: self.head.id,
            flags: self.flags(),
            opcode: self.head.opcode,
            rcode: self.rcode,
            questions: &self.head.questions,
            answers: &self.answers,
            authorities: &[],
            additionals: &[],
            edns: edns.as_ref(),
        }
        .write(w)
    }

    /// Writes the answer to the wire, in a buffer of its own.
    pub fn to_bytes(&self) -> WireResult<Vec<u8>> {
        let mut w = WireWriter::new();
        self.write(&mut w)?;
        w.finish()
    }

    /// Builds the answer as a message.
    pub fn into_message(self) -> Message {
        Message {
            id: self.head.id,
            flags: self.flags(),
            opcode: self.head.opcode,
            rcode: self.rcode,
            edns: self.edns(),
            questions: self.head.questions,
            answers: self.answers,
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::{Name, Question, Rdata};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::from_ascii(s).unwrap()
    }

    /// The answer written from its parts is the answer the parent built
    /// as a message: `response_to`, the rcode and answers set, the scope
    /// echoed with `set_ecs` — and both readings of the query agree.
    #[test]
    fn an_answer_from_its_parts_is_the_built_message_byte_for_byte() {
        let client = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 77), 32);
        let scoped = EcsOption::from_v4(Ipv4Addr::new(192, 0, 2, 0), 24).with_scope(20);
        let record = |n: &str| Record::new(name(n), 60, Rdata::A(Ipv4Addr::new(203, 0, 113, 9)));
        for (with_client_ecs, answer_ecs, rd, rcode) in [
            (true, Some(scoped), true, Rcode::NoError),
            (true, None, false, Rcode::NxDomain),
            (false, Some(scoped), true, Rcode::ServFail),
            (false, None, true, Rcode::NoError),
        ] {
            let mut query = Message::query(0x4242, Question::a(name("WWW.Parts.Example")));
            query.flags.rd = rd;
            query.set_edns(1232);
            if with_client_ecs {
                query.set_ecs(client);
            }
            let answers = vec![record("www.parts.example"), record("edge.parts.example")];
            let mut built = Message::response_to(&query);
            built.rcode = rcode;
            built.answers = answers.clone();
            if let (Some(c), Some(a)) = (query.ecs(), answer_ecs) {
                built.set_ecs(c.with_scope(a.scope_prefix_len()));
            }
            let wire = query.to_bytes().unwrap();
            let view = MessageView::parse(&wire).unwrap();
            let decoded = QueryHead::from(&query);
            assert_eq!(QueryHead::from(view), decoded);
            let parts = ClientAnswer::new(decoded, rcode, answers, answer_ecs);
            assert_eq!(parts.to_bytes().unwrap(), built.to_bytes().unwrap());
            assert_eq!(parts.into_message(), built);
        }
    }

    #[test]
    fn a_reply_read_in_place_is_the_decoded_reply_s_reading() {
        let query = Message::query(7, Question::a(name("a.parts.example")));
        let mut reply = Message::response_to(&query);
        reply.flags.tc = true;
        reply.rcode = Rcode::NxDomain;
        reply.answers.push(Record::new(
            name("a.parts.example"),
            30,
            Rdata::A(Ipv4Addr::new(198, 51, 100, 7)),
        ));
        reply.authorities.push(Record::new(
            name("parts.example"),
            300,
            Rdata::Ns(name("ns.parts.example")),
        ));
        reply.set_ecs(EcsOption::from_v4(Ipv4Addr::new(10, 1, 2, 0), 24).with_scope(16));
        let wire = reply.to_bytes().unwrap();
        let read = UpstreamReply::read(&MessageView::parse(&wire).unwrap());
        let decoded = UpstreamReply {
            rcode: reply.rcode,
            tc: reply.flags.tc,
            answers: reply.answers.clone(),
            ecs: reply.ecs().copied(),
        };
        assert_eq!(read, decoded);
        assert_eq!(read.min_answer_ttl(), Some(30));
    }
}
