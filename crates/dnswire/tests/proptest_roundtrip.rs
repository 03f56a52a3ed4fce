//! Property tests: arbitrary well-formed DNS messages survive an
//! encode→decode round trip, and the decoder never panics on garbage.

use mcdn_dnswire::{
    Flags, Header, Message, Name, Opcode, Question, RData, Rcode, RecordType, ResourceRecord,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{1,12}(-[a-z0-9]{1,8})?").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 1..6)
        .prop_map(|labels| Name::parse(&labels.join(".")).expect("generated name is valid"))
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Ptr),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..4)
            .prop_map(RData::Txt),
    ]
}

fn arb_rr() -> impl Strategy<Value = ResourceRecord> {
    (arb_name(), 0u32..1_000_000, arb_rdata())
        .prop_map(|(name, ttl, rdata)| ResourceRecord::new(name, ttl, rdata))
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(arb_name(), 0..3),
        proptest::collection::vec(arb_rr(), 0..6),
        proptest::collection::vec(arb_rr(), 0..3),
        proptest::collection::vec(arb_rr(), 0..3),
    )
        .prop_map(
            |(id, qr, rd, qnames, answers, authorities, additionals)| Message {
                header: Header {
                    id,
                    flags: Flags {
                        qr,
                        rd,
                        ..Flags::default()
                    },
                    opcode: Opcode::Query,
                    rcode: Rcode::NoError,
                },
                questions: qnames
                    .into_iter()
                    .map(|n| Question::new(n, RecordType::A))
                    .collect(),
                answers,
                authorities,
                additionals,
            },
        )
}

proptest! {
    #[test]
    fn message_roundtrip(msg in arb_message()) {
        let bytes = msg.encode().expect("well-formed message encodes");
        let back = Message::decode(&bytes).expect("encoded message decodes");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&bytes); // must not panic
    }

    #[test]
    fn name_roundtrip(name in arb_name()) {
        let mut buf = Vec::new();
        name.encode_uncompressed(&mut buf);
        let (back, end) = Name::decode(&buf, 0).expect("decodes");
        prop_assert_eq!(&back, &name);
        prop_assert_eq!(end, buf.len());
        // String parse round trip too.
        prop_assert_eq!(Name::parse(&name.to_string()).unwrap(), name);
    }

    #[test]
    fn decoding_truncated_valid_message_errors_not_panics(
        msg in arb_message(),
        cut in 0usize..64,
    ) {
        let bytes = msg.encode().unwrap();
        if cut < bytes.len() {
            let _ = Message::decode(&bytes[..bytes.len() - cut - 1]);
        }
    }
}
