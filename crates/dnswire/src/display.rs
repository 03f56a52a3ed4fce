//! `dig`-style presentation of DNS messages.
//!
//! Measurement papers quote resolver output in the familiar `dig` layout;
//! the examples in this workspace do the same. This module renders a
//! [`Message`] the way `dig +noall +answer`-ish tooling would, so simulated
//! resolutions can be eyeballed against the paper's listings.

use crate::message::{Message, Rcode};

/// Renders a message in a `dig`-like layout: status line, question section,
/// then each record section.
pub fn dig_format(msg: &Message) -> String {
    let status = match msg.header.rcode {
        Rcode::NoError => "NOERROR",
        Rcode::FormErr => "FORMERR",
        Rcode::ServFail => "SERVFAIL",
        Rcode::NxDomain => "NXDOMAIN",
        Rcode::NotImp => "NOTIMP",
        Rcode::Refused => "REFUSED",
        Rcode::Other(_) => "RESERVED",
    };
    let mut flags = String::new();
    if msg.header.flags.qr {
        flags.push_str(" qr");
    }
    if msg.header.flags.aa {
        flags.push_str(" aa");
    }
    if msg.header.flags.rd {
        flags.push_str(" rd");
    }
    if msg.header.flags.ra {
        flags.push_str(" ra");
    }
    let mut out = format!(
        ";; ->>HEADER<<- opcode: QUERY, status: {status}, id: {}\n;; flags:{flags}; \
QUERY: {}, ANSWER: {}, AUTHORITY: {}, ADDITIONAL: {}\n",
        msg.header.id,
        msg.questions.len(),
        msg.answers.len(),
        msg.authorities.len(),
        msg.additionals.len()
    );
    if !msg.questions.is_empty() {
        out.push_str("\n;; QUESTION SECTION:\n");
        for q in &msg.questions {
            out.push_str(&format!(";{}.\t\tIN\t{}\n", q.name, q.qtype));
        }
    }
    for (label, rrs) in [
        ("ANSWER", &msg.answers),
        ("AUTHORITY", &msg.authorities),
        ("ADDITIONAL", &msg.additionals),
    ] {
        if !rrs.is_empty() {
            out.push_str(&format!("\n;; {label} SECTION:\n"));
            for rr in rrs {
                out.push_str(&format!("{rr}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;
    use crate::rr::{RData, RecordType, ResourceRecord};
    use std::net::Ipv4Addr;

    #[test]
    fn renders_the_familiar_layout() {
        let q = Message::query(
            0x1a2b,
            Name::parse("appldnld.apple.com").unwrap(),
            RecordType::A,
        );
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.answers.push(ResourceRecord::new(
            Name::parse("appldnld.apple.com").unwrap(),
            21600,
            RData::Cname(Name::parse("appldnld.apple.com.akadns.net").unwrap()),
        ));
        resp.answers.push(ResourceRecord::new(
            Name::parse("a.gslb.applimg.com").unwrap(),
            20,
            RData::A(Ipv4Addr::new(17, 253, 37, 16)),
        ));
        let text = dig_format(&resp);
        assert!(text.contains("status: NOERROR, id: 6699"));
        assert!(text.contains(";; QUESTION SECTION:"));
        assert!(text.contains(";appldnld.apple.com.\t\tIN\tA"));
        assert!(text.contains(";; ANSWER SECTION:"));
        assert!(text.contains("appldnld.apple.com 21600 IN CNAME"));
        assert!(text.contains("a.gslb.applimg.com 20 IN A 17.253.37.16"));
        assert!(
            !text.contains("AUTHORITY SECTION"),
            "empty sections are omitted"
        );
    }

    #[test]
    fn nxdomain_status_shown() {
        let q = Message::query(1, Name::parse("nope.example").unwrap(), RecordType::A);
        let resp = Message::response_to(&q, Rcode::NxDomain);
        assert!(dig_format(&resp).contains("status: NXDOMAIN"));
    }
}
