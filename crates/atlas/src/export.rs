//! RIPE-Atlas-style result export.
//!
//! The paper's DNS data is public as RIPE Atlas measurement **#9299652**
//! ("Apple iOS 11 Release Day DNS Resolution Measurements of
//! appldnld.apple.com"). This module serializes simulated probe results in
//! the same JSON-lines shape Atlas publishes (`msm_id`, `prb_id`,
//! `timestamp`, a `resultset` with parsed answers), so downstream tooling
//! written against the real dataset can be pointed at simulated output.
//!
//! The writer emits a canonical subset of the Atlas schema; the reader
//! parses exactly that subset back (it is a round-trip format, not a
//! general JSON parser).

use mcdn_dnssim::ResolutionTrace;
use mcdn_dnswire::RData;
use mcdn_geo::SimTime;

/// The paper's public measurement id.
pub const PAPER_MSM_ID: u64 = 9_299_652;

/// One exported result line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtlasDnsResult {
    /// Measurement id.
    pub msm_id: u64,
    /// Probe id.
    pub prb_id: u32,
    /// Unix timestamp of the resolution.
    pub timestamp: u64,
    /// Parsed answers as `(type, name, rdata)` triples.
    pub answers: Vec<(String, String, String)>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl AtlasDnsResult {
    /// Builds a result from a probe's resolution trace.
    pub fn from_trace(
        msm_id: u64,
        prb_id: u32,
        t: SimTime,
        trace: &ResolutionTrace,
    ) -> AtlasDnsResult {
        let mut answers = Vec::new();
        for step in &trace.steps {
            for rr in &step.records {
                let (ty, rdata) = match &rr.rdata {
                    RData::A(a) => ("A", a.to_string()),
                    RData::Cname(c) => ("CNAME", c.to_string()),
                    RData::Aaaa(a) => ("AAAA", a.to_string()),
                    RData::Ns(n) => ("NS", n.to_string()),
                    RData::Ptr(p) => ("PTR", p.to_string()),
                    _ => continue,
                };
                answers.push((ty.to_string(), rr.name.to_string(), rdata));
            }
        }
        AtlasDnsResult {
            msm_id,
            prb_id,
            timestamp: t.as_secs(),
            answers,
        }
    }

    /// Serializes to one Atlas-style JSON line.
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"fw\":4790,\"msm_id\":{},\"prb_id\":{},\"timestamp\":{},\"type\":\"dns\",\"resultset\":[{{\"result\":{{\"ANCOUNT\":{},\"answers\":[",
            self.msm_id,
            self.prb_id,
            self.timestamp,
            self.answers.len()
        );
        for (i, (ty, name, rdata)) in self.answers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"TYPE\":\"{}\",\"NAME\":\"{}\",\"RDATA\":\"{}\"}}",
                escape(ty),
                escape(name),
                escape(rdata)
            ));
        }
        s.push_str("]}}]}");
        s
    }

    /// Parses a line produced by [`AtlasDnsResult::to_json_line`].
    pub fn from_json_line(line: &str) -> Option<AtlasDnsResult> {
        fn field_u64(line: &str, key: &str) -> Option<u64> {
            let pat = format!("\"{key}\":");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let end = rest.find([',', '}'])?;
            rest[..end].parse().ok()
        }
        fn field_str<'a>(chunk: &'a str, key: &str) -> Option<&'a str> {
            let pat = format!("\"{key}\":\"");
            let start = chunk.find(&pat)? + pat.len();
            let rest = &chunk[start..];
            // Our canonical writer never emits escaped quotes in these
            // fields (DNS names and addresses), so a plain find suffices.
            let end = rest.find('"')?;
            Some(&rest[..end])
        }
        let msm_id = field_u64(line, "msm_id")?;
        let prb_id = field_u64(line, "prb_id")? as u32;
        let timestamp = field_u64(line, "timestamp")?;
        let answers_start = line.find("\"answers\":[")? + "\"answers\":[".len();
        let answers_end = line[answers_start..].find(']')? + answers_start;
        let body = &line[answers_start..answers_end];
        let mut answers = Vec::new();
        for chunk in body.split("},{") {
            if chunk.trim().is_empty() {
                continue;
            }
            let ty = field_str(chunk, "TYPE")?;
            let name = field_str(chunk, "NAME")?;
            let rdata = field_str(chunk, "RDATA")?;
            answers.push((ty.to_string(), name.to_string(), rdata.to_string()));
        }
        Some(AtlasDnsResult {
            msm_id,
            prb_id,
            timestamp,
            answers,
        })
    }
}

/// Serializes many results as JSON lines.
pub fn to_jsonl(results: &[AtlasDnsResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_dnssim::TraceStep;
    use mcdn_dnswire::{Name, RecordType, ResourceRecord};
    use std::net::Ipv4Addr;

    fn trace() -> ResolutionTrace {
        let n = |s: &str| Name::parse(s).unwrap();
        ResolutionTrace {
            steps: vec![TraceStep {
                qname: n("appldnld.apple.com"),
                qtype: RecordType::A,
                records: vec![
                    ResourceRecord::new(
                        n("appldnld.apple.com"),
                        21600,
                        RData::Cname(n("appldnld.apple.com.akadns.net")),
                    ),
                    ResourceRecord::new(
                        n("a.gslb.applimg.com"),
                        20,
                        RData::A(Ipv4Addr::new(17, 253, 37, 16)),
                    ),
                ],
                from_cache: false,
                zone: None,
            }],
        }
    }

    #[test]
    fn json_line_roundtrip() {
        let r = AtlasDnsResult::from_trace(
            PAPER_MSM_ID,
            4711,
            SimTime::from_ymd_hms(2017, 9, 19, 18, 0, 0),
            &trace(),
        );
        let line = r.to_json_line();
        assert!(line.starts_with("{\"fw\":4790,\"msm_id\":9299652"));
        assert!(line.contains("\"TYPE\":\"CNAME\""));
        let back = AtlasDnsResult::from_json_line(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn jsonl_has_one_line_per_result() {
        let r = AtlasDnsResult::from_trace(PAPER_MSM_ID, 1, SimTime(0), &trace());
        let out = to_jsonl(&[r.clone(), r]);
        assert_eq!(out.lines().count(), 2);
        for line in out.lines() {
            assert!(AtlasDnsResult::from_json_line(line).is_some());
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(AtlasDnsResult::from_json_line("not json").is_none());
        assert!(AtlasDnsResult::from_json_line("{\"msm_id\":1}").is_none());
    }

    #[test]
    fn empty_answer_set_roundtrips() {
        let r = AtlasDnsResult {
            msm_id: 1,
            prb_id: 2,
            timestamp: 3,
            answers: Vec::new(),
        };
        let back = AtlasDnsResult::from_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back, r);
    }
}

/// One exported traceroute line (Atlas `type:"traceroute"` subset).
#[derive(Debug, Clone, PartialEq)]
pub struct AtlasTracerouteResult {
    /// Measurement id.
    pub msm_id: u64,
    /// Probe id.
    pub prb_id: u32,
    /// Unix timestamp.
    pub timestamp: u64,
    /// Destination address.
    pub dst_addr: String,
    /// Hops as `(hop_number, address, rtt_ms)`.
    pub hops: Vec<(u8, String, f64)>,
}

impl AtlasTracerouteResult {
    /// Builds a result from a simulated traceroute.
    pub fn from_traceroute(
        msm_id: u64,
        prb_id: u32,
        t: mcdn_geo::SimTime,
        tr: &mcdn_netsim::Traceroute,
    ) -> AtlasTracerouteResult {
        AtlasTracerouteResult {
            msm_id,
            prb_id,
            timestamp: t.as_secs(),
            dst_addr: tr.dst.to_string(),
            hops: tr
                .hops
                .iter()
                .enumerate()
                .map(|(i, h)| ((i + 1) as u8, h.addr.to_string(), h.rtt_ms))
                .collect(),
        }
    }

    /// Serializes to one Atlas-style JSON line.
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"fw\":4790,\"msm_id\":{},\"prb_id\":{},\"timestamp\":{},\"type\":\"traceroute\",\"dst_addr\":\"{}\",\"result\":[",
            self.msm_id, self.prb_id, self.timestamp, self.dst_addr
        );
        for (i, (hop, addr, rtt)) in self.hops.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"hop\":{hop},\"result\":[{{\"from\":\"{addr}\",\"rtt\":{rtt:.3}}}]}}"
            ));
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod traceroute_export_tests {
    use super::*;
    use mcdn_netsim::{Hop, Traceroute};

    #[test]
    fn traceroute_json_shape() {
        let tr = Traceroute {
            src: mcdn_netsim::AsId(3320),
            dst: "17.253.37.16".parse().unwrap(),
            hops: vec![
                Hop {
                    asn: mcdn_netsim::AsId(3320),
                    addr: "84.17.0.1".parse().unwrap(),
                    rtt_ms: 0.5,
                },
                Hop {
                    asn: mcdn_netsim::AsId(714),
                    addr: "17.253.37.16".parse().unwrap(),
                    rtt_ms: 7.25,
                },
            ],
            reached: true,
        };
        let r = AtlasTracerouteResult::from_traceroute(9_299_653, 42, mcdn_geo::SimTime(1000), &tr);
        let line = r.to_json_line();
        assert!(line.contains("\"type\":\"traceroute\""));
        assert!(line.contains("\"dst_addr\":\"17.253.37.16\""));
        assert!(line.contains("\"hop\":1"));
        assert!(line.contains("\"rtt\":7.250"));
        assert_eq!(r.hops.len(), 2);
    }
}
