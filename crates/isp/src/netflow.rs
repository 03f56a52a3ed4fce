//! NetFlow v5: wire format and packet sampling.
//!
//! The ISP in the paper collected ~300 billion Netflow records. Routers
//! export *sampled* flow data (commonly 1-in-1000 packets), which is why the
//! paper scales Netflow volumes by SNMP byte counters before estimating
//! traffic. This module provides both halves of that reality: the v5 binary
//! format (so the pipeline runs over real records) and a deterministic
//! [`Sampler`] that injects exactly the kind of error SNMP scaling corrects.

use mcdn_geo::SimTime;
use mcdn_netsim::AsId;
use std::net::Ipv4Addr;

/// NetFlow v5 header length in bytes.
pub const V5_HEADER_LEN: usize = 24;
/// NetFlow v5 record length in bytes.
pub const V5_RECORD_LEN: usize = 48;
/// Maximum records per export packet (v5 limit is 30).
pub const V5_MAX_RECORDS: usize = 30;

/// One NetFlow v5 flow record (the fields the analysis uses; the remaining
/// wire fields are encoded as zero and ignored on decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// Flow source address (the CDN server for download traffic).
    pub src: Ipv4Addr,
    /// Flow destination address (the subscriber).
    pub dst: Ipv4Addr,
    /// Ingress interface index — identifies the peering link, and thereby
    /// the handover AS.
    pub input_if: u16,
    /// Sampled packet count.
    pub packets: u32,
    /// Sampled byte count.
    pub bytes: u32,
    /// Source AS from the router's BGP view.
    pub src_as: u16,
    /// Destination AS.
    pub dst_as: u16,
}

/// A NetFlow v5 export packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportPacket {
    /// Export timestamp (unix seconds).
    pub unix_secs: u32,
    /// Flow sequence number of the first record.
    pub flow_sequence: u32,
    /// Sampling interval (1-in-N); encoded in the v5 header's low 14 bits.
    pub sampling_interval: u16,
    /// The records (at most [`V5_MAX_RECORDS`]).
    pub records: Vec<FlowRecord>,
}

/// Errors from the NetFlow codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetflowError {
    /// Input shorter than the promised record count.
    Truncated,
    /// Not a v5 packet.
    BadVersion,
    /// More records than the v5 maximum.
    TooManyRecords,
}

impl core::fmt::Display for NetflowError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetflowError::Truncated => f.write_str("netflow packet truncated"),
            NetflowError::BadVersion => f.write_str("not a NetFlow v5 packet"),
            NetflowError::TooManyRecords => f.write_str("more than 30 records"),
        }
    }
}

impl std::error::Error for NetflowError {}

impl ExportPacket {
    /// Encodes to the v5 binary layout.
    pub fn encode(&self) -> Result<Vec<u8>, NetflowError> {
        if self.records.len() > V5_MAX_RECORDS {
            return Err(NetflowError::TooManyRecords);
        }
        let mut out = Vec::with_capacity(V5_HEADER_LEN + self.records.len() * V5_RECORD_LEN);
        out.extend_from_slice(&5u16.to_be_bytes()); // version
        out.extend_from_slice(&(self.records.len() as u16).to_be_bytes());
        out.extend_from_slice(&0u32.to_be_bytes()); // sys_uptime
        out.extend_from_slice(&self.unix_secs.to_be_bytes());
        out.extend_from_slice(&0u32.to_be_bytes()); // unix_nsecs
        out.extend_from_slice(&self.flow_sequence.to_be_bytes());
        out.push(0); // engine_type
        out.push(0); // engine_id
                     // sampling mode (2 bits) = 01 (packet interval) + interval (14 bits).
        let sampling = 0x4000u16 | (self.sampling_interval & 0x3FFF);
        out.extend_from_slice(&sampling.to_be_bytes());
        for r in &self.records {
            out.extend_from_slice(&r.src.octets());
            out.extend_from_slice(&r.dst.octets());
            out.extend_from_slice(&[0; 4]); // nexthop
            out.extend_from_slice(&r.input_if.to_be_bytes());
            out.extend_from_slice(&0u16.to_be_bytes()); // output if
            out.extend_from_slice(&r.packets.to_be_bytes());
            out.extend_from_slice(&r.bytes.to_be_bytes());
            out.extend_from_slice(&[0; 8]); // first/last uptime
            out.extend_from_slice(&[0; 4]); // src/dst port
            out.push(0); // pad1
            out.push(0); // tcp flags
            out.push(6); // proto TCP
            out.push(0); // tos
            out.extend_from_slice(&r.src_as.to_be_bytes());
            out.extend_from_slice(&r.dst_as.to_be_bytes());
            out.extend_from_slice(&[0; 4]); // masks + pad2
        }
        Ok(out)
    }

    /// Decodes a v5 binary packet.
    pub fn decode(buf: &[u8]) -> Result<ExportPacket, NetflowError> {
        if buf.len() < V5_HEADER_LEN {
            return Err(NetflowError::Truncated);
        }
        let version = u16::from_be_bytes([buf[0], buf[1]]);
        if version != 5 {
            return Err(NetflowError::BadVersion);
        }
        let count = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if count > V5_MAX_RECORDS {
            return Err(NetflowError::TooManyRecords);
        }
        if buf.len() < V5_HEADER_LEN + count * V5_RECORD_LEN {
            return Err(NetflowError::Truncated);
        }
        let unix_secs = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]);
        let flow_sequence = u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]);
        let sampling_interval = u16::from_be_bytes([buf[22], buf[23]]) & 0x3FFF;
        let mut records = Vec::with_capacity(count);
        for i in 0..count {
            let o = V5_HEADER_LEN + i * V5_RECORD_LEN;
            let r = &buf[o..o + V5_RECORD_LEN];
            records.push(FlowRecord {
                src: Ipv4Addr::new(r[0], r[1], r[2], r[3]),
                dst: Ipv4Addr::new(r[4], r[5], r[6], r[7]),
                input_if: u16::from_be_bytes([r[12], r[13]]),
                packets: u32::from_be_bytes([r[16], r[17], r[18], r[19]]),
                bytes: u32::from_be_bytes([r[20], r[21], r[22], r[23]]),
                src_as: u16::from_be_bytes([r[40], r[41]]),
                dst_as: u16::from_be_bytes([r[42], r[43]]),
            });
        }
        Ok(ExportPacket {
            unix_secs,
            flow_sequence,
            sampling_interval,
            records,
        })
    }
}

/// Deterministic 1-in-N packet sampler.
///
/// Real routers count every Nth *packet*; a flow of `p` packets thus
/// appears with `⌊p/N⌋` plus a Bernoulli remainder. The sampler hashes the
/// flow key and time so the noise is reproducible run to run.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    /// The sampling interval N (e.g. 1000).
    pub rate: u32,
}

impl Sampler {
    /// A 1-in-`rate` sampler.
    pub fn new(rate: u32) -> Sampler {
        assert!(rate >= 1);
        Sampler { rate }
    }

    /// Samples a flow of `bytes` total bytes. Returns the *sampled* byte and
    /// packet counts as they would appear in a record, or `None` when no
    /// packet of the flow was sampled. Assumes ~1400-byte packets.
    pub fn sample(&self, bytes: u64, key: (Ipv4Addr, Ipv4Addr, SimTime)) -> Option<(u32, u32)> {
        const PKT: u64 = 1400;
        let packets = bytes.div_ceil(PKT).max(1);
        let whole = packets / self.rate as u64;
        let remainder = packets % self.rate as u64;
        // Bernoulli(remainder / rate) via hash.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key
            .0
            .octets()
            .iter()
            .chain(key.1.octets().iter())
            .chain(key.2.as_secs().to_be_bytes().iter())
        {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let extra = ((h % self.rate as u64) < remainder) as u64;
        let sampled_packets = whole + extra;
        if sampled_packets == 0 {
            return None;
        }
        let sampled_bytes = sampled_packets * PKT;
        Some((
            sampled_bytes.min(u32::MAX as u64) as u32,
            sampled_packets.min(u32::MAX as u64) as u32,
        ))
    }
}

/// Helper to fill a record from sampled counts.
#[allow(clippy::too_many_arguments)]
pub fn make_record(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    input_if: u16,
    sampled: (u32, u32),
    src_as: AsId,
    dst_as: AsId,
) -> FlowRecord {
    FlowRecord {
        src,
        dst,
        input_if,
        bytes: sampled.0,
        packets: sampled.1,
        src_as: (src_as.0 & 0xFFFF) as u16,
        dst_as: (dst_as.0 & 0xFFFF) as u16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(n: u8) -> FlowRecord {
        FlowRecord {
            src: Ipv4Addr::new(68, 232, 34, n),
            dst: Ipv4Addr::new(84, 17, 5, 9),
            input_if: 7,
            packets: 120,
            bytes: 168_000,
            src_as: 22822,
            dst_as: 3320,
        }
    }

    #[test]
    fn v5_roundtrip() {
        let pkt = ExportPacket {
            unix_secs: 1_505_840_400, // Sep 19 2017 17:00 UTC
            flow_sequence: 42,
            sampling_interval: 1000,
            records: vec![record(1), record(2), record(3)],
        };
        let bytes = pkt.encode().unwrap();
        assert_eq!(bytes.len(), V5_HEADER_LEN + 3 * V5_RECORD_LEN);
        let back = ExportPacket::decode(&bytes).unwrap();
        assert_eq!(back, pkt);
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert_eq!(
            ExportPacket::decode(&[0; 10]).unwrap_err(),
            NetflowError::Truncated
        );
        let mut bytes = ExportPacket {
            unix_secs: 0,
            flow_sequence: 0,
            sampling_interval: 1000,
            records: vec![record(1)],
        }
        .encode()
        .unwrap();
        bytes[1] = 9; // version 9
        assert_eq!(
            ExportPacket::decode(&bytes).unwrap_err(),
            NetflowError::BadVersion
        );
        let short = ExportPacket {
            unix_secs: 0,
            flow_sequence: 0,
            sampling_interval: 1000,
            records: vec![record(1)],
        }
        .encode()
        .unwrap();
        assert_eq!(
            ExportPacket::decode(&short[..short.len() - 1]).unwrap_err(),
            NetflowError::Truncated
        );
    }

    #[test]
    fn encode_rejects_too_many_records() {
        let pkt = ExportPacket {
            unix_secs: 0,
            flow_sequence: 0,
            sampling_interval: 1000,
            records: vec![record(0); 31],
        };
        assert_eq!(pkt.encode().unwrap_err(), NetflowError::TooManyRecords);
    }

    #[test]
    fn sampler_is_unbiased_in_aggregate() {
        let s = Sampler::new(1000);
        let true_bytes = 3_000_000u64; // ~2143 packets each
        let mut sampled_total = 0u64;
        let n = 2000;
        for i in 0..n {
            let key = (
                Ipv4Addr::from(0x1100_0000 + i),
                Ipv4Addr::new(84, 17, 0, 1),
                SimTime(i as u64 * 300),
            );
            if let Some((b, _)) = s.sample(true_bytes, key) {
                sampled_total += b as u64;
            }
        }
        let estimated = sampled_total * 1000;
        let truth = true_bytes * n as u64;
        let err = (estimated as f64 - truth as f64).abs() / truth as f64;
        assert!(err < 0.05, "aggregate sampling error {err} too large");
    }

    #[test]
    fn sampler_drops_most_small_flows() {
        let s = Sampler::new(1000);
        let mut kept = 0;
        for i in 0..1000u32 {
            let key = (
                Ipv4Addr::from(0x0A00_0000 + i),
                Ipv4Addr::new(84, 17, 0, 1),
                SimTime(60),
            );
            // A 3-packet flow has a ~0.3% chance of being sampled.
            if s.sample(4000, key).is_some() {
                kept += 1;
            }
        }
        assert!(kept < 30, "kept {kept} of 1000 tiny flows");
    }

    #[test]
    fn sampler_is_deterministic() {
        let s = Sampler::new(1000);
        let key = (
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            SimTime(1234),
        );
        assert_eq!(s.sample(5_000_000, key), s.sample(5_000_000, key));
    }

    #[test]
    fn rate_one_keeps_everything() {
        let s = Sampler::new(1);
        let key = (
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            SimTime(0),
        );
        let (b, p) = s.sample(1_400_000, key).unwrap();
        assert_eq!(p, 1000);
        assert_eq!(b, 1_400_000);
    }
}
