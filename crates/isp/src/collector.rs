//! The NetFlow collector side: packetization, sequence tracking, and loss
//! accounting.
//!
//! Real deployments lose export packets (they travel over UDP); the v5
//! header's `flow_sequence` field lets a collector quantify the loss. This
//! module provides both directions: an [`Exporter`] that batches records
//! into correctly sequenced export packets (30 records max each, as v5
//! requires), and a [`Collector`] that consumes packets — possibly out of
//! order or with gaps — and reports how many flow records went missing.

use crate::netflow::{ExportPacket, FlowRecord, NetflowError, V5_MAX_RECORDS};

/// Batches flow records into sequenced v5 export packets.
#[derive(Debug, Default)]
pub struct Exporter {
    pending: Vec<FlowRecord>,
    sequence: u32,
    sampling_interval: u16,
}

impl Exporter {
    /// An exporter announcing the given sampling interval.
    pub fn new(sampling_interval: u16) -> Exporter {
        Exporter {
            pending: Vec::new(),
            sequence: 0,
            sampling_interval,
        }
    }

    /// Queues a record; returns a full packet when 30 have accumulated.
    pub fn push(&mut self, record: FlowRecord, unix_secs: u32) -> Option<ExportPacket> {
        self.pending.push(record);
        if self.pending.len() == V5_MAX_RECORDS {
            Some(self.flush(unix_secs).expect("pending is non-empty"))
        } else {
            None
        }
    }

    /// Emits whatever is pending as a (possibly short) packet.
    pub fn flush(&mut self, unix_secs: u32) -> Option<ExportPacket> {
        if self.pending.is_empty() {
            return None;
        }
        let records = std::mem::take(&mut self.pending);
        let pkt = ExportPacket {
            unix_secs,
            flow_sequence: self.sequence,
            sampling_interval: self.sampling_interval,
            records,
        };
        self.sequence = self.sequence.wrapping_add(pkt.records.len() as u32);
        Some(pkt)
    }

    /// Total records sequenced so far.
    pub fn sequence(&self) -> u32 {
        self.sequence
    }
}

/// Consumes export packets and tracks completeness via sequence numbers.
#[derive(Debug, Default)]
pub struct Collector {
    records: Vec<FlowRecord>,
    expected_next: Option<u32>,
    lost_records: u64,
    out_of_order: u64,
    packets: u64,
}

impl Collector {
    /// A fresh collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Ingests one packet from the wire.
    pub fn ingest(&mut self, bytes: &[u8]) -> Result<(), NetflowError> {
        let pkt = ExportPacket::decode(bytes)?;
        self.packets += 1;
        if let Some(expected) = self.expected_next {
            let gap = pkt.flow_sequence.wrapping_sub(expected);
            if gap == 0 {
                // In order.
            } else if gap < u32::MAX / 2 {
                // Forward jump: `gap` records were lost.
                self.lost_records += gap as u64;
            } else {
                // Sequence went backwards: late/duplicate packet.
                self.out_of_order += 1;
            }
        }
        let next = pkt.flow_sequence.wrapping_add(pkt.records.len() as u32);
        // Track the furthest point seen.
        self.expected_next = Some(match self.expected_next {
            Some(cur) if next.wrapping_sub(cur) > u32::MAX / 2 => cur,
            _ => next,
        });
        self.records.extend(pkt.records);
        Ok(())
    }

    /// All records collected, in arrival order.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// `(packets, lost_records, out_of_order_packets)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.packets, self.lost_records, self.out_of_order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn rec(i: u8) -> FlowRecord {
        FlowRecord {
            src: Ipv4Addr::new(23, 0, 0, i),
            dst: Ipv4Addr::new(84, 17, 0, 1),
            input_if: 1,
            packets: 10,
            bytes: 14_000,
            src_as: 20940,
            dst_as: 3320,
        }
    }

    #[test]
    fn exporter_batches_thirty_and_sequences() {
        let mut e = Exporter::new(1000);
        let mut packets = Vec::new();
        for i in 0..65u8 {
            if let Some(p) = e.push(rec(i), 100) {
                packets.push(p);
            }
        }
        if let Some(p) = e.flush(101) {
            packets.push(p);
        }
        assert_eq!(packets.len(), 3, "30 + 30 + 5");
        assert_eq!(packets[0].flow_sequence, 0);
        assert_eq!(packets[1].flow_sequence, 30);
        assert_eq!(packets[2].flow_sequence, 60);
        assert_eq!(packets[2].records.len(), 5);
        assert_eq!(e.sequence(), 65);
    }

    #[test]
    fn collector_detects_no_loss_on_clean_stream() {
        let mut e = Exporter::new(1000);
        let mut c = Collector::new();
        for i in 0..90u8 {
            if let Some(p) = e.push(rec(i), 7) {
                c.ingest(&p.encode().unwrap()).unwrap();
            }
        }
        let (packets, lost, ooo) = c.stats();
        assert_eq!((packets, lost, ooo), (3, 0, 0));
        assert_eq!(c.records().len(), 90);
    }

    #[test]
    fn collector_counts_lost_records_from_sequence_gap() {
        let mut e = Exporter::new(1000);
        let mut c = Collector::new();
        let mut packets = Vec::new();
        for i in 0..90u8 {
            if let Some(p) = e.push(rec(i), 7) {
                packets.push(p);
            }
        }
        // Drop the middle packet.
        c.ingest(&packets[0].encode().unwrap()).unwrap();
        c.ingest(&packets[2].encode().unwrap()).unwrap();
        let (_, lost, _) = c.stats();
        assert_eq!(lost, 30, "one 30-record packet vanished");
        assert_eq!(c.records().len(), 60);
    }

    #[test]
    fn collector_flags_out_of_order_delivery() {
        let mut e = Exporter::new(1000);
        let mut c = Collector::new();
        let mut packets = Vec::new();
        for i in 0..90u8 {
            if let Some(p) = e.push(rec(i), 7) {
                packets.push(p);
            }
        }
        c.ingest(&packets[0].encode().unwrap()).unwrap();
        c.ingest(&packets[2].encode().unwrap()).unwrap(); // gap
        c.ingest(&packets[1].encode().unwrap()).unwrap(); // late arrival
        let (_, lost, ooo) = c.stats();
        assert_eq!(ooo, 1);
        assert_eq!(lost, 30, "loss count is not retro-adjusted (v5 semantics)");
        assert_eq!(c.records().len(), 90, "the late records are still kept");
    }

    #[test]
    fn collector_rejects_garbage() {
        let mut c = Collector::new();
        assert!(c.ingest(&[1, 2, 3]).is_err());
        assert_eq!(c.stats().0, 0);
    }
}
