//! Property tests for the telemetry substrate: NetFlow v5 round trips over
//! arbitrary records, sampler aggregate unbiasedness, and 95/5 billing
//! bounds.

use metacdn_suite::isp::billing::percentile_95_5;
use metacdn_suite::isp::{ExportPacket, FlowRecord, Sampler};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(
            |(src, dst, input_if, packets, bytes, src_as, dst_as)| FlowRecord {
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                input_if,
                packets,
                bytes,
                src_as,
                dst_as,
            },
        )
}

proptest! {
    #[test]
    fn netflow_v5_roundtrip(records in proptest::collection::vec(arb_record(), 0..30),
                            unix_secs in any::<u32>(),
                            seq in any::<u32>(),
                            sampling in 0u16..0x4000) {
        let pkt = ExportPacket { unix_secs, flow_sequence: seq, sampling_interval: sampling, records };
        let bytes = pkt.encode().expect("≤30 records encode");
        let back = ExportPacket::decode(&bytes).expect("decodes");
        prop_assert_eq!(back, pkt);
    }

    #[test]
    fn netflow_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ExportPacket::decode(&bytes);
    }

    #[test]
    fn sampler_never_overestimates_by_much(bytes in 1u64..100_000_000_000, rate in 1u32..10_000) {
        let s = Sampler::new(rate);
        let key = (Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), metacdn_suite::geo::SimTime(42));
        if let Some((sampled_bytes, sampled_packets)) = s.sample(bytes, key) {
            prop_assert!(sampled_packets > 0);
            // The scaled-back estimate is within one packet-quantum × rate
            // of the truth.
            let estimate = sampled_bytes as u64 * rate as u64;
            let quantum = 1400u64 * rate as u64;
            prop_assert!(estimate <= bytes + quantum, "estimate {estimate} vs {bytes}");
        }
    }

    #[test]
    fn billing_is_bounded_by_min_and_max(samples in proptest::collection::vec(0u64..1_000_000_000, 1..500)) {
        let billed = percentile_95_5(&samples);
        let to_bps = |b: u64| b as f64 * 8.0 / 300.0;
        let max = samples.iter().copied().max().unwrap();
        let min = samples.iter().copied().min().unwrap();
        prop_assert!(billed <= to_bps(max) + 1e-9);
        prop_assert!(billed >= to_bps(min) - 1e-9);
    }

    #[test]
    fn billing_is_monotone_in_added_quiet_samples(samples in proptest::collection::vec(1u64..1_000_000, 20..100)) {
        // Appending zero-traffic samples can only lower (or keep) the bill.
        let billed = percentile_95_5(&samples);
        let mut padded = samples.clone();
        padded.extend(std::iter::repeat_n(0, samples.len()));
        let padded_billed = percentile_95_5(&padded);
        prop_assert!(padded_billed <= billed + 1e-9);
    }
}
