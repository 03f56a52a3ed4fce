//! The §5 telemetry pipeline under test: NetFlow sampling error, SNMP
//! scaling accuracy, wire-format round trips at the collector boundary, and
//! end-to-end conservation between generated traffic and estimated traffic.

use metacdn_suite::geo::{Duration, SimTime};
use metacdn_suite::isp::estimate::{by_source_as, scale_by_snmp};
use metacdn_suite::isp::{ExportPacket, FlowRecord, Sampler, SnmpCounters};
use metacdn_suite::netsim::LinkId;
use metacdn_suite::scenario::{params, run_isp_traffic, ScenarioConfig, World};
use std::net::Ipv4Addr;

fn small_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::fast();
    cfg.traffic_start = SimTime::from_ymd(2017, 9, 18);
    cfg.traffic_end = SimTime::from_ymd(2017, 9, 21);
    cfg.traffic_tick = Duration::mins(30);
    cfg
}

#[test]
fn snmp_scaling_recovers_true_volumes_within_percent() {
    // Synthetic ground truth: 200 flows of known size on one link.
    let bin = SimTime::from_ymd(2017, 9, 19);
    let link = LinkId(0);
    let sampler = Sampler::new(1000);
    let mut snmp = SnmpCounters::new();
    let mut flows = Vec::new();
    let mut truth_per_as: std::collections::HashMap<u16, f64> = Default::default();
    for i in 0..200u32 {
        let src = Ipv4Addr::from(0x1700_0000 + i);
        let src_as = if i % 3 == 0 { 714 } else { 22822 };
        let bytes = 40_000_000u64 + (i as u64) * 1_000_000;
        snmp.account(link, bytes);
        *truth_per_as.entry(src_as).or_default() += bytes as f64;
        if let Some(sampled) = sampler.sample(bytes, (src, Ipv4Addr::new(84, 17, 0, 1), bin)) {
            flows.push((
                bin,
                link,
                FlowRecord {
                    src,
                    dst: Ipv4Addr::new(84, 17, 0, 1),
                    input_if: 0,
                    packets: sampled.1,
                    bytes: sampled.0,
                    src_as,
                    dst_as: 3320,
                },
            ));
        }
    }
    snmp.poll(bin);
    let estimated = by_source_as(&scale_by_snmp(&flows, &snmp));
    for (asn, truth) in truth_per_as {
        let est = estimated.get(&(bin, asn)).copied().unwrap_or(0.0);
        let err = (est - truth).abs() / truth;
        // SNMP scaling corrects the total exactly; the per-AS split retains
        // some sampling noise but stays within a few percent at this size.
        assert!(err < 0.10, "AS{asn}: error {err:.3} too large ({est:.3e} vs {truth:.3e})");
    }
}

#[test]
fn netflow_export_packets_roundtrip_from_simulated_records() {
    let cfg = small_cfg();
    let world = World::build(&cfg);
    let result = run_isp_traffic(&world, &cfg, 0).0;
    assert!(result.flows.len() > 100);
    // Pack records 30-at-a-time into v5 export packets and decode them back
    // — the collector boundary a real deployment would cross.
    let records: Vec<FlowRecord> = result.flows.iter().map(|(_, _, r)| *r).collect();
    let mut sequence = 0u32;
    for chunk in records.chunks(30).take(50) {
        let pkt = ExportPacket {
            unix_secs: 1_505_000_000,
            flow_sequence: sequence,
            sampling_interval: result.sampling as u16,
            records: chunk.to_vec(),
        };
        let bytes = pkt.encode().expect("encodes");
        let back = ExportPacket::decode(&bytes).expect("decodes");
        assert_eq!(back, pkt);
        sequence += chunk.len() as u32;
    }
}

#[test]
fn snmp_totals_match_generated_traffic_modulo_drops() {
    let cfg = small_cfg();
    let world = World::build(&cfg);
    let result = run_isp_traffic(&world, &cfg, 0).0;
    // Everything SNMP counted entered via a link that touches the ISP, and
    // drops happen only when parallel links fill — on the uncongested big
    // CDN links, SNMP must never exceed capacity.
    for (t, link, bytes) in result.snmp.samples() {
        let l = world.topo.link(link);
        assert!(l.touches(params::EYEBALL_AS), "SNMP on a non-border link at {t}");
        let cap_bytes = l.capacity_bps * cfg.traffic_tick.as_secs() as f64 / 8.0;
        assert!(
            bytes as f64 <= cap_bytes * 1.0001,
            "link {link:?} overfilled: {bytes} vs cap {cap_bytes}"
        );
    }
}

#[test]
fn sampled_flows_estimate_true_link_volume() {
    let cfg = small_cfg();
    let world = World::build(&cfg);
    let result = run_isp_traffic(&world, &cfg, 0).0;
    // Pick the busiest link; the SNMP-scaled flow sum equals the SNMP
    // total by construction, and the *unscaled* sampled sum times the
    // sampling rate should land within ~5% (law of large numbers).
    let busiest = {
        let mut per_link: std::collections::HashMap<LinkId, u64> = Default::default();
        for (_, link, b) in result.snmp.samples() {
            *per_link.entry(link).or_default() += b;
        }
        *per_link.iter().max_by_key(|(_, v)| **v).unwrap().0
    };
    let snmp_total: u64 =
        result.snmp.samples().filter(|(_, l, _)| *l == busiest).map(|(_, _, b)| b).sum();
    let sampled_total: u64 = result
        .flows
        .iter()
        .filter(|(_, l, _)| *l == busiest)
        .map(|(_, _, r)| r.bytes as u64)
        .sum();
    let estimated = sampled_total * result.sampling as u64;
    let err = (estimated as f64 - snmp_total as f64).abs() / snmp_total as f64;
    assert!(err < 0.05, "sampling estimate off by {err:.3}");
}

#[test]
fn source_as_fields_match_bgp_origin() {
    let cfg = small_cfg();
    let world = World::build(&cfg);
    let result = run_isp_traffic(&world, &cfg, 0).0;
    for (_, _, rec) in result.flows.iter().take(2000) {
        let origin = world.topo.origin_of(rec.src).expect("flow sources are routable");
        assert_eq!(
            rec.src_as,
            (origin.0 & 0xFFFF) as u16,
            "NetFlow src_as must carry the BGP origin for {}",
            rec.src
        );
    }
}
