//! The traceroute arm of the measurement (§3.2): sweep DNS-observed cache
//! addresses from the probe fleet, confirm each cache's AS-level placement,
//! and cross-check the naming-scheme geography against minimum-RTT
//! inference.
//!
//! ```sh
//! cargo run --release --example traceroute_survey
//! ```

use metacdn_suite::analysis::cache_location;
use metacdn_suite::build_world_or_exit;
use metacdn_suite::scenario::tracecampaign::{min_rtt_per_target, run_traceroutes};
use metacdn_suite::scenario::{params, ScenarioConfig};
use std::net::Ipv4Addr;

fn main() {
    let world = build_world_or_exit(&ScenarioConfig::fast());

    // Targets: one vip per Apple site plus representatives of every
    // third-party pool class.
    let targets: Vec<Ipv4Addr> = world
        .apple
        .sites()
        .iter()
        .filter_map(|s| s.vip_addrs().first().copied())
        .collect();
    let third_party: Vec<Ipv4Addr> = vec![
        "23.0.0.1".parse().unwrap(),   // Akamai on-net
        "96.6.0.2".parse().unwrap(),   // Akamai off-net
        "68.232.0.1".parse().unwrap(), // Limelight on-net
        "69.28.0.2".parse().unwrap(),  // LL cache behind AS A
        "69.28.64.2".parse().unwrap(), // LL surge cache behind AS D
    ];

    // One probe per distinct city keeps the sweep compact but global.
    let mut by_city = std::collections::HashMap::new();
    for p in &world.global_probe_specs {
        by_city.entry(p.city.name).or_insert(*p);
    }
    let probes: Vec<_> = by_city.into_values().collect();
    println!(
        "tracerouting {} Apple vips from {} probe cities ({} traceroutes)…\n",
        targets.len(),
        probes.len(),
        targets.len() * probes.len()
    );
    let campaign = run_traceroutes(&world, &probes, &targets);
    assert!(
        campaign.unreachable.is_empty(),
        "Apple vips are globally routable"
    );

    // Third-party caches are swept from *inside the ISP* — the cache behind
    // AS D is only reachable through the ISP's own peering (a valley-free
    // consequence the global fleet correctly cannot see past).
    let isp_probes: Vec<_> = world.isp_probe_specs.iter().take(3).cloned().collect();
    let tp_campaign = run_traceroutes(&world, &isp_probes, &third_party);
    assert!(
        tp_campaign.unreachable.is_empty(),
        "third-party caches reachable from the ISP"
    );
    println!("third-party cache placement, seen from the ISP (source AS / handover AS):");
    for ip in &third_party {
        let (_, _, tr) = tp_campaign
            .traces
            .iter()
            .find(|(_, t, tr)| t == ip && tr.reached)
            .expect("reached");
        let last = tr.hops.last().unwrap();
        let handover = tr.hops.iter().rev().nth(1).map(|h| h.asn);
        let name = |a: metacdn_suite::netsim::AsId| {
            world
                .topo
                .as_info(a)
                .map(|i| i.name.clone())
                .unwrap_or_default()
        };
        println!(
            "  {ip:<12} source AS {:<18} handover {}",
            name(last.asn),
            handover.map(name).unwrap_or_else(|| "(direct)".into()),
        );
    }

    // RTT floor per Apple site — the geography check.
    println!("\nApple sites by minimum observed RTT (nearest-probe inference):");
    let rtts = min_rtt_per_target(&campaign);
    let located = cache_location::locate_caches(&world, &probes, &targets);
    let mut agree = 0;
    for l in &located {
        let ok = l.named_city.as_deref() == Some(l.inferred_city.as_str());
        agree += ok as usize;
        println!(
            "  {:<14} named {:<12} inferred {:<12} min RTT {:>6.1} ms  {}",
            l.ip,
            l.named_city.clone().unwrap_or_default(),
            l.inferred_city,
            l.min_rtt_ms,
            if ok { "✓" } else { " " },
        );
    }
    println!(
        "\nnaming-scheme vs RTT agreement: {agree}/{} sites \
(disagreements are sites without a probe in their city)",
        located.len()
    );
    let _ = rtts;
    let _ = params::release();
}
