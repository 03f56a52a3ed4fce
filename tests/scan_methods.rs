//! Address-scan methodology: the paper swept all of 17.0.0.0/8; our
//! exhaustive sweep of the delivery /16 is equivalent because Apple's
//! delivery servers all live there — and a strided /8 sweep finds only
//! (and exactly) hosts the /16 sweep also finds.

use metacdn_suite::atlas::scan_prefix;
use metacdn_suite::cdn::AppleCdn;
use metacdn_suite::netsim::Ipv4Net;
use metacdn_suite::scenario::{ScenarioConfig, World};
use std::collections::HashSet;

#[test]
fn delivery_prefix_sweep_is_exhaustive() {
    let world = World::build(&ScenarioConfig::fast());
    let hits = scan_prefix(
        AppleCdn::delivery_prefix(),
        1,
        |ip| world.apple.serves_ios_images(ip),
        |ip| world.apple.ptr_lookup(ip).map(|n| n.fqdn()),
    );
    // Everything client-facing is inside the /16 and found by the sweep.
    let expected = world
        .apple
        .all_ips()
        .filter(|ip| world.apple.serves_ios_images(**ip))
        .count();
    assert_eq!(hits.len(), expected);
    assert!(hits.iter().all(|h| h.ptr.is_some()), "every hit has rDNS");
}

#[test]
fn strided_slash8_sweep_finds_a_consistent_subset() {
    let world = World::build(&ScenarioConfig::fast());
    let full: HashSet<_> = scan_prefix(
        AppleCdn::delivery_prefix(),
        1,
        |ip| world.apple.serves_ios_images(ip),
        |_| None,
    )
    .into_iter()
    .map(|h| h.ip)
    .collect();

    // A time-bounded /8 sweep with a prime stride, as a real scan under a
    // rate budget would do.
    let slash8 = Ipv4Net::parse("17.0.0.0/8").unwrap();
    let strided: Vec<_> = scan_prefix(
        slash8,
        251,
        |ip| world.apple.serves_ios_images(ip),
        |_| None,
    );
    assert!(
        !strided.is_empty(),
        "a /8 sweep at stride 251 still lands hits"
    );
    for hit in &strided {
        assert!(
            full.contains(&hit.ip),
            "{} found by /8 but not /16 sweep",
            hit.ip
        );
        assert!(AppleCdn::delivery_prefix().contains(hit.ip));
    }
    // The subset is a meaningful sample but smaller than the full set.
    assert!(strided.len() < full.len());
    assert!(
        strided.len() * 100 >= full.len() / 10,
        "stride shouldn't miss everything"
    );
}

#[test]
fn non_delivery_apple_space_is_silent() {
    let world = World::build(&ScenarioConfig::fast());
    // 17.1.0.0/24 is Apple corporate space: routable, but no image servers.
    let hits = scan_prefix(
        Ipv4Net::parse("17.1.0.0/24").unwrap(),
        1,
        |ip| world.apple.serves_ios_images(ip),
        |_| None,
    );
    assert!(hits.is_empty());
    assert_eq!(
        world.topo.origin_of("17.1.0.7".parse().unwrap()),
        Some(metacdn_suite::scenario::params::APPLE_AS),
        "still BGP-routable as Apple"
    );
}
