//! The §3.3 methodology, end to end: scan Apple's address space, parse the
//! server naming scheme, rebuild the site map, and confirm the intra-site
//! cache hierarchy from HTTP `Via`/`X-Cache` headers of real downloads.
//!
//! ```sh
//! cargo run --example cdn_site_survey
//! ```

use metacdn_suite::analysis::{fig3, table1};
use metacdn_suite::build_world_or_exit;
use metacdn_suite::cdn::http::HttpRequest;
use metacdn_suite::scenario::ScenarioConfig;

fn main() {
    let mut world = build_world_or_exit(&ScenarioConfig::fast());

    // 1. Scan + rDNS + naming scheme → the Figure 3 site map.
    println!("{}", fig3::fig3(&world));
    println!("{}", table1::table1(&world));
    let (parsed, total) = table1::scheme_coverage(&world);
    println!("naming scheme coverage: {parsed}/{total} infrastructure names parse\n");

    // 2. Download the update image through a Frankfurt site three times and
    //    read the cache hierarchy out of the response headers, exactly as
    //    the paper did.
    let site = world
        .apple
        .sites_mut()
        .iter_mut()
        .find(|s| s.locode.as_str() == "defra")
        .expect("Frankfurt site exists");
    println!(
        "three downloads through {}{} (watch the Via chain shrink as caches warm):\n",
        site.locode, site.site_id
    );
    let object = "/ios11.0/iPhone10,3_11.0_15A372_Restore.ipsw";
    for (i, client) in ["84.17.3.10", "84.17.99.7", "84.17.3.10"]
        .iter()
        .enumerate()
    {
        let req = HttpRequest {
            host: "appldnld.apple.com".into(),
            path: object.into(),
            client: client.parse().unwrap(),
        };
        let (resp, outcome) = site.serve(&req, object, 2_800_000_000);
        println!("download {} (client {client}):", i + 1);
        print!("{resp}");
        println!(
            "  served by {} behind vip {} — bx {} / lx {} / origin {}\n",
            outcome.bx.fqdn(),
            outcome.vip.fqdn(),
            if outcome.bx_hit { "HIT" } else { "miss" },
            match outcome.lx_hit {
                Some(true) => "HIT",
                Some(false) => "miss",
                None => "not consulted",
            },
            if outcome.origin_fetch {
                "fetched"
            } else {
                "not needed"
            },
        );
    }

    // 3. The inference the paper draws: one vip fronts four edge-bx caches,
    //    so an advertised IP represents 4x one server's capacity.
    let vips: usize = world
        .apple
        .sites()
        .iter()
        .map(|s| s.vip_addrs().len())
        .sum();
    let bx = world.apple.total_bx();
    println!(
        "fleet-wide: {vips} vip addresses front {bx} edge-bx caches ({}x)",
        bx / vips
    );
}
