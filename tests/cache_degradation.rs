//! A flash crowd doesn't just add traffic — it displaces other content
//! from finite caches. With the edge sites' LRU caches, flooding a site
//! with update downloads degrades the hit rate for the catalogue content
//! it served happily before.

use metacdn_suite::cdn::{EdgeSite, HttpRequest};
use metacdn_suite::geo::{Coord, Locode};
use std::net::Ipv4Addr;

fn build_site() -> EdgeSite {
    EdgeSite::build(
        Locode::parse("defra").unwrap(),
        1,
        Coord::new(50.1, 8.7),
        8,
        Ipv4Addr::new(17, 253, 99, 0),
    )
}

/// Serves the `objects` once each from `n_clients` clients and returns the
/// bx hit rate.
fn serve_round(site: &mut EdgeSite, objects: &[String], n_clients: u32, salt: u32) -> f64 {
    let mut hits = 0u32;
    let mut total = 0u32;
    for c in 0..n_clients {
        for obj in objects {
            let req = HttpRequest {
                host: "appldnld.apple.com".into(),
                path: obj.clone(),
                client: Ipv4Addr::from(0x5400_0000 + salt + c * 131),
            };
            let (_, outcome) = site.serve(&req, obj, 1_000_000);
            hits += outcome.bx_hit as u32;
            total += 1;
        }
    }
    hits as f64 / total as f64
}

#[test]
fn update_flood_displaces_catalogue_content() {
    let mut site = build_site();
    let catalogue: Vec<String> = (0..30).map(|i| format!("/catalogue/item-{i}")).collect();

    // Warm the catalogue, then confirm it serves hot.
    serve_round(&mut site, &catalogue, 4, 0);
    let warm = serve_round(&mut site, &catalogue, 4, 0);
    assert!(warm > 0.95, "warmed catalogue should hit: {warm}");

    // The flash crowd: many distinct update-image variants hammer the site
    // (device × version combinations — the manifest has ~1800).
    let flood: Vec<String> = (0..400)
        .map(|i| format!("/ios11/variant-{i}.ipsw"))
        .collect();
    serve_round(&mut site, &flood, 2, 7_000);

    // The catalogue was evicted: its hit rate collapses until re-warmed.
    let after = serve_round(&mut site, &catalogue, 4, 0);
    assert!(
        after < warm - 0.3,
        "flood must displace catalogue content: {warm:.2} → {after:.2}"
    );

    // And serving the catalogue again re-warms it.
    let rewarmed = serve_round(&mut site, &catalogue, 4, 0);
    assert!(rewarmed > after, "LRU recovers: {after:.2} → {rewarmed:.2}");
}

#[test]
fn single_hot_object_is_flood_resistant() {
    // The update itself is ONE object per device model — constantly touched,
    // so LRU never evicts it even mid-flood. This is why the flash crowd is
    // cache-friendly for the CDN serving it.
    let mut site = build_site();
    let hot = "/ios11/iPhone10,3_11.0_Restore.ipsw".to_string();
    let noise: Vec<String> = (0..50).map(|i| format!("/noise/{i}")).collect();

    let mut hot_hits = 0;
    let mut hot_total = 0;
    for round in 0..40u32 {
        // Interleave: hot object from many clients, noise in between.
        serve_round(
            &mut site,
            &noise[(round as usize % 40)..(round as usize % 40) + 10],
            1,
            round,
        );
        let rate = serve_round(&mut site, std::slice::from_ref(&hot), 6, 90_000 + round);
        if round > 2 {
            hot_hits += (rate > 0.9) as u32;
            hot_total += 1;
        }
    }
    assert!(
        hot_hits as f64 / hot_total as f64 > 0.8,
        "the constantly-touched update image stays cached: {hot_hits}/{hot_total}"
    );
}
