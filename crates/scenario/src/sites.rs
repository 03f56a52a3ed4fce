//! Apple's 34 delivery-site locations (the ground truth behind Figure 3).
//!
//! The paper discovered 34 site locations with `<# sites>/<# edge-bx>`
//! labels, densest in the USA, then Europe and East Asia, with none in
//! South America or Africa. The table below instantiates that distribution;
//! the Figure 3 analysis *rediscovers* it from the simulated address scan.

use mcdn_cdn::SiteSpec;

/// Per-location presence: 13 US + 2 CA/MX + 10 EU + 6 East Asia + 2 Oceania
/// + 1 West Asia = 34 locations.
pub const APPLE_SITES: &[SiteSpec] = &[
    // --- United States (13 locations) ---
    SiteSpec {
        locode: "ussjc",
        sites: 2,
        bx_per_site: 48,
    }, // 2/96
    SiteSpec {
        locode: "uslax",
        sites: 2,
        bx_per_site: 40,
    }, // 2/80
    SiteSpec {
        locode: "usnyc",
        sites: 2,
        bx_per_site: 40,
    }, // 2/80
    SiteSpec {
        locode: "uschi",
        sites: 1,
        bx_per_site: 48,
    }, // 1/48
    SiteSpec {
        locode: "usdal",
        sites: 1,
        bx_per_site: 40,
    }, // 1/40
    SiteSpec {
        locode: "usmia",
        sites: 1,
        bx_per_site: 40,
    }, // 1/40
    SiteSpec {
        locode: "ussea",
        sites: 1,
        bx_per_site: 32,
    }, // 1/32
    SiteSpec {
        locode: "uswas",
        sites: 1,
        bx_per_site: 32,
    }, // 1/32
    SiteSpec {
        locode: "usatl",
        sites: 1,
        bx_per_site: 32,
    }, // 1/32
    SiteSpec {
        locode: "ushou",
        sites: 1,
        bx_per_site: 24,
    }, // 1/24
    SiteSpec {
        locode: "usden",
        sites: 1,
        bx_per_site: 16,
    }, // 1/16
    SiteSpec {
        locode: "uspdx",
        sites: 1,
        bx_per_site: 16,
    }, // 1/16
    SiteSpec {
        locode: "usphx",
        sites: 1,
        bx_per_site: 8,
    }, // 1/8
    // --- Canada / Mexico (2) ---
    SiteSpec {
        locode: "cator",
        sites: 1,
        bx_per_site: 32,
    }, // 1/32
    SiteSpec {
        locode: "mxmex",
        sites: 1,
        bx_per_site: 16,
    }, // 1/16
    // --- Europe (10; London appears as uklon on the wire) ---
    SiteSpec {
        locode: "defra",
        sites: 2,
        bx_per_site: 40,
    }, // 2/80
    SiteSpec {
        locode: "gblon",
        sites: 2,
        bx_per_site: 32,
    }, // 2/64
    SiteSpec {
        locode: "nlams",
        sites: 1,
        bx_per_site: 40,
    }, // 1/40
    SiteSpec {
        locode: "frpar",
        sites: 1,
        bx_per_site: 32,
    }, // 1/32
    SiteSpec {
        locode: "deber",
        sites: 1,
        bx_per_site: 32,
    }, // 1/32
    SiteSpec {
        locode: "iedub",
        sites: 1,
        bx_per_site: 32,
    }, // 1/32
    SiteSpec {
        locode: "sesto",
        sites: 1,
        bx_per_site: 24,
    }, // 1/24
    SiteSpec {
        locode: "esmad",
        sites: 1,
        bx_per_site: 16,
    }, // 1/16
    SiteSpec {
        locode: "itmil",
        sites: 1,
        bx_per_site: 16,
    }, // 1/16
    SiteSpec {
        locode: "atvie",
        sites: 1,
        bx_per_site: 8,
    }, // 1/8
    // --- East Asia (6) ---
    SiteSpec {
        locode: "jptyo",
        sites: 2,
        bx_per_site: 32,
    }, // 2/64
    SiteSpec {
        locode: "jposa",
        sites: 1,
        bx_per_site: 32,
    }, // 1/32
    SiteSpec {
        locode: "krsel",
        sites: 1,
        bx_per_site: 32,
    }, // 1/32
    SiteSpec {
        locode: "hkhkg",
        sites: 1,
        bx_per_site: 32,
    }, // 1/32
    SiteSpec {
        locode: "sgsin",
        sites: 1,
        bx_per_site: 24,
    }, // 1/24
    SiteSpec {
        locode: "twtpe",
        sites: 1,
        bx_per_site: 16,
    }, // 1/16
    // --- Oceania (2) ---
    SiteSpec {
        locode: "ausyd",
        sites: 1,
        bx_per_site: 32,
    }, // 1/32
    SiteSpec {
        locode: "aumel",
        sites: 1,
        bx_per_site: 16,
    }, // 1/16
    // --- West Asia (1) ---
    SiteSpec {
        locode: "aedxb",
        sites: 1,
        bx_per_site: 8,
    }, // 1/8
];

#[cfg(test)]
mod tests {
    use super::*;
    use mcdn_geo::{Continent, Locode, Registry};

    #[test]
    fn thirty_four_locations() {
        assert_eq!(APPLE_SITES.len(), 34);
    }

    #[test]
    fn all_locations_resolve_in_registry() {
        for spec in APPLE_SITES {
            let code = Locode::parse(spec.locode).unwrap();
            assert!(
                Registry::by_locode(code).is_some(),
                "unknown {}",
                spec.locode
            );
        }
    }

    #[test]
    fn no_sites_in_south_america_or_africa() {
        for spec in APPLE_SITES {
            let city = Registry::by_locode(Locode::parse(spec.locode).unwrap()).unwrap();
            assert!(
                city.continent != Continent::SouthAmerica && city.continent != Continent::Africa,
                "paper: no Apple DCs on {}",
                city.continent
            );
        }
    }

    #[test]
    fn density_ordering_matches_paper() {
        let count = |cont: Continent| {
            APPLE_SITES
                .iter()
                .filter(|s| {
                    Registry::by_locode(Locode::parse(s.locode).unwrap())
                        .unwrap()
                        .continent
                        == cont
                })
                .count()
        };
        let na = count(Continent::NorthAmerica);
        let eu = count(Continent::Europe);
        let asia = count(Continent::Asia);
        assert!(
            na > eu && eu > asia,
            "USA > Europe > East Asia: {na}/{eu}/{asia}"
        );
    }

    #[test]
    fn total_server_count_is_plausible() {
        let total: usize = APPLE_SITES
            .iter()
            .map(|s| s.sites as usize * s.bx_per_site)
            .sum();
        assert!((1000..=1400).contains(&total), "got {total}");
    }
}
