//! UN/LOCODE style location codes and an embedded world-city registry.
//!
//! Apple's CDN server naming scheme (Table 1 of the paper) keys every server
//! name on a five-letter UN/LOCODE location, e.g. `deber` for Berlin in
//! `deber1-edge-bx-004.aaplimg.com`. The paper notes one deviation: Apple
//! uses `uklon` for London where UN/LOCODE says `gblon`; the registry encodes
//! that quirk via [`Registry::apple_alias`] so the naming-scheme analysis can
//! rediscover it.

use crate::continent::{Continent, SpecialMarket};
use crate::coord::Coord;
use core::fmt;

/// A five-letter UN/LOCODE location code: two country letters followed by
/// three place letters, stored lowercase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Locode([u8; 5]);

impl Locode {
    /// Parses a five-ASCII-letter code (case-insensitive).
    pub fn parse(s: &str) -> Option<Locode> {
        let b = s.as_bytes();
        if b.len() != 5 || !b.iter().all(|c| c.is_ascii_alphabetic()) {
            return None;
        }
        let mut out = [0u8; 5];
        for (o, c) in out.iter_mut().zip(b) {
            *o = c.to_ascii_lowercase();
        }
        Some(Locode(out))
    }

    /// Const constructor from a five-byte lowercase literal.
    ///
    /// # Panics
    /// Panics (at compile time when used in const context) if any byte is not
    /// a lowercase ASCII letter.
    pub const fn from_bytes(b: [u8; 5]) -> Locode {
        let mut i = 0;
        while i < 5 {
            assert!(b[i] >= b'a' && b[i] <= b'z');
            i += 1;
        }
        Locode(b)
    }

    /// The code as a string slice.
    pub fn as_str(&self) -> &str {
        // Invariant: always lowercase ASCII letters.
        core::str::from_utf8(&self.0).expect("locode is ASCII")
    }

    /// The two-letter country part (lowercase), e.g. `de` for `deber`.
    pub fn country(&self) -> &str {
        &self.as_str()[..2]
    }

    /// Whether this location lies in a market with dedicated Apple mapping
    /// infrastructure (step 1 of Figure 2 diverts China and India).
    pub fn special_market(&self) -> Option<SpecialMarket> {
        match self.country() {
            "cn" => Some(SpecialMarket::China),
            "in" => Some(SpecialMarket::India),
            _ => None,
        }
    }
}

impl fmt::Display for Locode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A city in the embedded registry.
#[derive(Debug, Clone, Copy)]
pub struct City {
    /// Human-readable name.
    pub name: &'static str,
    /// UN/LOCODE location code.
    pub locode: Locode,
    /// Coordinates of the city centre.
    pub coord: Coord,
    /// Continent the city lies on.
    pub continent: Continent,
}

macro_rules! city {
    ($name:literal, $code:literal, $lat:literal, $lon:literal, $cont:ident) => {
        City {
            name: $name,
            locode: Locode::from_bytes(*$code),
            coord: Coord {
                lat: $lat,
                lon: $lon,
            },
            continent: Continent::$cont,
        }
    };
}

/// The embedded city table. Coordinates are approximate city centres.
static CITIES: &[City] = &[
    // --- North America ---
    city!("New York", b"usnyc", 40.71, -74.01, NorthAmerica),
    city!("Boston", b"usbos", 42.36, -71.06, NorthAmerica),
    city!("Washington", b"uswas", 38.91, -77.04, NorthAmerica),
    city!("Atlanta", b"usatl", 33.75, -84.39, NorthAmerica),
    city!("Miami", b"usmia", 25.76, -80.19, NorthAmerica),
    city!("Chicago", b"uschi", 41.88, -87.63, NorthAmerica),
    city!("Dallas", b"usdal", 32.78, -96.80, NorthAmerica),
    city!("Houston", b"ushou", 29.76, -95.37, NorthAmerica),
    city!("Denver", b"usden", 39.74, -104.99, NorthAmerica),
    city!("Phoenix", b"usphx", 33.45, -112.07, NorthAmerica),
    city!("Los Angeles", b"uslax", 34.05, -118.24, NorthAmerica),
    city!("San Jose", b"ussjc", 37.34, -121.89, NorthAmerica),
    city!("Seattle", b"ussea", 47.61, -122.33, NorthAmerica),
    city!("Portland", b"uspdx", 45.52, -122.68, NorthAmerica),
    city!("Toronto", b"cator", 43.65, -79.38, NorthAmerica),
    city!("Montreal", b"camtr", 45.50, -73.57, NorthAmerica),
    city!("Vancouver", b"cavan", 49.28, -123.12, NorthAmerica),
    city!("Mexico City", b"mxmex", 19.43, -99.13, NorthAmerica),
    // --- Europe ---
    city!("London", b"gblon", 51.51, -0.13, Europe),
    city!("Frankfurt", b"defra", 50.11, 8.68, Europe),
    city!("Berlin", b"deber", 52.52, 13.41, Europe),
    city!("Munich", b"demuc", 48.14, 11.58, Europe),
    city!("Amsterdam", b"nlams", 52.37, 4.90, Europe),
    city!("Paris", b"frpar", 48.86, 2.35, Europe),
    city!("Madrid", b"esmad", 40.42, -3.70, Europe),
    city!("Milan", b"itmil", 45.46, 9.19, Europe),
    city!("Stockholm", b"sesto", 59.33, 18.06, Europe),
    city!("Vienna", b"atvie", 48.21, 16.37, Europe),
    city!("Zurich", b"chzrh", 47.38, 8.54, Europe),
    city!("Warsaw", b"plwaw", 52.23, 21.01, Europe),
    city!("Dublin", b"iedub", 53.35, -6.26, Europe),
    city!("Copenhagen", b"dkcph", 55.68, 12.57, Europe),
    city!("Helsinki", b"fihel", 60.17, 24.94, Europe),
    city!("Oslo", b"noosl", 59.91, 10.75, Europe),
    city!("Lisbon", b"ptlis", 38.72, -9.14, Europe),
    city!("Prague", b"czprg", 50.08, 14.44, Europe),
    city!("Budapest", b"hubud", 47.50, 19.04, Europe),
    city!("Bucharest", b"robuh", 44.43, 26.10, Europe),
    city!("Moscow", b"rumow", 55.76, 37.62, Europe),
    // --- Asia ---
    city!("Tokyo", b"jptyo", 35.68, 139.69, Asia),
    city!("Osaka", b"jposa", 34.69, 135.50, Asia),
    city!("Seoul", b"krsel", 37.57, 126.98, Asia),
    city!("Hong Kong", b"hkhkg", 22.32, 114.17, Asia),
    city!("Singapore", b"sgsin", 1.35, 103.82, Asia),
    city!("Taipei", b"twtpe", 25.03, 121.57, Asia),
    city!("Shanghai", b"cnsha", 31.23, 121.47, Asia),
    city!("Beijing", b"cnbjs", 39.90, 116.41, Asia),
    city!("Mumbai", b"inbom", 19.08, 72.88, Asia),
    city!("Delhi", b"indel", 28.70, 77.10, Asia),
    city!("Bangkok", b"thbkk", 13.76, 100.50, Asia),
    city!("Kuala Lumpur", b"mykul", 3.139, 101.69, Asia),
    city!("Jakarta", b"idjkt", -6.21, 106.85, Asia),
    city!("Dubai", b"aedxb", 25.20, 55.27, Asia),
    city!("Tel Aviv", b"ilvlv", 32.09, 34.78, Asia),
    // --- Oceania ---
    city!("Sydney", b"ausyd", -33.87, 151.21, Oceania),
    city!("Melbourne", b"aumel", -37.81, 144.96, Oceania),
    city!("Perth", b"auper", -31.95, 115.86, Oceania),
    city!("Auckland", b"nzakl", -36.85, 174.76, Oceania),
    // --- South America ---
    city!("Sao Paulo", b"brsao", -23.55, -46.63, SouthAmerica),
    city!("Rio de Janeiro", b"brrio", -22.91, -43.17, SouthAmerica),
    city!("Buenos Aires", b"arbue", -34.60, -58.38, SouthAmerica),
    city!("Santiago", b"clscl", -33.45, -70.67, SouthAmerica),
    city!("Bogota", b"cobog", 4.71, -74.07, SouthAmerica),
    city!("Lima", b"pelim", -12.05, -77.04, SouthAmerica),
    // --- Africa ---
    city!("Johannesburg", b"zajnb", -26.20, 28.05, Africa),
    city!("Cape Town", b"zacpt", -33.92, 18.42, Africa),
    city!("Nairobi", b"kenbo", -1.29, 36.82, Africa),
    city!("Lagos", b"nglos", 6.52, 3.38, Africa),
    city!("Cairo", b"egcai", 30.04, 31.24, Africa),
    city!("Casablanca", b"macas", 33.57, -7.59, Africa),
];

/// Lookup access to the embedded city table.
#[derive(Debug, Clone, Copy, Default)]
pub struct Registry;

impl Registry {
    /// All cities.
    pub fn cities() -> &'static [City] {
        CITIES
    }

    /// Looks a city up by its UN/LOCODE (accepts Apple's aliases).
    pub fn by_locode(code: Locode) -> Option<&'static City> {
        let canonical = Self::canonicalize(code);
        CITIES.iter().find(|c| c.locode == canonical)
    }

    /// Cities on a given continent.
    pub fn on_continent(cont: Continent) -> impl Iterator<Item = &'static City> {
        CITIES.iter().filter(move |c| c.continent == cont)
    }

    /// Apple's naming scheme deviates from UN/LOCODE for London: servers are
    /// named `uklon…` where the standard code is `gblon` (§3.3 of the paper).
    /// Returns the code Apple uses for a canonical LOCODE.
    pub fn apple_alias(code: Locode) -> Locode {
        if code.as_str() == "gblon" {
            Locode::from_bytes(*b"uklon")
        } else {
            code
        }
    }

    /// Maps an Apple-alias code back to the canonical UN/LOCODE.
    pub fn canonicalize(code: Locode) -> Locode {
        if code.as_str() == "uklon" {
            Locode::from_bytes(*b"gblon")
        } else {
            code
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_mixed_case() {
        assert_eq!(Locode::parse("DEBer").unwrap().as_str(), "deber");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Locode::parse("de1er").is_none());
        assert!(Locode::parse("debe").is_none());
        assert!(Locode::parse("debers").is_none());
        assert!(Locode::parse("").is_none());
    }

    #[test]
    fn country_extraction() {
        let c = Locode::parse("cnsha").unwrap();
        assert_eq!(c.country(), "cn");
        assert_eq!(c.special_market(), Some(SpecialMarket::China));
        assert_eq!(
            Locode::parse("inbom").unwrap().special_market(),
            Some(SpecialMarket::India)
        );
        assert_eq!(Locode::parse("deber").unwrap().special_market(), None);
    }

    #[test]
    fn registry_lookup() {
        let berlin = Registry::by_locode(Locode::parse("deber").unwrap()).unwrap();
        assert_eq!(berlin.name, "Berlin");
        assert_eq!(berlin.continent, Continent::Europe);
    }

    #[test]
    fn london_alias_roundtrip() {
        let gblon = Locode::parse("gblon").unwrap();
        let uklon = Registry::apple_alias(gblon);
        assert_eq!(uklon.as_str(), "uklon");
        assert_eq!(Registry::canonicalize(uklon), gblon);
        // Alias lookup resolves to the canonical city.
        assert_eq!(Registry::by_locode(uklon).unwrap().name, "London");
        // Non-London codes pass through untouched.
        let defra = Locode::parse("defra").unwrap();
        assert_eq!(Registry::apple_alias(defra), defra);
    }

    #[test]
    fn all_locodes_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for c in Registry::cities() {
            assert!(seen.insert(c.locode), "duplicate locode {}", c.locode);
            assert_eq!(c.locode.as_str().len(), 5);
        }
        assert!(seen.len() >= 60, "registry should cover the world");
    }

    #[test]
    fn every_continent_has_cities() {
        for cont in Continent::ALL {
            assert!(
                Registry::on_continent(cont).count() >= 4,
                "{cont} too sparse"
            );
        }
    }
}
