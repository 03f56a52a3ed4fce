//! Latitude/longitude coordinates and great-circle distance.

/// Mean Earth radius in kilometres (IUGG value).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A point on the Earth's surface.
///
/// Latitude is degrees north of the equator in `[-90, +90]`, longitude is
/// degrees east of the prime meridian in `[-180, +180]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coord {
    /// Degrees north.
    pub lat: f64,
    /// Degrees east.
    pub lon: f64,
}

impl Coord {
    /// Creates a coordinate, clamping latitude and wrapping longitude into
    /// their canonical ranges.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0) % 360.0;
        if lon < 0.0 {
            lon += 360.0;
        }
        Coord {
            lat,
            lon: lon - 180.0,
        }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    ///
    /// Used to pick the nearest cache site for a client and to derive
    /// propagation delay in the traceroute simulation.
    pub fn distance_km(&self, other: &Coord) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// One-way speed-of-light-in-fibre propagation delay to `other`, in
    /// milliseconds. Uses the common 2/3 c approximation (~200 km/ms) plus a
    /// path-stretch factor of 1.4 to account for non-geodesic fibre routes.
    pub fn propagation_ms(&self, other: &Coord) -> f64 {
        self.distance_km(other) * 1.4 / 200.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frankfurt() -> Coord {
        Coord::new(50.11, 8.68)
    }
    fn new_york() -> Coord {
        Coord::new(40.71, -74.01)
    }

    #[test]
    fn zero_distance_to_self() {
        let c = frankfurt();
        assert!(c.distance_km(&c) < 1e-9);
    }

    #[test]
    fn frankfurt_new_york_distance() {
        // Great-circle distance FRA-NYC is ~6 200 km.
        let d = frankfurt().distance_km(&new_york());
        assert!((6100.0..6350.0).contains(&d), "got {d}");
    }

    #[test]
    fn distance_is_symmetric() {
        let a = frankfurt();
        let b = new_york();
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn propagation_delay_transatlantic() {
        // ~6200 km * 1.4 / 200 km/ms ≈ 43 ms one way.
        let ms = frankfurt().propagation_ms(&new_york());
        assert!((35.0..55.0).contains(&ms), "got {ms}");
    }

    #[test]
    fn constructor_clamps_and_wraps() {
        let c = Coord::new(95.0, 190.0);
        assert_eq!(c.lat, 90.0);
        assert!((c.lon - -170.0).abs() < 1e-9);
        let c = Coord::new(-95.0, -190.0);
        assert_eq!(c.lat, -90.0);
        assert!((c.lon - 170.0).abs() < 1e-9);
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = Coord::new(0.0, 0.0);
        let b = Coord::new(0.0, 180.0);
        let d = a.distance_km(&b);
        let half = core::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "got {d}, want {half}");
    }
}
