//! Capacity and utilization accounting.
//!
//! The paper concludes that during the update "Apple runs at high capacity
//! all of Sep. 20" with a flat-topped traffic curve, i.e. its CDN serves at
//! its ceiling and the surplus is offloaded. [`CapacityTracker`] provides
//! that mechanism: demand is offered per simulation tick, the tracker admits
//! at most the configured capacity, and the overflow is what the Meta-CDN
//! controller must push to third-party CDNs.

/// Tracks offered demand against a fixed serving capacity for one tick.
#[derive(Debug, Clone)]
pub struct CapacityTracker {
    capacity_bps: f64,
    offered_bps: f64,
}

impl CapacityTracker {
    /// A tracker with the given serving ceiling in bits per second.
    pub fn new(capacity_bps: f64) -> CapacityTracker {
        assert!(capacity_bps > 0.0, "capacity must be positive");
        CapacityTracker {
            capacity_bps,
            offered_bps: 0.0,
        }
    }

    /// The configured ceiling.
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// Adds offered demand for the current tick.
    pub fn offer(&mut self, bps: f64) {
        self.offered_bps += bps.max(0.0);
    }

    /// Demand offered so far this tick.
    pub fn offered_bps(&self) -> f64 {
        self.offered_bps
    }

    /// Traffic actually admitted: `min(offered, capacity)`.
    pub fn admitted_bps(&self) -> f64 {
        self.offered_bps.min(self.capacity_bps)
    }

    /// Demand the tracker could not admit.
    pub fn overflow_bps(&self) -> f64 {
        (self.offered_bps - self.capacity_bps).max(0.0)
    }

    /// Utilization of the ceiling in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        (self.offered_bps / self.capacity_bps).min(1.0)
    }

    /// Clears offered demand for the next tick.
    pub fn reset(&mut self) {
        self.offered_bps = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_capacity_admits_everything() {
        let mut t = CapacityTracker::new(100.0);
        t.offer(30.0);
        t.offer(20.0);
        assert_eq!(t.offered_bps(), 50.0);
        assert_eq!(t.admitted_bps(), 50.0);
        assert_eq!(t.overflow_bps(), 0.0);
        assert_eq!(t.utilization(), 0.5);
    }

    #[test]
    fn over_capacity_clips_and_overflows() {
        let mut t = CapacityTracker::new(100.0);
        t.offer(250.0);
        assert_eq!(t.admitted_bps(), 100.0);
        assert_eq!(t.overflow_bps(), 150.0);
        assert_eq!(t.utilization(), 1.0);
    }

    #[test]
    fn reset_clears_tick_state() {
        let mut t = CapacityTracker::new(100.0);
        t.offer(80.0);
        t.reset();
        assert_eq!(t.offered_bps(), 0.0);
        assert_eq!(t.utilization(), 0.0);
    }

    #[test]
    fn negative_offers_ignored() {
        let mut t = CapacityTracker::new(100.0);
        t.offer(-50.0);
        assert_eq!(t.offered_bps(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CapacityTracker::new(0.0);
    }
}
