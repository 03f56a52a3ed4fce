//! The per-tick controller feedback loop.
//!
//! Each simulation tick the driver recomputes what the Meta-CDN controller
//! and the CDN load balancers "know": regional demand, the scheduled
//! selection share, Apple's resulting utilization (which feeds the reactive
//! overflow in [`MetaCdnState`](metacdn::MetaCdnState)), and each
//! third-party CDN's update-serving load (which drives DNS pool exposure
//! and, for Akamai, the `a1015` event-map lifecycle).

use crate::params;
use crate::world::World;
use mcdn_geo::{Region, SimTime};
use metacdn::CdnKind;

/// Recomputes and publishes all controller inputs for instant `t`.
pub fn update_loads(world: &World, t: SimTime) {
    for region in Region::ALL {
        let demand = world.region_demand_bps(region, t);
        let share = world.state.scheduled_share(region, t);
        let probs = share.normalized_in(region);
        let apple_w = probs
            .iter()
            .find(|(k, _)| *k == CdnKind::Apple)
            .map(|(_, p)| *p)
            .unwrap_or(0.0);
        let cap = world.apple_capacity_bps(region);
        let util = if cap > 0.0 {
            apple_w * demand / cap
        } else {
            f64::INFINITY
        };
        world.state.set_apple_utilization(region, util);

        // Effective shares (after overflow) drive third-party loads.
        let eff = world.state.effective_share(region, t);
        for kind in [CdnKind::Akamai, CdnKind::Limelight] {
            let w = eff
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, p)| *p)
                .unwrap_or(0.0);
            let load = w * demand / params::update_capacity(kind, region);
            world.state.set_cdn_load(kind, region, load, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use mcdn_geo::Duration;

    #[test]
    fn loads_rise_at_release_and_recede() {
        let w = World::build(&ScenarioConfig::fast());
        let release = params::release();

        update_loads(&w, release - Duration::days(2));
        let ak_before = w.state.cdn_load(CdnKind::Akamai, Region::Eu);
        let ll_before = w.state.cdn_load(CdnKind::Limelight, Region::Eu);
        assert!(ak_before < 0.1, "quiet Akamai load {ak_before}");
        assert!(ll_before < 0.1, "quiet Limelight load {ll_before}");

        update_loads(&w, release + Duration::hours(1));
        let ak_event = w.state.cdn_load(CdnKind::Akamai, Region::Eu);
        let ll_event = w.state.cdn_load(CdnKind::Limelight, Region::Eu);
        assert!(
            ak_event > 0.5,
            "event Akamai load {ak_event} must trip the a1015 threshold"
        );
        assert!(ll_event > 0.6, "event Limelight load {ll_event}");

        update_loads(&w, release + Duration::days(8));
        let ll_after = w.state.cdn_load(CdnKind::Limelight, Region::Eu);
        assert!(ll_after < 0.15, "post-event Limelight load {ll_after}");
    }

    #[test]
    fn apple_utilization_flattops_on_event_day() {
        let w = World::build(&ScenarioConfig::fast());
        update_loads(&w, params::release() + Duration::mins(30));
        let util = w.state.apple_utilization(Region::Eu);
        assert!(util > 0.9, "EU Apple must run at/over capacity: {util}");
        // US absorbs its demand within capacity.
        let us = w.state.apple_utilization(Region::Us);
        assert!(us < 1.0, "US stays under capacity: {us}");
    }

    #[test]
    fn a1015_lifecycle_through_the_event() {
        let w = World::build(&ScenarioConfig::fast());
        let release = params::release();
        // Walk the controller hourly across the event.
        let mut t = release - Duration::days(1);
        while t < release + Duration::days(4) {
            update_loads(&w, t);
            t += Duration::hours(1);
        }
        // After the walk the event map must have activated at some point:
        // check activation ~7h after release by replaying to that instant.
        let w2 = World::build(&ScenarioConfig::fast());
        let mut t = release - Duration::hours(2);
        let probe_at = release + Duration::hours(7);
        while t <= probe_at {
            update_loads(&w2, t);
            t += Duration::mins(30);
        }
        assert!(
            w2.state.a1015_active(Region::Eu, probe_at),
            "a1015 should be live 7h in"
        );
    }

    #[test]
    fn d_pool_engages_only_during_event_days() {
        let w = World::build(&ScenarioConfig::fast());
        let release = params::release();
        update_loads(&w, release - Duration::days(2));
        let quiet = w
            .limelight
            .exposed(Region::Eu, w.state.cdn_load(CdnKind::Limelight, Region::Eu));
        update_loads(&w, release + Duration::hours(2));
        let event = w
            .limelight
            .exposed(Region::Eu, w.state.cdn_load(CdnKind::Limelight, Region::Eu));
        let d_ip: std::net::Ipv4Addr = "69.28.64.1".parse().expect("ip");
        assert!(!quiet.contains(&d_ip), "D pool must be out on quiet days");
        assert!(event.contains(&d_ip), "D pool must engage during the event");
    }
}
