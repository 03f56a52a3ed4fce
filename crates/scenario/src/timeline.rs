//! The measurement timeline (Figure 1).

use mcdn_geo::SimTime;

/// One band or marker of the Figure 1 timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Campaign or event name.
    pub name: &'static str,
    /// Start instant.
    pub start: SimTime,
    /// End instant (equal to `start` for point events).
    pub end: SimTime,
    /// Whether this is a point event (release, keynote) or a campaign band.
    pub point: bool,
}

impl TimelineEntry {
    fn band(name: &'static str, start: SimTime, end: SimTime) -> TimelineEntry {
        TimelineEntry {
            name,
            start,
            end,
            point: false,
        }
    }
    fn point(name: &'static str, at: SimTime) -> TimelineEntry {
        TimelineEntry {
            name,
            start: at,
            end: at,
            point: true,
        }
    }
}

/// The Figure 1 entries: three measurement campaigns and the release/event
/// markers around them.
pub fn timeline() -> Vec<TimelineEntry> {
    vec![
        TimelineEntry::band(
            "RIPE Atlas European Eyeball ISP measurement",
            SimTime::from_ymd(2017, 8, 20),
            SimTime::from_ymd(2017, 12, 31),
        ),
        TimelineEntry::band(
            "AWS VMs detailed measurements",
            SimTime::from_ymd(2017, 9, 1),
            SimTime::from_ymd(2017, 9, 30),
        ),
        TimelineEntry::band(
            "RIPE Atlas global measurement",
            SimTime::from_ymd(2017, 9, 12),
            SimTime::from_ymd(2017, 10, 3),
        ),
        TimelineEntry::point(
            "Apple keynote / iPhone 8 announcement",
            SimTime::from_ymd_hms(2017, 9, 12, 17, 0, 0),
        ),
        TimelineEntry::point(
            "iOS 11.0 release",
            SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0),
        ),
        TimelineEntry::point("iOS 11.0.1 release", SimTime::from_ymd(2017, 9, 26)),
        TimelineEntry::point("iOS 11.0.2 release", SimTime::from_ymd(2017, 10, 3)),
        TimelineEntry::point("iOS 11.1 release", SimTime::from_ymd(2017, 10, 31)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_falls_inside_every_campaign() {
        let release = SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0);
        for band in timeline().iter().filter(|e| !e.point) {
            assert!(
                band.start <= release && release <= band.end,
                "{}",
                band.name
            );
        }
    }

    #[test]
    fn global_campaign_starts_a_week_before_release() {
        let global = timeline()
            .into_iter()
            .find(|e| e.name.contains("global"))
            .unwrap();
        let release = SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0);
        let lead = release.since(global.start);
        assert!(
            lead >= mcdn_geo::Duration::days(7),
            "paper: started 7 days before"
        );
    }

    #[test]
    fn point_events_are_points() {
        for e in timeline() {
            if e.point {
                assert_eq!(e.start, e.end);
            } else {
                assert!(e.start < e.end);
            }
        }
    }
}
