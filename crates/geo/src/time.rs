//! Simulated wall-clock time with a built-in proleptic Gregorian calendar.
//!
//! The whole reproduction speaks in absolute instants ("iOS 11.0 was released
//! Sep 19 2017 17:00 UTC"), so [`SimTime`] stores seconds since the Unix
//! epoch and converts to and from civil dates without any external date-time
//! dependency. The civil-day arithmetic follows Howard Hinnant's well-known
//! `days_from_civil` algorithm.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A span of simulated time, in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// One second.
    pub const SECOND: Duration = Duration(1);
    /// One minute.
    pub const MINUTE: Duration = Duration(60);
    /// One hour.
    pub const HOUR: Duration = Duration(3600);
    /// One day.
    pub const DAY: Duration = Duration(86_400);

    /// A duration of `n` seconds.
    pub const fn secs(n: u64) -> Duration {
        Duration(n)
    }
    /// A duration of `n` minutes.
    pub const fn mins(n: u64) -> Duration {
        Duration(n * 60)
    }
    /// A duration of `n` hours.
    pub const fn hours(n: u64) -> Duration {
        Duration(n * 3600)
    }
    /// A duration of `n` days.
    pub const fn days(n: u64) -> Duration {
        Duration(n * 86_400)
    }
    /// The number of whole seconds in this duration.
    pub const fn as_secs(&self) -> u64 {
        self.0
    }
}

/// An absolute instant of simulated time (seconds since 1970-01-01 00:00 UTC).
///
/// `SimTime` is the time axis of every measurement series in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

/// Days from civil date to the epoch, per Howard Hinnant's algorithm.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = (m as u64 + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d as u64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i64 - 719_468
}

/// Civil date from days since the epoch (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl SimTime {
    /// The instant `year-month-day hour:minute:second` UTC.
    ///
    /// # Panics
    /// Panics if the date precedes the Unix epoch (the simulation never does).
    pub fn from_ymd_hms(
        year: i64,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> SimTime {
        let days = days_from_civil(year, month, day);
        assert!(days >= 0, "SimTime does not support pre-1970 instants");
        SimTime(days as u64 * 86_400 + hour as u64 * 3600 + minute as u64 * 60 + second as u64)
    }

    /// The instant `year-month-day 00:00 UTC`.
    pub fn from_ymd(year: i64, month: u32, day: u32) -> SimTime {
        SimTime::from_ymd_hms(year, month, day, 0, 0, 0)
    }

    /// Decomposes into `(year, month, day, hour, minute, second)` UTC.
    pub fn to_ymd_hms(&self) -> (i64, u32, u32, u32, u32, u32) {
        let days = (self.0 / 86_400) as i64;
        let rem = self.0 % 86_400;
        let (y, m, d) = civil_from_days(days);
        (
            y,
            m,
            d,
            (rem / 3600) as u32,
            ((rem % 3600) / 60) as u32,
            (rem % 60) as u32,
        )
    }

    /// Seconds since the Unix epoch.
    pub const fn as_secs(&self) -> u64 {
        self.0
    }

    /// The hour-of-day in UTC, `0..=23`.
    pub fn hour(&self) -> u32 {
        ((self.0 % 86_400) / 3600) as u32
    }

    /// Start of the UTC day containing this instant.
    pub fn floor_day(&self) -> SimTime {
        SimTime(self.0 - self.0 % 86_400)
    }

    /// This instant rounded down to a multiple of `bin` seconds.
    pub fn floor_to(&self, bin: Duration) -> SimTime {
        SimTime(self.0 - self.0 % bin.0.max(1))
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(&self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Short month name for display ("Jan" .. "Dec").
    pub fn month_name(&self) -> &'static str {
        const NAMES: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        let (_, m, ..) = self.to_ymd_hms();
        NAMES[(m - 1) as usize]
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    /// Formats like `Sep 19 2017 17:00:00`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, _, d, h, mi, s) = self.to_ymd_hms();
        write!(
            f,
            "{} {:02} {} {:02}:{:02}:{:02}",
            self.month_name(),
            d,
            y,
            h,
            mi,
            s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(SimTime::from_ymd(1970, 1, 1).as_secs(), 0);
    }

    #[test]
    fn ios11_release_instant() {
        // Sep 19 2017 17:00 UTC — the event the paper measures around.
        let t = SimTime::from_ymd_hms(2017, 9, 19, 17, 0, 0);
        assert_eq!(t.to_ymd_hms(), (2017, 9, 19, 17, 0, 0));
        assert_eq!(t.hour(), 17);
        assert_eq!(format!("{t}"), "Sep 19 2017 17:00:00");
    }

    #[test]
    fn roundtrip_across_2017() {
        let mut t = SimTime::from_ymd(2017, 1, 1);
        let end = SimTime::from_ymd(2018, 1, 1);
        while t < end {
            let (y, m, d, h, mi, s) = t.to_ymd_hms();
            assert_eq!(SimTime::from_ymd_hms(y, m, d, h, mi, s), t);
            t += Duration::hours(7); // irregular stride crosses month edges
        }
    }

    #[test]
    fn leap_year_2016_handled() {
        let t = SimTime::from_ymd(2016, 2, 29);
        assert_eq!(t.to_ymd_hms(), (2016, 2, 29, 0, 0, 0));
        assert_eq!((t + Duration::DAY).to_ymd_hms().2, 1);
    }

    #[test]
    fn floor_day_and_bins() {
        let t = SimTime::from_ymd_hms(2017, 9, 19, 17, 42, 31);
        assert_eq!(t.floor_day(), SimTime::from_ymd(2017, 9, 19));
        assert_eq!(
            t.floor_to(Duration::hours(2)),
            SimTime::from_ymd_hms(2017, 9, 19, 16, 0, 0)
        );
    }

    #[test]
    fn duration_arithmetic() {
        let t = SimTime::from_ymd(2017, 9, 12);
        let u = t + Duration::days(7);
        assert_eq!(u.to_ymd_hms(), (2017, 9, 19, 0, 0, 0));
        assert_eq!(u.since(t), Duration::days(7));
        assert_eq!(t.since(u), Duration(0), "since saturates");
        assert_eq!(u - Duration::days(7), t);
    }
}
