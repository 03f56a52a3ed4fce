//! Quantifying and repairing gaps in telemetry series.
//!
//! Fault-injected campaigns produce series with holes: SNMP bins with no
//! poll, NetFlow cells with lost exports, probe rounds with no successful
//! resolution. Downstream figure builders must neither panic on a hole nor
//! silently read it as zero. The helpers here make gaps explicit — a
//! [`Coverage`] summary says how much of a series is real, and
//! [`interpolate_gaps`] fills holes by linear interpolation while flagging
//! every filled bin.

use mcdn_geo::time::{Duration, SimTime};

/// How much of an expected series was actually observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Bins (or cells) backed by a real observation.
    pub observed: usize,
    /// Bins that were expected but missing and had to be repaired or
    /// flagged.
    pub missing: usize,
}

impl Coverage {
    /// Fraction of expected bins that were observed, in `[0, 1]`; a series
    /// with no expected bins counts as fully covered.
    pub fn fraction(&self) -> f64 {
        let total = self.observed + self.missing;
        if total == 0 {
            1.0
        } else {
            self.observed as f64 / total as f64
        }
    }

    /// True when nothing was missing.
    pub fn complete(&self) -> bool {
        self.missing == 0
    }
}

/// One bin of a gap-repaired series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilledBin {
    /// Bin start time.
    pub t: SimTime,
    /// Observed value, or the interpolated estimate when `interpolated`.
    pub value: f64,
    /// Whether this bin was missing and filled by interpolation.
    pub interpolated: bool,
}

/// Re-grids sparse observations onto the regular `[from, to)` grid with
/// spacing `step`, linearly interpolating missing bins between neighbours
/// and extending flat past the first/last observation. Every repaired bin
/// is flagged, and the returned [`Coverage`] counts observed vs. filled
/// bins. An entirely empty input yields an all-zero, fully-flagged series.
pub fn interpolate_gaps(
    observed: &[(SimTime, f64)],
    from: SimTime,
    to: SimTime,
    step: Duration,
) -> (Vec<FilledBin>, Coverage) {
    assert!(step.as_secs() > 0, "grid step must be positive");
    let mut points: Vec<(SimTime, f64)> = observed.to_vec();
    points.sort_by_key(|(t, _)| *t);
    let mut out = Vec::new();
    let mut cov = Coverage::default();
    let mut t = from;
    while t < to {
        let exact = points.iter().find(|(pt, _)| *pt == t).map(|(_, v)| *v);
        match exact {
            Some(v) => {
                cov.observed += 1;
                out.push(FilledBin {
                    t,
                    value: v,
                    interpolated: false,
                });
            }
            None => {
                cov.missing += 1;
                let before = points.iter().rev().find(|(pt, _)| *pt < t);
                let after = points.iter().find(|(pt, _)| *pt > t);
                let value = match (before, after) {
                    (Some(&(t0, v0)), Some(&(t1, v1))) => {
                        let span = (t1.0 - t0.0) as f64;
                        let frac = (t.0 - t0.0) as f64 / span;
                        v0 + (v1 - v0) * frac
                    }
                    (Some(&(_, v0)), None) => v0,
                    (None, Some(&(_, v1))) => v1,
                    (None, None) => 0.0,
                };
                out.push(FilledBin {
                    t,
                    value,
                    interpolated: true,
                });
            }
        }
        t += step;
    }
    (out, cov)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_series_passes_through_unchanged() {
        let obs: Vec<(SimTime, f64)> = (0..6)
            .map(|i| (SimTime(i * 300), i as f64 * 10.0))
            .collect();
        let (bins, cov) = interpolate_gaps(&obs, SimTime(0), SimTime(1800), Duration::secs(300));
        assert!(cov.complete());
        assert_eq!(cov.fraction(), 1.0);
        assert!(bins.iter().all(|b| !b.interpolated));
        assert_eq!(bins.len(), 6);
        assert_eq!(bins[3].value, 30.0);
    }

    #[test]
    fn interior_gap_is_linearly_interpolated_and_flagged() {
        let obs = [(SimTime(0), 0.0), (SimTime(600), 60.0)];
        let (bins, cov) = interpolate_gaps(&obs, SimTime(0), SimTime(900), Duration::secs(300));
        assert_eq!(cov.observed, 2);
        assert_eq!(cov.missing, 1);
        let mid = &bins[1];
        assert!(mid.interpolated);
        assert!((mid.value - 30.0).abs() < 1e-9, "midpoint {}", mid.value);
    }

    #[test]
    fn edges_extend_flat_and_empty_input_is_zero() {
        let obs = [(SimTime(600), 42.0)];
        let (bins, _) = interpolate_gaps(&obs, SimTime(0), SimTime(1200), Duration::secs(300));
        assert_eq!(bins[0].value, 42.0);
        assert!(bins[0].interpolated);
        assert_eq!(bins[3].value, 42.0);

        let (empty, cov) = interpolate_gaps(&[], SimTime(0), SimTime(600), Duration::secs(300));
        assert_eq!(cov.observed, 0);
        assert!(empty.iter().all(|b| b.interpolated && b.value == 0.0));
    }
}
