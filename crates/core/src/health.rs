//! Health-checked failover with hysteresis.
//!
//! The chaos layer probes each CDN's control plane at a configurable
//! interval and feeds the results through a [`HealthTracker`]: an up/down
//! state machine that ejects a CDN from the mapping only after
//! [`HealthParams::eject_after`] *consecutive* probe failures and restores
//! it only after [`HealthParams::restore_after`] consecutive successes.
//! The hysteresis prevents a flapping site (alternating up/down every
//! probe) from oscillating the mapping — a tracker fed a strict
//! alternation never transitions at all when `eject_after >= 2`.
//!
//! Trackers are plain deterministic state machines; the *probes* they
//! consume come from the seeded fault layer, so a chaos run replays
//! bit-identically at equal seed.

use mcdn_geo::Duration;

/// Parameters of the health-check loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthParams {
    /// Time between health probes of one target.
    pub probe_interval: Duration,
    /// Consecutive probe failures before the target is ejected from the
    /// mapping (minimum 1).
    pub eject_after: u32,
    /// Consecutive probe successes before an ejected target is restored
    /// (minimum 1).
    pub restore_after: u32,
}

impl HealthParams {
    /// The default loop: probe every 5 minutes, eject after 3 consecutive
    /// failures, restore after 2 consecutive successes.
    pub const fn standard() -> HealthParams {
        HealthParams {
            probe_interval: Duration::mins(5),
            eject_after: 3,
            restore_after: 2,
        }
    }
}

impl Default for HealthParams {
    fn default() -> HealthParams {
        HealthParams::standard()
    }
}

/// A state change produced by one health observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTransition {
    /// The target crossed the failure threshold and left the mapping.
    Ejected,
    /// The target crossed the success threshold and rejoined the mapping.
    Restored,
}

/// Up/down state machine with hysteresis for one health-checked target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTracker {
    up: bool,
    consec_fail: u32,
    consec_ok: u32,
    transitions: u64,
}

impl HealthTracker {
    /// A tracker starting in the `up` state with clean counters.
    pub fn new() -> HealthTracker {
        HealthTracker {
            up: true,
            consec_fail: 0,
            consec_ok: 0,
            transitions: 0,
        }
    }

    /// Whether the target is currently considered healthy.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Total state transitions so far (ejections + restorations) — the
    /// oscillation budget the hysteresis bounds.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Feeds one probe result and returns the transition it caused, if any.
    pub fn observe(&mut self, ok: bool, params: &HealthParams) -> Option<HealthTransition> {
        if ok {
            self.consec_fail = 0;
            // Saturating: a long steady run must not wrap the counter back
            // below the threshold (u32 wrap would panic in debug and, in
            // release, re-arm an already-settled state machine).
            self.consec_ok = self.consec_ok.saturating_add(1);
            if !self.up && self.consec_ok >= params.restore_after.max(1) {
                self.up = true;
                self.transitions += 1;
                mcdn_obs::record(mcdn_obs::id::HEALTH_RESTORATIONS, 1);
                return Some(HealthTransition::Restored);
            }
        } else {
            self.consec_ok = 0;
            self.consec_fail = self.consec_fail.saturating_add(1);
            if self.up && self.consec_fail >= params.eject_after.max(1) {
                self.up = false;
                self.transitions += 1;
                mcdn_obs::record(mcdn_obs::id::HEALTH_EJECTIONS, 1);
                return Some(HealthTransition::Ejected);
            }
        }
        None
    }
}

impl Default for HealthTracker {
    fn default() -> HealthTracker {
        HealthTracker::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(eject: u32, restore: u32) -> HealthParams {
        HealthParams {
            probe_interval: Duration::mins(1),
            eject_after: eject,
            restore_after: restore,
        }
    }

    #[test]
    fn ejects_only_after_n_consecutive_failures() {
        let p = params(3, 2);
        let mut t = HealthTracker::new();
        assert_eq!(t.observe(false, &p), None);
        assert_eq!(t.observe(false, &p), None);
        assert!(t.is_up(), "two failures are below the threshold");
        assert_eq!(t.observe(false, &p), Some(HealthTransition::Ejected));
        assert!(!t.is_up());
        // Further failures are absorbed without new transitions.
        assert_eq!(t.observe(false, &p), None);
    }

    #[test]
    fn restores_only_after_m_consecutive_successes() {
        let p = params(1, 3);
        let mut t = HealthTracker::new();
        assert_eq!(t.observe(false, &p), Some(HealthTransition::Ejected));
        assert_eq!(t.observe(true, &p), None);
        assert_eq!(t.observe(true, &p), None);
        assert_eq!(t.observe(true, &p), Some(HealthTransition::Restored));
        assert!(t.is_up());
        assert_eq!(t.transitions(), 2);
    }

    #[test]
    fn interleaved_success_resets_the_failure_run() {
        let p = params(3, 1);
        let mut t = HealthTracker::new();
        for _ in 0..10 {
            assert_eq!(t.observe(false, &p), None);
            assert_eq!(t.observe(false, &p), None);
            assert_eq!(t.observe(true, &p), None);
        }
        assert!(t.is_up(), "runs of 2 failures never reach eject_after = 3");
        assert_eq!(t.transitions(), 0);
    }

    #[test]
    fn strict_flapping_never_transitions_with_hysteresis() {
        // A site alternating up/down every probe: the core anti-flap
        // guarantee — no mapping oscillation at all when thresholds >= 2.
        let p = params(2, 2);
        let mut t = HealthTracker::new();
        for i in 0..1_000 {
            assert_eq!(t.observe(i % 2 == 0, &p), None);
        }
        assert!(t.is_up());
        assert_eq!(t.transitions(), 0);
    }

    #[test]
    fn square_wave_transitions_are_bounded_by_hysteresis() {
        // A slower square wave (10 probes up, 10 down) does transition,
        // but no faster than once per threshold-crossing.
        let p = params(3, 2);
        let mut t = HealthTracker::new();
        let probes = 1_000;
        for i in 0..probes {
            t.observe((i / 10) % 2 == 0, &p);
        }
        let max_transitions = probes / 10; // one per half-period at most
        assert!(t.transitions() > 0, "a slow square wave must be detected");
        assert!(
            t.transitions() <= max_transitions,
            "transitions {} exceed the hysteresis bound {max_transitions}",
            t.transitions()
        );
    }

    #[test]
    fn standard_boundary_exactly_three_failures_eject() {
        // The standard 3-fail / 2-ok hysteresis, driven through its exact
        // boundaries with interleaved outcomes: 2 failures + success must
        // NOT eject; the 3rd consecutive failure (and only it) must.
        let p = HealthParams::standard();
        let mut t = HealthTracker::new();
        assert_eq!(t.observe(false, &p), None);
        assert_eq!(t.observe(false, &p), None);
        assert_eq!(t.observe(true, &p), None, "success resets the failure run");
        assert!(t.is_up());
        assert_eq!(t.observe(false, &p), None);
        assert_eq!(t.observe(false, &p), None);
        assert!(t.is_up(), "still one short of eject_after = 3");
        assert_eq!(t.observe(false, &p), Some(HealthTransition::Ejected));
        assert!(!t.is_up());
        assert_eq!(t.transitions(), 1);
    }

    #[test]
    fn standard_boundary_exactly_two_successes_restore() {
        // Down target: 1 success + failure must NOT restore; exactly 2
        // consecutive successes must, even with failed runs interleaved.
        let p = HealthParams::standard();
        let mut t = HealthTracker::new();
        for _ in 0..3 {
            t.observe(false, &p);
        }
        assert!(!t.is_up());
        assert_eq!(t.observe(true, &p), None);
        assert_eq!(t.observe(false, &p), None, "failure resets the success run");
        assert!(!t.is_up());
        assert_eq!(t.observe(true, &p), None);
        assert!(!t.is_up(), "still one short of restore_after = 2");
        assert_eq!(t.observe(true, &p), Some(HealthTransition::Restored));
        assert!(t.is_up());
        assert_eq!(t.transitions(), 2);
        // And the freshly restored target needs a full new failure run.
        assert_eq!(t.observe(false, &p), None);
        assert_eq!(t.observe(false, &p), None);
        assert!(t.is_up());
        assert_eq!(t.observe(false, &p), Some(HealthTransition::Ejected));
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let p = params(3, 2);
        let mut t = HealthTracker {
            up: true,
            consec_fail: 0,
            consec_ok: u32::MAX,
            transitions: 0,
        };
        // One more success on a saturated run must not wrap (debug panic)
        // or reset the run below threshold.
        assert_eq!(t.observe(true, &p), None);
        assert_eq!(t.consec_ok, u32::MAX);
        let mut t = HealthTracker {
            up: false,
            consec_fail: u32::MAX,
            consec_ok: 0,
            transitions: 1,
        };
        assert_eq!(t.observe(false, &p), None);
        assert_eq!(t.consec_fail, u32::MAX);
        assert!(!t.is_up());
    }

    #[test]
    fn thresholds_of_zero_behave_as_one() {
        let p = params(0, 0);
        let mut t = HealthTracker::new();
        assert_eq!(t.observe(false, &p), Some(HealthTransition::Ejected));
        assert_eq!(t.observe(true, &p), Some(HealthTransition::Restored));
    }
}
