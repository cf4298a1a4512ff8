//! Stationary "mobility": nodes that never move.
//!
//! Useful as infrastructure (throwboxes, base stations) and for unit
//! tests that need fully predictable contact geometry.

use crate::model::{just_before, Leg, Mobility};
use dtn_core::geometry::Point2;
use dtn_core::time::SimTime;
use serde::{Deserialize, Serialize};

/// A node pinned at a fixed position.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stationary {
    /// The fixed position.
    pub position: Point2,
}

impl Stationary {
    /// A node at `position`.
    pub fn new(position: Point2) -> Self {
        Stationary { position }
    }
}

impl Mobility for Stationary {
    fn leg_at(&mut self, _t: SimTime) -> Leg {
        Leg::hold(self.position, SimTime::INFINITY)
    }
}

/// A scripted trajectory defined by explicit `(time, position)` keyframes
/// with linear interpolation — mainly for deterministic tests of contact
/// detection and transfer timing.
#[derive(Debug, Clone)]
pub struct Scripted {
    keyframes: Vec<(SimTime, Point2)>,
}

impl Scripted {
    /// Builds a scripted trajectory.
    ///
    /// # Panics
    /// Panics if `keyframes` is empty or timestamps are not strictly
    /// increasing.
    pub fn new(keyframes: Vec<(SimTime, Point2)>) -> Self {
        assert!(!keyframes.is_empty(), "scripted mobility needs keyframes");
        for w in keyframes.windows(2) {
            assert!(w[0].0 < w[1].0, "keyframes must be strictly increasing");
        }
        Scripted { keyframes }
    }
}

impl Mobility for Scripted {
    /// Holds the first keyframe up to its instant and the last one from
    /// its instant on. In between, the segment starting at a keyframe
    /// covers the open interval up to the next keyframe; at an interior
    /// keyframe instant the node sits on the next segment at `f = 0`,
    /// which may differ from the keyframe in the sign of a zero, so that
    /// instant gets a leg of its own.
    fn leg_at(&mut self, t: SimTime) -> Leg {
        let ks = &self.keyframes;
        let (first, last) = (ks[0], ks[ks.len() - 1]);
        if t <= first.0 {
            return Leg::hold(first.1, first.0);
        }
        if t >= last.0 {
            return Leg::hold(last.1, SimTime::INFINITY);
        }
        // Find the bracketing pair.
        let idx = ks.partition_point(|&(kt, _)| kt <= t);
        let (t0, p0) = ks[idx - 1];
        let (t1, p1) = ks[idx];
        if t == t0 {
            return Leg::hold(p0.lerp(p1, 0.0), t);
        }
        Leg {
            from: p0,
            to: p1,
            depart: t0,
            arrive: t1,
            pause_end: just_before(t1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn stationary_never_moves() {
        let mut s = Stationary::new(Point2::new(5.0, 6.0));
        assert_eq!(s.position_at(t(0.0)), Point2::new(5.0, 6.0));
        assert_eq!(s.position_at(t(1e6)), Point2::new(5.0, 6.0));
    }

    #[test]
    fn scripted_interpolates() {
        let mut s = Scripted::new(vec![
            (t(0.0), Point2::new(0.0, 0.0)),
            (t(10.0), Point2::new(10.0, 0.0)),
            (t(20.0), Point2::new(10.0, 20.0)),
        ]);
        assert_eq!(s.position_at(t(0.0)), Point2::new(0.0, 0.0));
        assert_eq!(s.position_at(t(5.0)), Point2::new(5.0, 0.0));
        assert_eq!(s.position_at(t(15.0)), Point2::new(10.0, 10.0));
        // Clamped outside the script.
        assert_eq!(s.position_at(t(99.0)), Point2::new(10.0, 20.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn scripted_rejects_unsorted() {
        let _ = Scripted::new(vec![
            (t(5.0), Point2::new(0.0, 0.0)),
            (t(5.0), Point2::new(1.0, 0.0)),
        ]);
    }

    #[test]
    #[should_panic(expected = "needs keyframes")]
    fn scripted_rejects_empty() {
        let _ = Scripted::new(vec![]);
    }
}
