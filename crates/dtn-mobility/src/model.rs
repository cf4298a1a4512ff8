//! The mobility abstraction: planners, legs and the analytic integrator.
//!
//! Every model answers with a [`Leg`]: a straight segment followed by a
//! pause, together with the last instant (`pause_end`) up to which the
//! leg is the model's trajectory. A caller that samples many nodes per
//! tick keeps the legs itself — the simulator's world keeps each leg
//! beside its boxed model — evaluates each inline and asks
//! the model again only once `t` passes `pause_end`
//! ([`Leg::follow`]); [`Mobility::position_at`] is exactly that leg
//! evaluated at `t`. A waypoint leg runs to the end of its pause; a
//! trace's or a script's runs up to just before the next sample, and a
//! sample instant whose interpolation differs from the segment's end
//! point gets a leg of its own (see the `leg_at` docs in
//! [`trace`](crate::trace) and [`stationary`](crate::stationary)).

use dtn_core::geometry::Point2;
use dtn_core::time::{SimDuration, SimTime};
use rand::rngs::StdRng;

/// Any source of a node trajectory.
///
/// Queries must come with **non-decreasing** timestamps; this lets
/// implementations advance internal state lazily instead of storing an
/// entire trajectory.
pub trait Mobility: Send {
    /// The leg the trajectory follows at `t`: for every `t'` in
    /// `t..=leg.pause_end`, `leg.position_at(t')` is the node's position
    /// at `t'`, bit for bit.
    fn leg_at(&mut self, t: SimTime) -> Leg;

    /// Position of the node at simulation time `t`.
    fn position_at(&mut self, t: SimTime) -> Point2 {
        self.leg_at(t).position_at(t)
    }
}

/// One decision by a [`WaypointPlanner`]: travel to `dest` at `speed`,
/// then stay put for `pause`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaypointDecision {
    /// Where to go next.
    pub dest: Point2,
    /// Travel speed in m/s (must be > 0 unless `dest == from`).
    pub speed: f64,
    /// Pause duration after arriving.
    pub pause: SimDuration,
}

/// Strategy deciding *where to go next*; the shared [`LegMover`] turns the
/// decisions into an exact piecewise-linear trajectory.
pub trait WaypointPlanner: Send {
    /// The node's position at `t = 0`.
    fn initial_position(&mut self, rng: &mut StdRng) -> Point2;

    /// The next movement decision, departing from `from`.
    fn next_decision(&mut self, from: Point2, rng: &mut StdRng) -> WaypointDecision;
}

/// One straight-line movement leg followed by a pause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leg {
    /// Where the leg starts (the position up to `depart`).
    pub from: Point2,
    /// Where the leg ends (the position from `arrive` on).
    pub to: Point2,
    /// Departure time.
    pub depart: SimTime,
    /// Arrival time.
    pub arrive: SimTime,
    /// The last instant the leg describes: the end of the post-arrival
    /// pause, which is the departure time of the next leg.
    pub pause_end: SimTime,
}

impl Leg {
    /// A node holding still at `p` until `until`.
    pub fn hold(p: Point2, until: SimTime) -> Leg {
        Leg {
            from: p,
            to: p,
            depart: SimTime::ZERO,
            arrive: SimTime::ZERO,
            pause_end: until,
        }
    }

    /// `model`'s position at `t`, read from `self`, the leg `model` last
    /// answered with: the model is asked again only once `t` has passed
    /// the leg's `pause_end`. Bit-identical to `model.position_at(t)`.
    #[inline]
    pub fn follow(&mut self, model: &mut dyn Mobility, t: SimTime) -> Point2 {
        if t > self.pause_end {
            *self = model.leg_at(t);
        }
        self.position_at(t)
    }

    /// The position on the leg at `t`: `from` until departure, `to` from
    /// arrival on, and the linear interpolation in between.
    #[inline]
    pub fn position_at(&self, t: SimTime) -> Point2 {
        if t <= self.depart {
            self.from
        } else if t >= self.arrive {
            self.to
        } else {
            let f = (t - self.depart).as_secs() / (self.arrive - self.depart).as_secs();
            self.from.lerp(self.to, f)
        }
    }
}

/// The largest time before `t` (which must be positive): the last
/// instant of a leg that hands over to another exactly at `t`.
pub(crate) fn just_before(t: SimTime) -> SimTime {
    SimTime::from_secs(t.as_secs().next_down().max(0.0))
}

/// Drives a [`WaypointPlanner`] into a [`Mobility`] trajectory.
///
/// The mover owns the node's RNG so every node's movement is an
/// independent reproducible stream.
pub struct LegMover<P: WaypointPlanner> {
    planner: P,
    rng: StdRng,
    leg: Leg,
}

impl<P: WaypointPlanner> LegMover<P> {
    /// Builds the mover and materialises the first leg.
    pub fn new(mut planner: P, mut rng: StdRng) -> Self {
        let start = planner.initial_position(&mut rng);
        let leg = Self::make_leg(&mut planner, &mut rng, start, SimTime::ZERO);
        LegMover { planner, rng, leg }
    }

    fn make_leg(planner: &mut P, rng: &mut StdRng, from: Point2, depart: SimTime) -> Leg {
        let d = planner.next_decision(from, rng);
        let dist = from.distance(d.dest);
        let travel = if dist == 0.0 {
            SimDuration::ZERO
        } else {
            assert!(
                d.speed > 0.0,
                "planner returned non-positive speed {} for a non-zero leg",
                d.speed
            );
            SimDuration::from_secs(dist / d.speed)
        };
        let arrive = depart + travel;
        let pause = d.pause.clamp_non_negative();
        Leg {
            from,
            to: d.dest,
            depart,
            arrive,
            pause_end: arrive + pause,
        }
    }

    /// Access the planner (e.g. for inspecting hotspot layouts in tests).
    pub fn planner(&self) -> &P {
        &self.planner
    }

    /// Advances to the leg covering `t`.
    fn advance(&mut self, t: SimTime) {
        // Advance through however many legs `t` has passed. Guard against
        // planners that produce zero-duration legs forever by bounding
        // the number of zero-time advances per query.
        let mut zero_steps = 0;
        while t > self.leg.pause_end {
            let prev_end = self.leg.pause_end;
            self.leg = Self::make_leg(&mut self.planner, &mut self.rng, self.leg.to, prev_end);
            if self.leg.pause_end == prev_end {
                zero_steps += 1;
                assert!(
                    zero_steps < 10_000,
                    "planner produced 10000 zero-duration legs in a row"
                );
            } else {
                zero_steps = 0;
            }
        }
    }
}

impl<P: WaypointPlanner> Mobility for LegMover<P> {
    fn leg_at(&mut self, t: SimTime) -> Leg {
        self.advance(t);
        self.leg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::rng::{stream_rng, streams};

    /// A planner that bounces between two fixed points at 1 m/s with a
    /// 2 s pause — lets us verify the integrator analytically.
    struct PingPong;

    impl WaypointPlanner for PingPong {
        fn initial_position(&mut self, _rng: &mut StdRng) -> Point2 {
            Point2::new(0.0, 0.0)
        }
        fn next_decision(&mut self, from: Point2, _rng: &mut StdRng) -> WaypointDecision {
            let dest = if from.x < 5.0 {
                Point2::new(10.0, 0.0)
            } else {
                Point2::new(0.0, 0.0)
            };
            WaypointDecision {
                dest,
                speed: 1.0,
                pause: SimDuration::from_secs(2.0),
            }
        }
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn interpolates_exactly() {
        let mut m = LegMover::new(PingPong, stream_rng(1, streams::MOBILITY));
        // Leg 1: 0 -> 10 over t in [0, 10], pause until 12.
        assert_eq!(m.position_at(t(0.0)), Point2::new(0.0, 0.0));
        assert_eq!(m.position_at(t(2.5)), Point2::new(2.5, 0.0));
        assert_eq!(m.position_at(t(10.0)), Point2::new(10.0, 0.0));
        // Pause.
        assert_eq!(m.position_at(t(11.5)), Point2::new(10.0, 0.0));
        // Leg 2 departs at 12: back towards 0.
        assert_eq!(m.position_at(t(13.0)), Point2::new(9.0, 0.0));
        assert_eq!(m.position_at(t(22.0)), Point2::new(0.0, 0.0));
    }

    #[test]
    fn skips_many_legs_in_one_query() {
        let mut m = LegMover::new(PingPong, stream_rng(1, streams::MOBILITY));
        // Each round trip is 24 s. Jump straight to t = 100 s:
        // 100 = 4 * 24 + 4 -> mid-leg of the 5th leg (0 -> 10 at depart 96).
        let p = m.position_at(t(100.0));
        assert_eq!(p, Point2::new(4.0, 0.0));
    }

    #[test]
    fn queries_at_same_time_are_stable() {
        let mut m = LegMover::new(PingPong, stream_rng(1, streams::MOBILITY));
        let a = m.position_at(t(7.0));
        let b = m.position_at(t(7.0));
        assert_eq!(a, b);
    }

    /// A planner that never moves (dest == from, zero pause except first).
    struct Frozen;
    impl WaypointPlanner for Frozen {
        fn initial_position(&mut self, _rng: &mut StdRng) -> Point2 {
            Point2::new(3.0, 4.0)
        }
        fn next_decision(&mut self, from: Point2, _rng: &mut StdRng) -> WaypointDecision {
            WaypointDecision {
                dest: from,
                speed: 0.0, // allowed because the leg has zero length
                pause: SimDuration::from_secs(60.0),
            }
        }
    }

    #[test]
    fn zero_length_legs_are_fine() {
        let mut m = LegMover::new(Frozen, stream_rng(2, streams::MOBILITY));
        assert_eq!(m.position_at(t(0.0)), Point2::new(3.0, 4.0));
        assert_eq!(m.position_at(t(500.0)), Point2::new(3.0, 4.0));
    }
}
