//! Structure-of-arrays node state for the tick's hot loops.
//!
//! The per-tick hot loops (movement integration, sentinel parking,
//! contact-grid rebuild) stream over dense per-node arrays rather than
//! chasing through `Node`. Keeping them in one struct makes the
//! split-borrow pattern explicit: a phase borrows exactly the arrays it
//! touches. Movement is one serial pass over them; only the contact
//! tracker's grid query is split across threads.
//!
//! The legs live here too: each node's [`Mover`] keeps its boxed model
//! beside the [`Leg`] (straight segment and pause) the model last
//! answered with. The movers are made at the first movement tick (a
//! world replaying a recorded schedule never makes them, and building
//! a world does no extra work). A leg lasts
//! many ticks (hundreds at 2 m/s), so the movement loop evaluates it inline
//! and calls through the boxed model only when the tick has passed the
//! leg's `pause_end`; the models keep their own leg as well, which is
//! what `Mobility::position_at` reads.

use dtn_core::geometry::Point2;
use dtn_core::time::SimTime;
use dtn_mobility::model::{Leg, Mobility};

/// A node's analytic trajectory sampler and its current leg.
struct Mover {
    /// The leg `model` last answered with, read inline each tick.
    leg: Leg,
    /// The model (it owns the node's RNG substream, which is what makes
    /// parallel sampling order-free).
    model: Box<dyn Mobility>,
}

/// Hot per-node state, one entry per node, indexed by `NodeId`.
pub struct NodeArrays {
    /// The trajectory samplers as built, moved into `movers` at the
    /// first movement tick.
    models: Vec<Box<dyn Mobility>>,
    /// Trajectory samplers with their cached legs; empty until the
    /// first movement tick.
    movers: Vec<Mover>,
    /// Positions sampled at the current tick.
    pub(super) positions: Vec<Point2>,
    /// Per-node radio-down depth: >0 means the node is invisible to
    /// contact detection. A counter (not a bool) because a crash window
    /// and a blackout window can overlap.
    pub(super) radio_off: Vec<u32>,
    /// Per-node clock-skew offsets applied to spray timestamps; empty
    /// when skew injection is off (the zero-fault fast path).
    pub(super) clock_skew: Vec<f64>,
}

impl NodeArrays {
    /// Assembles the arrays for `mobility.len()` nodes. `clock_skew` is
    /// either empty (no skew injection) or one offset per node.
    pub(super) fn new(mobility: Vec<Box<dyn Mobility>>, clock_skew: Vec<f64>) -> NodeArrays {
        let n = mobility.len();
        NodeArrays {
            models: mobility,
            movers: Vec::new(),
            positions: vec![Point2::default(); n],
            radio_off: vec![0; n],
            clock_skew,
        }
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the world has zero nodes (never true for a validated
    /// scenario; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The movement phase: samples every node's trajectory at `now`
    /// into `positions`, parking radio-down nodes at distinct far-away
    /// sentinels so contact detection cannot see them (or each other:
    /// sentinels are 1e9 m apart, far beyond any radio range). Legs are
    /// still followed first, so trajectories stay on schedule and nodes
    /// rejoin at their true position.
    ///
    /// One serial pass: node `i` writes only its mover and
    /// `positions[i]` and draws only from its own mobility RNG
    /// substream, so the loop is order-free, but splitting it across
    /// threads does not pay: at `large-world`'s 10 000 nodes the pass
    /// costs about 30 µs a tick, and an empty 2-thread scoped region
    /// about 40 µs on a 2-vCPU host.
    pub(super) fn sample_movement(&mut self, now: SimTime) {
        if self.movers.is_empty() {
            let models = std::mem::take(&mut self.models).into_iter();
            self.movers = models
                .map(|mut model| Mover {
                    leg: model.leg_at(now),
                    model,
                })
                .collect();
        }
        let movers = self.movers.iter_mut().zip(&mut self.positions);
        for (i, ((m, p), &off)) in movers.zip(&self.radio_off).enumerate() {
            let at = m.leg.follow(&mut *m.model, now);
            *p = if off > 0 {
                Point2::new(-1.0e12 - i as f64 * 1.0e9, -1.0e12)
            } else {
                at
            };
        }
    }
}
