//! Contact detection over sampled node positions.
//!
//! Every movement tick the simulator samples all node positions and feeds
//! them to [`ContactTracker::update`], which finds the pairs in range and
//! emits [`ContactEvent`]s for those that changed since the previous
//! tick. Events are emitted in deterministic (sorted pair) order so
//! simulation runs are reproducible.
//!
//! The tracker is a Verlet neighbour list. A grid query collects the
//! *candidate* pairs within `range + skin` of each other and remembers
//! every node's position at that moment (its anchor). While no node has
//! moved more than `skin / 2` from its anchor, no pair outside the
//! candidates can have come within `range`, so each tick only runs the
//! exact distance test on the candidates. The trigger is measured
//! displacement, so any movement — a radio-off node parked at its
//! far-away sentinel, a trace jump — forces the rebuild by itself and
//! no mobility model needs a speed bound to stay correct. The cost does
//! follow the fastest node: with 1 s ticks and a 100 m range, the
//! paper's 2 m/s random waypoint rebuilds on one tick in ten and the
//! 5–15 m/s taxi world on one in two.
//!
//! The positions come from the world's movement phase, which evaluates
//! each node's cached leg (`dtn_mobility::model::Leg`) in place. A
//! rebuild fills a [`SpatialGrid`] with cells of side `range + skin`
//! (a padded CSR layout, described in `dtn_core::grid`) and queries it
//! by row bands. Every pair set the tracker keeps — candidates, the
//! current contacts, this tick's in-range pairs — is a sorted
//! `Vec<u64>` of `lo << 32 | hi` keys, so sorting and the merge-walks
//! compare one integer per pair.

use dtn_core::geometry::{Point2, Rect};
use dtn_core::grid::SpatialGrid;
use dtn_core::ids::{NodeId, NodePair};
use dtn_core::pool::Pool;
use dtn_core::time::SimTime;
/// A contact state change between a pair of nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactEvent {
    /// The pair moved into radio range at `time`.
    Up {
        /// The pair.
        pair: NodePair,
        /// When.
        time: SimTime,
    },
    /// The pair moved out of radio range at `time`.
    Down {
        /// The pair.
        pair: NodePair,
        /// When.
        time: SimTime,
    },
}

impl ContactEvent {
    /// The pair involved.
    pub fn pair(&self) -> NodePair {
        match *self {
            ContactEvent::Up { pair, .. } | ContactEvent::Down { pair, .. } => pair,
        }
    }

    /// The event timestamp.
    pub fn time(&self) -> SimTime {
        match *self {
            ContactEvent::Up { time, .. } | ContactEvent::Down { time, .. } => time,
        }
    }
}

/// The Verlet skin as a fraction of the radio range: candidates are the
/// pairs within `range · (1 + SKIN_FRACTION)` at the last rebuild.
const SKIN_FRACTION: f64 = 0.4;

/// Relative slack taken off the `skin / 2` rebuild trigger, so that
/// rounding in the displacement and distance arithmetic can never let
/// an in-range pair fall outside the candidates.
const TRIGGER_SLACK: f64 = 1e-6;

/// Tracks which node pairs are currently in range and diffs tick over
/// tick.
#[derive(Debug, Clone)]
pub struct ContactTracker {
    /// Grid with cells of side `range + skin`, filled at each rebuild.
    grid: SpatialGrid,
    range: f64,
    skin: f64,
    /// Each node's position at the last candidate rebuild, by node id.
    anchor: Vec<Point2>,
    /// Pairs within `range + skin` at the anchor positions, sorted. Every
    /// pair set here is a sorted list of [`key`]s.
    candidates: Vec<u64>,
    /// Currently-connected pairs, sorted.
    current: Vec<u64>,
    /// This tick's in-range pairs while they are diffed against
    /// `current`; swapped into it afterwards.
    fresh: Vec<u64>,
    scratch_pairs: Vec<(NodeId, NodeId)>,
}

impl ContactTracker {
    /// Creates a tracker for a playground `bounds` and radio `range`.
    pub fn new(bounds: Rect, range: f64) -> Self {
        assert!(range > 0.0, "radio range must be positive");
        let skin = SKIN_FRACTION * range;
        // Cell size = candidate reach gives the classic 3x3-neighbourhood
        // query.
        ContactTracker {
            grid: SpatialGrid::new(bounds, range + skin),
            range,
            skin,
            anchor: Vec::new(),
            candidates: Vec::new(),
            current: Vec::new(),
            fresh: Vec::new(),
            scratch_pairs: Vec::new(),
        }
    }

    /// Ingests the positions sampled at `time` (indexed by node id) and
    /// appends the resulting Up/Down events to `out` in sorted-pair order
    /// (Down events first, then Up events).
    pub fn update(&mut self, time: SimTime, positions: &[Point2], out: &mut Vec<ContactEvent>) {
        self.update_pooled(time, positions, out, None);
    }

    /// [`update`](Self::update) with the candidate rebuild's grid pair
    /// query fanned out across `pool` (when given) by contiguous row
    /// bands.
    ///
    /// The in-range set is the exact `distance² <= range²` test applied
    /// to the candidates, so it does not depend on when the candidates
    /// were last rebuilt. It is bit-identical to the serial path at any
    /// thread count: bands are ascending contiguous row ranges merged in
    /// band order (see [`SpatialGrid::pairs_within_rows`]), and the
    /// candidates are sorted anyway. The in-range subset of the sorted
    /// candidates is itself sorted, so two merge-walks against the
    /// previous tick's set yield the Downs and then the Ups in
    /// sorted-pair order.
    pub fn update_pooled(
        &mut self,
        time: SimTime,
        positions: &[Point2],
        out: &mut Vec<ContactEvent>,
        pool: Option<&Pool>,
    ) {
        if self.needs_rebuild(positions) {
            self.rebuild_candidates(positions, pool);
        }
        // Every candidate is written and only the in-range ones are kept:
        // no branch on the distance test.
        let r2 = self.range * self.range;
        self.fresh.clear();
        self.fresh.resize(self.candidates.len(), 0);
        let mut kept = 0;
        for &key in &self.candidates {
            let (lo, hi) = ((key >> 32) as usize, key as u32 as usize);
            self.fresh[kept] = key;
            kept += usize::from(positions[lo].distance_sq(positions[hi]) <= r2);
        }
        self.fresh.truncate(kept);
        for_each_missing(&self.current, &self.fresh, |pair| {
            out.push(ContactEvent::Down { pair, time })
        });
        for_each_missing(&self.fresh, &self.current, |pair| {
            out.push(ContactEvent::Up { pair, time })
        });
        std::mem::swap(&mut self.current, &mut self.fresh);
    }

    /// Whether the candidates may miss an in-range pair: the node count
    /// changed, or some node has moved more than `skin / 2` from its
    /// anchor.
    fn needs_rebuild(&self, positions: &[Point2]) -> bool {
        let limit = 0.5 * self.skin * (1.0 - TRIGGER_SLACK);
        let limit2 = limit * limit;
        positions.len() != self.anchor.len()
            || positions
                .iter()
                .zip(&self.anchor)
                .any(|(p, a)| p.distance_sq(*a) > limit2)
    }

    /// Re-anchors every node at `positions` and collects the sorted
    /// pairs within `range + skin` through the grid.
    fn rebuild_candidates(&mut self, positions: &[Point2], pool: Option<&Pool>) {
        self.anchor.clear();
        self.anchor.extend_from_slice(positions);
        self.grid.rebuild(positions);
        let reach = self.range + self.skin;
        self.scratch_pairs.clear();
        match pool {
            Some(pool) if pool.threads() > 1 => {
                let grid = &self.grid;
                let bands = pool.map_bands(grid.row_count(), |rows| {
                    let mut pairs = Vec::new();
                    grid.pairs_within_rows(reach, rows, &mut pairs);
                    pairs
                });
                for band in bands {
                    self.scratch_pairs.extend_from_slice(&band);
                }
            }
            _ => self.grid.pairs_within(reach, &mut self.scratch_pairs),
        }
        self.candidates.clear();
        self.candidates.extend(
            self.scratch_pairs
                .iter()
                .map(|&(lo, hi)| key(NodePair::new(lo, hi))),
        );
        self.candidates.sort_unstable();
    }

    /// Whether `pair` is currently in range.
    pub fn connected(&self, pair: NodePair) -> bool {
        self.current.binary_search(&key(pair)).is_ok()
    }

    /// Currently connected pairs in sorted order.
    pub fn current_contacts(&self) -> impl Iterator<Item = NodePair> + '_ {
        self.current.iter().map(|&k| pair(k))
    }

    /// Number of live contacts.
    pub fn contact_count(&self) -> usize {
        self.current.len()
    }

    /// Emits a final Down event for every live contact (end of
    /// simulation), clearing the state.
    pub fn close_all(&mut self, time: SimTime, out: &mut Vec<ContactEvent>) {
        for &k in &self.current {
            out.push(ContactEvent::Down {
                pair: pair(k),
                time,
            });
        }
        self.current.clear();
    }

    /// Forces every contact involving `node` down at `time` (the node's
    /// radio just died — crash or blackout), emitting Down events in
    /// sorted-pair order. Subsequent [`update`](Self::update) calls see
    /// the pairs as fresh if the node comes back into range.
    pub fn drop_node(&mut self, node: NodeId, time: SimTime, out: &mut Vec<ContactEvent>) {
        self.current.retain(|&k| {
            let pair = pair(k);
            let doomed = pair.lo() == node || pair.hi() == node;
            if doomed {
                out.push(ContactEvent::Down { pair, time });
            }
            !doomed
        });
    }
}

/// A pair as one integer, `lo << 32 | hi`: keys sort in the pairs'
/// order at one compare each.
fn key(pair: NodePair) -> u64 {
    u64::from(pair.lo().0) << 32 | u64::from(pair.hi().0)
}

/// The pair of a [`key`].
fn pair(key: u64) -> NodePair {
    NodePair::new(NodeId((key >> 32) as u32), NodeId(key as u32))
}

/// Calls `f` on every pair of sorted keys `a` that sorted keys `b`
/// lacks, in order — one merge-walk.
fn for_each_missing(a: &[u64], b: &[u64], mut f: impl FnMut(NodePair)) {
    let mut rest = b.iter().peekable();
    for &k in a {
        while rest.next_if(|&&q| q < k).is_some() {}
        if rest.next_if_eq(&&k).is_none() {
            f(pair(k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn tracker() -> ContactTracker {
        ContactTracker::new(Rect::from_size(1000.0, 1000.0), 100.0)
    }

    #[test]
    fn up_then_down() {
        let mut tr = tracker();
        let mut out = Vec::new();

        // Tick 1: apart.
        tr.update(
            t(0.0),
            &[Point2::new(0.0, 0.0), Point2::new(500.0, 0.0)],
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(tr.contact_count(), 0);

        // Tick 2: together.
        tr.update(
            t(1.0),
            &[Point2::new(0.0, 0.0), Point2::new(50.0, 0.0)],
            &mut out,
        );
        let pair = NodePair::new(NodeId(0), NodeId(1));
        assert_eq!(out, vec![ContactEvent::Up { pair, time: t(1.0) }]);
        assert!(tr.connected(pair));

        // Tick 3: still together — no event.
        out.clear();
        tr.update(
            t(2.0),
            &[Point2::new(10.0, 0.0), Point2::new(50.0, 0.0)],
            &mut out,
        );
        assert!(out.is_empty());

        // Tick 4: apart again.
        tr.update(
            t(3.0),
            &[Point2::new(0.0, 0.0), Point2::new(900.0, 0.0)],
            &mut out,
        );
        assert_eq!(out, vec![ContactEvent::Down { pair, time: t(3.0) }]);
        assert!(!tr.connected(pair));
    }

    #[test]
    fn boundary_is_inclusive() {
        let mut tr = tracker();
        let mut out = Vec::new();
        tr.update(
            t(0.0),
            &[Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)],
            &mut out,
        );
        assert_eq!(out.len(), 1, "exactly at range counts as in contact");
    }

    #[test]
    fn multiple_pairs_sorted_order() {
        let mut tr = tracker();
        let mut out = Vec::new();
        // Three nodes in a line, each 50 m apart: pairs (0,1), (1,2), (0,2).
        tr.update(
            t(0.0),
            &[
                Point2::new(0.0, 0.0),
                Point2::new(50.0, 0.0),
                Point2::new(100.0, 0.0),
            ],
            &mut out,
        );
        let pairs: Vec<NodePair> = out.iter().map(|e| e.pair()).collect();
        assert_eq!(
            pairs,
            vec![
                NodePair::new(NodeId(0), NodeId(1)),
                NodePair::new(NodeId(0), NodeId(2)),
                NodePair::new(NodeId(1), NodeId(2)),
            ]
        );
    }

    #[test]
    fn down_events_precede_up_events_in_one_tick() {
        let mut tr = tracker();
        let mut out = Vec::new();
        tr.update(
            t(0.0),
            &[
                Point2::new(0.0, 0.0),
                Point2::new(50.0, 0.0),
                Point2::new(500.0, 500.0),
            ],
            &mut out,
        );
        out.clear();
        // Node 1 leaves node 0, node 2 arrives at node 0.
        tr.update(
            t(1.0),
            &[
                Point2::new(0.0, 0.0),
                Point2::new(400.0, 0.0),
                Point2::new(60.0, 0.0),
            ],
            &mut out,
        );
        assert!(matches!(out[0], ContactEvent::Down { .. }));
        assert!(matches!(out[1], ContactEvent::Up { .. }));
    }

    #[test]
    fn close_all_emits_downs() {
        let mut tr = tracker();
        let mut out = Vec::new();
        tr.update(
            t(0.0),
            &[Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)],
            &mut out,
        );
        out.clear();
        tr.close_all(t(9.0), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], ContactEvent::Down { time, .. } if time == t(9.0)));
        assert_eq!(tr.contact_count(), 0);
    }

    #[test]
    fn drop_node_forces_its_contacts_down() {
        let mut tr = tracker();
        let mut out = Vec::new();
        // Triangle: 0-1, 0-2, 1-2 all in range.
        tr.update(
            t(0.0),
            &[
                Point2::new(0.0, 0.0),
                Point2::new(50.0, 0.0),
                Point2::new(100.0, 0.0),
            ],
            &mut out,
        );
        assert_eq!(tr.contact_count(), 3);
        out.clear();

        // Node 1's radio dies: (0,1) and (1,2) go down, (0,2) survives.
        tr.drop_node(NodeId(1), t(5.0), &mut out);
        assert_eq!(
            out,
            vec![
                ContactEvent::Down {
                    pair: NodePair::new(NodeId(0), NodeId(1)),
                    time: t(5.0)
                },
                ContactEvent::Down {
                    pair: NodePair::new(NodeId(1), NodeId(2)),
                    time: t(5.0)
                },
            ]
        );
        assert_eq!(tr.contact_count(), 1);
        assert!(tr.connected(NodePair::new(NodeId(0), NodeId(2))));

        // If the node is still in range at the next tick, the contacts
        // come back as fresh Up events.
        out.clear();
        tr.update(
            t(6.0),
            &[
                Point2::new(0.0, 0.0),
                Point2::new(50.0, 0.0),
                Point2::new(100.0, 0.0),
            ],
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|e| matches!(e, ContactEvent::Up { .. })));
        assert_eq!(tr.contact_count(), 3);
    }

    /// The straightforward O(N²) reference: every pair within `range`
    /// (inclusive boundary, exact Euclidean distance).
    fn naive_pairs(positions: &[Point2], range: f64) -> BTreeSet<NodePair> {
        let mut set = BTreeSet::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                let dx = positions[i].x - positions[j].x;
                let dy = positions[i].y - positions[j].y;
                if (dx * dx + dy * dy).sqrt() <= range {
                    set.insert(NodePair::new(NodeId(i as u32), NodeId(j as u32)));
                }
            }
        }
        set
    }

    #[test]
    fn grid_matches_naive_scan_at_exact_boundary_and_out_of_bounds() {
        // Hand-picked adversarial layout: pairs exactly at the range
        // boundary, positions far outside the configured playground
        // (real taxi traces exit the sampled window), and a cluster in
        // one grid cell.
        let positions = vec![
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 0.0),     // exactly at range from node 0
            Point2::new(100.0, 100.0),   // sqrt(2)*100 from node 0
            Point2::new(-250.0, -40.0),  // outside bounds (negative)
            Point2::new(-251.0, -40.0),  // near its out-of-bounds neighbour
            Point2::new(5000.0, 5000.0), // far outside on the other side
            Point2::new(5099.9, 5000.0), // just inside range of node 5
        ];
        let range = 100.0;
        let mut tr = ContactTracker::new(Rect::from_size(1000.0, 1000.0), range);
        let mut out = Vec::new();
        tr.update(t(0.0), &positions, &mut out);
        let grid_pairs: BTreeSet<NodePair> = tr.current_contacts().collect();
        assert_eq!(grid_pairs, naive_pairs(&positions, range));
        assert!(grid_pairs.contains(&NodePair::new(NodeId(0), NodeId(1))));
        assert!(grid_pairs.contains(&NodePair::new(NodeId(3), NodeId(4))));
        assert!(grid_pairs.contains(&NodePair::new(NodeId(5), NodeId(6))));
    }

    proptest::proptest! {
        /// Differential property: the grid-backed pair detection agrees
        /// exactly with the naive O(N²) scan over random positions and
        /// ranges — including positions outside the configured
        /// playground bounds and pairs at the exact range boundary
        /// (exercised by snapping some coordinates to a lattice whose
        /// pitch equals the range).
        #[test]
        fn prop_grid_pairs_match_naive_scan(
            raw in proptest::collection::vec((-500.0f64..1500.0, -500.0f64..1500.0, proptest::strategy::any::<bool>()), 2..40),
            range in 10.0f64..300.0,
            bounds_w in 100.0f64..1000.0,
            bounds_h in 100.0f64..1000.0,
        ) {
            // Snap flagged coordinates to multiples of the range so
            // exact-boundary pairs actually occur with non-negligible
            // probability.
            let positions: Vec<Point2> = raw
                .iter()
                .map(|&(x, y, snap)| {
                    if snap {
                        Point2::new((x / range).round() * range, (y / range).round() * range)
                    } else {
                        Point2::new(x, y)
                    }
                })
                .collect();
            let mut tr = ContactTracker::new(Rect::from_size(bounds_w, bounds_h), range);
            let mut out = Vec::new();
            tr.update(t(0.0), &positions, &mut out);
            let grid_pairs: BTreeSet<NodePair> = tr.current_contacts().collect();
            let expect = naive_pairs(&positions, range);
            proptest::prop_assert_eq!(grid_pairs, expect);
        }
    }

    #[test]
    fn pair_closing_from_beyond_the_skin_is_found() {
        // Two nodes 1.45 · range apart, outside the candidate reach,
        // close on each other at 0.14 · range per tick each. After one
        // tick neither has moved `skin / 2`, so the candidates stay.
        // After the second both have, and the pair is 0.89 · range
        // apart: that tick's rebuild must find it.
        let mut tr = tracker();
        let mut out = Vec::new();
        for tick in 0..4 {
            let x = 14.0 * tick as f64;
            let positions = [Point2::new(300.0 + x, 300.0), Point2::new(445.0 - x, 300.0)];
            tr.update(t(tick as f64), &positions, &mut out);
        }
        let pair = NodePair::new(NodeId(0), NodeId(1));
        assert_eq!(out, vec![ContactEvent::Up { pair, time: t(2.0) }]);
    }

    #[test]
    fn rebuilds_follow_the_fastest_node() {
        // The anchors equal this tick's positions exactly when this tick
        // rebuilt (every node moves every tick). With range 100 the
        // trigger is 20 m of displacement: at 2 m per tick (the paper's
        // RWP) that is every tenth tick; one taxi-fast node at 15 m per
        // tick forces every second tick, whatever the others do.
        let rebuild_ticks = |fast_step: f64| -> Vec<usize> {
            let mut tr = ContactTracker::new(Rect::from_size(4500.0, 3400.0), 100.0);
            let mut out = Vec::new();
            let mut ticks = Vec::new();
            for tick in 0..40 {
                let positions: Vec<Point2> = (0..50)
                    .map(|i| {
                        let step = if i == 0 { fast_step } else { 2.0 };
                        Point2::new(
                            100.0 + 80.0 * (i % 10) as f64 + step * tick as f64,
                            100.0 + 80.0 * (i / 10) as f64,
                        )
                    })
                    .collect();
                tr.update(t(tick as f64), &positions, &mut out);
                if tr.anchor == positions {
                    ticks.push(tick);
                }
            }
            ticks
        };
        assert_eq!(rebuild_ticks(2.0), vec![0, 10, 20, 30]);
        assert_eq!(rebuild_ticks(15.0), (0..40).step_by(2).collect::<Vec<_>>());
    }

    /// The reference tracker the Verlet list replaced: every tick, the
    /// full in-range set from [`naive_pairs`], diffed through ordered
    /// sets (Downs, then Ups, each in sorted-pair order).
    struct ReferenceTracker {
        range: f64,
        current: BTreeSet<NodePair>,
    }

    impl ReferenceTracker {
        fn update(&mut self, time: SimTime, positions: &[Point2], out: &mut Vec<ContactEvent>) {
            let fresh = naive_pairs(positions, self.range);
            for &pair in self.current.difference(&fresh) {
                out.push(ContactEvent::Down { pair, time });
            }
            for &pair in fresh.difference(&self.current) {
                out.push(ContactEvent::Up { pair, time });
            }
            self.current = fresh;
        }

        fn drop_node(&mut self, node: NodeId, time: SimTime, out: &mut Vec<ContactEvent>) {
            let doomed: Vec<NodePair> = self
                .current
                .iter()
                .copied()
                .filter(|p| p.lo() == node || p.hi() == node)
                .collect();
            for pair in doomed {
                self.current.remove(&pair);
                out.push(ContactEvent::Down { pair, time });
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig { cases: 1024, ..Default::default() })]
        /// Differential property over multi-tick random walks: the
        /// Verlet tracker emits exactly the reference's events on every
        /// tick. Each tick moves every node by a step below `skin / 2`
        /// or well above it, and may crash a node (`drop_node`, then
        /// parked at its far sentinel like a radio-off node), bring a
        /// parked node back, or drop a node that stays in place. Ranges
        /// are whole metres and lattice nodes sit on whole multiples of
        /// `range / 5`, so pairs exactly at range occur and both
        /// trackers judge them with exact arithmetic.
        #[test]
        fn prop_verlet_tracker_matches_reference_walk(
            raw in proptest::collection::vec((-2.0f64..12.0, -2.0f64..12.0, 0u32..4), 2..30),
            ticks in proptest::collection::vec((0u32..8, 0usize..1000), 1..40),
            range_fifths in 2u32..40,
            walk_seed in proptest::strategy::any::<u64>(),
            threads in 1usize..3,
        ) {
            use rand::{Rng, SeedableRng};
            let range = 5.0 * range_fifths as f64;
            let pitch = range / 5.0;
            let mut rng = rand::rngs::StdRng::seed_from_u64(walk_seed);
            // Coordinates come in units of the range, so the density of
            // near pairs does not depend on it; one node in four sits on
            // the lattice.
            let lattice: Vec<bool> = raw.iter().map(|&(_, _, kind)| kind == 0).collect();
            let mut walk: Vec<Point2> = raw
                .iter()
                .map(|&(x, y, kind)| {
                    if kind == 0 {
                        Point2::new((x * 5.0).round() * pitch, (y * 5.0).round() * pitch)
                    } else {
                        Point2::new(x * range, y * range)
                    }
                })
                .collect();
            let n = walk.len();
            let mut parked = vec![false; n];
            let pool = Pool::new(threads);
            let mut tracker = ContactTracker::new(Rect::from_size(10.0 * range, 10.0 * range), range);
            let mut reference = ReferenceTracker { range, current: BTreeSet::new() };
            for (tick, &(mode, pick)) in ticks.iter().enumerate() {
                let time = t(tick as f64);
                let node = pick % n;
                let (mut got, mut want) = (Vec::new(), Vec::new());
                // Modes 0-1: random small steps (free nodes under
                // 0.15 · range, below the 0.2 · range trigger; lattice
                // nodes one pitch, the trigger itself). 2-4: every free
                // node closes on node `node` by a small step, so pairs
                // converge at up to twice the per-node rate while
                // lattice nodes hold still. 5: large
                // steps. 6: crash a node. 7: revive a parked node, or
                // drop one in place.
                let target = walk[node];
                for (i, p) in walk.iter_mut().enumerate() {
                    let (dx, dy) = match (mode, lattice[i]) {
                        (2..=4, true) => (0.0, 0.0),
                        (2..=4, false) => {
                            let len = p.distance(target);
                            let f = if len > 0.0 { (0.14 * range).min(len) / len } else { 0.0 };
                            ((target.x - p.x) * f, (target.y - p.y) * f)
                        }
                        (5, true) => (
                            rng.gen_range(-7i32..=7) as f64 * pitch,
                            rng.gen_range(-7i32..=7) as f64 * pitch,
                        ),
                        (5, false) => (
                            rng.gen_range(-1.5 * range..1.5 * range),
                            rng.gen_range(-1.5 * range..1.5 * range),
                        ),
                        (_, true) => (rng.gen_range(-1i32..=1) as f64 * pitch, 0.0),
                        (_, false) => (
                            rng.gen_range(-0.1 * range..0.1 * range),
                            rng.gen_range(-0.1 * range..0.1 * range),
                        ),
                    };
                    *p = Point2::new(p.x + dx, p.y + dy);
                }
                match mode {
                    6 => {
                        tracker.drop_node(NodeId(node as u32), time, &mut got);
                        reference.drop_node(NodeId(node as u32), time, &mut want);
                        parked[node] = true;
                    }
                    7 if parked[node] => parked[node] = false,
                    7 => {
                        tracker.drop_node(NodeId(node as u32), time, &mut got);
                        reference.drop_node(NodeId(node as u32), time, &mut want);
                    }
                    _ => {}
                }
                let positions: Vec<Point2> = walk
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        if parked[i] {
                            Point2::new(-1.0e12 - i as f64 * 1.0e9, -1.0e12)
                        } else {
                            p
                        }
                    })
                    .collect();
                tracker.update_pooled(time, &positions, &mut got, Some(&pool));
                reference.update(time, &positions, &mut want);
                proptest::prop_assert!(got == want, "tick {tick}: got {got:?}, want {want:?}");
                let live: BTreeSet<NodePair> = tracker.current_contacts().collect();
                proptest::prop_assert_eq!(&live, &reference.current);
                for &pair in &reference.current {
                    proptest::prop_assert!(tracker.connected(pair));
                }
            }
        }
    }

    #[test]
    fn pooled_update_matches_serial_at_any_thread_count() {
        let positions = |tick: usize| -> Vec<Point2> {
            (0..120)
                .map(|i| {
                    Point2::new(
                        ((i * 53 + tick * 17) % 900) as f64,
                        ((i * 71 + tick * 29) % 900) as f64,
                    )
                })
                .collect()
        };
        let serial = {
            let mut tr = ContactTracker::new(Rect::from_size(900.0, 900.0), 80.0);
            let mut all = Vec::new();
            for tick in 0..40 {
                tr.update(t(tick as f64), &positions(tick), &mut all);
            }
            all
        };
        assert!(!serial.is_empty());
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let mut tr = ContactTracker::new(Rect::from_size(900.0, 900.0), 80.0);
            let mut all = Vec::new();
            for tick in 0..40 {
                tr.update_pooled(t(tick as f64), &positions(tick), &mut all, Some(&pool));
            }
            assert_eq!(all, serial, "threads={threads}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let positions = |tick: usize| -> Vec<Point2> {
            (0..20)
                .map(|i| {
                    Point2::new(
                        ((i * 37 + tick * 13) % 500) as f64,
                        ((i * 91 + tick * 7) % 500) as f64,
                    )
                })
                .collect()
        };
        let run = || {
            let mut tr = ContactTracker::new(Rect::from_size(500.0, 500.0), 80.0);
            let mut all = Vec::new();
            for tick in 0..50 {
                tr.update(t(tick as f64), &positions(tick), &mut all);
            }
            all
        };
        assert_eq!(run(), run());
    }
}
